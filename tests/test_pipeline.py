"""Tests for the shared localization and pull-stance stages."""

import numpy as np
import pytest

from graspnav.config import RunConfig
from graspnav.drawer import DrawerTarget
from graspnav.errors import LocalizationError, NoPoseError, StageError
from graspnav.pipeline import (EXIT_LOCALIZATION, EXIT_NAVIGATION,
                               STAGE_ERRORS, localize, plan_pull_stance)
from graspnav.scene import InstanceMask, PointCloudScene


def _scene(post_xy=(-1.5, -1.5)) -> PointCloudScene:
    """A 4 m floor (instance 1, code (0, 1)) and one thin post standing at
    `post_xy` (instance 0, code (1, 0))."""
    grid = np.linspace(-2.0, 2.0, 21)
    floor = np.array([(x, y, 0.0) for x in grid for y in grid])
    post = np.array([(*post_xy, z) for z in np.linspace(0.1, 0.9, 9)])
    points = np.vstack([floor, post])
    return PointCloudScene(points, None, [
        InstanceMask(0, "post", np.arange(len(floor), len(points)),
                     np.array([1.0, 0.0]), 1.0),
        InstanceMask(1, "floor", np.arange(len(floor)),
                     np.array([0.0, 1.0]), 1.0)], embedding_dim=2)


def _threshold(value: float) -> RunConfig:
    return RunConfig.from_dict({"grasp": {"min_similarity": value}})


class TestLocalize:
    QUERY = np.array([0.8, 0.6])     # similarity 0.8 to the post, 0.6 to the floor

    def test_returns_the_first_ranked_instance(self):
        counts = {}
        top = localize(_scene(), self.QUERY, _threshold(0.5), counts)
        assert top.instance_id == 0
        assert counts == {"similarity": 0.8}

    def test_below_threshold_is_a_low_similarity_stage_error(self):
        counts = {}
        with pytest.raises(LocalizationError) as info:
            localize(_scene(), self.QUERY, _threshold(0.9), counts)
        assert isinstance(info.value, StageError)
        assert info.value.reason == "low-similarity"
        assert str(info.value) == ("best similarity 0.800 is below the"
                                   " min_similarity threshold 0.9")
        assert STAGE_ERRORS[LocalizationError] == ("localization",
                                                   EXIT_LOCALIZATION)
        assert counts == {"similarity": 0.8}

    def test_similarity_equal_to_the_threshold_passes(self):
        assert localize(_scene(), self.QUERY, _threshold(0.8)).instance_id == 0


class TestPlanPullStance:
    @staticmethod
    def target(axis=(1.0, 0.0, 0.0)) -> DrawerTarget:
        """A handle at the origin whose pull stance, at the default 0.7 m
        standoff along a +x axis, is (0.7, 0)."""
        return DrawerTarget(handle_center=np.array([0.0, 0.0, 0.4]),
                            axis=np.asarray(axis), supporting_views=2,
                            plane_inliers=50, total_confidence=1.5)

    def test_clear_stance_returns_the_plan(self):
        counts = {}
        plan = plan_pull_stance(self.target(), _scene(), RunConfig(), counts)
        np.testing.assert_allclose(plan.body_pose.translation, [0.7, 0.0, 0.0])
        assert counts["body_position"] == pytest.approx([0.7, 0.0])
        assert counts["body_clearance"] >= RunConfig().nav.footprint_radius

    def test_vertical_axis_is_unpullable_and_counts_nothing(self):
        counts = {}
        with pytest.raises(NoPoseError) as info:
            plan_pull_stance(self.target(axis=(0.0, 0.0, 1.0)), _scene(),
                             RunConfig(), counts)
        assert info.value.reason == "axis-unpullable"
        assert counts == {}

    def test_stance_outside_the_scene_counts_only_the_position(self):
        config = RunConfig.from_dict({"drawer": {"standoff": 50.0}})
        counts = {}
        with pytest.raises(NoPoseError) as info:
            plan_pull_stance(self.target(), _scene(), config, counts)
        assert info.value.reason == "body-out-of-scene"
        assert list(counts) == ["body_position"]
        assert counts["body_position"] == pytest.approx([50.0, 0.0])

    def test_stance_on_an_obstacle_collides_and_counts_both(self):
        counts = {}
        with pytest.raises(NoPoseError) as info:
            plan_pull_stance(self.target(), _scene(post_xy=(0.7, 0.1)),
                             RunConfig(), counts)
        assert info.value.reason == "body-collides"
        assert STAGE_ERRORS[NoPoseError] == ("navigation", EXIT_NAVIGATION)
        assert list(counts) == ["body_position", "body_clearance"]
        assert counts["body_clearance"] == pytest.approx(0.1)
