"""Body sampling and validation tests.

Scenes are built from a floor grid plus small object clusters so the
floor-slab, bounds, and line-of-sight behaviors are all exercised. The
brute-force oracle recomputes obstacle distances by linear scan and
re-checks line of sight by dense segment sampling.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from graspnav import geometry
from graspnav.errors import ConfigError, DegenerateInputError, InstanceNotFoundError
from graspnav.geometry import PointIndex, _segment_clear
from graspnav.nav import (
    REASON_NO_LINE_OF_SIGHT,
    REASON_OUT_OF_SCENE,
    BodyCandidate,
    NavConfig,
    check_stance,
    sample_positions,
    validate_candidates,
)
from graspnav.scene import InstanceMask, PointCloudScene
from graspnav.sim import default_grasp_spec, derive_seed, generate_scene

from test_geometry import los_oracle


def post_scene(seed):
    """Floor, target at the origin, and random posts around it."""
    rng = np.random.default_rng(seed)
    posts = []
    for i in range(int(rng.integers(0, 7))):
        angle, radius = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.3, 1.6)
        height = rng.uniform(0.2, 1.2)
        posts.append(object_cluster([radius * math.cos(angle), radius * math.sin(angle),
                                     height / 2], n=30, scale=rng.uniform(0.02, 0.1),
                                    seed=seed * 10 + i))
    return simple_target_scene(extra_groups=posts)


def reference_validation(cands, scene, target, cfg):
    """(valid, reason, d_obstacles) per candidate from scalar nearest calls
    and the exact segment test, over indexes built here from raw points."""
    centroid = scene.centroid_of(target)
    non_target = np.delete(scene.points, scene.instance(target).point_indices, axis=0)
    above_slab = PointIndex(non_target[non_target[:, 2] >= scene.bounds[0][2] + cfg.floor_slab])
    if cfg.los_target_exclusion > 0.0:
        non_target = non_target[np.linalg.norm(non_target - centroid, axis=1)
                                > cfg.los_target_exclusion]
    sight = PointIndex(non_target)
    lo = scene.bounds[0][:2] + cfg.footprint_radius
    hi = scene.bounds[1][:2] - cfg.footprint_radius
    out = []
    for cand in cands:
        standing = [*cand.position, cfg.standing_height]
        d_obs = (above_slab.nearest(standing)[0] if len(above_slab)
                 else float(np.linalg.norm(scene.bounds[1] - scene.bounds[0])))
        if (not (np.all(cand.position >= lo) and np.all(cand.position <= hi))
                or d_obs < cfg.footprint_radius):
            out.append((False, REASON_OUT_OF_SCENE, None))
        elif not _segment_clear(cand.camera_point, centroid, sight, cfg.los_clearance):
            out.append((False, REASON_NO_LINE_OF_SIGHT, None))
        else:
            out.append((True, None, d_obs))
    return out


def floor_grid(extent=2.0, spacing=0.1):
    xs = np.arange(-extent, extent + spacing / 2, spacing)
    gx, gy = np.meshgrid(xs, xs)
    return np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)


def object_cluster(center, n=40, scale=0.04, seed=0):
    rng = np.random.default_rng(seed)
    return np.asarray(center) + rng.uniform(-scale, scale, size=(n, 3))


def build_scene(*point_groups, instances):
    """point_groups are stacked in order; instances reference them by slices."""
    pts = np.vstack(point_groups)
    masks = [InstanceMask(id=i, label=lab, point_indices=np.asarray(idx, dtype=np.int64),
                          embedding=None, confidence=1.0)
             for i, lab, idx in instances]
    return PointCloudScene(points=pts, colors=None, instances=masks, embedding_dim=4)


def simple_target_scene(extra_groups=(), extra_instances=()):
    """Floor plus a target object sitting on it at the origin."""
    floor = floor_grid()
    target = object_cluster([0.0, 0.0, 0.05])
    groups = [floor, target, *extra_groups]
    offset = len(floor)
    instances = [(0, "target", list(range(offset, offset + len(target))))]
    instances += list(extra_instances)
    return build_scene(*groups, instances=instances)


class TestNavConfig:
    def test_defaults_valid(self):
        cfg = NavConfig()
        assert cfg.radii == (0.7, 0.9, 1.1)
        assert cfg.lambda_item == 0.5

    def test_rejects_descending_radii(self):
        with pytest.raises(ConfigError):
            NavConfig(radii=(1.1, 0.7))

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ConfigError):
            NavConfig(angular_step=0.0)
        with pytest.raises(ConfigError):
            NavConfig(angular_step=3.5)

    def test_dict_round_trip(self):
        cfg = NavConfig(radii=(0.5, 1.0), lambda_item=0.25)
        again = NavConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="walk_speed"):
            NavConfig.from_dict({"walk_speed": 2.0})


class TestSamplePositions:
    def test_four_cardinal_candidates(self):
        cfg = NavConfig(radii=(1.0,), angular_step=math.pi / 2)
        target = np.array([2.0, -1.0, 0.3])
        cands = sample_positions(target, cfg)
        assert len(cands) == 4
        for cand in cands:
            d = math.hypot(cand.position[0] - 2.0, cand.position[1] + 1.0)
            assert d == pytest.approx(1.0, abs=1e-12)
            # yaw points back at the target's ground projection
            to_target = math.atan2(-1.0 - cand.position[1], 2.0 - cand.position[0])
            assert cand.yaw == pytest.approx(to_target, abs=1e-12)

    def test_count_formula(self):
        cfg = NavConfig(radii=(0.8, 1.2), angular_step=math.pi / 8)
        assert len(sample_positions(np.zeros(3), cfg)) == 32

    def test_default_count(self):
        assert len(sample_positions(np.zeros(3), NavConfig())) == 3 * 36

    def test_ground_distance_equals_ring_radius(self):
        cfg = NavConfig(radii=(0.7, 0.9, 1.1), angular_step=2 * math.pi / 5)
        target = np.array([0.4, 0.2, 1.0])
        cands = sample_positions(target, cfg)
        radii = sorted({round(math.hypot(c.position[0] - 0.4, c.position[1] - 0.2), 9)
                        for c in cands})
        assert radii == [0.7, 0.9, 1.1]


class TestCheckStance:
    CFG = NavConfig()

    def test_shrunk_bounds_are_closed(self):
        scene = simple_target_scene()
        lo = scene.bounds[0][:2] + self.CFG.footprint_radius
        hi = scene.bounds[1][:2] - self.CFG.footprint_radius
        for axis in (0, 1):
            for edge, outward in ((lo[axis], -math.inf), (hi[axis], math.inf)):
                on, past = np.zeros(2), np.zeros(2)
                on[axis], past[axis] = edge, np.nextafter(edge, outward)
                inside, _, _ = check_stance(scene, np.stack([on, past]), 0, self.CFG)
                assert inside.tolist() == [True, False], (axis, edge)

    def test_every_obstacle_excluded_gives_the_scene_diagonal(self):
        # only the target stands above the floor slab, and it is excluded
        scene = simple_target_scene()
        inside, clear, clearance = check_stance(
            scene, np.array([[1.0, 0.0], [5.0, 0.0]]), 0, self.CFG)
        diagonal = float(np.linalg.norm(scene.bounds[1] - scene.bounds[0]))
        assert clearance.tolist() == [diagonal, diagonal]
        assert inside.tolist() == [True, False] and clear.tolist() == [True, True]

    def test_non_finite_position_is_degenerate(self):
        scene = simple_target_scene()
        for bad in ([math.nan, 0.0], [0.0, math.inf], [-math.inf, math.nan]):
            positions = np.array([[1.0, 0.0], bad, [bad[1], bad[0]]])
            with pytest.raises(DegenerateInputError, match="stance position 1 "):
                check_stance(scene, positions, 0, self.CFG)
            cands = [BodyCandidate(position=p, yaw=0.0, camera_height=0.8)
                     for p in positions]
            with pytest.raises(DegenerateInputError, match="stance position 1 "):
                validate_candidates(cands, scene, 0, self.CFG)


class TestValidateCandidates:
    CFG = NavConfig()

    def test_open_floor_candidate_valid(self):
        scene = simple_target_scene()
        cand = BodyCandidate(position=np.array([1.0, 0.0]), yaw=math.pi,
                             camera_height=self.CFG.camera_height)
        out = validate_candidates([cand], scene, 0, self.CFG)
        assert out[0].valid
        assert out[0].reason is None
        assert out[0].d_item == pytest.approx(1.0, abs=0.05)
        assert out[0].s_body == out[0].d_obstacles - 0.5 * out[0].d_item

    def test_outside_bounds_is_out_of_scene(self):
        scene = simple_target_scene()
        cand = BodyCandidate(position=np.array([1.9, 0.0]), yaw=math.pi,
                             camera_height=0.8)
        out = validate_candidates([cand], scene, 0, self.CFG)
        assert not out[0].valid
        assert out[0].reason == REASON_OUT_OF_SCENE

    def test_obstacle_crowding_is_out_of_scene(self):
        # a tall post 0.2 m from the candidate violates the footprint radius
        post = object_cluster([1.0, 0.2, 0.5], n=30, scale=0.02, seed=3)
        scene = simple_target_scene(extra_groups=(post,))
        cand = BodyCandidate(position=np.array([1.0, 0.0]), yaw=math.pi,
                             camera_height=0.8)
        out = validate_candidates([cand], scene, 0, self.CFG)
        assert not out[0].valid
        assert out[0].reason == REASON_OUT_OF_SCENE

    def test_wall_blocks_line_of_sight(self):
        ys = np.arange(-0.5, 0.5, 0.05)
        zs = np.arange(0.0, 0.85, 0.05)
        gy, gz = np.meshgrid(ys, zs)
        wall = np.stack([np.full(gy.size, 0.5), gy.ravel(), gz.ravel()], axis=1)
        scene = simple_target_scene(extra_groups=(wall,))
        cand = BodyCandidate(position=np.array([1.0, 0.0]), yaw=math.pi,
                             camera_height=0.8)
        out = validate_candidates([cand], scene, 0, self.CFG)
        assert not out[0].valid
        assert out[0].reason == REASON_NO_LINE_OF_SIGHT

    def test_unknown_instance(self):
        scene = simple_target_scene()
        with pytest.raises(InstanceNotFoundError):
            validate_candidates([], scene, 42, self.CFG)

    def test_scores_match_brute_force(self):
        post = object_cluster([0.6, 0.9, 0.4], n=25, scale=0.03, seed=5)
        scene = simple_target_scene(extra_groups=(post,))
        cfg = self.CFG
        cands = sample_positions(scene.centroid_of(0), cfg)
        out = validate_candidates(cands, scene, 0, cfg)
        centroid = scene.centroid_of(0)
        target_idx = set(scene.instance(0).point_indices.tolist())
        non_target = np.array([p for i, p in enumerate(scene.points)
                               if i not in target_idx])
        above_slab = non_target[non_target[:, 2] >= scene.bounds[0][2] + cfg.floor_slab]
        assert any(c.valid for c in out)
        for cand in out:
            if not cand.valid:
                continue
            standing = [*cand.position, cfg.standing_height]
            d_obs = float(np.min(np.linalg.norm(above_slab - standing, axis=1)))
            d_item = float(np.hypot(cand.position[0] - centroid[0],
                                    cand.position[1] - centroid[1]))
            assert cand.d_obstacles == pytest.approx(d_obs, abs=1e-9)
            assert cand.d_item == pytest.approx(d_item, abs=1e-12)
            assert cand.s_body == cand.d_obstacles - cfg.lambda_item * cand.d_item
            # valid candidates survive the dense line-of-sight oracle
            assert los_oracle(cand.camera_point, centroid, non_target,
                              cfg.los_clearance, cfg.los_target_exclusion)

    def test_every_candidate_matches_scalar_reference(self, monkeypatch):
        builds = []
        init = PointIndex.__init__

        def counted(index, points):
            builds.append(len(points))
            init(index, points)
        checks = []

        def exact(*args):
            checks.append(args)
            return _segment_clear(*args)
        configs = [self.CFG, NavConfig(radii=(0.4, 0.6, 0.8, 1.0, 1.2), los_clearance=0.05),
                   NavConfig(los_target_exclusion=0.0, footprint_radius=0.2,
                             los_clearance=0.03)]
        reasons = set()
        segments = fallbacks = 0
        for seed in range(12):
            cfg = configs[seed % 3]
            scene = post_scene(seed)
            cands = sample_positions(scene.centroid_of(0), cfg)
            with monkeypatch.context() as patch:
                patch.setattr(PointIndex, "__init__", counted)
                patch.setattr(geometry, "_segment_clear", exact)
                out = validate_candidates(cands, scene, 0, cfg)
            assert len(builds) == 2, "one clearance and one line-of-sight kd-tree"
            builds.clear()
            want = reference_validation(cands, scene, 0, cfg)
            for cand, (valid, reason, d_obs) in zip(out, want):
                assert (cand.valid, cand.reason, cand.d_obstacles) == (valid, reason, d_obs)
                assert type(cand.d_obstacles) is (float if valid else type(None))
            reasons.update(reason for _, reason, _ in want)
            if cfg.los_target_exclusion > 0.0:
                segments += sum(reason != REASON_OUT_OF_SCENE for _, reason, _ in want)
                fallbacks += len(checks)
            checks.clear()
        assert reasons == {None, REASON_OUT_OF_SCENE, REASON_NO_LINE_OF_SIGHT}
        # with the target's surroundings excluded, the sampled bounds decide
        # almost every segment without the exact test
        assert fallbacks < 0.1 * segments

    def test_order_independent(self):
        scene = simple_target_scene()
        cfg = self.CFG
        cands = sample_positions(scene.centroid_of(0), cfg)
        forward = validate_candidates(cands, scene, 0, cfg)
        backward = validate_candidates(list(reversed(cands)), scene, 0, cfg)
        for a, b in zip(forward, reversed(backward)):
            assert a.valid == b.valid and a.reason == b.reason
            assert a.s_body == b.s_body

    def test_monotone_score_structure(self):
        # recomputation property: s_body moves the right way in each argument
        cfg = self.CFG
        d_obs, d_item = 0.8, 1.2
        s = d_obs - cfg.lambda_item * d_item
        assert d_obs - cfg.lambda_item * (d_item + 0.1) < s
        assert (d_obs + 0.1) - cfg.lambda_item * d_item > s


def edge_scene(seed):
    """Floor, a target within one footprint of the floor's +x edge, and
    random posts around the target."""
    rng = np.random.default_rng(seed)
    floor = floor_grid()
    tx, ty = 2.0 - rng.uniform(0.0, 0.35), rng.uniform(-1.5, 1.5)
    target = object_cluster([tx, ty, 0.05], seed=seed)
    groups = [floor, target]
    for i in range(int(rng.integers(1, 6))):
        angle, radius = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.3, 1.2)
        groups.append(object_cluster([tx + radius * math.cos(angle),
                                      ty + radius * math.sin(angle), rng.uniform(0.1, 0.6)],
                                     n=60, scale=0.1, seed=seed * 10 + i))
    return build_scene(*groups, instances=[(0, "target", range(len(floor),
                                                               len(floor) + len(target)))])


def canopy_scene(seed):
    """Floor, target at the origin, and sparse points near camera height,
    which block a camera point they pass within clearance of."""
    rng = np.random.default_rng(seed)
    angle, radius = rng.uniform(0.0, 2.0 * math.pi, 150), rng.uniform(0.3, 1.9, 150)
    canopy = np.column_stack([radius * np.cos(angle), radius * np.sin(angle),
                              rng.uniform(0.75, 1.0, 150)])
    return simple_target_scene(extra_groups=(canopy,))


def low_scene(seed):
    """Floor, a flat target whose centroid sits below every config's
    `los_clearance`, low clutter and random posts around it."""
    rng = np.random.default_rng(seed)
    floor = floor_grid()
    target = object_cluster([0.0, 0.0, 0.012], n=60, scale=0.01, seed=seed)
    angle, radius = rng.uniform(0.0, 2.0 * math.pi, 80), rng.uniform(0.3, 1.5, 80)
    clutter = np.column_stack([radius * np.cos(angle), radius * np.sin(angle),
                               rng.uniform(0.02, 0.08, 80)])
    posts = [object_cluster([r * math.cos(a), r * math.sin(a), rng.uniform(0.1, 0.6)],
                            n=40, scale=0.08, seed=seed * 10 + i)
             for i, (a, r) in enumerate(zip(rng.uniform(0.0, 2.0 * math.pi, 3),
                                            rng.uniform(0.4, 1.3, 3)))]
    return build_scene(floor, target, clutter, *posts,
                       instances=[(0, "target", range(len(floor), len(floor) + len(target)))])


class TestSightIndexCrop:
    """validate_candidates builds its sight index from the sight fan of the
    checked segments only; every result equals the full index's."""

    CONFIGS = [NavConfig(),
               NavConfig(los_target_exclusion=0.0, footprint_radius=0.2, los_clearance=0.03),
               NavConfig(radii=tuple(0.3 + 0.1 * i for i in range(16)), los_clearance=0.2)]

    def test_cropped_and_uncropped_indexes_agree(self, monkeypatch):
        full_index = PointCloudScene.obstacle_index

        def uncropped(scene, exclude_instance=None, min_z=None, target_exclusion=0.0,
                      sight_starts=None, sight_clearance=0.0):
            return full_index(scene, exclude_instance, min_z, target_exclusion)
        builds = []
        init = PointIndex.__init__

        def counted(index, points):
            builds.append(len(points))
            init(index, points)
        monkeypatch.setattr(PointIndex, "__init__", counted)
        reasons = {i: set() for i in range(len(self.CONFIGS))}
        cropped_sizes, full_sizes = [], []  # points indexed per validation
        for seed in range(36):
            cfg = self.CONFIGS[seed % 3]
            make = (post_scene, edge_scene, canopy_scene, low_scene)[seed // 3 % 4]
            if make is low_scene:
                assert make(seed).centroid_of(0)[2] < cfg.los_clearance
            cands = sample_positions(make(seed).centroid_of(0), cfg)
            cropped = validate_candidates(cands, make(seed), 0, cfg)
            assert len(builds) == 2, "one clearance and one line-of-sight kd-tree"
            cropped_sizes.append(sum(builds))
            builds.clear()
            with monkeypatch.context() as patch:
                patch.setattr(PointCloudScene, "obstacle_index", uncropped)
                full = validate_candidates(cands, make(seed), 0, cfg)
            full_sizes.append(sum(builds))
            builds.clear()
            for a, b in zip(cropped, full, strict=True):
                assert (a.valid, a.reason, a.d_obstacles, a.d_item, a.s_body) == \
                    (b.valid, b.reason, b.d_obstacles, b.d_item, b.s_body)
            reasons[seed % 3].update(c.reason for c in full)
        for seen in reasons.values():
            assert seen == {None, REASON_OUT_OF_SCENE, REASON_NO_LINE_OF_SIGHT}
        assert all(c <= f for c, f in zip(cropped_sizes, full_sizes))
        assert sum(cropped_sizes) < 0.9 * sum(full_sizes)

    def test_grasp_scenes_index_under_one_percent_of_their_points(self, monkeypatch):
        # what the fan saves: with the default config the segments clear the
        # floor and the furniture, so almost no point can decide a flag
        full_index = PointCloudScene.obstacle_index
        sizes = []

        def recorded(scene, *args, **kwargs):
            index = full_index(scene, *args, **kwargs)
            if kwargs.get("sight_starts") is not None:
                sizes.append(len(index))
            return index
        monkeypatch.setattr(PointCloudScene, "obstacle_index", recorded)
        cfg = NavConfig()
        for seed in (5, 11):
            synth = generate_scene(default_grasp_spec(), derive_seed(seed, 0, 0))
            for obj in synth.objects:
                centroid = synth.scene.centroid_of(obj.instance_id)
                validate_candidates(sample_positions(centroid, cfg), synth.scene,
                                    obj.instance_id, cfg)
                assert len(sizes) == 1
                assert sizes.pop() < 0.01 * len(synth.scene.points)

    def test_far_points_validate_without_a_warning(self):
        # a coordinate of 1e200 squares to inf in the crop: dropped, no warning
        far = np.array([[1e200, 0.0, 0.5], [0.0, -1e200, 0.5], [1e200, 1e200, 1e200]])
        cfg = self.CONFIGS[0]
        for seed in range(6):
            base = post_scene(seed)
            scene = PointCloudScene(points=np.vstack([base.points, far]), colors=None,
                                    instances=base.instances, embedding_dim=4)
            cands = sample_positions(base.centroid_of(0), cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = validate_candidates(cands, scene, 0, cfg)
            want = validate_candidates(cands, base, 0, cfg)
            assert ([(c.valid, c.reason, c.d_obstacles) for c in got]
                    == [(c.valid, c.reason, c.d_obstacles) for c in want])
