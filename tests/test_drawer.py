"""Drawer perception tests.

Matching is checked against a brute-force enumeration of all injective
handle-to-drawer assignments; axis estimation against depth images
synthesized from a known plane equation.
"""

import itertools
import json
import math
import re

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from graspnav import drawer
from graspnav.drawer import (Detection2D, DetectionFrame, DrawerConfig,
                             DrawerTarget, MatchedPair, ViewTarget,
                             assignment_costs, estimate_axis, fuse_views,
                             handle_center_3d, ioa, load_detection_frame,
                             match_handles_to_drawers, plan_pull,
                             refine_target, solve_assignment, view_target,
                             write_detection_frame)
from graspnav.errors import (ConfigError, DegenerateBBoxError,
                             DegenerateInputError, FileFormatError,
                             InvalidAxisError, MissingDepthError)
from graspnav.geometry import BBox2D, CameraIntrinsics, Pose, RansacParams

INTR = CameraIntrinsics(fx=60.0, fy=60.0, cx=31.5, cy=23.5, width=64, height=48)


def det(cls, box, conf=1.0):
    return Detection2D(class_label=cls, bbox=BBox2D(*box), confidence=conf)


def plane_depth(intrinsics, normal, offset):
    """Depth image of the plane normal . p = offset seen by an identity camera."""
    us, vs = np.meshgrid(np.arange(intrinsics.width), np.arange(intrinsics.height))
    dx = (us - intrinsics.cx) / intrinsics.fx
    dy = (vs - intrinsics.cy) / intrinsics.fy
    denom = normal[0] * dx + normal[1] * dy + normal[2]
    with np.errstate(divide="ignore"):
        t = offset / denom
    t[~np.isfinite(t)] = 0.0
    t[t < 0] = 0.0
    return t


def frame_with_plane(normal=(0.0, 0.0, 1.0), offset=2.0, detections=()):
    normal = np.asarray(normal, dtype=np.float64)
    normal = normal / np.linalg.norm(normal)
    depth = plane_depth(INTR, normal, offset)
    return DetectionFrame(intrinsics=INTR, cam_pose=Pose.identity(),
                          depth=depth, detections=list(detections))


def brute_force_min_total(costs):
    """Minimum total over all maximal injective row-column assignments."""
    n, m = costs.shape
    best = None
    if n <= m:
        for cols in itertools.permutations(range(m), n):
            total = 0.0
            for i in range(n):
                total += costs[i, cols[i]]
            best = total if best is None or total < best else best
    else:
        for rows in itertools.permutations(range(n), m):
            total = 0.0
            for i, j in sorted((rows[j], j) for j in range(m)):
                total += costs[i, j]
            best = total if best is None or total < best else best
    return best


class TestIoa:
    def test_full_containment(self):
        assert ioa(BBox2D(2, 2, 4, 4), BBox2D(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert ioa(BBox2D(0, 0, 4, 4), BBox2D(5, 5, 10, 10)) == 0.0

    def test_half_overlap(self):
        assert ioa(BBox2D(0, 0, 10, 10), BBox2D(5, 0, 20, 10)) == 0.5

    def test_not_symmetric(self):
        # normalized by the handle area, not the union
        small, big = BBox2D(0, 0, 2, 2), BBox2D(0, 0, 8, 8)
        assert ioa(small, big) == 1.0
        assert ioa(big, small) == pytest.approx(4.0 / 64.0, abs=1e-15)

    def test_zero_area_handle_rejected(self):
        with pytest.raises(DegenerateBBoxError):
            ioa(BBox2D(5, 5, 5, 10), BBox2D(0, 0, 10, 10))


class TestMatching:
    def test_single_pair_cost(self):
        handles = [det("handle", (2, 2, 4, 4))]
        drawers = [det("drawer", (0, 0, 10, 10), conf=0.9)]
        pairs = match_handles_to_drawers(handles, drawers)
        assert len(pairs) == 1
        assert pairs[0].handle_index == 0 and pairs[0].drawer_index == 0
        assert pairs[0].ioa == 1.0
        assert pairs[0].cost == pytest.approx(-10.9, abs=1e-12)

    def test_prefers_higher_confidence_on_equal_overlap(self):
        handles = [det("handle", (2, 2, 4, 4))]
        drawers = [det("drawer", (0, 0, 10, 10), conf=0.6),
                   det("drawer", (1, 1, 9, 9), conf=0.9)]
        pairs = match_handles_to_drawers(handles, drawers)
        assert [(p.handle_index, p.drawer_index) for p in pairs] == [(0, 1)]

    def test_weak_overlap_dropped(self):
        handles = [det("handle", (0, 0, 10, 10))]
        drawers = [det("drawer", (6, 0, 20, 10), conf=0.9)]  # ioa 0.4
        assert match_handles_to_drawers(handles, drawers) == []

    def test_boundary_overlap_kept(self):
        handles = [det("handle", (0, 0, 10, 10))]
        drawers = [det("drawer", (5, 0, 20, 10), conf=0.9)]  # ioa 0.5
        pairs = match_handles_to_drawers(handles, drawers)
        assert len(pairs) == 1 and pairs[0].ioa == 0.5

    def test_empty_inputs(self):
        assert match_handles_to_drawers([], []) == []
        assert match_handles_to_drawers([det("handle", (0, 0, 1, 1))], []) == []
        assert match_handles_to_drawers([], [det("drawer", (0, 0, 1, 1))]) == []

    def test_surplus_handles(self):
        handles = [det("handle", (0, 0, 2, 2)),
                   det("handle", (20, 20, 22, 22)),
                   det("handle", (40, 0, 42, 2))]
        drawers = [det("drawer", (18, 18, 30, 30), conf=0.8)]
        pairs = match_handles_to_drawers(handles, drawers)
        assert [(p.handle_index, p.drawer_index) for p in pairs] == [(1, 0)]

    def test_two_by_two_distinct(self):
        handles = [det("handle", (1, 1, 3, 3)), det("handle", (11, 1, 13, 3))]
        drawers = [det("drawer", (0, 0, 8, 8), conf=0.7),
                   det("drawer", (10, 0, 18, 8), conf=0.7)]
        pairs = match_handles_to_drawers(handles, drawers)
        assert [(p.handle_index, p.drawer_index) for p in pairs] == [(0, 0), (1, 1)]

    def test_output_ordered_by_handle_index(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, m = rng.integers(1, 6, size=2)
            handles = [det("handle", sorted_box(rng)) for _ in range(n)]
            drawers = [det("drawer", sorted_box(rng), conf=float(rng.uniform()))
                       for _ in range(m)]
            pairs = match_handles_to_drawers(handles, drawers, ioa_min=0.0)
            idx = [p.handle_index for p in pairs]
            assert idx == sorted(idx)

    def test_matches_brute_force_totals(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            handles = [det("handle", sorted_box(rng)) for _ in range(n)]
            drawers = [det("drawer", sorted_box(rng), conf=float(rng.uniform()))
                       for _ in range(m)]
            costs = assignment_costs(handles, drawers)
            pairs = solve_assignment(costs)
            total = 0.0
            for i, j in pairs:
                total += costs[i, j]
            assert total == brute_force_min_total(costs)


def _lsap_matrices(rng):
    """Seeded square cost matrices of the kinds the matcher can meet, and worse."""
    for size in range(1, 13):
        for _ in range(25):
            yield rng.normal(size=(size, size))
            yield rng.integers(0, 3, size=(size, size)).astype(float)  # ties
            # inexact tenths: rounding of each reduced cost decides the ties
            yield rng.integers(0, 10, size=(size, size)) / 10.0
            yield np.full((size, size), float(rng.integers(-2, 3)))
            padded = np.full((size, size), drawer.UNMATCHED_COST)
            h, d = rng.integers(0, size + 1, size=2)
            padded[:h, :d] = -(10.0 * rng.uniform(size=(h, d)) + rng.uniform(size=d))
            yield padded
            yield rng.normal(size=(size, size)) * 1e6
            holed = rng.integers(0, 3, size=(size, size)).astype(float)
            holed[rng.uniform(size=(size, size)) < 0.3] = math.inf
            yield holed
    yield rng.normal(size=(64, 64))
    yield rng.integers(0, 3, size=(64, 64)).astype(float)


def _lsap_outcome(solve, cost):
    try:
        return [int(c) for c in solve(cost)]
    except ValueError as exc:
        return str(exc)


class TestMinCostColumns:
    """The in-tree solver picks scipy's columns, ties and errors included."""

    def test_equals_scipy_on_seeded_matrices(self):
        rng = np.random.default_rng(23)
        raised = 0
        for cost in _lsap_matrices(rng):
            expected = _lsap_outcome(lambda c: linear_sum_assignment(c)[1], cost)
            assert _lsap_outcome(drawer._min_cost_columns, cost) == expected, cost
            raised += isinstance(expected, str)
        assert raised > 0  # some +inf-holed matrices are infeasible

    @pytest.mark.parametrize("entry", [math.nan, -math.inf])
    def test_invalid_entry_raises_like_scipy(self, entry):
        cost = np.arange(9.0).reshape(3, 3)
        cost[1, 2] = entry
        with pytest.raises(ValueError, match="matrix contains invalid numeric entries"):
            linear_sum_assignment(cost)
        with pytest.raises(ValueError, match="matrix contains invalid numeric entries"):
            drawer._min_cost_columns(cost)

    def test_infeasible_raises_like_scipy(self):
        cost = np.array([[1.0, math.inf], [2.0, math.inf]])
        with pytest.raises(ValueError, match="cost matrix is infeasible"):
            linear_sum_assignment(cost)
        with pytest.raises(ValueError, match="cost matrix is infeasible"):
            drawer._min_cost_columns(cost)


def sorted_box(rng, lo=0.0, hi=60.0):
    x = np.sort(rng.uniform(lo, hi, size=2))
    y = np.sort(rng.uniform(lo, hi, size=2))
    # keep boxes non-degenerate
    return (x[0], y[0], x[1] + 1.0, y[1] + 1.0)


class TestHandleCenter:
    def make_pair(self, handle_box, drawer_box=(0, 0, 63, 47), conf=0.9):
        h = det("handle", handle_box)
        d = det("drawer", drawer_box, conf=conf)
        return MatchedPair(handle=h, drawer=d, handle_index=0, drawer_index=0,
                           ioa=1.0, cost=-10.9)

    def test_center_on_principal_ray(self):
        frame = frame_with_plane(offset=2.0)
        pair = self.make_pair((INTR.cx - 2, INTR.cy - 2, INTR.cx + 2, INTR.cy + 2))
        center = handle_center_3d(pair, frame)
        assert np.allclose(center, [0.0, 0.0, 2.0], atol=1e-9)

    def test_median_ignores_dropout(self):
        frame = frame_with_plane(offset=2.0)
        frame.depth[22:25, 30:33] = 0.0
        pair = self.make_pair((29.5, 21.5, 33.5, 25.5))
        center = handle_center_3d(pair, frame)
        assert center[2] == pytest.approx(2.0, abs=1e-9)

    def test_median_resists_outliers(self):
        frame = frame_with_plane(offset=2.0)
        frame.depth[22, 30] = 5.0
        frame.depth[23, 30] = 5.0
        pair = self.make_pair((29.5, 21.5, 33.5, 25.5))
        center = handle_center_3d(pair, frame)
        assert center[2] == pytest.approx(2.0, abs=1e-9)

    def test_no_depth_in_box(self):
        frame = frame_with_plane(offset=2.0)
        frame.depth[20:28, 28:36] = 0.0
        pair = self.make_pair((29.5, 21.5, 33.5, 25.5))
        with pytest.raises(MissingDepthError):
            handle_center_3d(pair, frame)

    def test_box_outside_image(self):
        frame = frame_with_plane(offset=2.0)
        pair = self.make_pair((100, 100, 110, 110))
        with pytest.raises(MissingDepthError):
            handle_center_3d(pair, frame)


class TestEstimateAxis:
    def make_pair(self, handle_box, drawer_box):
        return MatchedPair(handle=det("handle", handle_box),
                           drawer=det("drawer", drawer_box, conf=0.9),
                           handle_index=0, drawer_index=0, ioa=1.0, cost=-10.9)

    def test_frontal_plane_axis_points_at_camera(self):
        frame = frame_with_plane(normal=(0, 0, 1), offset=2.0)
        pair = self.make_pair((28, 20, 36, 28), (10, 8, 54, 40))
        axis, inliers = estimate_axis(pair, frame)
        assert np.allclose(axis, [0.0, 0.0, -1.0], atol=1e-6)
        assert inliers > 1000

    def test_tilted_plane_recovered(self):
        n = np.array([0.3, -0.1, 0.9])
        n = n / np.linalg.norm(n)
        frame = frame_with_plane(normal=n, offset=1.5)
        pair = self.make_pair((28, 20, 36, 28), (10, 8, 54, 40))
        axis, _ = estimate_axis(pair, frame)
        assert np.allclose(axis, -n, atol=1e-6)

    def test_handle_region_is_ignored(self):
        frame_clean = frame_with_plane(offset=2.0)
        frame_bent = frame_with_plane(offset=2.0)
        # corrupt depth only inside the handle box: protruding handle + holes
        frame_bent.depth[21:28, 29:36] = 1.7
        frame_bent.depth[23, 31] = 0.0
        pair = self.make_pair((29, 21, 35, 27), (10, 8, 54, 40))
        a_clean, n_clean = estimate_axis(pair, frame_clean)
        a_bent, n_bent = estimate_axis(pair, frame_bent)
        assert np.array_equal(a_clean, a_bent)
        assert n_clean == n_bent

    def test_too_few_points(self):
        frame = frame_with_plane(offset=2.0)
        frame.depth[:, :] = 0.0
        frame.depth[24, 30] = 2.0
        frame.depth[24, 31] = 2.0
        pair = self.make_pair((50, 40, 54, 44), (28, 22, 36, 28))
        with pytest.raises(DegenerateInputError):
            estimate_axis(pair, frame)

    def test_drawer_box_outside_image(self):
        frame = frame_with_plane(offset=2.0)
        pair = self.make_pair((100, 100, 104, 104), (98, 98, 110, 110))
        with pytest.raises(DegenerateInputError):
            estimate_axis(pair, frame)

    def test_view_target_combines_center_and_axis(self):
        frame = frame_with_plane(offset=2.0)
        pair = self.make_pair((28, 20, 36, 28), (10, 8, 54, 40))
        vt = view_target(pair, frame)
        assert vt.confidence == 0.9
        assert np.allclose(vt.axis, [0, 0, -1], atol=1e-6)
        assert vt.plane_inliers > 1000
        assert abs(vt.center[2] - 2.0) < 1e-9


class TestFuseViews:
    def vt(self, center, axis=(0, 0, -1), conf=1.0, inliers=10):
        axis = np.asarray(axis, dtype=np.float64)
        return ViewTarget(center=np.asarray(center, dtype=np.float64),
                          axis=axis / np.linalg.norm(axis),
                          confidence=conf, plane_inliers=inliers)

    def test_empty(self):
        assert fuse_views([]) == []

    def test_single_view(self):
        [t] = fuse_views([self.vt((1, 2, 0.5))])
        assert np.allclose(t.handle_center, [1, 2, 0.5])
        assert t.supporting_views == 1
        assert t.plane_inliers == 10
        assert t.total_confidence == 1.0

    def test_two_clusters_split(self):
        views = [self.vt((0, 0, 0.5), conf=0.9), self.vt((0.05, 0, 0.5), conf=0.8),
                 self.vt((1, 0, 0.5), conf=0.7), self.vt((1.02, 0, 0.5), conf=0.6)]
        fused = fuse_views(views, cluster_radius=0.10)
        assert len(fused) == 2
        assert fused[0].total_confidence == pytest.approx(1.7)
        assert fused[1].total_confidence == pytest.approx(1.3)
        assert fused[0].supporting_views == 2 and fused[1].supporting_views == 2

    def test_weighted_center(self):
        views = [self.vt((0, 0, 0), conf=0.9), self.vt((0.09, 0, 0), conf=0.3)]
        [t] = fuse_views(views, cluster_radius=0.10)
        expected = (0.9 * np.zeros(3) + 0.3 * np.array([0.09, 0, 0])) / 1.2
        assert np.allclose(t.handle_center, expected, atol=1e-12)

    def test_axis_hemisphere_alignment(self):
        views = [self.vt((0, 0, 0), axis=(1, 0, 0), conf=0.9),
                 self.vt((0.01, 0, 0), axis=(-1, 0, 0), conf=0.9)]
        [t] = fuse_views(views)
        assert np.allclose(np.abs(t.axis), [1, 0, 0], atol=1e-12)

    def test_axis_weighted_mean_normalized(self):
        views = [self.vt((0, 0, 0), axis=(1, 0, 0), conf=0.5),
                 self.vt((0.01, 0, 0), axis=(0, 1, 0), conf=0.5)]
        [t] = fuse_views(views)
        assert np.allclose(t.axis, np.array([1, 1, 0]) / math.sqrt(2), atol=1e-12)
        assert np.linalg.norm(t.axis) == pytest.approx(1.0, abs=1e-12)

    def test_cluster_radius_boundary(self):
        views = [self.vt((0, 0, 0), conf=0.9), self.vt((0.10, 0, 0), conf=0.8)]
        assert len(fuse_views(views, cluster_radius=0.10)) == 1
        assert len(fuse_views(views, cluster_radius=0.09)) == 2

    def test_seed_is_highest_confidence(self):
        # chain: a-b within radius, b-c within radius, a-c not; the highest
        # confidence view seeds first and claims only its own neighbors
        views = [self.vt((0.00, 0, 0), conf=0.5),
                 self.vt((0.09, 0, 0), conf=0.9),
                 self.vt((0.18, 0, 0), conf=0.4)]
        fused = fuse_views(views, cluster_radius=0.10)
        assert len(fused) == 1
        assert fused[0].supporting_views == 3

    def test_inlier_totals(self):
        views = [self.vt((0, 0, 0), conf=0.9, inliers=120),
                 self.vt((0.02, 0, 0), conf=0.8, inliers=80)]
        [t] = fuse_views(views)
        assert t.plane_inliers == 200


class TestPlanPull:
    def target(self, center=(0, 0, 0.4), axis=(1, 0, 0)):
        axis = np.asarray(axis, dtype=np.float64)
        return DrawerTarget(handle_center=np.asarray(center, dtype=np.float64),
                            axis=axis / np.linalg.norm(axis),
                            supporting_views=2, plane_inliers=50,
                            total_confidence=1.5)

    def test_straight_out(self):
        plan = plan_pull(self.target(axis=(1, 0, 0)), standoff=0.7,
                         pull_distance=0.25)
        assert np.allclose(plan.body_pose.translation, [0.7, 0.0, 0.0], atol=1e-12)
        # base faces back along the axis toward the handle
        facing = plan.body_pose.rotation @ np.array([1.0, 0.0, 0.0])
        assert np.allclose(facing, [-1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(plan.pull_from, [0, 0, 0.4], atol=1e-12)
        assert np.allclose(plan.pull_to, [0.25, 0, 0.4], atol=1e-12)

    def test_diagonal_axis_projected(self):
        plan = plan_pull(self.target(center=(1, 1, 0.3), axis=(1, 1, 0)))
        h = np.array([1, 1, 0]) / math.sqrt(2)
        assert np.allclose(plan.body_pose.translation[:2], (1 + 0.7 * h)[:2],
                           atol=1e-12)
        assert plan.body_pose.translation[2] == 0.0
        assert plan.pull_to[2] == pytest.approx(0.3, abs=1e-15)

    def test_slightly_tilted_axis_allowed(self):
        # 20 degrees off horizontal is pullable; the pull stays level
        tilt = math.radians(20.0)
        axis = (math.cos(tilt), 0.0, math.sin(tilt))
        plan = plan_pull(self.target(axis=axis))
        assert np.allclose(plan.pull_to - plan.pull_from, [0.25, 0, 0], atol=1e-12)

    def test_vertical_axis_rejected(self):
        with pytest.raises(InvalidAxisError):
            plan_pull(self.target(axis=(0, 0, 1)))
        with pytest.raises(InvalidAxisError):
            plan_pull(self.target(axis=(0.1, 0.0, 0.99)))

    def test_vertical_threshold(self):
        # 61 degrees above horizontal is rejected, 59 is allowed
        above = (math.cos(math.radians(61)), 0.0, math.sin(math.radians(61)))
        below = (math.cos(math.radians(59)), 0.0, math.sin(math.radians(59)))
        with pytest.raises(InvalidAxisError):
            plan_pull(self.target(axis=above))
        plan_pull(self.target(axis=below))

    def test_custom_distances(self):
        plan = plan_pull(self.target(axis=(-1, 0, 0)), standoff=0.5,
                         pull_distance=0.4)
        assert np.allclose(plan.body_pose.translation, [-0.5, 0, 0], atol=1e-12)
        assert np.allclose(plan.pull_to, [-0.4, 0, 0.4], atol=1e-12)


class TestRefineTarget:
    def close_frame(self, detections):
        return frame_with_plane(normal=(0, 0, 1), offset=0.9,
                                detections=detections)

    def initial(self, center):
        return DrawerTarget(handle_center=np.asarray(center, dtype=np.float64),
                            axis=np.array([0.0, 0.0, -1.0]),
                            supporting_views=3, plane_inliers=40,
                            total_confidence=2.1)

    def test_refines_nearby_pair(self):
        # handle box centered on the principal point, true center (0, 0, 0.9)
        frame = self.close_frame([det("handle", (27.5, 19.5, 35.5, 27.5)),
                                  det("drawer", (10, 8, 54, 40), conf=0.95)])
        # initial estimate 5 cm off
        refined, ok = refine_target(self.initial((0.05, 0.0, 0.9)), frame)
        assert ok
        assert np.allclose(refined.handle_center, [0, 0, 0.9], atol=1e-6)
        assert np.allclose(refined.axis, [0, 0, -1], atol=1e-6)
        assert refined.supporting_views == 3
        assert refined.total_confidence == 2.1
        assert refined.plane_inliers > 1000

    def test_gate_rejects_distant_pair(self):
        frame = self.close_frame([det("handle", (28, 20, 36, 28)),
                                  det("drawer", (10, 8, 54, 40), conf=0.95)])
        initial = self.initial((0.5, 0.5, 0.9))
        refined, ok = refine_target(initial, frame)
        assert not ok
        assert refined is initial

    def test_no_detections_keeps_initial(self):
        frame = self.close_frame([])
        initial = self.initial((0, 0, 0.9))
        refined, ok = refine_target(initial, frame)
        assert not ok and refined is initial

    def test_no_depth_keeps_initial(self):
        frame = self.close_frame([det("handle", (28, 20, 36, 28)),
                                  det("drawer", (10, 8, 54, 40), conf=0.95)])
        frame.depth[:, :] = 0.0
        initial = self.initial((0, 0, 0.9))
        refined, ok = refine_target(initial, frame)
        assert not ok and refined is initial

    def test_axis_failure_keeps_initial(self):
        # drawer box identical to the handle box: no plane points remain
        frame = self.close_frame([det("handle", (28, 20, 36, 28)),
                                  det("drawer", (28, 20, 36, 28), conf=0.95)])
        initial = self.initial((0, 0, 0.9))
        refined, ok = refine_target(initial, frame)
        assert not ok and refined is initial


class TestFrameIO:
    def sample_frame(self):
        pose = Pose(np.array([[0.0, 0.0, 1.0],
                              [-1.0, 0.0, 0.0],
                              [0.0, -1.0, 0.0]]), np.array([0.5, -0.25, 0.75]))
        depth = np.zeros((INTR.height, INTR.width))
        depth[:, :] = 1.5
        depth[0, 0] = 0.0
        dets = [det("handle", (28, 20, 36, 28), conf=0.75),
                det("drawer", (10, 8, 54, 40), conf=0.95)]
        return DetectionFrame(intrinsics=INTR, cam_pose=pose, depth=depth,
                              detections=dets)

    def test_round_trip(self, tmp_path):
        frame = self.sample_frame()
        path = tmp_path / "frame.json"
        write_detection_frame(path, frame)
        loaded = load_detection_frame(path)
        assert loaded.intrinsics == frame.intrinsics
        assert np.allclose(loaded.cam_pose.matrix(), frame.cam_pose.matrix(),
                           atol=1e-12)
        assert np.array_equal(loaded.depth, frame.depth)
        assert loaded.detections == frame.detections

    def test_missing_key(self, tmp_path):
        frame = self.sample_frame()
        path = tmp_path / "frame.json"
        write_detection_frame(path, frame)
        doc = json.loads(path.read_text())
        del doc["cam_pose"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="cam_pose"):
            load_detection_frame(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError, match="JSON"):
            load_detection_frame(path)

    def test_short_pose(self, tmp_path):
        frame = self.sample_frame()
        path = tmp_path / "frame.json"
        write_detection_frame(path, frame)
        doc = json.loads(path.read_text())
        doc["cam_pose"] = doc["cam_pose"][:15]
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="16"):
            load_detection_frame(path)

    def test_truncated_depth(self, tmp_path):
        frame = self.sample_frame()
        path = tmp_path / "frame.json"
        write_detection_frame(path, frame)
        depth_path = tmp_path / "frame.depth.bin"
        depth_path.write_bytes(depth_path.read_bytes()[:-8])
        with pytest.raises(FileFormatError, match="expected"):
            load_detection_frame(path)

    def test_missing_depth_file(self, tmp_path):
        frame = self.sample_frame()
        path = tmp_path / "frame.json"
        write_detection_frame(path, frame)
        (tmp_path / "frame.depth.bin").unlink()
        with pytest.raises(FileFormatError, match="depth file"):
            load_detection_frame(path)

    def test_depth_file_naming_a_directory(self, tmp_path):
        path = tmp_path / "frame.json"
        write_detection_frame(path, self.sample_frame())
        doc = json.loads(path.read_text())
        doc["depth_file"] = "."
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=r"depth file not found: \."):
            load_detection_frame(path)

    @pytest.mark.parametrize("where", ["absolute", "parent", "sub"])
    def test_depth_file_with_a_directory_part_is_rejected(self, tmp_path,
                                                          where):
        """Only a file next to the frame is read, even when the named file
        exists and holds valid depth."""
        folder = tmp_path / "frames"
        folder.mkdir()
        path = folder / "frame.json"
        name = {"absolute": str(tmp_path / "abs" / "d.bin"),
                "parent": "../d.bin", "sub": "sub/d.bin"}[where]
        (folder / name).parent.mkdir(exist_ok=True)
        write_detection_frame(path, self.sample_frame(), depth_file=name)
        assert (folder / name).is_file()
        with pytest.raises(FileFormatError,
                           match=f"bare file name, got {re.escape(repr(name))}"):
            load_detection_frame(path)

    def test_negative_depth(self, tmp_path):
        frame = self.sample_frame()
        path = tmp_path / "frame.json"
        write_detection_frame(path, frame)
        bad = np.full(INTR.width * INTR.height, -1.0, dtype="<f4")
        bad.tofile(tmp_path / "frame.depth.bin")
        with pytest.raises(FileFormatError, match="depth file contains negative values"):
            load_detection_frame(path)
        # the loader scans once; a frame built in Python is still checked
        depth = frame.depth.copy()
        depth[2, 3] = -1e-6
        with pytest.raises(ValueError, match="negative"):
            DetectionFrame(intrinsics=INTR, cam_pose=Pose.identity(), depth=depth)

    def test_bad_detection_class(self, tmp_path):
        frame = self.sample_frame()
        path = tmp_path / "frame.json"
        write_detection_frame(path, frame)
        doc = json.loads(path.read_text())
        doc["detections"][0]["class"] = "cabinet"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=r"detections\[0\]: class"):
            load_detection_frame(path)

    @pytest.mark.parametrize("key, index, value, needle", [
        ("bbox", 0, "28", r"detections\[0\]\.bbox\[0\]"),
        ("bbox", 3, True, r"detections\[0\]\.bbox\[3\]"),
        ("bbox", 2, float("nan"), r"detections\[0\]\.bbox\[2\]"),
        ("confidence", None, True, r"detections\[0\]\.confidence"),
        ("confidence", None, "0.75", r"detections\[0\]\.confidence"),
        ("cam_pose", 3, "0.5", r"cam_pose\[3\]"),
        ("cam_pose", 15, True, r"cam_pose\[15\]"),
    ])
    def test_numbers_must_be_json_numbers(self, tmp_path, key, index, value,
                                          needle):
        path = tmp_path / "frame.json"
        write_detection_frame(path, self.sample_frame())
        doc = json.loads(path.read_text())
        holder = doc if key == "cam_pose" else doc["detections"][0]
        if index is None:
            holder[key] = value
        else:
            holder[key][index] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=needle):
            load_detection_frame(path)

    def test_detection_count_is_capped(self, tmp_path):
        path = tmp_path / "frame.json"
        write_detection_frame(path, self.sample_frame())
        doc = json.loads(path.read_text())
        assert drawer.MAX_DETECTIONS == 256
        doc["detections"] = [doc["detections"][i % 2] for i in range(256)]
        path.write_text(json.dumps(doc))
        assert len(load_detection_frame(path).detections) == 256
        # the count is checked before any box is decoded
        doc["detections"].append({"class": 5})
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=re.escape(
                f"{path}: 257 detections, above the cap of 256 per frame")):
            load_detection_frame(path)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_depth_names_the_depth_file(self, tmp_path, bad):
        frame = self.sample_frame()
        frame.depth[5, 7] = bad
        path = tmp_path / "frame.json"
        write_detection_frame(path, frame)
        with pytest.raises(FileFormatError,
                           match="depth file frame.depth.bin contains non-finite"):
            load_detection_frame(path)


class TestDrawerConfig:
    def test_defaults(self):
        cfg = DrawerConfig()
        assert cfg.kappa == 10.0
        assert cfg.ioa_min == 0.5
        assert cfg.cluster_radius == 0.10
        assert cfg.gate_radius == 0.15
        assert cfg.standoff == 0.7
        assert cfg.pull_distance == 0.25
        assert cfg.ransac == RansacParams()

    def test_round_trip(self):
        cfg = DrawerConfig(kappa=5.0, ransac=RansacParams(threshold=0.01))
        assert DrawerConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="spring"):
            DrawerConfig.from_dict({"spring": 1.0})

    def test_bad_ransac_key(self):
        with pytest.raises(ConfigError, match="ransac"):
            DrawerConfig.from_dict({"ransac": {"tries": 5}})

    def test_validation(self):
        with pytest.raises(ConfigError):
            DrawerConfig(kappa=0.0)
        with pytest.raises(ConfigError):
            DrawerConfig(ioa_min=1.5)
        with pytest.raises(ConfigError):
            DrawerConfig(standoff=-0.1)
