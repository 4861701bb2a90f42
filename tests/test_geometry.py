"""Geometry unit tests.

The oracles here are deliberately naive re-implementations:
    * farthest-point sampling: plain python greedy over explicit distances
    * line of sight: dense sampling of the segment at 1 mm steps
    * projection: hand-computed pinhole arithmetic
Expected values in the analytic tests are worked out in the comments.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from graspnav import geometry
from graspnav.errors import (
    BehindCameraError,
    DegenerateInputError,
    InvalidDepthError,
    InvalidRotationError,
    NoPlaneFoundError,
    OutOfBoundsError,
)
from graspnav.geometry import (
    _SIGHT_MAX_SAMPLES,
    _SIGHT_SPACING,
    BBox2D,
    CameraIntrinsics,
    Plane,
    PointIndex,
    Pose,
    RansacParams,
    backproject,
    farthest_point_sample,
    line_of_sight,
    look_at,
    project,
    ransac_plane,
    rotation_about_z,
    sight_fan,
    _segment_clear,
)
from graspnav.scene import InstanceMask, PointCloudScene

from conftest import random_pose, random_rotation, vga_intrinsics


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def fps_oracle(points: np.ndarray, k: int, start: int) -> list[int]:
    """Exhaustive greedy max-min selection, written without numpy tricks."""
    chosen = [start]
    for _ in range(k - 1):
        best_idx, best_dist = None, -1.0
        for i in range(len(points)):
            if i in chosen:
                continue
            d = min(math.dist(points[i], points[j]) for j in chosen)
            if d > best_dist:  # strict: ties keep the lowest index
                best_idx, best_dist = i, d
        chosen.append(best_idx)
    return chosen


def los_oracle(a, b, obstacles, clearance, target_exclusion=0.0, step=0.001):
    """Dense sampling of the segment; blocked if any sample comes too close."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    obstacles = np.asarray(obstacles, dtype=float)
    if len(obstacles) == 0:
        return True
    if target_exclusion > 0.0:
        obstacles = obstacles[np.linalg.norm(obstacles - b, axis=1) > target_exclusion]
        if len(obstacles) == 0:
            return True
    length = np.linalg.norm(b - a)
    if length == 0.0:
        return True
    n_steps = max(2, int(math.ceil(length / step)) + 1)
    for t in np.linspace(0.0, 1.0, n_steps):
        sample = a + t * (b - a)
        if np.min(np.linalg.norm(obstacles - sample, axis=1)) <= clearance:
            return False
    return True


# ---------------------------------------------------------------------------
# Pose
# ---------------------------------------------------------------------------

class TestPose:
    def test_identity_apply(self):
        p = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(Pose.identity().apply(p), p)

    def test_compose_matches_sequential_application(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = random_pose(rng), random_pose(rng)
            p = rng.normal(size=3)
            np.testing.assert_allclose(
                a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12)

    def test_compose_associative(self):
        rng = np.random.default_rng(8)
        a, b, c = (random_pose(rng) for _ in range(3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        np.testing.assert_allclose(left.matrix(), right.matrix(), atol=1e-9)

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pose = random_pose(rng)
            round_trip = pose.compose(pose.inverse())
            np.testing.assert_allclose(round_trip.matrix(), np.eye(4), atol=1e-9)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(10)
        pose = random_pose(rng)
        again = Pose.from_matrix(pose.matrix())
        np.testing.assert_allclose(again.rotation, pose.rotation, atol=1e-15)
        np.testing.assert_allclose(again.translation, pose.translation, atol=1e-15)

    def test_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 0] = 1.1
        with pytest.raises(InvalidRotationError):
            Pose(bad, np.zeros(3))

    def test_arrays_are_read_only(self):
        # a pose cannot be mutated behind the constructor's rotation check
        rotation, translation = np.eye(3), np.zeros(3)
        pose = Pose(rotation, translation)
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 1.5
        with pytest.raises(ValueError):
            pose.translation[0] = 1.0
        rotation[0, 0] = 1.5               # the pose holds copies
        assert pose.rotation[0, 0] == 1.0

    def test_rejects_reflection(self):
        # orthonormal but det = -1
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidRotationError):
            Pose(flip, np.zeros(3))

    def test_rejects_non_finite_input(self):
        # every comparison with NaN is False, so the checks read `not <= tol`
        with pytest.raises(InvalidRotationError):
            Pose(np.full((3, 3), np.nan), np.zeros(3))
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                Pose(np.eye(3), np.array([0.0, bad, 0.0]))

    def test_huge_rotation_entries_rejected_without_a_warning(self):
        # the product R R^T overflows to inf or inf - inf; both fail the check
        huge = [np.diag([1.3407807929942597e154, 1.0, 1.0]),
                np.array([[1e200, 1e200, 0.0], [1e200, -1e200, 0.0], [0.0, 0.0, 1.0]]),
                np.diag([1e300, 1e300, 1e300]), np.diag([-1e300, 1.0, 1.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rotation in huge:
                with pytest.raises(InvalidRotationError, match="not orthonormal"):
                    Pose(rotation, np.zeros(3))
                with pytest.raises(InvalidRotationError, match="not orthonormal"):
                    Pose.from_matrix(np.block([[rotation, np.zeros((3, 1))],
                                               [np.array([[0.0, 0.0, 0.0, 1.0]])]]))

    def test_batch_apply_matches_single(self):
        rng = np.random.default_rng(11)
        pose = random_pose(rng)
        pts = rng.normal(size=(5, 3))
        batch = pose.apply(pts)
        for i in range(5):
            np.testing.assert_allclose(batch[i], pose.apply(pts[i]), atol=1e-15)

    def test_compose_and_inverse_equal_checked_poses_bit_for_bit(self):
        # compose and inverse skip the rotation check on operands that were
        # checked already; each result equals Pose() of the same arrays in
        # value bits and memory layout, and stays read-only
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            rt = a.rotation.T
            cases = [(a.compose(b), a.rotation @ b.rotation,
                      a.rotation @ b.translation + a.translation),
                     (a.inverse(), rt, -(rt @ a.translation))]
            for got, rotation, translation in cases:
                want = Pose(rotation, translation)
                for g, w in [(got.rotation, want.rotation),
                             (got.translation, want.translation)]:
                    assert g.dtype == w.dtype and g.shape == w.shape
                    assert g.strides == w.strides
                    assert g.tobytes() == w.tobytes()
                    assert not g.flags.writeable


class TestLookAt:
    def test_target_lands_on_principal_ray(self):
        rng = np.random.default_rng(12)
        intr = vga_intrinsics()
        for _ in range(10):
            eye = rng.uniform(-2, 2, size=3)
            target = rng.uniform(-2, 2, size=3)
            if np.linalg.norm(target - eye) < 0.1:
                continue
            pose = look_at(eye, target)
            u, v, depth = project(target, intr, pose)
            assert u == pytest.approx(intr.cx, abs=1e-6)
            assert v == pytest.approx(intr.cy, abs=1e-6)
            assert depth == pytest.approx(np.linalg.norm(target - eye), abs=1e-9)

    def test_horizontal_view_keeps_image_upright(self):
        # camera at origin looking +x: world up (0,0,1) must map to -v (image up)
        pose = look_at(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        y_cam = pose.rotation[:, 1]
        np.testing.assert_allclose(y_cam, [0.0, 0.0, -1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

class TestBackproject:
    def test_principal_ray(self):
        intr = vga_intrinsics()
        p = backproject(intr.cx, intr.cy, 2.0, intr, Pose.identity())
        np.testing.assert_allclose(p, [0.0, 0.0, 2.0], atol=1e-15)

    def test_unit_offset_pixel(self):
        # (u - cx) * d / fx = (820 - 320) * 1.0 / 500 = 1.0
        intr = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                                width=1280, height=960)
        p = backproject(820.0, 240.0, 1.0, intr, Pose.identity())
        np.testing.assert_allclose(p, [1.0, 0.0, 1.0], atol=1e-12)

    def test_nonpositive_depth_rejected(self):
        intr = vga_intrinsics()
        with pytest.raises(InvalidDepthError):
            backproject(10.0, 10.0, 0.0, intr, Pose.identity())
        with pytest.raises(InvalidDepthError):
            backproject(10.0, 10.0, -1.0, intr, Pose.identity())

    def test_out_of_bounds_pixel_rejected(self):
        intr = vga_intrinsics()
        for u, v in [(-1.0, 10.0), (640.0, 10.0), (10.0, -0.5), (10.0, 480.0)]:
            with pytest.raises(OutOfBoundsError):
                backproject(u, v, 1.0, intr, Pose.identity())


class TestProject:
    def test_principal_axis_point(self):
        intr = vga_intrinsics()
        u, v, depth = project(np.array([0.0, 0.0, 2.0]), intr, Pose.identity())
        assert (u, v, depth) == (intr.cx, intr.cy, 2.0)

    def test_zero_depth_is_behind_camera(self):
        intr = vga_intrinsics()
        with pytest.raises(BehindCameraError):
            project(np.array([0.5, 0.5, 0.0]), intr, Pose.identity())
        with pytest.raises(BehindCameraError):
            project(np.array([0.0, 0.0, -1.0]), intr, Pose.identity())

    def test_round_trip_1000_seeded_samples(self):
        # backproject then project must return the original pixel to < 1e-6 px
        rng = np.random.default_rng(2024)
        intr = vga_intrinsics()
        worst = 0.0
        for _ in range(1000):
            pose = random_pose(rng)
            u = rng.uniform(0.0, intr.width - 1e-9)
            v = rng.uniform(0.0, intr.height - 1e-9)
            d = rng.uniform(0.05, 8.0)
            point = backproject(u, v, d, intr, pose)
            u2, v2, d2 = project(point, intr, pose)
            worst = max(worst, abs(u2 - u), abs(v2 - v))
            assert d2 == pytest.approx(d, abs=1e-9)
        assert worst < 1e-6


# ---------------------------------------------------------------------------
# RANSAC plane fitting
# ---------------------------------------------------------------------------

def _grid_on_z0(n_side: int, extent: float = 1.0) -> np.ndarray:
    xs = np.linspace(-extent, extent, n_side)
    gx, gy = np.meshgrid(xs, xs)
    return np.stack([gx.ravel(), gy.ravel(), np.zeros(n_side * n_side)], axis=1)


class TestRansacPlane:
    def test_exact_plane(self):
        pts = _grid_on_z0(10)  # 100 exact points on z=0
        plane = ransac_plane(pts, RansacParams(threshold=0.005), seed=3)
        assert plane.inlier_count == 100
        assert abs(plane.offset) < 1e-12
        np.testing.assert_allclose(np.abs(plane.normal), [0.0, 0.0, 1.0], atol=1e-9)

    def test_noisy_plane_with_outliers(self):
        rng = np.random.default_rng(42)
        inliers = _grid_on_z0(10)[:70].copy()
        inliers[:, 2] += rng.normal(0.0, 0.001, size=70)  # 1 mm noise
        outliers = rng.uniform(0.0, 1.0, size=(30, 3))
        pts = np.vstack([inliers, outliers])
        plane = ransac_plane(pts, RansacParams(threshold=0.005), seed=5)
        cos_angle = abs(plane.normal @ np.array([0.0, 0.0, 1.0]))
        assert math.degrees(math.acos(min(1.0, cos_angle))) < 2.0

    def test_two_points_degenerate(self):
        with pytest.raises(DegenerateInputError):
            ransac_plane(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), seed=0)

    def test_collinear_points_degenerate(self):
        pts = np.stack([np.linspace(0, 1, 50), np.zeros(50), np.zeros(50)], axis=1)
        with pytest.raises(DegenerateInputError):
            ransac_plane(pts, seed=0)

    def test_low_inlier_fraction_rejected(self):
        # two far-apart small planes, 20 points each, plus 160 spread outliers:
        # no plane can reach the 0.3 fraction
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1.0, 1.0, size=(200, 3)) * np.array([1.0, 1.0, 10.0])
        with pytest.raises(NoPlaneFoundError):
            ransac_plane(pts, RansacParams(threshold=0.001), seed=1)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(77)
        pts = _grid_on_z0(12)
        pts = pts + rng.normal(0.0, 0.002, size=pts.shape)
        a = ransac_plane(pts, seed=9)
        b = ransac_plane(pts, seed=9)
        np.testing.assert_array_equal(a.normal, b.normal)
        assert a.offset == b.offset and a.inlier_count == b.inlier_count

    def test_recovery_rate_over_seeded_trials(self):
        # scaled-down version of the acceptance run: 20 trials, >= 19 within 2 deg
        rng = np.random.default_rng(123)
        hits = 0
        for trial in range(20):
            n = 400
            n_out = int(0.3 * n)
            plane_pts = np.stack([
                rng.uniform(-0.3, 0.3, size=n - n_out),
                rng.uniform(-0.3, 0.3, size=n - n_out),
                rng.normal(0.0, 0.002, size=n - n_out),
            ], axis=1)
            rot = rotation_about_z(rng.uniform(0, 2 * math.pi)) @ _tilt(rng.uniform(0, 0.5))
            world = plane_pts @ rot.T
            outliers = rng.uniform(-0.5, 0.5, size=(n_out, 3))
            plane = ransac_plane(np.vstack([world, outliers]),
                                 RansacParams(threshold=0.005), seed=trial)
            truth = rot @ np.array([0.0, 0.0, 1.0])
            angle = math.degrees(math.acos(min(1.0, abs(plane.normal @ truth))))
            hits += angle < 2.0
        assert hits >= 19


def svd_collinearity_rule(pts: np.ndarray) -> None:
    """The collinearity check that ransac_plane ran on every cloud before
    the scatter fast path."""
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[1] <= 1e-12 * max(sv[0], 1.0):
        raise DegenerateInputError("points are collinear; no unique plane exists")


def _collinearity_outcome(check, pts):
    """None when `check` lets the cloud through, else the error's type and text."""
    try:
        check(pts)
    except NoPlaneFoundError:
        return None  # raised only after the collinearity check passed
    except Exception as exc:  # noqa: BLE001 - RuntimeWarning too, as an error
        return type(exc), str(exc)
    return None


def _line(rng, n: int, jitter: float = 0.0) -> np.ndarray:
    """n points along a random line, offset perpendicularly by up to `jitter`."""
    rot = random_rotation(rng)
    local = np.zeros((n, 3))
    local[:, 0] = rng.uniform(-1.0, 1.0, size=n)
    local[:, 1:] = rng.uniform(-jitter, jitter, size=(n, 2))
    return local @ rot.T + rng.uniform(-3.0, 3.0, size=3)


def _plane(rng, n: int) -> np.ndarray:
    """n points on a random plane with millimetre noise and a few outliers."""
    local = np.stack([rng.uniform(-0.3, 0.3, size=n), rng.uniform(-0.2, 0.2, size=n),
                      rng.normal(0.0, 0.001, size=n)], axis=1)
    local[: n // 10] = rng.uniform(-0.3, 0.3, size=(n // 10, 3))
    return local @ random_rotation(rng).T + rng.uniform(-3.0, 3.0, size=3)


class TestCollinearityCheck:
    """ransac_plane rejects exactly the clouds the SVD rule rejects, with the
    same error, and its fast path accepts only clouds that rule accepts."""

    @staticmethod
    def _decide(pts: np.ndarray):
        expected = _collinearity_outcome(svd_collinearity_rule, pts)
        fit = lambda p: ransac_plane(p, RansacParams(iterations=16), seed=0)  # noqa: E731
        assert _collinearity_outcome(fit, pts) == expected
        if geometry._clearly_spans_plane(pts):
            assert expected is None
        return expected

    def test_random_planes_take_the_fast_path(self):
        rng = np.random.default_rng(31)
        for n in [3, 4, 10, 100, 1000, 5000] * 5:
            pts = _plane(rng, n) if n > 3 else rng.normal(size=(n, 3))
            assert self._decide(pts) is None
            assert geometry._clearly_spans_plane(pts)

    def test_exact_lines_rejected(self):
        rng = np.random.default_rng(32)
        for n in [3, 10, 1000] * 5:
            outcome = self._decide(_line(rng, n))
            assert outcome is not None and outcome[0] is DegenerateInputError
            pts = np.outer(np.linspace(-1.0, 1.0, n), [1.0, 2.0, -0.5])
            assert self._decide(pts) is not None

    def test_jittered_lines_across_the_threshold(self):
        rng = np.random.default_rng(33)
        outcomes = []
        for exponent in range(-13, -2):
            for n in (3, 50, 2000):
                outcomes.append(self._decide(_line(rng, n, jitter=10.0 ** exponent)))
        assert None in outcomes and any(o is not None for o in outcomes)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_tiny_and_huge_scales(self, scale):
        rng = np.random.default_rng(34)
        for _ in range(10):
            self._decide(_plane(rng, 500) * scale)
            self._decide(_line(rng, 500) * scale)
            self._decide(_line(rng, 500, jitter=1e-3) * scale)

    def test_duplicated_points(self):
        rng = np.random.default_rng(35)
        assert self._decide(np.repeat(_plane(rng, 200), 3, axis=0)) is None
        assert self._decide(np.repeat(_line(rng, 2), 50, axis=0)) is not None
        assert self._decide(np.tile([1.0, -2.0, 0.5], (100, 1))) is not None

    def test_three_point_sets(self):
        assert self._decide(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])) is None
        assert self._decide(np.array([[0.0, 0, 0], [1, 1, 1], [2, 2, 2]])) is not None
        assert self._decide(np.zeros((3, 3))) is not None
        self._decide(np.array([[0.0, 0, 0], [1, 0, 0], [2, 1e-9, 0]]))

    def test_input_left_unchanged(self):
        pts = np.asfortranarray(_plane(np.random.default_rng(37), 300))
        before = pts.copy()
        assert geometry._clearly_spans_plane(pts)
        np.testing.assert_array_equal(pts, before)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_fails_as_before(self, bad):
        rng = np.random.default_rng(36)
        pts = _plane(rng, 100)
        pts[7, 1] = bad
        assert self._decide(pts) is not None
        assert not geometry._clearly_spans_plane(pts)
        assert self._decide(np.full((5, 3), bad)) is not None


def _tilt(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _hypotheses(pts: np.ndarray, iterations: int, seed: int):
    """The seeded triplet planes ransac_plane scores: normals, offsets, valid."""
    triplets = np.random.default_rng(seed).integers(0, len(pts), size=(iterations, 3))
    a = pts[triplets[:, 0]]
    normals = np.cross(pts[triplets[:, 1]] - a, pts[triplets[:, 2]] - a)
    lengths = np.linalg.norm(normals, axis=1)
    valid = lengths > 1e-12
    normals[valid] /= lengths[valid, None]
    return normals, np.einsum("ij,ij->i", normals, a), valid


def ransac_reference(pts: np.ndarray, params: RansacParams, seed: int):
    """The plane fit before early stopping: every hypothesis is scored, in
    blocks of 256, then the winner is refit. Returns (normal, offset, count)."""
    normals, offsets, valid = _hypotheses(pts, params.iterations, seed)
    best_count = -1
    best_iter = -1
    for lo in range(0, params.iterations, 256):
        hi = min(lo + 256, params.iterations)
        block = valid[lo:hi]
        if not np.any(block):
            continue
        dist = np.abs(pts @ normals[lo:hi].T - offsets[lo:hi])
        counts = np.count_nonzero(dist <= params.threshold, axis=0)
        counts[~block] = -1
        k = int(np.argmax(counts))
        if counts[k] > best_count:
            best_count = int(counts[k])
            best_iter = lo + k
    inliers = np.abs(pts @ normals[best_iter] - offsets[best_iter]) <= params.threshold
    # the shipped refit, pinned against the SVD refit by TestRansacRefit
    normal, offset = geometry._refit_plane(pts[inliers])
    return normal, offset, int(np.count_nonzero(np.abs(pts @ normal - offset)
                                                <= params.threshold))


def predicted_stop(pts: np.ndarray, params: RansacParams, seed: int):
    """Hypotheses drawn up to the end of the 16-block in which the
    Fischler-Bolles bound 1 - (1 - w^3)^k >= 0.999 first holds (k counts
    the non-degenerate ones), or `params.iterations` if it never does."""
    normals, offsets, valid = _hypotheses(pts, params.iterations, seed)
    counts = np.count_nonzero(np.abs(pts @ normals.T - offsets) <= params.threshold,
                              axis=0)
    best, k = 0, 0
    for lo in range(0, params.iterations, 16):
        in_block = valid[lo:lo + 16]
        if in_block.any():
            best = max(best, int(counts[lo:lo + 16][in_block].max()))
            k += int(in_block.sum())
            if 1.0 - (1.0 - (best / len(pts)) ** 3) ** k >= 0.999:
                return min(lo + 16, params.iterations)
    return params.iterations


def _plane_cloud(seed: int, n: int, inlier_share: float, sigma: float = 0.002):
    """A tilted noisy plane patch plus uniform outliers, shuffled."""
    rng = np.random.default_rng(seed)
    n_in = int(round(inlier_share * n))
    patch = np.stack([rng.uniform(-0.3, 0.3, n_in), rng.uniform(-0.3, 0.3, n_in),
                      rng.normal(0.0, sigma, n_in)], axis=1)
    rot = random_rotation(rng)
    outliers = rng.uniform(-0.5, 0.5, size=(n - n_in, 3))
    return rng.permutation(np.vstack([patch @ rot.T, outliers]))


# (cloud seed, points, inlier share): planar-plus-outlier clouds, clouds
# at w > 0.95, which stop after their first block, and 10-point clouds, in
# which 28% of the triplets repeat a point and so are degenerate
_CLOUDS = ([(s, 60 + 37 * s, 0.35 + 0.05 * s) for s in range(12)]
           + [(100 + s, 300 + 50 * s, 0.96 + 0.01 * (s % 4)) for s in range(4)]
           + [(s, 10, 0.7) for s in range(12)])


def _assert_same_fit(plane: Plane, reference) -> None:
    normal, offset, count = reference
    assert plane.normal.tobytes() == normal.tobytes()
    assert plane.offset == offset
    assert plane.inlier_count == count


class TestRansacEarlyStop:
    @pytest.mark.parametrize("seed, n, share", _CLOUDS)
    def test_stops_at_the_predicted_block(self, seed, n, share):
        # bit for bit the full-scoring fit of the hypotheses up to that block
        pts = _plane_cloud(seed, n, share)
        params = RansacParams(threshold=0.005, min_inlier_fraction=0.0)
        end = predicted_stop(pts, params, seed)
        assert end % 16 == 0 and end < params.iterations
        capped = RansacParams(threshold=0.005, iterations=end, min_inlier_fraction=0.0)
        _assert_same_fit(ransac_plane(pts, params, seed=seed),
                         ransac_reference(pts, capped, seed))

    @pytest.mark.parametrize("seed, n, share", _CLOUDS)
    def test_iterations_caps_the_hypotheses(self, seed, n, share):
        pts = _plane_cloud(seed, n, share)
        for iterations in (8, 40, 200):
            params = RansacParams(threshold=0.005, iterations=iterations,
                                  min_inlier_fraction=0.0)
            capped = RansacParams(threshold=0.005, min_inlier_fraction=0.0,
                                  iterations=predicted_stop(pts, params, seed))
            _assert_same_fit(ransac_plane(pts, params, seed=seed),
                             ransac_reference(pts, capped, seed))

    @pytest.mark.parametrize("seed", range(8))
    def test_first_of_tied_hypotheses_wins(self, seed):
        # two exact patches of 40 points each, 0.1 m or more off each
        # other's plane: hypotheses through either one tie at 40 inliers
        rng = np.random.default_rng(seed)
        a = np.stack([rng.uniform(-0.3, 0.3, 40), rng.uniform(-0.3, 0.3, 40),
                      np.zeros(40)], axis=1)
        b = np.stack([np.ones(40), rng.uniform(0.1, 0.7, 40),
                      rng.uniform(0.1, 0.7, 40)], axis=1)
        pts = rng.permutation(np.vstack([a, b]))
        params = RansacParams(threshold=0.005, min_inlier_fraction=0.0)
        capped = RansacParams(threshold=0.005, min_inlier_fraction=0.0,
                              iterations=predicted_stop(pts, params, seed))
        _assert_same_fit(ransac_plane(pts, params, seed=seed),
                         ransac_reference(pts, capped, seed))

    def test_stopping_changes_some_winners(self):
        # guards the tests above: scoring on past the predicted block would be seen
        changed = 0
        for seed, n, share in _CLOUDS:
            pts = _plane_cloud(seed, n, share)
            params = RansacParams(threshold=0.005, min_inlier_fraction=0.0)
            stopped = ransac_plane(pts, params, seed=seed)
            changed += (stopped.normal.tobytes()
                        != ransac_reference(pts, params, seed)[0].tobytes())
        assert changed >= len(_CLOUDS) // 2

    def test_drawer_front_shares_stop_within_64_hypotheses(self):
        # w = 0.48 needs k >= ln(0.001) / ln(1 - 0.48^3) = 59 valid draws
        for seed in range(5):
            pts = _plane_cloud(seed, 850, 0.48, sigma=0.0005)
            assert predicted_stop(pts, RansacParams(), seed) <= 64

    @pytest.mark.parametrize("n", [3, 100, 10_007, 2 ** 16, 2 ** 31 - 1])
    def test_triplet_draws_are_a_stable_prefix(self, n):
        # a shorter cap draws the same first triplets, so capping
        # `iterations` at the predicted block end replays the stopped fit
        for seed in (0, 7, 2 ** 40 + 3):
            long = np.random.default_rng(seed).integers(0, n, size=(1000, 3))
            short = np.random.default_rng(seed).integers(0, n, size=(64, 3))
            np.testing.assert_array_equal(long[:64], short)


def svd_refit(points: np.ndarray) -> tuple[np.ndarray, float]:
    """The refit ransac_plane ran before the scatter: the last right singular
    vector of the centred (m, 3) cloud."""
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normal = vt[-1] / np.linalg.norm(vt[-1])
    return normal, float(normal @ centroid)


def _flat_cloud(rng, m: int, scale: float, far: float, noise: float,
                aspect: float = 0.7) -> np.ndarray:
    """m points on a tilted aspect:1 patch of size `scale` with normal noise
    `noise * scale`, its centre `far` metres from the origin."""
    local = np.stack([rng.uniform(-1.0, 1.0, m), rng.uniform(-aspect, aspect, m),
                      rng.normal(0.0, noise, m)], axis=1)
    return local @ random_rotation(rng).T * scale + far * random_rotation(rng)[0]


class TestRansacRefit:
    """_refit_plane (eigenvectors of the centred 3x3 scatter) against the SVD
    refit it replaced: the same normal up to sign, and the same plane over
    the cloud."""

    @staticmethod
    def _assert_matches_svd(points: np.ndarray) -> None:
        normal, offset = geometry._refit_plane(points)
        ref_normal, ref_offset = svd_refit(points)
        assert abs(np.linalg.norm(normal) - 1.0) <= 1e-12
        dot = float(normal @ ref_normal)
        assert abs(dot) >= 1.0 - 1e-12
        # offsets compared at the cloud, not at the origin: 1e3 m away, a
        # 1e-15 rad tilt below either fit's resolution moves the offset by
        # 1e-12 m, 1e-9 of a 1 mm cloud
        c = points.mean(axis=0)
        gap = (offset - normal @ c) - math.copysign(1.0, dot) * (ref_offset - ref_normal @ c)
        assert abs(gap) <= 1e-9 * np.ptp(points, axis=0).max()

    # 1000 points: the SVD reference's (m, 3) mean sums row after row, and
    # at 1e3 m from the origin its own rounding nears 1e-9 of a 1 mm cloud
    # by 10k points
    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 1.0, 1e2, 1e4])
    @pytest.mark.parametrize("far", [0.0, 1e3])
    def test_tilted_noisy_planes(self, scale, far):
        rng = np.random.default_rng(int(math.log10(scale)) + 10 + int(far))
        for noise in (0.0, 1e-3, 1e-2, 0.1):
            for m in (3, 10, 1000):
                self._assert_matches_svd(_flat_cloud(rng, m, scale, far, noise))

    def test_thin_strips(self):
        rng = np.random.default_rng(41)
        for far in (0.0, 1e3):
            for noise in (0.0, 1e-5):
                self._assert_matches_svd(
                    _flat_cloud(rng, 1000, 1.0, far, noise, aspect=1e-3))

    def test_exactly_planar_sets(self):
        # a grid on z = 0.25: the normal is +-z and every point lies on it
        g = np.linspace(-1.0, 1.0, 11)
        pts = np.stack([*np.meshgrid(g, g), np.full((11, 11), 0.25)], axis=-1).reshape(-1, 3)
        normal, offset = geometry._refit_plane(pts)
        np.testing.assert_allclose(np.abs(normal), [0.0, 0.0, 1.0], atol=1e-15)
        assert abs(abs(offset) - 0.25) <= 1e-15
        self._assert_matches_svd(pts)

    def test_duplicated_points(self):
        rng = np.random.default_rng(42)
        self._assert_matches_svd(np.repeat(_flat_cloud(rng, 50, 1.0, 3.0, 1e-3), 4, axis=0))
        self._assert_matches_svd(np.tile(_flat_cloud(rng, 3, 1.0, 3.0, 0.0), (5, 1)))

    def test_three_point_sets(self):
        rng = np.random.default_rng(43)
        self._assert_matches_svd(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]))
        for _ in range(20):
            self._assert_matches_svd(rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 4))

    def test_repeated_smallest_eigenvalue(self):
        # collinear points: every normal of the line fits them, so only
        # orthogonality to the data is asserted
        rng = np.random.default_rng(44)
        for pts in (np.outer(np.linspace(-1.0, 1.0, 20), [1.0, 2.0, -0.5]) + 7.0,
                    np.repeat(rng.normal(size=(2, 3)), 10, axis=0)):
            normal, offset = geometry._refit_plane(pts)
            assert abs(np.linalg.norm(normal) - 1.0) <= 1e-12
            assert np.abs(pts @ normal - offset).max() <= 1e-12 * np.abs(pts).max()


def _first_seed(iterations: int, wanted) -> int:
    """The lowest seed whose triplet draw over 3 points satisfies
    `wanted(distinct)`, where `distinct[i]` says whether triplet i names
    three different points (the only non-degenerate triplets)."""
    for seed in range(100_000):
        draw = np.random.default_rng(seed).integers(0, 3, size=(iterations, 3))
        distinct = np.array([len(set(t)) == 3 for t in draw.tolist()])
        if wanted(distinct):
            return seed
    raise AssertionError("no seed found")


# (points, coordinate scale): fewer points than hypotheses in a block, and
# coordinates far from the origin, whose products carry large terms
_LAYOUT_CLOUDS = [(n, scale) for n in (3, 5, 12, 15, 16, 17, 200, 1200, 10_000)
                  for scale in (1.0, 1e3, 1e4)]


class TestRansacBlockLayout:
    @pytest.mark.parametrize("n, scale", _LAYOUT_CLOUDS)
    def test_block_layout_distances_equal_the_point_layout(self, n, scale):
        # ransac_plane scores a block as (block, n); ransac_reference and
        # predicted_stop score (n, block): a BLAS that rounds the two
        # layouts differently would make them pick different winners. Every
        # block size a fit can end on is checked: a one-row block is a
        # matrix-vector product, whose rounding depends on the points'
        # memory order. ransac_plane writes every block into one reused
        # (16, n) buffer and counts each row on its own
        rng = np.random.default_rng(n + int(scale))
        pts = (rng.uniform(-1.0, 1.0, (n, 3)) @ random_rotation(rng).T * scale
               + rng.uniform(-scale, scale, 3))
        dist_buf = np.full((16, n), np.nan)
        near_buf = np.empty((16, n), dtype=bool)
        for block in range(1, 17):
            normals, offsets, _ = _hypotheses(pts, block, seed=n)
            dist = np.matmul(normals, pts.T, out=dist_buf[:block])
            assert dist.tobytes() == (normals @ pts.T).tobytes()
            dist -= offsets[:, None]
            np.abs(dist, out=dist)
            expected = np.abs(pts @ normals.T - offsets)
            assert dist.tobytes() == np.ascontiguousarray(expected.T).tobytes()
            near = np.less_equal(dist, 0.3 * scale, out=near_buf[:block])
            assert ([np.count_nonzero(row) for row in near]
                    == np.count_nonzero(near, axis=1).tolist())

    def test_all_degenerate_triplets_raise(self):
        # two blocks (16 + 4 hypotheses), every triplet repeating a point
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        seed = _first_seed(20, lambda distinct: not distinct.any())
        with pytest.raises(NoPlaneFoundError, match="all sampled triplets were degenerate"):
            ransac_plane(pts, RansacParams(iterations=20), seed=seed)

    def test_a_valid_triplet_in_the_last_block_is_found(self):
        # the first block holds only degenerate triplets and is skipped
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        seed = _first_seed(20, lambda distinct: not distinct[:16].any()
                           and distinct[16:].any())
        plane = ransac_plane(pts, RansacParams(iterations=20), seed=seed)
        assert plane.inlier_count == 3
        np.testing.assert_allclose(np.abs(plane.normal), [0.0, 0.0, 1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# Farthest point sampling
# ---------------------------------------------------------------------------

class TestFarthestPointSample:
    def test_collinear_hand_trace(self):
        # x in {0,1,2,3,4}: start 0, farthest is 4, then 2 (min-dist 2 beats 1)
        pts = np.stack([np.arange(5.0), np.zeros(5), np.zeros(5)], axis=1)
        assert farthest_point_sample(pts, 3, start_index=0) == [0, 4, 2]

    def test_k_equals_n_is_permutation(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(12, 3))
        out = farthest_point_sample(pts, 12, start_index=4)
        assert sorted(out) == list(range(12))

    def test_k_one(self):
        pts = np.zeros((4, 3))
        assert farthest_point_sample(pts, 1, start_index=2) == [2]

    def test_bounds_errors(self):
        pts = np.zeros((4, 3))
        with pytest.raises(OutOfBoundsError):
            farthest_point_sample(pts, 0, start_index=0)
        with pytest.raises(OutOfBoundsError):
            farthest_point_sample(pts, 5, start_index=0)
        with pytest.raises(OutOfBoundsError):
            farthest_point_sample(pts, 2, start_index=4)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(99)
        for trial in range(25):
            n = int(rng.integers(2, 51))
            pts = rng.uniform(-1, 1, size=(n, 3))
            k = int(rng.integers(1, n + 1))
            start = int(rng.integers(0, n))
            assert farthest_point_sample(pts, k, start) == fps_oracle(pts, k, start)

    def test_duplicate_points_stay_distinct(self):
        pts = np.zeros((6, 3))
        out = farthest_point_sample(pts, 6, start_index=0)
        assert sorted(out) == list(range(6))


# ---------------------------------------------------------------------------
# Point index
# ---------------------------------------------------------------------------

def _clouds(rng):
    """Random clouds, plus a lattice and duplicates so queries meet ties."""
    yield rng.uniform(-2.0, 2.0, size=(1, 3))
    yield rng.uniform(-2.0, 2.0, size=(40, 3))
    yield rng.normal(size=(3000, 3))
    grid = np.stack(np.meshgrid(*[np.arange(-1.0, 1.01, 0.25)] * 3), -1).reshape(-1, 3)
    yield np.vstack([grid, grid[:50]])


class TestPointIndex:
    def test_sliding_midpoint_tree_matches_balanced(self):
        # PointIndex builds sliding-midpoint trees; the balanced tree is the
        # reference: equal ball sets and bit-equal nearest distances
        rng = np.random.default_rng(41)
        for pts in _clouds(rng):
            balanced = cKDTree(pts)
            index = PointIndex(pts)
            queries = np.vstack([rng.uniform(-2.5, 2.5, size=(300, 3)), pts[:20]])
            want, _ = balanced.query(queries)
            got, _ = index.nearest(queries)
            np.testing.assert_array_equal(got, want)
            for q in queries[:60]:
                radius = float(rng.uniform(0.05, 1.5))
                assert (sorted(index.ball(q, radius).tolist())
                        == sorted(balanced.query_ball_point(q, radius)))

    def test_nearest_equals_a_brute_force_minimum(self):
        # no distance depends on the tree's build settings: each equals,
        # bit for bit, the minimum over every stored point, duplicates included
        rng = np.random.default_rng(44)
        for pts in _clouds(rng):
            pts = np.vstack([pts, pts[rng.integers(len(pts), size=len(pts) // 2 + 1)]])
            index = PointIndex(pts)
            queries = np.vstack([rng.uniform(-2.5, 2.5, size=(150, 3)), pts[-20:]])
            got, idx = index.nearest(queries)
            sq = (pts[None, :, :] - queries[:, None, :]) ** 2
            every = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
            np.testing.assert_array_equal(got, every.min(axis=1))
            np.testing.assert_array_equal(got, every[np.arange(len(queries)), idx])

    def test_batched_nearest_equals_scalar_calls(self):
        rng = np.random.default_rng(43)
        for pts in _clouds(rng):
            index = PointIndex(pts)
            queries = rng.uniform(-2.5, 2.5, size=(100, 3))
            dist, idx = index.nearest(queries)
            assert dist.shape == idx.shape == (100,)
            for q, d, i in zip(queries, dist, idx):
                one_d, one_i = index.nearest(q)
                assert type(one_d) is float and type(one_i) is int
                assert one_d == d and one_i == i

    def test_distance_upper_bound_misses_read_inf(self):
        index = PointIndex(np.zeros((1, 3)))
        dist, idx = index.nearest(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.2]]),
                                  distance_upper_bound=0.5)
        assert dist[0] == math.inf and idx[0] == len(index)
        assert dist[1] == 0.2 and idx[1] == 0

    def test_empty_index(self):
        index = PointIndex(np.empty((0, 3)))
        assert len(index) == 0 and len(index.ball(np.zeros(3), 1.0)) == 0
        for query in (np.zeros(3), np.zeros((4, 3))):
            with pytest.raises(DegenerateInputError):
                index.nearest(query)


# ---------------------------------------------------------------------------
# Line of sight
# ---------------------------------------------------------------------------

class TestLineOfSight:
    A = np.array([0.0, 0.0, 0.0])
    B = np.array([1.0, 0.0, 0.0])

    def test_empty_obstacles(self):
        assert line_of_sight(self.A, self.B, PointIndex(np.empty((0, 3))), clearance=0.1)

    def test_midpoint_obstacle_blocks(self):
        obstacle = PointIndex(np.array([[0.5, 0.0, 0.0]]))
        assert not line_of_sight(self.A, self.B, obstacle, clearance=0.05)

    def test_obstacle_beyond_clearance_passes(self):
        obstacle = PointIndex(np.array([[0.5, 0.2, 0.0]]))
        assert line_of_sight(self.A, self.B, obstacle, clearance=0.1)

    def test_target_exclusion_ignores_points_near_target(self):
        # obstacle 2 cm from B would block, but sits inside the exclusion
        # ball that the scene's sight index drops around the target at B
        scene = PointCloudScene(np.array([self.B, [0.99, 0.01, 0.0]]), None,
                                [InstanceMask(0, "target", np.array([0]), None, 1.0)], 0)
        blocking = scene.obstacle_index(exclude_instance=0)
        excluded = scene.obstacle_index(exclude_instance=0, target_exclusion=0.05)
        assert not line_of_sight(self.A, self.B, blocking, clearance=0.05)
        assert line_of_sight(self.A, self.B, excluded, clearance=0.05)

    def test_zero_length_segment(self):
        obstacle = PointIndex(np.array([[0.0, 0.0, 0.0]]))
        assert line_of_sight(self.A, self.A, obstacle, clearance=0.5)

    def test_matches_dense_sampling_oracle(self):
        # random scenes, regenerating points that land within 2 mm of the
        # clearance boundary so the 1 mm sampling oracle cannot disagree
        rng = np.random.default_rng(555)
        clearance = 0.1
        agreements = 0
        for _ in range(100):
            a = rng.uniform(-1, 1, size=3)
            b = rng.uniform(-1, 1, size=3)
            pts = []
            while len(pts) < 40:
                p = rng.uniform(-1.2, 1.2, size=3)
                d = b - a
                t = np.clip((p - a) @ d / max(d @ d, 1e-12), 0.0, 1.0)
                gap = abs(np.linalg.norm(p - (a + t * d)) - clearance)
                if gap > 0.002:
                    pts.append(p)
            pts = np.asarray(pts)
            got = line_of_sight(a, b, PointIndex(pts), clearance)
            want = los_oracle(a, b, pts, clearance)
            agreements += got == want
        assert agreements == 100

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), shrink=st.floats(0.01, 0.99))
    def test_monotone_in_clearance(self, seed, shrink):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, size=3)
        b = rng.uniform(-1, 1, size=3)
        pts = PointIndex(rng.uniform(-1, 1, size=(50, 3)))
        clearance = float(rng.uniform(0.02, 0.3))
        if line_of_sight(a, b, pts, clearance):
            assert line_of_sight(a, b, pts, clearance * shrink)


def _boundary_points(rng, a, b, clearance):
    """Points at `clearance` from the closed segment a-b and 1e-12 either
    side: beside its interior, and behind its start (closest point a)."""
    d = b - a
    side = np.cross(d, rng.normal(size=3))
    side /= np.linalg.norm(side)
    back = -d / np.linalg.norm(d)
    t = rng.uniform(0.05, 0.95)
    return np.array([p for r in (clearance - 1e-12, clearance, clearance + 1e-12)
                     for p in (a + t * d + r * side, a + r * back)])


def sight_index(pts, b, target_exclusion=0.0):
    """Index over the points that may block sight of `b`: with an exclusion,
    only those farther than it from `b`, the rule `los_oracle` applies."""
    pts = np.asarray(pts, dtype=float)
    if target_exclusion > 0.0:
        pts = pts[np.linalg.norm(pts - b, axis=1) > target_exclusion]
    return PointIndex(pts)


def exact_sight(starts, b, pts, clearance):
    """Per-segment flags from the exact point-to-segment test."""
    index = PointIndex(pts)
    return np.array([_segment_clear(a, b, index, clearance) for a in starts],
                    dtype=bool)


class TestBatchedLineOfSight:
    """Batched flags against the exact test they must reproduce."""

    def test_random_scenes_match_exact_test(self):
        rng = np.random.default_rng(911)
        outcomes = set()
        for scene_i in range(40):
            b = rng.uniform(-1, 1, size=3)
            starts = rng.uniform(-1.5, 1.5, size=(24, 3))
            clearance = float(rng.uniform(0.02, 0.2))
            pts = np.vstack([rng.uniform(-1.5, 1.5, size=(5 + 4 * scene_i, 3)),
                             *(_boundary_points(rng, a, b, clearance) for a in starts[:6])])
            got = line_of_sight(starts, b, PointIndex(pts), clearance)
            assert got.dtype == bool and got.shape == (24,)
            np.testing.assert_array_equal(got, exact_sight(starts, b, pts, clearance))
            outcomes.update(got[6:].tolist())
        assert outcomes == {True, False}

    def test_boundary_obstacle_alone(self):
        # one obstacle 1e-12 inside, at, or 1e-12 outside the clearance
        rng = np.random.default_rng(912)
        for _ in range(20):
            a, b = rng.uniform(-1, 1, size=(2, 3))
            clearance = float(rng.uniform(0.02, 0.2))
            for p in _boundary_points(rng, a, b, clearance):
                got = line_of_sight(a, b, PointIndex(p[None, :]), clearance)
                assert got == exact_sight([a], b, p[None, :], clearance)[0]

    def test_segment_is_closed(self):
        # exactly representable: obstacles at exactly c from the start, the
        # end and the interior all block, since the test needs distance > c
        a, b, c = np.zeros(3), np.array([1.0, 0.0, 0.0]), 0.125
        for p in ([-c, 0.0, 0.0], [1.0 + c, 0.0, 0.0], [0.5, c, 0.0]):
            assert not line_of_sight(a, b, PointIndex(np.array([p])), c)
            assert line_of_sight(a, b, PointIndex(np.array([p])), c * (1 - 2**-20))

    def test_matches_dense_sampling_oracle(self):
        rng = np.random.default_rng(913)
        clearance, exclusion = 0.1, 0.2
        for _ in range(6):
            b = rng.uniform(-1, 1, size=3)
            starts = rng.uniform(-1.5, 1.5, size=(10, 3))
            pts = rng.uniform(-1.5, 1.5, size=(60, 3))
            # keep points clear of the 1 mm oracle's ambiguity band
            for a in starts:
                d = b - a
                t = np.clip((pts - a) @ d / (d @ d), 0.0, 1.0)
                gap = np.linalg.norm(pts - (a + t[:, None] * d), axis=1) - clearance
                pts = pts[np.abs(gap) > 0.002]
            got = line_of_sight(starts, b, sight_index(pts, b, exclusion), clearance)
            want = [los_oracle(a, b, pts, clearance, exclusion) for a in starts]
            np.testing.assert_array_equal(got, want)

    def test_zero_length_segments_are_clear(self):
        b = np.array([0.3, -0.2, 0.5])
        pts = np.vstack([b, b + 0.01])
        # lengths 0, 1e-13 (below the zero-length cut), 1.2e-12 and 0.5
        starts = b + np.array([[0.0, 0.0, 0.0], [1e-13, 0.0, 0.0],
                               [0.0, 1.2e-12, 0.0], [0.5, 0.0, 0.0]])
        got = line_of_sight(starts, b, PointIndex(pts), 0.05)
        assert got.tolist() == [True, True, False, False]
        np.testing.assert_array_equal(got, exact_sight(starts, b, pts, 0.05))
        assert line_of_sight(b, b, PointIndex(pts), 0.05) is True

    def test_empty_obstacles_clear_every_segment(self):
        rng = np.random.default_rng(914)
        b = rng.uniform(-1, 1, size=3)
        starts = rng.uniform(-1, 1, size=(7, 3))
        empty = PointIndex(np.empty((0, 3)))
        assert line_of_sight(starts, b, empty, 0.1).tolist() == [True] * 7
        near_target = b + rng.uniform(-0.05, 0.05, size=(30, 3))
        assert line_of_sight(starts, b, sight_index(near_target, b, 0.2),
                             0.1).tolist() == [True] * 7
        assert line_of_sight(np.empty((0, 3)), b, PointIndex(near_target), 0.1).shape == (0,)

    def test_single_start_returns_python_bool(self):
        rng = np.random.default_rng(915)
        index = PointIndex(rng.uniform(-1, 1, size=(40, 3)))
        b = rng.uniform(-1, 1, size=3)
        starts = rng.uniform(-1.5, 1.5, size=(30, 3))
        batch = line_of_sight(starts, b, index, 0.1)
        assert set(batch.tolist()) == {True, False}
        for a, flag in zip(starts, batch):
            one = line_of_sight(a, b, index, 0.1)
            assert type(one) is bool and one == flag

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_lengths_without_warnings(self):
        b = np.zeros(3)
        blocking = PointIndex(np.array([[0.0, 0.05, 0.5]]))
        # the squared length overflows to inf
        with pytest.raises(DegenerateInputError, match="non-finite"):
            line_of_sight(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1e308]]), b, blocking, 0.1)
        # finite, with a sample count far past what an intp holds
        far = np.array([0.0, 0.0, 1e150])
        assert not line_of_sight(far, b, PointIndex(np.array([[0.0, 0.05, 5e149]])), 0.1)
        assert line_of_sight(far, b, PointIndex(np.array([[1.0, 0.0, 5e149]])), 0.1)

    def test_unsampled_segments_take_the_exact_test(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _segment_clear(*args)
        monkeypatch.setattr(geometry, "_segment_clear", counted)
        length = _SIGHT_SPACING * (_SIGHT_MAX_SAMPLES + 10)
        a, b = np.zeros(3), np.array([length, 0.0, 0.0])
        assert not line_of_sight(a, b, PointIndex(np.array([[length / 2, 0.05, 0.0]])), 0.1)
        assert line_of_sight(a, b, PointIndex(np.array([[length / 2, 0.2, 0.0]])), 0.1)
        assert len(calls) == 2
        # a short segment far from every obstacle is decided by the samples
        assert line_of_sight(a, np.array([1.0, 0.0, 0.0]),
                             PointIndex(np.array([[0.5, 1.0, 0.0]])), 0.1)
        assert len(calls) == 2


def fan_case(rng, heights, n_radii):
    """Target b, clearance and 32 starts around b: `heights` is "above",
    "below", "level" (at b's height) or "mixed" (each start any of them),
    and the starts' ground distances take `n_radii` values."""
    b = rng.uniform(-1.0, 1.0, size=3)
    clearance = float(rng.uniform(0.03, 0.2))
    radii = np.sort(rng.uniform(0.2, 2.0, n_radii))
    rho = radii[np.arange(32) % n_radii]
    angle = rng.uniform(0.0, 2.0 * math.pi, 32)
    rise = {"above": rng.uniform(0.2, 1.0, 32), "below": -rng.uniform(0.2, 1.0, 32),
            "level": np.zeros(32)}
    side = rng.integers(0, 3, 32)
    z = (np.choose(side, list(rise.values())) if heights == "mixed" else rise[heights])
    starts = np.column_stack([b[0] + rho * np.cos(angle), b[1] + rho * np.sin(angle),
                              b[2] + z])
    return b, clearance, starts


def near_segments(rng, b, starts, n, lo, hi):
    """n points each at a distance in [lo, hi) from a point of a random
    segment from a start to b, in a random direction."""
    seg = rng.integers(0, len(starts), n)
    t = rng.uniform(0.0, 1.0, n)[:, None]
    on = b + t * (starts[seg] - b)
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return on + rng.uniform(lo, hi, n)[:, None] * direction


FAN_CASES = [(h, k) for h in ("above", "below", "level", "mixed") for k in (1, 16)]


class TestSightFan:
    """`sight_fan` drops only points that decide no `line_of_sight` flag,
    and keeps every point within its radius of a segment."""

    @pytest.mark.parametrize("heights,n_radii", FAN_CASES)
    def test_dropped_points_change_no_flag_and_no_exact_call(self, monkeypatch, heights,
                                                            n_radii):
        exact = []

        def counted(a, b, obstacles, clearance):
            exact.append(tuple(a))
            return _segment_clear(a, b, obstacles, clearance)
        monkeypatch.setattr(geometry, "_segment_clear", counted)
        rng = np.random.default_rng([933, n_radii, len(heights)])
        outcomes, dropped, exact_calls = set(), 0, 0
        for _ in range(12):
            b, clearance, starts = fan_case(rng, heights, n_radii)
            reach = np.abs(starts - b).max(axis=0) + 0.5
            scattered = b + rng.uniform(-1.0, 1.0, size=(300, 3)) * reach
            # near the clearance, where the exact test decides
            grazing = near_segments(rng, b, starts, 12, clearance - 0.03, clearance + 0.03)
            points = np.vstack([scattered, grazing])
            keep = sight_fan(points, b, starts, clearance)
            assert np.all(np.diff(keep) > 0)
            want = line_of_sight(starts, b, PointIndex(points), clearance)
            want_exact, exact[:] = list(exact), []
            got = line_of_sight(starts, b, PointIndex(points[keep]), clearance)
            np.testing.assert_array_equal(got, want)
            assert exact == want_exact
            exact_calls += len(exact)
            exact.clear()
            outcomes.update(want.tolist())
            dropped += len(points) - len(keep)
        assert outcomes == {True, False}
        assert dropped > 0 and exact_calls > 0

    @pytest.mark.parametrize("heights,n_radii", FAN_CASES)
    def test_no_point_near_a_segment_is_dropped(self, heights, n_radii):
        rng = np.random.default_rng([934, n_radii, len(heights)])
        for _ in range(12):
            b, clearance, starts = fan_case(rng, heights, n_radii)
            r = clearance + 0.5 * _SIGHT_SPACING + 1e-6
            # a dense sample of every segment, ends included
            t = np.linspace(0.0, 1.0, 401)[:, None, None]
            samples = (b + t * (starts - b)).reshape(-1, 3)
            pick = samples[rng.integers(0, len(samples), 2000)]
            direction = rng.normal(size=(2000, 3))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            length = r * rng.uniform(0.0, 1.0, 2000)
            length[::8] = r * (1.0 - 1e-9)
            near = pick + length[:, None] * direction
            np.testing.assert_array_equal(sight_fan(near, b, starts, clearance),
                                          np.arange(len(near)))

    def test_no_starts_keep_no_point_and_far_points_raise_no_warning(self):
        points = np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.5], [0.0, 1e300, 1e300],
                           [0.1, 0.0, 1e308], [0.0, 0.1, -1e308]])
        b = np.zeros(3)
        assert len(sight_fan(points, b, np.empty((0, 3)), 0.1)) == 0
        for z in (-0.5, 0.0, 1e-3, 0.5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                kept = sight_fan(points, b, np.array([[0.7, 0.0, z], [0.0, 1.1, z]]), 0.1)
            np.testing.assert_array_equal(kept, [0])


# ---------------------------------------------------------------------------
# Small value types
# ---------------------------------------------------------------------------

class TestValueTypes:
    def test_bbox_area_and_intersection(self):
        a = BBox2D(0.0, 0.0, 10.0, 10.0)
        b = BBox2D(5.0, 0.0, 20.0, 10.0)
        assert a.area == 100.0
        assert a.intersection_area(b) == 50.0
        assert b.intersection_area(a) == 50.0
        assert a.intersection_area(BBox2D(30.0, 30.0, 40.0, 40.0)) == 0.0

    def test_bbox_rejects_inverted(self):
        with pytest.raises(ValueError):
            BBox2D(5.0, 0.0, 4.0, 1.0)

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0.0, fy=500.0, cx=10.0, cy=10.0, width=100, height=100)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=500.0, fy=500.0, cx=100.0, cy=10.0, width=100, height=100)

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_intrinsics_reject_non_finite(self, field, value):
        params = dict(fx=100.0, fy=100.0, cx=10.0, cy=10.0, width=20, height=20)
        params[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            CameraIntrinsics(**params)

    def test_plane_requires_unit_normal(self):
        with pytest.raises(ValueError):
            Plane(normal=np.array([0.0, 0.0, 2.0]), offset=0.0)
