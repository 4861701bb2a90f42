"""Core 3D geometry: rigid poses, pinhole cameras, plane fitting, sampling.

Conventions used throughout the package:
    * World and camera frames are right handed, units are meters.
    * Camera frame: x right, y down, z forward (optical axis). A camera
      pose maps camera-frame coordinates into the world frame.
    * Pixel coordinates (u, v) are continuous, u along image columns,
      v along rows. The valid domain is the half-open box
      [0, width) x [0, height).
    * Rotation matrices act on column vectors; stored row-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import JsonCodec, bounded
from .errors import (
    BehindCameraError,
    DegenerateInputError,
    InvalidDepthError,
    InvalidRotationError,
    NoPlaneFoundError,
    OutOfBoundsError,
)

# Orthonormality tolerance for accepting a matrix as a rotation.
ROTATION_TOL = 1e-6
# Below this squared length a direction vector counts as zero.
ZERO_LENGTH_SQ = 1e-24

_RANSAC_CHUNK = 16  # hypothesis planes scored per block between stopping tests
_RANSAC_CONFIDENCE = 0.999  # Fischler-Bolles confidence at which scoring stops

_SIGHT_SPACING = 0.05  # m; line-of-sight samples lie at most this far apart
_SIGHT_MARGIN = 1e-9  # m; keeps the sampled sight decisions clear of rounding
_SIGHT_MAX_SAMPLES = 10_000  # longer segments skip sampling for the exact test

_TREE_LEAF_SIZE = 32  # kd-tree leaf size; see PointIndex


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DegenerateInputError(f"expected an (N, 3) point array, got shape {pts.shape}")
    return pts


class Pose:
    """Rigid transform: p_out = rotation @ p_in + translation.

    Both arrays are read-only copies, so a pose stays the proper rotation
    its constructor checked."""

    __slots__ = ("rotation", "translation")

    def __init__(self, rotation: np.ndarray, translation: np.ndarray):
        rot = np.array(rotation, dtype=np.float64)
        tra = np.array(translation, dtype=np.float64).reshape(-1)
        if rot.shape != (3, 3):
            raise InvalidRotationError(f"rotation must be 3x3, got {rot.shape}")
        if tra.shape != (3,):
            raise ValueError(f"translation must have 3 components, got {tra.shape}")
        if not np.isfinite(tra).all():
            raise ValueError(f"translation must be finite, got {tra}")
        # written as `not <=` so that a NaN entry fails the check; a huge
        # entry overflows the product to inf or NaN, which fails it too
        with np.errstate(over="ignore", invalid="ignore"):
            err = np.max(np.abs(rot @ rot.T - np.eye(3)))
        if not err <= ROTATION_TOL:
            raise InvalidRotationError(f"matrix is not orthonormal (max |R R^T - I| = {err:.3g})")
        det = float(np.linalg.det(rot))
        if not abs(det - 1.0) <= ROTATION_TOL:
            raise InvalidRotationError(f"matrix is not a proper rotation (det = {det:.9f})")
        rot.setflags(write=False)
        tra.setflags(write=False)
        self.rotation = rot
        self.translation = tra

    @classmethod
    def _trusted(cls, rot: np.ndarray, tra: np.ndarray) -> "Pose":
        """Pose of new arrays that form a proper rotation by construction,
        such as products of checked poses, without the checks."""
        rot.setflags(write=False)
        tra.setflags(write=False)
        pose = cls.__new__(cls)
        pose.rotation, pose.translation = rot, tra
        return pose

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "Pose":
        """Build from a 4x4 homogeneous matrix (last row 0 0 0 1)."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (4, 4):
            raise InvalidRotationError(f"homogeneous matrix must be 4x4, got {m.shape}")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > ROTATION_TOL:
            raise InvalidRotationError("last row of homogeneous matrix must be (0, 0, 0, 1)")
        return cls(m[:3, :3], m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def compose(self, other: "Pose") -> "Pose":
        """Transform applying `other` first, then `self`."""
        return Pose._trusted(self.rotation @ other.rotation,
                             self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose._trusted(np.array(rt), -(rt @ self.translation))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to one (3,) point or an (N, 3) batch."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            return self.rotation @ pts + self.translation
        return pts @ self.rotation.T + self.translation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pose(t={np.array2string(self.translation, precision=4)})"


def rotation_about_z(angle: float) -> np.ndarray:
    """Rotation matrix for a yaw about the world +z axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def look_at(eye: np.ndarray, target: np.ndarray) -> Pose:
    """Camera pose at `eye` with the optical axis through `target`.

    Uses the x-right / y-down / z-forward camera convention; world +z maps
    to image-up (negative v).
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.array([0.0, 0.0, 1.0])
    fwd = target - eye
    n = np.linalg.norm(fwd)
    if n * n < ZERO_LENGTH_SQ:
        raise DegenerateInputError("look_at target coincides with eye")
    z = fwd / n
    x = np.cross(z, up)
    nx = np.linalg.norm(x)
    if nx * nx < ZERO_LENGTH_SQ:
        # optical axis parallel to up; fall back to world x as the up hint
        x = np.cross(z, np.array([1.0, 0.0, 0.0]))
        nx = np.linalg.norm(x)
    x = x / nx
    y = np.cross(z, x)
    rot = np.stack([x, y, z], axis=1)
    return Pose(rot, eye)


@dataclass(frozen=True)
class CameraIntrinsics(JsonCodec):
    """Pinhole intrinsics; fx, fy, cx, cy in pixels, image size in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"image size must be positive, got {self.width}x{self.height}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image "
                f"{self.width}x{self.height}"
            )

    def contains(self, u: float, v: float) -> bool:
        return 0.0 <= u < self.width and 0.0 <= v < self.height


@dataclass(frozen=True)
class BBox2D:
    """Axis-aligned pixel box with continuous coordinates, xmin <= xmax."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(
                f"invalid bbox ({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"
            )

    @property
    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    def intersection_area(self, other: "BBox2D") -> float:
        w = min(self.xmax, other.xmax) - max(self.xmin, other.xmin)
        h = min(self.ymax, other.ymax) - max(self.ymin, other.ymin)
        if w <= 0.0 or h <= 0.0:
            return 0.0
        return w * h

    def translated(self, dx: float, dy: float) -> "BBox2D":
        return BBox2D(self.xmin + dx, self.ymin + dy, self.xmax + dx, self.ymax + dy)

    def as_list(self) -> list[float]:
        return [self.xmin, self.ymin, self.xmax, self.ymax]


@dataclass(frozen=True)
class Plane:
    """Plane normal . p = offset with a unit normal."""

    normal: np.ndarray
    offset: float
    inlier_count: int = 0

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64).reshape(3)
        ln = float(np.linalg.norm(n))
        if abs(ln - 1.0) > 1e-9:
            raise ValueError(f"plane normal must be unit length, got |n| = {ln}")
        object.__setattr__(self, "normal", n)


@dataclass(frozen=True)
class RansacParams(JsonCodec):
    """Tuning for plane search: inlier threshold (m), hypothesis cap, min fraction."""

    threshold: float = bounded(0.005, gt=0)
    iterations: int = bounded(1000, ge=1, le=100_000)  # all drawn up front
    min_inlier_fraction: float = bounded(0.3, ge=0, le=1)


class PointIndex:
    """Immutable nearest-neighbor index over an (N, 3) point set.

    The kd-tree splits at sliding midpoints (``balanced_tree=False``),
    keeps up to `_TREE_LEAF_SIZE` points per leaf and skips shrinking node
    boxes to their points (``compact_nodes=False``): all three build
    faster. Queries are exact for any tree shape, and every caller reads
    only distances, or a minimum over `ball` results, so no query result
    depends on these settings.
    """

    def __init__(self, points: np.ndarray):
        # imported here, so commands that build no kd-tree never load scipy
        from scipy.spatial import cKDTree
        self._points = _as_points(points).copy()
        self._points.setflags(write=False)
        self._tree = (cKDTree(self._points, leafsize=_TREE_LEAF_SIZE,
                              balanced_tree=False, compact_nodes=False)
                      if len(self._points) else None)

    @property
    def points(self) -> np.ndarray:
        return self._points

    def __len__(self) -> int:
        return len(self._points)

    def nearest(self, point: np.ndarray, distance_upper_bound: float = math.inf):
        """Distance and index of the closest stored point.

        One (3,) point gives a float and an int, an (N, 3) batch two (N,)
        arrays. A point with no stored point within `distance_upper_bound`
        gets distance inf and index ``len(self)``.
        """
        if self._tree is None:
            raise DegenerateInputError("index holds no points")
        dist, idx = self._tree.query(np.asarray(point, dtype=np.float64),
                                     distance_upper_bound=distance_upper_bound)
        if np.ndim(dist) == 0:
            return float(dist), int(idx)
        return dist, idx

    def ball(self, point: np.ndarray, radius: float) -> np.ndarray:
        """Indices of points within `radius` of `point`."""
        if self._tree is None:
            return np.empty(0, dtype=np.intp)
        idx = self._tree.query_ball_point(np.asarray(point, dtype=np.float64), radius)
        return np.asarray(idx, dtype=np.intp)


# ---------------------------------------------------------------------------
# Pinhole projection
# ---------------------------------------------------------------------------

def backproject(u: float, v: float, depth: float, intrinsics: CameraIntrinsics,
                cam_pose: Pose) -> np.ndarray:
    """Lift a pixel with known depth to a world point.

    Args:
        u, v: pixel coordinates, required to lie in [0, width) x [0, height).
        depth: camera-frame z of the observed surface, strictly positive.
        intrinsics: pinhole parameters.
        cam_pose: world-from-camera transform.

    Returns:
        (3,) world point.
    """
    if depth <= 0.0:
        raise InvalidDepthError(f"depth must be positive, got {depth}")
    if not intrinsics.contains(u, v):
        raise OutOfBoundsError(
            f"pixel ({u}, {v}) outside image {intrinsics.width}x{intrinsics.height}"
        )
    p_cam = np.array([
        (u - intrinsics.cx) * depth / intrinsics.fx,
        (v - intrinsics.cy) * depth / intrinsics.fy,
        depth,
    ])
    return cam_pose.apply(p_cam)


def backproject_many(us: np.ndarray, vs: np.ndarray, depths: np.ndarray,
                     intrinsics: CameraIntrinsics, cam_pose: Pose) -> np.ndarray:
    """Vectorized backprojection; assumes callers validated bounds and depths."""
    us = np.asarray(us, dtype=np.float64)
    vs = np.asarray(vs, dtype=np.float64)
    depths = np.asarray(depths, dtype=np.float64)
    p_cam = np.stack([
        (us - intrinsics.cx) * depths / intrinsics.fx,
        (vs - intrinsics.cy) * depths / intrinsics.fy,
        depths,
    ], axis=-1)
    return cam_pose.apply(p_cam)


def project(point: np.ndarray, intrinsics: CameraIntrinsics,
            cam_pose: Pose) -> tuple[float, float, float]:
    """Project a world point through the camera; returns (u, v, depth).

    Raises BehindCameraError when the point has camera-frame z <= 0. The
    returned pixel may fall outside the image; callers clip as needed.
    """
    p_cam = cam_pose.inverse().apply(np.asarray(point, dtype=np.float64))
    z = float(p_cam[2])
    if z <= 0.0:
        raise BehindCameraError(f"point has camera-frame depth {z}")
    u = intrinsics.fx * float(p_cam[0]) / z + intrinsics.cx
    v = intrinsics.fy * float(p_cam[1]) / z + intrinsics.cy
    return (u, v, z)


def project_many(points: np.ndarray, intrinsics: CameraIntrinsics,
                 cam_pose: Pose) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized projection; callers must handle nonpositive depths themselves."""
    p_cam = cam_pose.inverse().apply(_as_points(points))
    z = p_cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intrinsics.fx * p_cam[:, 0] / z + intrinsics.cx
        v = intrinsics.fy * p_cam[:, 1] / z + intrinsics.cy
    return u, v, z


# ---------------------------------------------------------------------------
# Plane fitting
# ---------------------------------------------------------------------------

def _centred_scatter(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and centred 3x3 scatter of the (n, 3) `pts`.

    Both come from a contiguous (3, n) copy: its row means and six row dot
    products are several times cheaper than reductions over the (n, 3)
    layout or a (3, n) @ (n, 3) product.
    """
    cols = pts.T.copy()  # (3, n), C order
    centroid = cols.mean(axis=1)
    cols -= centroid[:, None]
    x, y, z = cols
    xy, xz, yz = x @ y, x @ z, y @ z
    return centroid, np.array([[x @ x, xy, xz], [xy, y @ y, yz], [xz, yz, z @ z]])


def _refit_plane(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Total least-squares plane through `points`: unit normal and offset."""
    centroid, scatter = _centred_scatter(points)
    normal = np.linalg.eigh(scatter)[1][:, 0].copy()  # least-spread direction
    return normal, float(normal @ centroid)


def _clearly_spans_plane(pts: np.ndarray) -> bool:
    """True when `pts` pass the SVD collinearity rule by a wide margin.

    The eigenvalues ``lam`` (ascending) of the centred 3x3 scatter are the
    squared singular values of the centred cloud. Accepting only when
    ``lam[1] >= 1e-8 * max(lam[2], 1)`` asks for sigma_2 >= 1e-4 *
    max(sigma_1, 1), eight orders of magnitude above the SVD rule's 1e-12.
    Forming the scatter rounds it by about n * 2**-53 relative to its
    largest eigenvalue (below 1e-9 for millions of points), and the two
    centroids differ only in rounding, so the SVD rule accepts every cloud
    accepted here and no fit decides differently. False decides nothing:
    the caller then runs the SVD rule, which also owns every error for
    collinear or non-finite input.
    """
    with np.errstate(all="ignore"):  # overflow or NaN falls through to the SVD
        scatter = _centred_scatter(pts)[1]
    if not np.all(np.isfinite(scatter)):
        return False
    lam = np.linalg.eigvalsh(scatter)
    return bool(lam[1] >= 1e-8 * max(lam[2], 1.0))


def ransac_plane(points: np.ndarray, params: RansacParams = RansacParams(),
                 seed: int = 0) -> Plane:
    """Fit the dominant plane by seeded RANSAC with a least-squares refit.

    Draws `params.iterations` point triplets up front, then builds and
    scores their hypothesis planes in order, one block of `_RANSAC_CHUNK`
    at a time, keeping the plane with the most points within
    `params.threshold` of it (first hypothesis wins ties). Scoring stops
    after the block in which the Fischler-Bolles bound
    ``1 - (1 - w**3)**k >= _RANSAC_CONFIDENCE`` holds, where `k` counts
    the non-degenerate hypotheses scored so far and `w` is the best inlier
    share, so `params.iterations` only caps the draw and blocks after the
    stop are never built. The winner is refit by total least squares on
    its inliers, and the plane reports the refit's inlier count.

    Raises:
        DegenerateInputError: fewer than 3 points, or all points collinear.
        NoPlaneFoundError: every drawn triplet is degenerate, or the best
            plane captures less than `params.min_inlier_fraction` of the
            points.
    """
    pts = _as_points(points)
    n = len(pts)
    if n < 3:
        raise DegenerateInputError(f"plane fit needs at least 3 points, got {n}")
    if not _clearly_spans_plane(pts):
        centered = pts - pts.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        if sv[1] <= 1e-12 * max(sv[0], 1.0):
            raise DegenerateInputError("points are collinear; no unique plane exists")

    rng = np.random.default_rng(seed)
    triplets = rng.integers(0, n, size=(params.iterations, 3))
    dist_buf = np.empty((_RANSAC_CHUNK, n))
    near_buf = np.empty((_RANSAC_CHUNK, n), dtype=bool)
    best_count = -1
    scored = 0
    for lo in range(0, params.iterations, _RANSAC_CHUNK):
        block = triplets[lo:lo + _RANSAC_CHUNK]
        a = pts[block[:, 0]]
        normals = np.cross(pts[block[:, 1]] - a, pts[block[:, 2]] - a)
        lengths = np.linalg.norm(normals, axis=1)
        valid = lengths > 1e-12
        if not np.any(valid):
            continue
        normals[valid] /= lengths[valid, None]
        offsets = np.einsum("ij,ij->i", normals, a)
        dist = np.matmul(normals, pts.T, out=dist_buf[:len(block)])  # (block, n)
        dist -= offsets[:, None]
        np.abs(dist, out=dist)
        near = np.less_equal(dist, params.threshold, out=near_buf[:len(block)])
        # row by row: an axis=1 count casts the bools to integers first
        counts = np.array([np.count_nonzero(r) if ok else -1 for r, ok in zip(near, valid)])
        k = int(np.argmax(counts))
        if counts[k] > best_count:
            best_count = int(counts[k])
            best_normal, best_offset = normals[k], offsets[k]
        scored += int(np.count_nonzero(valid))
        if 1.0 - (1.0 - (best_count / n) ** 3) ** scored >= _RANSAC_CONFIDENCE:
            break
    if best_count < 0:
        raise NoPlaneFoundError("all sampled triplets were degenerate")

    inliers = np.abs(pts @ best_normal - best_offset) <= params.threshold
    normal, offset = _refit_plane(pts.compress(inliers, axis=0))  # 3x faster than pts[inliers]
    final_count = int(np.count_nonzero(np.abs(pts @ normal - offset) <= params.threshold))
    if final_count < params.min_inlier_fraction * n:
        raise NoPlaneFoundError(
            f"best plane has {final_count}/{n} inliers, below fraction "
            f"{params.min_inlier_fraction}"
        )
    return Plane(normal=normal, offset=offset, inlier_count=final_count)


# ---------------------------------------------------------------------------
# Sampling and visibility
# ---------------------------------------------------------------------------

def farthest_point_sample(candidates: np.ndarray, k: int, start_index: int = 0) -> list[int]:
    """Greedy farthest-point subset of `candidates`.

    Starts at `start_index`, then repeatedly adds the candidate whose
    distance to the chosen set is largest; exact ties go to the lowest
    index. Returns the k chosen indices in selection order.
    """
    pts = _as_points(candidates)
    n = len(pts)
    if not 1 <= k <= n:
        raise OutOfBoundsError(f"k must be in [1, {n}], got {k}")
    if not 0 <= start_index < n:
        raise OutOfBoundsError(f"start_index must be in [0, {n}), got {start_index}")
    chosen = [start_index]
    min_d = np.linalg.norm(pts - pts[start_index], axis=1)
    min_d[start_index] = -1.0  # never re-selected
    for _ in range(k - 1):
        nxt = int(np.argmax(min_d))  # argmax takes the first max: lowest index
        chosen.append(nxt)
        d = np.linalg.norm(pts - pts[nxt], axis=1)
        np.minimum(min_d, d, out=min_d)
        min_d[nxt] = -1.0
    return chosen


def _segment_clear(a: np.ndarray, b: np.ndarray, obstacles: PointIndex,
                   clearance: float) -> bool:
    """Exact test: every indexed point is farther than `clearance` from the
    closed segment a-b (a zero-length segment is clear)."""
    d = b - a
    seg_len_sq = float(d @ d)
    if seg_len_sq < ZERO_LENGTH_SQ:
        return True
    # Prune with a ball around the segment midpoint before the exact test.
    mid = 0.5 * (a + b)
    radius = 0.5 * math.sqrt(seg_len_sq) + clearance + 1e-9
    pts = obstacles.points[obstacles.ball(mid, radius)]
    if len(pts) == 0:
        return True
    t = np.clip((pts - a) @ d / seg_len_sq, 0.0, 1.0)
    closest = a + t[:, None] * d
    dist_sq = np.sum((pts - closest) ** 2, axis=1)
    return bool(np.min(dist_sq) > clearance * clearance)


def sight_reach(radius: float, clearance: float) -> float:
    """Horizontal crop reach around `to_point` for `line_of_sight` starts
    within `radius` of it: every segment point is within `radius` too, so a
    point beyond the reach is farther than ``clearance + h/2`` plus a margin
    (h = `_SIGHT_SPACING`) from all of them; no sample's bounded query finds
    it, the exact test never sees it block, and dropping it changes no flag.
    The 1e-6 m term absorbs the rounding of the crop's squared distances
    (`PointCloudScene.obstacle_index`)."""
    return radius + clearance + 0.5 * _SIGHT_SPACING + 1e-6


def line_of_sight(from_point: np.ndarray, to_point: np.ndarray,
                  obstacles: PointIndex, clearance: float) -> "bool | np.ndarray":
    """Whether the segment from each start to `to_point` keeps `clearance`
    from every indexed obstacle point.

    `from_point` is one (3,) start, which gives a bool, or an (N, 3) batch
    of starts, which gives an (N,) bool array. The segment is closed: an
    obstacle's closest segment point has its parameter t clipped to
    [0, 1], so an obstacle at exactly `clearance` from the start (or from
    `to_point`) blocks. A zero-length segment is clear. Which points block
    sight is decided by whoever builds `obstacles`; for body placement that
    is `PointCloudScene.obstacle_index`. Monotone: shrinking `clearance`
    never turns a clear view blocked.

    Every segment is sampled at most `_SIGHT_SPACING` (h) apart, so each of
    its points lies within h/2 of a sample, and one kd-tree query finds
    each sample's nearest obstacle within ``clearance + h/2 + margin``. A
    segment with no obstacle in that range is clear; one with a sample
    closer than ``clearance - margin`` is blocked. The remaining segments
    (and near-zero or very long ones) get `_segment_clear`, the exact
    point-to-segment test, so every flag equals the exact test's.

    `sight_reach` gives how far from `to_point` an obstacle can decide a flag.

    Raises:
        DegenerateInputError: a segment's squared length is not finite.
    """
    if clearance < 0:
        raise ValueError(f"clearance must be nonnegative, got {clearance}")
    starts = np.asarray(from_point, dtype=np.float64)
    single = starts.ndim == 1
    starts = _as_points(starts[None, :] if single else starts)
    b = np.asarray(to_point, dtype=np.float64)
    d = b - starts
    seg_len_sq = np.einsum("ij,ij->i", d, d)
    if not np.isfinite(seg_len_sq).all():
        raise DegenerateInputError("a line-of-sight segment has a non-finite length")

    clear = np.ones(len(starts), dtype=bool)
    if len(obstacles):
        # counts stay float until the cap, so a huge length cannot overflow the cast
        n_samples = np.ceil(np.sqrt(seg_len_sq) / _SIGHT_SPACING) + 1
        # the exact test owns the zero-length rule, so near-zero segments go there
        use_samples = (seg_len_sq >= 2.0 * ZERO_LENGTH_SQ) & (n_samples <= _SIGHT_MAX_SAMPLES)
        sampled, exact = np.flatnonzero(use_samples), np.flatnonzero(~use_samples)
        if len(sampled):
            counts = n_samples[sampled].astype(np.intp)
            first = np.cumsum(counts) - counts
            seg = np.repeat(np.arange(len(sampled)), counts)
            t = (np.arange(int(counts.sum())) - first[seg]) / (counts[seg] - 1)
            samples = starts[sampled[seg]] + t[:, None] * d[sampled[seg]]
            gap, _ = obstacles.nearest(
                samples, distance_upper_bound=clearance + 0.5 * _SIGHT_SPACING + _SIGHT_MARGIN)
            gap = np.minimum.reduceat(gap, first)
            blocked = gap < clearance - _SIGHT_MARGIN
            clear[sampled[blocked]] = False
            exact = np.concatenate([exact, sampled[np.isfinite(gap) & ~blocked]])
        for i in exact:
            clear[i] = _segment_clear(starts[i], b, obstacles, clearance)
    return bool(clear[0]) if single else clear
