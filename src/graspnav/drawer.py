"""Drawer perception: handle matching, axis estimation, view fusion, pulls.

A detection frame carries 2-D handle and drawer boxes plus a depth image.
Handles are matched to drawer fronts by minimum-cost assignment where
pairing handle h with drawer d costs

    C(h, d) = -(kappa * IoA(h, d) + Conf(d))

and IoA is the overlap area normalized by the handle box area, so a
handle fully inside its drawer front scores 1 regardless of how much
larger the front is. Unmatched rows and columns are absorbed by sentinel
padding. From each matched pair we read a 3-D handle center (median
depth inside the handle box) and an axis of motion (outward normal of
the drawer front plane, fit by RANSAC on the depth points around the
handle). Per-view estimates are fused by greedy confidence-ordered
clustering, and a fused target can be turned into a base placement plus
a straight pull segment, or refined from a close-range frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .codec import MAX_LENGTH, JsonCodec, bounded, read_json, to_json
from .errors import (ConfigError, DegenerateBBoxError, DegenerateInputError,
                     FileFormatError, GraspNavError, InvalidAxisError,
                     MissingDepthError, NoPlaneFoundError)
from .geometry import (BBox2D, CameraIntrinsics, Pose, RansacParams, backproject,
                       backproject_many, ransac_plane, rotation_about_z)

DEFAULT_KAPPA = 10.0
DEFAULT_IOA_MIN = 0.5
DEFAULT_CLUSTER_RADIUS = 0.10
DEFAULT_GATE_RADIUS = 0.15
DEFAULT_STANDOFF = 0.7
DEFAULT_PULL_DISTANCE = 0.25

# padding cost for unmatched rows/columns in the square assignment problem
UNMATCHED_COST = 1.0e6
MAX_DETECTIONS = 256  # per frame file; the assignment solver is cubic in it

# axes steeper than 30 degrees from the horizontal plane are not pullable
_MAX_VERTICAL_DOT = math.cos(math.pi / 6.0)

HANDLE = "handle"
DRAWER = "drawer"
_CLASSES = (HANDLE, DRAWER)


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Detection2D:
    """One detector output: a class-labelled box with a confidence."""

    class_label: str
    bbox: BBox2D
    confidence: float

    def __post_init__(self):
        if self.class_label not in _CLASSES:
            raise ValueError(
                f"class must be one of {_CLASSES}, got {self.class_label!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass
class DetectionFrame:
    """Detections plus the depth image and camera they were observed with."""

    intrinsics: CameraIntrinsics
    cam_pose: Pose                     # world <- camera
    depth: np.ndarray                  # (height, width), meters, 0 = invalid
    detections: list[Detection2D] = field(default_factory=list)

    def __post_init__(self):
        depth = np.asarray(self.depth)
        if depth.dtype != np.float32:  # a float32 image is scanned before it is widened
            depth = depth.astype(np.float64, copy=False)
        expected = (self.intrinsics.height, self.intrinsics.width)
        if depth.shape != expected:
            raise ValueError(f"depth shape {depth.shape} does not match intrinsics {expected}")
        if np.any(depth < 0):
            raise ValueError("depth image contains negative values")
        self.depth = depth.astype(np.float64, copy=False)

    @property
    def handles(self) -> list[Detection2D]:
        return [d for d in self.detections if d.class_label == HANDLE]

    @property
    def drawers(self) -> list[Detection2D]:
        return [d for d in self.detections if d.class_label == DRAWER]


@dataclass(frozen=True)
class MatchedPair:
    """A handle assigned to a drawer front, with the assignment terms."""

    handle: Detection2D
    drawer: Detection2D
    handle_index: int
    drawer_index: int
    ioa: float
    cost: float


@dataclass(frozen=True)
class ViewTarget:
    """One view's estimate of a drawer: handle center, axis, confidence."""

    center: np.ndarray                 # (3,) world
    axis: np.ndarray                   # (3,) unit, out of the drawer front
    confidence: float
    plane_inliers: int = 1


@dataclass(frozen=True)
class DrawerTarget:
    """A fused drawer estimate across views."""

    handle_center: np.ndarray
    axis: np.ndarray
    supporting_views: int
    plane_inliers: int
    total_confidence: float


@dataclass(frozen=True)
class PullPlan:
    """Where to stand and the straight-line handle motion for the pull."""

    body_pose: Pose
    pull_from: np.ndarray
    pull_to: np.ndarray


@dataclass(frozen=True)
class DrawerConfig(JsonCodec):
    """Tuning for matching, fusion, and pull planning."""

    kappa: float = bounded(DEFAULT_KAPPA, gt=0)
    ioa_min: float = bounded(DEFAULT_IOA_MIN, ge=0, le=1)
    cluster_radius: float = bounded(DEFAULT_CLUSTER_RADIUS, gt=0)
    gate_radius: float = bounded(DEFAULT_GATE_RADIUS, gt=0)
    standoff: float = bounded(DEFAULT_STANDOFF, gt=0, le=MAX_LENGTH)
    pull_distance: float = bounded(DEFAULT_PULL_DISTANCE, gt=0, le=MAX_LENGTH)
    ransac: RansacParams = field(default_factory=RansacParams)


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------

def ioa(handle: BBox2D, drawer: BBox2D) -> float:
    """Intersection area over the handle box area."""
    area = handle.area
    if area <= 0.0:
        raise DegenerateBBoxError(f"handle box has zero area: {handle}")
    return handle.intersection_area(drawer) / area


def assignment_costs(handles: Sequence[Detection2D], drawers: Sequence[Detection2D],
                     kappa: float = DEFAULT_KAPPA) -> np.ndarray:
    """Pairwise costs -(kappa * IoA + drawer confidence), shape (H, D)."""
    costs = np.empty((len(handles), len(drawers)), dtype=np.float64)
    for i, h in enumerate(handles):
        for j, d in enumerate(drawers):
            costs[i, j] = -(kappa * ioa(h.bbox, d.bbox) + d.confidence)
    return costs


def solve_assignment(costs: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost row/column pairing of a rectangular cost matrix.

    The matrix is padded to square with a large sentinel so every real row
    and column may go unmatched at the same fixed price; only real pairs
    are returned, ordered by row index.
    """
    costs = np.asarray(costs, dtype=np.float64)
    n_rows, n_cols = costs.shape
    if n_rows == 0 or n_cols == 0:
        return []
    size = max(n_rows, n_cols)
    padded = np.full((size, size), UNMATCHED_COST)
    padded[:n_rows, :n_cols] = costs
    cols = _min_cost_columns(padded)
    return [(r, c) for r, c in enumerate(cols)
            if r < n_rows and c < n_cols and padded[r, c] < UNMATCHED_COST]


def _min_cost_columns(cost: np.ndarray) -> list[int]:
    """Column assigned to each row in a minimum-cost perfect matching.

    Shortest augmenting paths with dual variables (Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 52(4),
    2016), ported line by line from scipy's `linear_sum_assignment`
    (``rectangular_lsap.cpp``) for a square matrix. It keeps scipy's
    order: the scan list starts at the last column, a reduced cost is
    ``min_val + cost[i][j] - u[i] - v[j]`` evaluated left to right, ties
    go to a free column, a visited column is swap-removed from the scan
    list, and the dual updates and the augmentation run as there. With
    no multiply in the loop, each double comes out as scipy's, so the
    same columns win, ties included. Cost is O(n^3) for an (n, n)
    matrix.

    Raises:
        ValueError: an entry is NaN or -inf, or no perfect matching of
            finite cost exists; with scipy's messages.
    """
    n = len(cost)
    if np.any(np.isnan(cost) | (cost == -math.inf)):
        raise ValueError("matrix contains invalid numeric entries")
    rows = cost.tolist()
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur_row in range(n):
        # shortest augmenting path from cur_row to a free column
        remaining = list(range(n - 1, -1, -1))
        in_rows = [False] * n
        in_cols = [False] * n
        spc = [math.inf] * n
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            index = -1
            lowest = math.inf
            in_rows[i] = True
            row, ui = rows[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest = spc[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        # update the dual variables
        u[cur_row] += min_val
        for i in range(n):
            if in_rows[i] and i != cur_row:
                u[i] += min_val - spc[col4row[i]]
        for j in range(n):
            if in_cols[j]:
                v[j] -= min_val - spc[j]
        # augment the previous matching along the path
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def match_handles_to_drawers(handles: Sequence[Detection2D],
                             drawers: Sequence[Detection2D],
                             kappa: float = DEFAULT_KAPPA,
                             ioa_min: float = DEFAULT_IOA_MIN) -> list[MatchedPair]:
    """Assign handles to drawer fronts, dropping weakly overlapping pairs."""
    if not handles or not drawers:
        return []
    costs = assignment_costs(handles, drawers, kappa)
    out = []
    for i, j in solve_assignment(costs):
        overlap = ioa(handles[i].bbox, drawers[j].bbox)
        if overlap < ioa_min:
            continue
        out.append(MatchedPair(handle=handles[i], drawer=drawers[j],
                               handle_index=i, drawer_index=j,
                               ioa=overlap, cost=float(costs[i, j])))
    return out


# ---------------------------------------------------------------------------
# Metric lifting
# ---------------------------------------------------------------------------

def _pixel_rect(bbox: BBox2D, intrinsics: CameraIntrinsics) -> tuple[int, int, int, int]:
    """Integer pixel rect covered by a box, clipped to the image; lo > hi when empty."""
    u_lo = max(0, math.floor(bbox.xmin))
    v_lo = max(0, math.floor(bbox.ymin))
    u_hi = min(intrinsics.width - 1, math.ceil(bbox.xmax) - 1)
    v_hi = min(intrinsics.height - 1, math.ceil(bbox.ymax) - 1)
    return u_lo, v_lo, u_hi, v_hi


def handle_center_3d(pair: MatchedPair, frame: DetectionFrame) -> np.ndarray:
    """Backproject the handle box center at the median depth inside the box."""
    u_lo, v_lo, u_hi, v_hi = _pixel_rect(pair.handle.bbox, frame.intrinsics)
    if u_lo > u_hi or v_lo > v_hi:
        raise MissingDepthError("handle box lies outside the image")
    patch = frame.depth[v_lo:v_hi + 1, u_lo:u_hi + 1]
    valid = patch[patch > 0.0]
    if valid.size == 0:
        raise MissingDepthError("no valid depth inside the handle box")
    depth = float(np.median(valid))
    cu, cv = pair.handle.bbox.center
    cu = min(max(cu, 0.0), frame.intrinsics.width - 1.0)
    cv = min(max(cv, 0.0), frame.intrinsics.height - 1.0)
    return backproject(cu, cv, depth, frame.intrinsics, frame.cam_pose)


def estimate_axis(pair: MatchedPair, frame: DetectionFrame,
                  ransac: RansacParams = RansacParams(),
                  seed: int = 0) -> tuple[np.ndarray, int]:
    """Axis of motion: outward normal of the drawer front plane.

    Fits a plane to the depth points inside the drawer box but outside the
    handle box (the handle sticks out of the front), then orients the
    normal toward the camera. Returns the unit axis and the plane's inlier
    count.
    """
    du_lo, dv_lo, du_hi, dv_hi = _pixel_rect(pair.drawer.bbox, frame.intrinsics)
    if du_lo > du_hi or dv_lo > dv_hi:
        raise DegenerateInputError("drawer box lies outside the image")
    us = np.arange(du_lo, du_hi + 1, dtype=np.float64)
    vs = np.arange(dv_lo, dv_hi + 1, dtype=np.float64)
    hb = pair.handle.bbox
    in_handle = np.outer((vs >= hb.ymin) & (vs <= hb.ymax),
                         (us >= hb.xmin) & (us <= hb.xmax))
    patch = frame.depth[dv_lo:dv_hi + 1, du_lo:du_hi + 1]
    keep = ~in_handle & (patch > 0.0)
    rows, cols = np.divmod(np.flatnonzero(keep), keep.shape[1])  # row-major order
    if len(rows) < 3:
        raise DegenerateInputError(
            "fewer than 3 depth points around the handle to fit the front plane")
    points = backproject_many(us[cols], vs[rows], patch[keep],
                              frame.intrinsics, frame.cam_pose)
    plane = ransac_plane(points, ransac, seed=seed)
    axis = np.asarray(plane.normal, dtype=np.float64).copy()
    toward_camera = frame.cam_pose.translation - points.T.copy().mean(axis=1)  # sign only
    if float(axis @ toward_camera) < 0.0:
        axis = -axis
    return axis, plane.inlier_count


def view_target(pair: MatchedPair, frame: DetectionFrame,
                ransac: RansacParams = RansacParams(),
                seed: int = 0) -> ViewTarget:
    """Lift one matched pair to a 3-D per-view drawer estimate."""
    center = handle_center_3d(pair, frame)
    axis, inliers = estimate_axis(pair, frame, ransac, seed=seed)
    return ViewTarget(center=center, axis=axis,
                      confidence=pair.drawer.confidence, plane_inliers=inliers)


# ---------------------------------------------------------------------------
# Fusion and planning
# ---------------------------------------------------------------------------

def fuse_views(per_view: Sequence[ViewTarget],
               cluster_radius: float = DEFAULT_CLUSTER_RADIUS) -> list[DrawerTarget]:
    """Cluster per-view estimates into distinct drawers.

    Estimates are visited in decreasing confidence order; each unclaimed
    estimate seeds a cluster and claims every unclaimed estimate within
    `cluster_radius` of its center. Cluster centers and axes are
    confidence-weighted means, axes hemisphere-aligned to the seed before
    averaging. Output is ordered by total cluster confidence, descending.
    """
    n = len(per_view)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: (-per_view[i].confidence, i))
    claimed = [False] * n
    clusters: list[DrawerTarget] = []
    for seed_idx in order:
        if claimed[seed_idx]:
            continue
        seed = per_view[seed_idx]
        members = []
        for j in order:
            if claimed[j]:
                continue
            if np.linalg.norm(per_view[j].center - seed.center) <= cluster_radius:
                claimed[j] = True
                members.append(per_view[j])
        weight = sum(m.confidence for m in members)
        if weight <= 0.0:
            # all-zero confidence cluster, fall back to a plain mean
            center = np.mean([m.center for m in members], axis=0)
            axis = seed.axis
        else:
            center = sum(m.confidence * m.center for m in members) / weight
            axis = np.zeros(3)
            for m in members:
                flip = -1.0 if float(m.axis @ seed.axis) < 0.0 else 1.0
                axis = axis + m.confidence * flip * m.axis
            norm = np.linalg.norm(axis)
            axis = seed.axis if norm < 1e-12 else axis / norm
        clusters.append(DrawerTarget(
            handle_center=center, axis=axis, supporting_views=len(members),
            plane_inliers=sum(m.plane_inliers for m in members),
            total_confidence=weight))
    clusters.sort(key=lambda c: -c.total_confidence)
    return clusters


def plan_pull(target: DrawerTarget, standoff: float = DEFAULT_STANDOFF,
              pull_distance: float = DEFAULT_PULL_DISTANCE) -> PullPlan:
    """Base placement on the axis, facing the handle, plus the pull segment.

    Drawers travel horizontally, so the axis is projected to the ground
    plane; axes within 30 degrees of vertical are rejected as unpullable.
    The base stands `standoff` out along the projected axis at ground
    height, and the pull drags the handle `pull_distance` further out.
    """
    axis = np.asarray(target.axis, dtype=np.float64)
    if abs(axis[2]) > _MAX_VERTICAL_DOT:
        raise InvalidAxisError(
            f"axis {axis.tolist()} is within 30 degrees of vertical")
    horizontal = np.array([axis[0], axis[1], 0.0])
    horizontal /= np.linalg.norm(horizontal)
    center = np.asarray(target.handle_center, dtype=np.float64)
    stand = center + standoff * horizontal
    yaw = math.atan2(-horizontal[1], -horizontal[0])
    body = Pose(rotation_about_z(yaw), np.array([stand[0], stand[1], 0.0]))
    return PullPlan(body_pose=body, pull_from=center.copy(),
                    pull_to=center + pull_distance * horizontal)


def refine_target(initial: DrawerTarget, close_frame: DetectionFrame,
                  drawer_cfg: DrawerConfig = DrawerConfig(), *,
                  seed: int = 0) -> tuple[DrawerTarget, bool]:
    """Re-estimate center and axis from a close-range frame, best effort.

    The close frame's matched pair nearest the initial center wins if it
    lies within the config's `gate_radius`; otherwise, or when matching or
    plane fitting fails, the initial target is returned unchanged with a
    False flag.
    """
    pairs = match_handles_to_drawers(close_frame.handles, close_frame.drawers,
                                     kappa=drawer_cfg.kappa,
                                     ioa_min=drawer_cfg.ioa_min)
    candidates = []
    for pair in pairs:
        try:
            center = handle_center_3d(pair, close_frame)
        except MissingDepthError:
            continue
        candidates.append((pair, center))
    if not candidates:
        return initial, False
    dists = [np.linalg.norm(c - initial.handle_center) for _, c in candidates]
    best = int(np.argmin(dists))
    if dists[best] > drawer_cfg.gate_radius:
        return initial, False
    pair, center = candidates[best]
    try:
        axis, inliers = estimate_axis(pair, close_frame, drawer_cfg.ransac,
                                      seed=seed)
    except (DegenerateInputError, NoPlaneFoundError):
        return initial, False
    refined = replace(initial, handle_center=center, axis=axis,
                      plane_inliers=inliers)
    return refined, True


# ---------------------------------------------------------------------------
# Frame I/O
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _DetectionRecord(JsonCodec):
    class_: str
    bbox: tuple[float, float, float, float]
    confidence: float


@dataclass(frozen=True)
class _FrameFile(JsonCodec):
    intrinsics: CameraIntrinsics
    cam_pose: tuple[(float,) * 16]     # row-major world <- camera
    depth_file: str
    detections: tuple[_DetectionRecord, ...]

    @classmethod
    def from_dict(cls, d: dict):
        # checked before any box is decoded, so an oversized file costs no decode
        n = len(d["detections"]) if isinstance(d.get("detections"), list) else 0
        if n > MAX_DETECTIONS:
            raise ConfigError(f"{n} detections, above the cap of"
                              f" {MAX_DETECTIONS} per frame")
        return super().from_dict(d)


def load_detection_frame(path: str | Path) -> DetectionFrame:
    """Read a detection frame: JSON metadata plus a raw float32 depth file.

    The depth file is named by a bare file name in the JSON file's directory;
    a name with a directory part is rejected. Depth is row-major little-endian
    float32, one value per pixel, 0 where invalid; every value must be finite.
    `_FrameFile` declares the keys; `detections` holds at most `MAX_DETECTIONS`.
    """
    path = Path(path)
    doc = read_json(path, _FrameFile, "detection frame")
    depth_name = doc.depth_file
    if not depth_name or Path(depth_name).parent != Path("."):
        raise FileFormatError(
            f"{path}: depth_file must be a bare file name, got {depth_name!r}")
    try:
        cam_pose = Pose.from_matrix(np.reshape(doc.cam_pose, (4, 4)))
    except (ValueError, GraspNavError) as exc:
        raise FileFormatError(f"{path}: cam_pose: {exc}") from exc
    detections = []
    for i, rec in enumerate(doc.detections):
        try:
            detections.append(
                Detection2D(rec.class_, BBox2D(*rec.bbox), rec.confidence))
        except ValueError as exc:
            raise FileFormatError(f"{path}: detections[{i}]: {exc}") from exc
    intrinsics = doc.intrinsics
    depth_path = path.parent / depth_name
    if not depth_path.is_file():
        raise FileFormatError(f"{path}: depth file not found: {depth_name}")
    depth = np.fromfile(depth_path, dtype="<f4")  # widened once checked
    expected = intrinsics.width * intrinsics.height
    if depth.size != expected:
        raise FileFormatError(
            f"{path}: depth file has {depth.size} values, expected {expected}")
    if not np.all(np.isfinite(depth)):
        raise FileFormatError(
            f"{path}: depth file {depth_name} contains non-finite values")
    try:
        return DetectionFrame(intrinsics=intrinsics, cam_pose=cam_pose,
                              depth=depth.reshape(intrinsics.height, intrinsics.width),
                              detections=detections)
    except ValueError as exc:  # the shape fits, so the frame's scan found a negative value
        raise FileFormatError(f"{path}: depth file contains negative values") from exc


def write_detection_frame(path: str | Path, frame: DetectionFrame,
                          depth_file: str | None = None) -> None:
    """Write a frame as JSON plus a sibling raw float32 depth file."""
    path = Path(path)
    if depth_file is None:
        depth_file = path.stem + ".depth.bin"
    records = tuple(_DetectionRecord(d.class_label, tuple(d.bbox.as_list()),
                                     d.confidence) for d in frame.detections)
    text = to_json(_FrameFile(frame.intrinsics,
                              tuple(frame.cam_pose.matrix().reshape(-1).tolist()),
                              depth_file, records), indent=2)
    frame.depth.astype("<f4").tofile(path.parent / depth_file)
    path.write_text(text)
