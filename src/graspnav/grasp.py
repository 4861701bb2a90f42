"""Grasp candidate ingestion, rotation-sweep merging, and filtering.

Grasp candidates arrive from an external detector that is run several
times against rotated copies of the isolated object (rotations about the
object centroid). Each batch must be de-rotated back into the world frame
before candidates can be compared. The grasp center is the pose
translation: the midpoint between the fingertip contact points. The
approach axis is the first column of the pose rotation.

Batch file: JSON {"rotation": [9 floats row-major], "candidates":
[{"translation": [3], "rotation": [9 row-major], "width": w, "score": s}]}.
The batch-level rotation is the pure rotation that was applied to the
object; callers supply the centroid it pivoted about (see sweep_pose).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .codec import JsonCodec, bounded, decode_value, read_json_object
from .errors import (ConfigError, DegenerateInputError, FileFormatError,
                     InvalidRotationError)
from .geometry import PointIndex, Pose, rotation_about_z

DEFAULT_ON_OBJECT_TOL = 0.02
DEFAULT_SWEEP_COUNT = 4
DEFAULT_TOP_K = 10


@dataclass
class GraspCandidate:
    """Two-finger grasp: pose + opening width + detector confidence."""

    pose: Pose
    width: float
    score: float
    source_rotation: int = -1

    def __post_init__(self):
        if self.width < 0:
            raise ValueError(f"grasp width must be nonnegative, got {self.width}")

    @property
    def center(self) -> np.ndarray:
        return self.pose.translation

    @property
    def approach_axis(self) -> np.ndarray:
        return self.pose.rotation[:, 0]


@dataclass(frozen=True)
class GraspConfig(JsonCodec):
    """Knobs for the grasp ingestion stage of the pipeline."""

    on_object_tol: float = bounded(DEFAULT_ON_OBJECT_TOL, gt=0)
    top_k: int = bounded(DEFAULT_TOP_K, ge=1, le=1000)  # per sweep batch, by score
    sweep_count: int = bounded(DEFAULT_SWEEP_COUNT, ge=1, le=64)
    min_similarity: float = bounded(0.5, ge=0, le=1)  # localization threshold


@dataclass
class GraspBatch:
    """One sweep's worth of candidates, still in the rotated frame."""

    rotation: np.ndarray               # the 3x3 applied to the object
    candidates: list[GraspCandidate] = field(default_factory=list)


def sweep_pose(rotation: np.ndarray, centroid: np.ndarray) -> Pose:
    """Pose for a rotation about `centroid`: p -> R (p - c) + c."""
    rot = np.asarray(rotation, dtype=np.float64)
    c = np.asarray(centroid, dtype=np.float64)
    return Pose(rot, c - rot @ c)


def sweep_rotations(count: int) -> list[np.ndarray]:
    """Evenly spaced yaw rotations (about +z), starting at identity."""
    return [rotation_about_z(2.0 * math.pi * i / count) for i in range(count)]


# a row-major 3x3 rotation
_MATRIX = tuple[(float,) * 9]


def load_grasp_batch(path: str) -> GraspBatch:
    """Parse one grasp batch file; candidates stay in the rotated frame."""
    doc = read_json_object(path, "grasp batch")
    try:
        rotation = np.reshape(decode_value(_MATRIX, doc["rotation"], "rotation"),
                              (3, 3))
        records = decode_value(tuple[dict, ...], doc["candidates"], "candidates")
    except KeyError as exc:
        raise FileFormatError(
            f"{path}: malformed grasp batch: missing required key {exc}") from exc
    except ConfigError as exc:
        raise FileFormatError(f"{path}: malformed grasp batch: {exc}") from exc
    candidates = []
    for i, rec in enumerate(records):
        try:
            pose = Pose(
                np.reshape(decode_value(_MATRIX, rec["rotation"], "rotation"),
                           (3, 3)),
                np.array(decode_value(tuple[float, float, float],
                                      rec["translation"], "translation")))
            candidates.append(GraspCandidate(
                pose=pose, width=decode_value(float, rec["width"], "width"),
                score=decode_value(float, rec["score"], "score")))
        except KeyError as exc:
            raise FileFormatError(
                f"{path}: candidate {i}: missing required key {exc}") from exc
        except (ConfigError, ValueError, InvalidRotationError) as exc:
            raise FileFormatError(f"{path}: candidate {i}: {exc}") from exc
    return GraspBatch(rotation=rotation, candidates=candidates)


def merge_rotation_sweeps(
        batches: Sequence[tuple[Pose, Sequence[GraspCandidate]]]) -> list[GraspCandidate]:
    """De-rotate per-sweep candidates into the shared world frame.

    Each batch pairs the rotation pose that was applied to the object
    (a pure rotation about its centroid) with candidates detected in that
    rotated frame. Candidates come back transformed by the inverse pose,
    tagged with their batch index; scores and widths pass through
    untouched and the total count is preserved.
    """
    merged: list[GraspCandidate] = []
    for batch_idx, (rotation_pose, candidates) in enumerate(batches):
        inverse = rotation_pose.inverse()
        for cand in candidates:
            merged.append(replace(cand, pose=inverse.compose(cand.pose),
                                  source_rotation=batch_idx))
    return merged


def filter_grasps(candidates: Sequence[GraspCandidate], object_points: np.ndarray,
                  on_object_tol: float = DEFAULT_ON_OBJECT_TOL) -> list[GraspCandidate]:
    """Keep candidates with positive score whose center lies on the object.

    "On the object" means the grasp center is within `on_object_tol` of
    the nearest object point. Input order is preserved.
    """
    object_points = np.asarray(object_points, dtype=np.float64)
    if object_points.ndim != 2 or object_points.shape[1] != 3 or len(object_points) == 0:
        raise DegenerateInputError(
            f"object_points must be a non-empty (N, 3) array, got shape "
            f"{object_points.shape}")
    if not candidates:
        return []
    dists, _ = PointIndex(object_points).nearest(np.stack([c.center for c in candidates]))
    return [cand for cand, dist in zip(candidates, dists)
            if cand.score > 0.0 and dist <= on_object_tol]


def top_k_by_score(candidates: Sequence[GraspCandidate], k: int) -> list[GraspCandidate]:
    """Highest-scoring k candidates, input order among equals preserved."""
    order = sorted(range(len(candidates)),
                   key=lambda i: (-candidates[i].score, i))[:k]
    return [candidates[i] for i in sorted(order)]
