"""Oracle 2-D box detector over the synthetic cabinet.

Projects ground-truth drawer fronts and handles into the camera and
emits class-labelled boxes. Noise drops detections, jitters boxes by a
whole-box translation, and draws confidences from a range; the random
stream consumes the same draws per visible candidate regardless of the
noise magnitudes, so runs at different noise levels stay comparable
under a shared seed.
"""

from __future__ import annotations

import numpy as np

from ..config import NoiseModel
from ..drawer import Detection2D
from ..geometry import BBox2D, CameraIntrinsics, Pose, project_many
from .primitives import Box, aabb_corners
from .scenegen import PlacedCabinet

_MIN_BOX_PIXELS = 1.0


def _project_box(box: Box, intrinsics: CameraIntrinsics,
                 cam_pose: Pose) -> BBox2D | None:
    """Tight pixel box around the projected corners, clipped to the image."""
    u, v, z = project_many(aabb_corners(box.aabb()), intrinsics, cam_pose)
    if np.any(z <= 0):
        return None
    xmin = max(0.0, float(u.min()))
    ymin = max(0.0, float(v.min()))
    xmax = min(float(intrinsics.width - 1), float(u.max()))
    ymax = min(float(intrinsics.height - 1), float(v.max()))
    if xmax - xmin < _MIN_BOX_PIXELS or ymax - ymin < _MIN_BOX_PIXELS:
        return None
    return BBox2D(xmin, ymin, xmax, ymax)


def detect_boxes(cabinet: PlacedCabinet, intrinsics: CameraIntrinsics,
                 cam_pose: Pose, noise: NoiseModel = NoiseModel.noiseless(),
                 seed: int = 0) -> list[Detection2D]:
    """Detect visible drawer fronts and handles from one viewpoint.

    A candidate is visible when its projected corners are all in front of
    the camera, the clipped box spans at least a pixel each way, and the
    cabinet face points toward the camera. Output lists drawer fronts
    first, then handles, each in drawer order.
    """
    rng = np.random.default_rng(seed)
    cam_center = cam_pose.translation
    out: list[Detection2D] = []
    for class_label, boxes in (("drawer", cabinet.fronts),
                               ("handle", cabinet.handles)):
        for box in boxes:
            to_cam = cam_center - np.array(box.center)
            if float(to_cam @ cabinet.axis) <= 0.0:
                continue
            bbox = _project_box(box, intrinsics, cam_pose)
            if bbox is None:
                continue
            # fixed draw layout per visible candidate: drop, jitter x/y, conf
            u_drop = rng.random()
            jx, jy = rng.normal(0.0, 1.0, size=2)
            lo, hi = noise.confidence_range
            conf = float(rng.uniform(lo, hi))
            if u_drop < noise.detection_dropout:
                continue
            bbox = bbox.translated(noise.bbox_jitter_sigma * jx,
                                   noise.bbox_jitter_sigma * jy)
            out.append(Detection2D(class_label=class_label, bbox=bbox,
                                   confidence=conf))
    return out
