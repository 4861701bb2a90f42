"""Oracle 2-D box detector over the synthetic cabinet.

Projects ground-truth drawer fronts and handles into the camera and
emits class-labelled boxes. `visible_boxes` is the noiseless geometry of
one pose, with the corners of all candidates in one projection;
`noisy_detections` draws one look's noise over it, so a stationary
camera computes its visible set once for any number of looks. Noise
drops detections, jitters boxes by a whole-box translation, and draws
confidences from a range; the random stream consumes the same draws per
visible candidate regardless of the noise magnitudes, so runs at
different noise levels stay comparable under a shared seed.
"""

from __future__ import annotations

import numpy as np

from ..config import NoiseModel
from ..drawer import Detection2D
from ..geometry import BBox2D, CameraIntrinsics, Pose, project_many
from .primitives import aabb_corners
from .scenegen import PlacedCabinet

_MIN_BOX_PIXELS = 1.0


def visible_boxes(cabinet: PlacedCabinet, intrinsics: CameraIntrinsics,
                  cam_pose: Pose) -> list[tuple[str, BBox2D]]:
    """Class label and clipped pixel box of each candidate seen from `cam_pose`.

    A candidate is visible when the cabinet face points toward the
    camera, its projected corners are all in front of the camera, and the
    tight box around them, clipped to the image, spans at least a pixel
    each way. Drawer fronts come first, then handles, each in drawer
    order.
    """
    candidates = [("drawer", box) for box in cabinet.fronts]
    candidates += [("handle", box) for box in cabinet.handles]
    u, v, z = (a.reshape(-1, 8) for a in project_many(
        aabb_corners([box.aabb() for _, box in candidates]), intrinsics, cam_pose))
    cam_center = cam_pose.translation
    out = []
    for (class_label, box), behind, u_min, u_max, v_min, v_max in zip(
            candidates, np.any(z <= 0, axis=1).tolist(),
            u.min(axis=1).tolist(), u.max(axis=1).tolist(),
            v.min(axis=1).tolist(), v.max(axis=1).tolist()):
        to_cam = cam_center - np.array(box.center)
        if float(to_cam @ cabinet.axis) <= 0.0 or behind:
            continue
        xmin, ymin = max(0.0, u_min), max(0.0, v_min)
        xmax = min(float(intrinsics.width - 1), u_max)
        ymax = min(float(intrinsics.height - 1), v_max)
        if xmax - xmin < _MIN_BOX_PIXELS or ymax - ymin < _MIN_BOX_PIXELS:
            continue
        out.append((class_label, BBox2D(xmin, ymin, xmax, ymax)))
    return out


def noisy_detections(visible: list[tuple[str, BBox2D]], noise: NoiseModel,
                     seed: int) -> list[Detection2D]:
    """One look's detections of the `visible_boxes` output under `noise`."""
    rng = np.random.default_rng(seed)
    lo, hi = noise.confidence_range
    out: list[Detection2D] = []
    for class_label, bbox in visible:
        # fixed draw layout per visible candidate: drop, jitter x/y, conf
        u_drop = rng.random()
        jx, jy = rng.normal(0.0, 1.0, size=2)
        conf = float(rng.uniform(lo, hi))
        if u_drop < noise.detection_dropout:
            continue
        bbox = bbox.translated(noise.bbox_jitter_sigma * jx,
                               noise.bbox_jitter_sigma * jy)
        out.append(Detection2D(class_label=class_label, bbox=bbox,
                               confidence=conf))
    return out


def detect_boxes(cabinet: PlacedCabinet, intrinsics: CameraIntrinsics,
                 cam_pose: Pose, noise: NoiseModel = NoiseModel.noiseless(),
                 seed: int = 0) -> list[Detection2D]:
    """Detect visible drawer fronts and handles from one viewpoint: the
    `visible_boxes` of the pose under one look's `noisy_detections`."""
    return noisy_detections(visible_boxes(cabinet, intrinsics, cam_pose),
                            noise, seed)
