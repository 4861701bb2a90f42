"""Depth rendering by ray casting against solid primitives.

Each pose's fixed work is done once per `trace_depth` call: one table of
ray directions, one table of their inverses for the boxes' slab test,
and the screen windows of all primitives from one corner projection.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from ..config import NoiseModel
from ..geometry import CameraIntrinsics, Pose, project_many
from .primitives import Box, aabb_corners

# Corners closer to the camera plane than this project unstably, so a
# primitive with such a corner is tested against every ray.
_NEAR_Z = 1e-6


def _screen_windows(primitives: Sequence, intrinsics: CameraIntrinsics,
                    cam_pose: Pose) -> Iterator[tuple[slice, slice] | None]:
    """Per primitive, the pixel rows and columns whose rays can hit it.

    A primitive in front of the camera projects inside the rectangle
    spanned by its bounding box's projected corners; the rectangle is
    padded by 1 px against rounding and clipped to the image. None when no
    pixel can see it. The corners of all primitives take one projection.
    """
    w, h = intrinsics.width, intrinsics.height
    us, vs, z = (a.reshape(-1, 8) for a in project_many(
        aabb_corners([prim.aabb() for prim in primitives]), intrinsics, cam_pose))
    for behind, near, u_min, u_max, v_min, v_max in zip(
            np.all(z < -_NEAR_Z, axis=1).tolist(),
            np.any(z <= _NEAR_Z, axis=1).tolist(),
            us.min(axis=1).tolist(), us.max(axis=1).tolist(),
            vs.min(axis=1).tolist(), vs.max(axis=1).tolist()):
        if behind:
            yield None
        elif near:
            yield slice(0, h), slice(0, w)
        else:
            u_lo = max(0, math.floor(u_min) - 1)
            u_hi = min(w - 1, math.ceil(u_max) + 1)
            v_lo = max(0, math.floor(v_min) - 1)
            v_hi = min(h - 1, math.ceil(v_max) + 1)
            yield (None if u_lo > u_hi or v_lo > v_hi
                   else (slice(v_lo, v_hi + 1), slice(u_lo, u_hi + 1)))


def trace_depth(primitives: Sequence, intrinsics: CameraIntrinsics,
                cam_pose: Pose) -> np.ndarray:
    """Noiseless depth image (height, width) of the nearest primitive per pixel.

    Rays pass through integer pixel centers with unit forward component,
    so the stored value is depth along the camera axis; 0 marks a miss.
    The pose's ray directions and their inverses (three (height, width)
    planes) are formed once. Each primitive is intersected only with the
    rays of its screen window: a box runs its slab test on a view of the
    inverse planes, a cylinder on its window's directions. So every depth
    equals that of testing all rays against all primitives.
    """
    w, h = intrinsics.width, intrinsics.height
    dirs_cam = np.empty((h, w, 3))
    dirs_cam[:, :, 0] = (np.arange(w, dtype=np.float64) - intrinsics.cx) / intrinsics.fx
    dirs_cam[:, :, 1] = ((np.arange(h, dtype=np.float64) - intrinsics.cy)
                         / intrinsics.fy)[:, None]
    dirs_cam[:, :, 2] = 1.0
    dirs_world = (dirs_cam.reshape(-1, 3) @ cam_pose.rotation.T).reshape(h, w, 3)
    del dirs_cam  # the inverse table takes its memory
    inv = np.empty((3, h, w))
    with np.errstate(divide="ignore"):
        np.divide(1.0, dirs_world.transpose(2, 0, 1), out=inv)
    origin = cam_pose.translation

    t_best = np.full((h, w), np.inf)
    for prim, window in zip(primitives,
                            _screen_windows(primitives, intrinsics, cam_pose)):
        if window is None:
            continue
        rows, cols = window
        best = t_best[rows, cols]
        if isinstance(prim, Box):
            t = prim.intersect_inverse(origin, inv[:, rows, cols])
        else:
            t = prim.intersect(origin, dirs_world[rows, cols].reshape(-1, 3))
            t = t.reshape(best.shape)
        np.minimum(best, t, out=best)
    return np.where(np.isfinite(t_best), t_best, 0.0)


def add_depth_noise(depth: np.ndarray, noise: NoiseModel,
                    seed: int) -> np.ndarray:
    """Seeded sensor noise over a depth image; the input is left unchanged.

    Valid depths get Gaussian noise (values pushed nonpositive become
    invalid) and a fraction is dropped to 0. With no depth noise or
    dropout the input itself is returned.
    """
    if noise.depth_sigma <= 0 and noise.depth_dropout <= 0:
        return depth
    rng = np.random.default_rng(seed)
    if noise.depth_sigma > 0:
        bumps = rng.normal(0.0, noise.depth_sigma, size=depth.shape)
        depth = np.where(depth > 0, depth + bumps, depth)
    if noise.depth_dropout > 0:
        drop = rng.random(depth.shape) < noise.depth_dropout
        depth = np.where(drop, 0.0, depth)
    return np.where(depth < 0, 0.0, depth)


def render_depth(primitives: Sequence, intrinsics: CameraIntrinsics,
                 cam_pose: Pose, noise: NoiseModel = NoiseModel.noiseless(),
                 seed: int = 0) -> np.ndarray:
    """Depth image of `trace_depth` with `add_depth_noise` applied."""
    return add_depth_noise(trace_depth(primitives, intrinsics, cam_pose),
                           noise, seed)
