"""Depth rendering by ray casting against solid primitives."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..config import NoiseModel
from ..geometry import CameraIntrinsics, Pose, project_many
from .primitives import aabb_corners

# Corners closer to the camera plane than this project unstably, so a
# primitive with such a corner is tested against every ray.
_NEAR_Z = 1e-6


def _screen_window(aabb: tuple[np.ndarray, np.ndarray],
                   intrinsics: CameraIntrinsics,
                   cam_pose: Pose) -> tuple[slice, slice] | None:
    """Pixel rows and columns whose rays can hit a primitive inside `aabb`.

    A box in front of the camera projects inside the rectangle spanned by
    its projected corners; the rectangle is padded by 1 px against
    rounding and clipped to the image. None when no pixel can see it.
    """
    w, h = intrinsics.width, intrinsics.height
    us, vs, z = project_many(aabb_corners(aabb), intrinsics, cam_pose)
    if np.all(z < -_NEAR_Z):
        return None
    if np.any(z <= _NEAR_Z):
        return slice(0, h), slice(0, w)
    u_lo = max(0, math.floor(us.min()) - 1)
    u_hi = min(w - 1, math.ceil(us.max()) + 1)
    v_lo = max(0, math.floor(vs.min()) - 1)
    v_hi = min(h - 1, math.ceil(vs.max()) + 1)
    if u_lo > u_hi or v_lo > v_hi:
        return None
    return slice(v_lo, v_hi + 1), slice(u_lo, u_hi + 1)


def trace_depth(primitives: Sequence, intrinsics: CameraIntrinsics,
                cam_pose: Pose) -> np.ndarray:
    """Noiseless depth image (height, width) of the nearest primitive per pixel.

    Rays pass through integer pixel centers with unit forward component,
    so the stored value is depth along the camera axis; 0 marks a miss.
    Each primitive is intersected only with the rays of its screen
    window, indexed from one set of ray directions for the whole image,
    so every depth equals that of testing all rays against all primitives.
    """
    w, h = intrinsics.width, intrinsics.height
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    dirs_cam = np.stack([
        (us.ravel() - intrinsics.cx) / intrinsics.fx,
        (vs.ravel() - intrinsics.cy) / intrinsics.fy,
        np.ones(w * h),
    ], axis=1)
    dirs_world = (dirs_cam @ cam_pose.rotation.T).reshape(h, w, 3)
    origin = cam_pose.translation

    t_best = np.full((h, w), np.inf)
    for prim in primitives:
        window = _screen_window(prim.aabb(), intrinsics, cam_pose)
        if window is None:
            continue
        rows, cols = window
        block = dirs_world[rows, cols]
        t = prim.intersect(origin, block.reshape(-1, 3))
        np.minimum(t_best[rows, cols], t.reshape(block.shape[:2]),
                   out=t_best[rows, cols])
    return np.where(np.isfinite(t_best), t_best, 0.0)


def add_depth_noise(depth: np.ndarray, noise: NoiseModel | None,
                    seed: int) -> np.ndarray:
    """Seeded sensor noise over a depth image; the input is left unchanged.

    Valid depths get Gaussian noise (values pushed nonpositive become
    invalid) and a fraction is dropped to 0. Without a noise model, or
    with a noiseless one, the input itself is returned.
    """
    if noise is None or (noise.depth_sigma <= 0 and noise.depth_dropout <= 0):
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
                 cam_pose: Pose, noise: NoiseModel | None = None,
                 seed: int = 0) -> np.ndarray:
    """Depth image of `trace_depth` with `add_depth_noise` applied."""
    return add_depth_noise(trace_depth(primitives, intrinsics, cam_pose),
                           noise, seed)
