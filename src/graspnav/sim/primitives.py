"""Solid primitives with ray casting and stratified surface sampling.

Rays are given as an origin plus unnormalized directions; intersection
returns the smallest positive parameter t per ray (inf for a miss), so a
camera ray with unit forward component yields t equal to the depth along
the camera axis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigError

_RAY_EPS = 1e-9


def stratified_rect(width: float, height: float, density: float,
                    rng: np.random.Generator) -> np.ndarray:
    """One jittered point per grid cell over [0, width) x [0, height).

    The grid resolution is the nearest integer fit to a square cell of
    area 1/density per side, so a patch whose sides are exact multiples
    of the cell size yields exactly area * density points.
    """
    if width <= 0 or height <= 0 or density <= 0:
        raise ValueError("width, height, and density must be positive")
    cell = 1.0 / math.sqrt(density)
    nx = max(1, round(width / cell))
    ny = max(1, round(height / cell))
    # (i + jitter) * (w / n) per axis, computed in place in the one draw
    cells = rng.random((ny, nx, 2))
    xs, ys = cells[:, :, 0], cells[:, :, 1]
    xs += np.arange(nx)
    xs *= width / nx
    ys += np.arange(ny)[:, None]
    ys *= height / ny
    return cells.reshape(-1, 2)


@dataclass(frozen=True)
class Box:
    """Axis-aligned solid box: center (3,) and full extents (3,)."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))
        object.__setattr__(self, "size", tuple(float(x) for x in self.size))
        if any(s <= 0 for s in self.size):
            raise ConfigError(f"box extents must be positive, got {self.size}")
        half = 0.5 * np.array(self.size)
        lo, hi = np.array(self.center) - half, np.array(self.center) + half
        for name, corner in (("lo", lo), ("hi", hi)):
            corner.setflags(write=False)
            object.__setattr__(self, name, corner)

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lo, self.hi

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Slab test; entry parameter per ray, inf on miss or origin inside."""
        with np.errstate(divide="ignore"):
            inv = 1.0 / np.asarray(dirs, dtype=np.float64)
        return self.intersect_inverse(origin, inv.T)

    def intersect_inverse(self, origin: np.ndarray, inv: np.ndarray) -> np.ndarray:
        """`intersect` given the inverse directions as planes `inv` (3, ...),
        one per axis; the result has the shape of one plane."""
        origin = np.asarray(origin, dtype=np.float64)
        tmin = np.full(inv.shape[1:], -np.inf)
        tmax = np.full(inv.shape[1:], np.inf)
        with np.errstate(invalid="ignore"):
            for axis in range(3):
                t1 = (self.lo[axis] - origin[axis]) * inv[axis]
                t2 = (self.hi[axis] - origin[axis]) * inv[axis]
                # fmin/fmax ignore the NaN of 0 * inf, from a ray parallel
                # to a slab that starts on one of its faces
                np.fmax(tmin, np.fmin(t1, t2), out=tmin)
                np.fmin(tmax, np.fmax(t1, t2, out=t1), out=tmax)
        hit = (tmax >= tmin) & (tmin > _RAY_EPS)
        return np.where(hit, tmin, np.inf)

    def sample_surface(self, density: float, rng: np.random.Generator) -> np.ndarray:
        """Stratified points on all six faces."""
        lo, hi = self.lo, self.hi
        sx, sy, sz = self.size
        out = []
        # face order is fixed so sampling is reproducible per seed
        for axis, (a_dim, b_dim) in ((0, (sy, sz)), (1, (sx, sz)), (2, (sx, sy))):
            a_axis, b_axis = [i for i in range(3) if i != axis]
            for coord in (lo[axis], hi[axis]):
                uv = stratified_rect(a_dim, b_dim, density, rng)
                pts = np.empty((len(uv), 3))
                pts[:, axis] = coord
                pts[:, a_axis] = lo[a_axis] + uv[:, 0]
                pts[:, b_axis] = lo[b_axis] + uv[:, 1]
                out.append(pts)
        return np.concatenate(out, axis=0)


@dataclass(frozen=True)
class Cylinder:
    """Vertical solid cylinder: center (3,) at mid-height, radius, height."""

    center: tuple[float, float, float]
    radius: float
    height: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))
        if self.radius <= 0 or self.height <= 0:
            raise ConfigError(
                f"radius and height must be positive, got {self.radius}, {self.height}")

    @property
    def z_lo(self) -> float:
        return self.center[2] - 0.5 * self.height

    @property
    def z_hi(self) -> float:
        return self.center[2] + 0.5 * self.height

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        cx, cy, _ = self.center
        lo = np.array([cx - self.radius, cy - self.radius, self.z_lo])
        hi = np.array([cx + self.radius, cy + self.radius, self.z_hi])
        return lo, hi

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        origin = np.asarray(origin, dtype=np.float64)
        dirs = np.asarray(dirs, dtype=np.float64)
        n = len(dirs)
        best = np.full(n, np.inf)
        ox = origin[0] - self.center[0]
        oy = origin[1] - self.center[1]
        oz = origin[2]
        dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]

        # curved side: entry root of the 2-D quadratic, z range checked
        a = dx * dx + dy * dy
        b = 2.0 * (ox * dx + oy * dy)
        c = ox * ox + oy * oy - self.radius * self.radius
        disc = b * b - 4.0 * a * c
        solvable = (a > 0) & (disc >= 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_side = (-b - np.sqrt(np.where(solvable, disc, 0.0))) / (2.0 * a)
        z_at = oz + t_side * dz
        ok = solvable & (t_side > _RAY_EPS) & (z_at >= self.z_lo) & (z_at <= self.z_hi)
        best = np.where(ok & (t_side < best), t_side, best)

        # caps: plane hits inside the radius
        for z_cap in (self.z_lo, self.z_hi):
            with np.errstate(divide="ignore", invalid="ignore"):
                t_cap = (z_cap - oz) / dz
                px = ox + t_cap * dx
                py = oy + t_cap * dy
                inside = px * px + py * py <= self.radius * self.radius
            ok = np.isfinite(t_cap) & (t_cap > _RAY_EPS) & inside
            best = np.where(ok & (t_cap < best), t_cap, best)
        return best

    def sample_surface(self, density: float, rng: np.random.Generator) -> np.ndarray:
        """Stratified points on the side plus both caps."""
        out = []
        side = stratified_rect(2.0 * math.pi * self.radius, self.height, density, rng)
        theta = side[:, 0] / self.radius
        out.append(np.stack([
            self.center[0] + self.radius * np.cos(theta),
            self.center[1] + self.radius * np.sin(theta),
            self.z_lo + side[:, 1],
        ], axis=1))
        for z_cap in (self.z_lo, self.z_hi):
            uv = stratified_rect(2.0 * self.radius, 2.0 * self.radius, density, rng)
            px = uv[:, 0] - self.radius
            py = uv[:, 1] - self.radius
            keep = px * px + py * py <= self.radius * self.radius
            pts = np.stack([self.center[0] + px[keep], self.center[1] + py[keep],
                            np.full(int(keep.sum()), z_cap)], axis=1)
            out.append(pts)
        return np.concatenate(out, axis=0)


_CORNER_IS_HI = np.array(list(itertools.product((False, True), repeat=3)))


def aabb_corners(aabbs: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The 8 corners of each axis-aligned box given as (lo, hi): (8 k, 3)."""
    lo_hi = np.reshape(np.asarray(aabbs, dtype=np.float64), (-1, 2, 1, 3))
    return np.where(_CORNER_IS_HI, lo_hi[:, 1], lo_hi[:, 0]).reshape(-1, 3)


def aabbs_overlap(a: tuple[np.ndarray, np.ndarray],
                  b: tuple[np.ndarray, np.ndarray], margin: float = 0.0) -> bool:
    """True when two axis-aligned boxes come within `margin` of touching."""
    lo_a, hi_a = a
    lo_b, hi_b = b
    return bool(np.all(lo_a - margin <= hi_b) and np.all(lo_b - margin <= hi_a))
