"""Body-position sampling and validation around a manipulation target.

Candidates are laid out on concentric rings around the target's ground
projection and are accepted when they (1) lie within the scene and leave
footprint clearance to the nearest obstacle, and (2) keep a clear line of
sight from camera height to the target centroid. Accepted candidates get
the body score

    s_body = d_obstacles - lambda_item * d_item

which rewards standing clear of obstacles while staying close to the
target. d_item is the ground distance to the target centroid; d_obstacles
is measured at standing height against all non-target points above the
floor slab.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import JsonCodec, bounded
from .errors import ConfigError, EmptySceneError
from .geometry import line_of_sight
from .scene import PointCloudScene

REASON_OUT_OF_SCENE = "out-of-scene"
REASON_NO_LINE_OF_SIGHT = "no-line-of-sight"

# Guard against float fuzz when the step divides the circle evenly.
_RING_COUNT_EPS = 1e-9


@dataclass(frozen=True)
class NavConfig(JsonCodec):
    """Sampling radii and validation thresholds; all serializable."""

    radii: tuple[float, ...] = bounded((0.7, 0.9, 1.1), gt=0)
    # at most 1000 candidates per ring
    angular_step: float = bounded(2.0 * math.pi / 36.0, ge=2.0 * math.pi / 1000.0,
                                  le=math.pi)
    footprint_radius: float = bounded(0.35, gt=0)
    camera_height: float = bounded(0.8, gt=0)
    standing_height: float = bounded(0.5, gt=0)
    lambda_item: float = bounded(0.5, gt=0)
    los_clearance: float = bounded(0.10, gt=0)
    los_target_exclusion: float = bounded(0.25, ge=0)
    floor_slab: float = bounded(0.02, ge=0)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if not 1 <= len(self.radii) <= 16 or list(self.radii) != sorted(self.radii):
            raise ConfigError(f"radii must be 1 to 16 ascending values, got {self.radii}")


@dataclass
class BodyCandidate:
    """A planar base placement; scores are filled by validate_candidates."""

    position: np.ndarray               # (2,) ground-plane x, y
    yaw: float                         # facing direction, radians
    camera_height: float
    standing_height: float
    valid: bool = False
    reason: str | None = None
    s_body: float | None = None
    d_obstacles: float | None = None
    d_item: float | None = None

    @property
    def camera_point(self) -> np.ndarray:
        return np.array([self.position[0], self.position[1], self.camera_height])

    @property
    def standing_point(self) -> np.ndarray:
        return np.array([self.position[0], self.position[1], self.standing_height])


def ring_count(angular_step: float) -> int:
    return int(math.ceil(2.0 * math.pi / angular_step - _RING_COUNT_EPS))


def sample_positions(target: np.ndarray, config: NavConfig) -> list[BodyCandidate]:
    """Ring candidates around the target's ground projection.

    Yaw always faces the target, so count = len(radii) * ceil(2*pi/step).
    Candidates come back unvalidated.
    """
    target = np.asarray(target, dtype=np.float64)
    tx, ty = float(target[0]), float(target[1])
    n_angles = ring_count(config.angular_step)
    out = []
    for radius in config.radii:
        for i in range(n_angles):
            angle = i * config.angular_step
            px = tx + radius * math.cos(angle)
            py = ty + radius * math.sin(angle)
            out.append(BodyCandidate(
                position=np.array([px, py]),
                yaw=math.atan2(ty - py, tx - px),
                camera_height=config.camera_height,
                standing_height=config.standing_height,
            ))
    return out


def validate_candidates(candidates: list[BodyCandidate], scene: PointCloudScene,
                        target_instance: int, config: NavConfig) -> list[BodyCandidate]:
    """Mark each candidate valid or invalid; element-wise and order-stable.

    In-scene check: position inside the scene bounds shrunk by the
    footprint radius, and at least footprint_radius from the nearest
    non-target obstacle at standing height (floor slab excluded, since the
    robot stands on the floor). Line-of-sight check: from the camera point
    to the target centroid against all non-target points, ignoring points
    within los_target_exclusion of the centroid so the support surface
    right under the object does not count as a blocker. Both checks run
    batched: one clearance query for all standing points, one
    line-of-sight call for the in-scene camera points.
    """
    centroid = scene.centroid_of(target_instance)
    min_z = float(scene.bounds[0][2]) + config.floor_slab
    lo = scene.bounds[0][:2] + config.footprint_radius
    hi = scene.bounds[1][:2] - config.footprint_radius
    los_index = scene.obstacle_index(exclude_instance=target_instance,
                                     target_exclusion=config.los_target_exclusion)
    positions = np.array([cand.position for cand in candidates]).reshape(-1, 2)
    standing = np.column_stack([positions, [c.standing_height for c in candidates]])
    cameras = np.column_stack([positions, [c.camera_height for c in candidates]])
    try:
        d_obstacles = scene.distance_to_obstacles(
            standing, exclude_instance=target_instance, min_z=min_z)
    except EmptySceneError:
        # With every non-floor obstacle excluded the clearance check is
        # vacuous; use the scene diagonal as a finite, JSON-safe stand-in.
        d_obstacles = np.full(len(candidates),
                              float(np.linalg.norm(scene.bounds[1] - scene.bounds[0])))
    in_scene = (np.all(positions >= lo, axis=1) & np.all(positions <= hi, axis=1)
                & (d_obstacles >= config.footprint_radius))
    sight = np.zeros(len(candidates), dtype=bool)
    sight[in_scene] = line_of_sight(cameras[in_scene], centroid, los_index,
                                    clearance=config.los_clearance)

    out = []
    for i, cand in enumerate(candidates):
        checked = BodyCandidate(position=cand.position.copy(), yaw=cand.yaw,
                                camera_height=cand.camera_height,
                                standing_height=cand.standing_height)
        out.append(checked)
        if not in_scene[i]:
            checked.reason = REASON_OUT_OF_SCENE
            continue
        if not sight[i]:
            checked.reason = REASON_NO_LINE_OF_SIGHT
            continue
        checked.valid = True
        checked.d_obstacles = float(d_obstacles[i])
        checked.d_item = float(math.hypot(cand.position[0] - centroid[0],
                                          cand.position[1] - centroid[1]))
        checked.s_body = checked.d_obstacles - config.lambda_item * checked.d_item
    return out
