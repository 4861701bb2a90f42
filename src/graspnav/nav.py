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
# m; caps every length, far above any room a mobile base plans in
_MAX_LENGTH = 100.0


@dataclass(frozen=True)
class NavConfig(JsonCodec):
    """Sampling radii and validation thresholds; all serializable."""

    radii: tuple[float, ...] = bounded((0.7, 0.9, 1.1), gt=0, le=_MAX_LENGTH)
    # at most 1000 candidates per ring
    angular_step: float = bounded(2.0 * math.pi / 36.0, ge=2.0 * math.pi / 1000.0,
                                  le=math.pi)
    footprint_radius: float = bounded(0.35, gt=0, le=_MAX_LENGTH)
    camera_height: float = bounded(0.8, gt=0, le=_MAX_LENGTH)
    standing_height: float = bounded(0.5, gt=0, le=_MAX_LENGTH)
    lambda_item: float = bounded(0.5, gt=0)
    los_clearance: float = bounded(0.10, gt=0, le=_MAX_LENGTH)
    los_target_exclusion: float = bounded(0.25, ge=0, le=_MAX_LENGTH)
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


def check_stance(scene: PointCloudScene, positions: np.ndarray,
                 exclude_instance: int | None,
                 config: NavConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whether a body can stand at each of the (N, 2) ground `positions`.

    Returns (N,) arrays `inside` (within the scene bounds shrunk by the
    footprint radius), `clear` (clearance at least the footprint radius)
    and `clearance`: the distance at standing height to the nearest point
    outside `exclude_instance` and above the floor slab, which the robot
    stands on. All positions share one kd-tree query.
    """
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    lo, hi = scene.bounds
    inside = (np.all(positions >= lo[:2] + config.footprint_radius, axis=1)
              & np.all(positions <= hi[:2] - config.footprint_radius, axis=1))
    standing = np.column_stack([positions, np.full(len(positions), config.standing_height)])
    try:
        clearance = scene.distance_to_obstacles(standing, exclude_instance,
                                                min_z=float(lo[2]) + config.floor_slab)
    except EmptySceneError:
        # With every obstacle excluded the clearance check is vacuous; use
        # the scene diagonal as a finite, JSON-safe stand-in.
        clearance = np.full(len(positions), float(np.linalg.norm(hi - lo)))
    return inside, clearance >= config.footprint_radius, clearance


def validate_candidates(candidates: list[BodyCandidate], scene: PointCloudScene,
                        target_instance: int, config: NavConfig) -> list[BodyCandidate]:
    """Mark each candidate valid or invalid; element-wise and order-stable.

    In-scene check: `check_stance`, with the target excluded. Line-of-sight
    check: from the camera point to the target centroid, blocked by the
    points of `scene.obstacle_index` with `los_target_exclusion`, so the
    support surface right under the object does not block. One clearance
    query and one line-of-sight call serve all candidates.
    """
    centroid = scene.centroid_of(target_instance)
    los_index = scene.obstacle_index(exclude_instance=target_instance,
                                     target_exclusion=config.los_target_exclusion)
    positions = np.array([cand.position for cand in candidates]).reshape(-1, 2)
    cameras = np.column_stack([positions, [c.camera_height for c in candidates]])
    inside, clear, d_obstacles = check_stance(scene, positions, target_instance, config)
    in_scene = inside & clear
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
