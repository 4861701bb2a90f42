"""One config object covering every stage, loadable from a JSON file.

Each section is optional and falls back to that stage's defaults, but
unknown sections and unknown keys inside a section are rejected so silent
typos cannot change behavior. The resolved form (every default filled in)
is what reports echo, making any run reproducible from its own output.

The simulator's two sections, `SimConfig` (camera, views, tolerances) and
`NoiseModel` (sensor noise), are defined here; the simulator and the
shared pipeline stages take the whole `RunConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codec import JsonCodec, read_json_object
from .drawer import DrawerConfig
from .errors import ConfigError
from .geometry import CameraIntrinsics
from .grasp import GraspConfig
from .nav import NavConfig
from .optimizer import OptimizerWeights


@dataclass(frozen=True)
class NoiseModel(JsonCodec):
    """Disturbances applied to rendered depth and detected boxes.

    Defaults are the reference noise level: 5 mm depth noise, 10% depth
    dropout, 5% missed detections, 2 px box jitter, and detector
    confidences drawn uniformly from [0.6, 1.0].
    """

    depth_sigma: float = 0.005
    depth_dropout: float = 0.1
    detection_dropout: float = 0.05
    bbox_jitter_sigma: float = 2.0
    confidence_range: tuple[float, float] = (0.6, 1.0)

    def __post_init__(self):
        if self.depth_sigma < 0:
            raise ConfigError(f"depth_sigma must be >= 0, got {self.depth_sigma}")
        if not 0.0 <= self.depth_dropout <= 1.0:
            raise ConfigError(
                f"depth_dropout must be in [0, 1], got {self.depth_dropout}")
        if not 0.0 <= self.detection_dropout <= 1.0:
            raise ConfigError(
                f"detection_dropout must be in [0, 1], got {self.detection_dropout}")
        if self.bbox_jitter_sigma < 0:
            raise ConfigError(
                f"bbox_jitter_sigma must be >= 0, got {self.bbox_jitter_sigma}")
        lo, hi = self.confidence_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ConfigError(
                f"confidence_range must satisfy 0 <= lo <= hi <= 1, got {self.confidence_range}")
        object.__setattr__(self, "confidence_range", (float(lo), float(hi)))

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(depth_sigma=0.0, depth_dropout=0.0, detection_dropout=0.0,
                   bbox_jitter_sigma=0.0, confidence_range=(1.0, 1.0))


@dataclass(frozen=True)
class SimConfig(JsonCodec):
    """Camera, viewpoint, tolerance, and difficulty settings."""

    image_width: int = 160
    image_height: int = 120
    focal: float = 130.0
    n_views: int = 4
    view_candidates: int = 12
    view_span_deg: float = 120.0
    view_radius: float = 1.5
    grasp_success_tol: float = 0.02
    axis_tol_deg: float = 5.0
    handle_tol: float = 0.03
    close_looks: int = 3
    tier_noise_easy: float = 1.0
    tier_noise_medium: float = 2.0
    tier_noise_hard: float = 4.0

    def __post_init__(self):
        if self.image_width < 8 or self.image_height < 8:
            raise ConfigError("image size must be at least 8 x 8")
        for name in ("focal", "view_radius", "grasp_success_tol", "axis_tol_deg",
                     "handle_tol", "tier_noise_easy", "tier_noise_medium",
                     "tier_noise_hard"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_views < 1 or self.view_candidates < self.n_views:
            raise ConfigError("need view_candidates >= n_views >= 1")
        if self.close_looks < 1:
            raise ConfigError(f"close_looks must be >= 1, got {self.close_looks}")
        if not 0.0 < self.view_span_deg <= 360.0:
            raise ConfigError(
                f"view_span_deg must be in (0, 360], got {self.view_span_deg}")

    @property
    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(fx=self.focal, fy=self.focal,
                                cx=(self.image_width - 1) / 2.0,
                                cy=(self.image_height - 1) / 2.0,
                                width=self.image_width, height=self.image_height)

    def tier_sigma(self, tier: str, depth_sigma: float) -> float:
        factor = {"easy": self.tier_noise_easy, "medium": self.tier_noise_medium,
                  "hard": self.tier_noise_hard}[tier]
        return depth_sigma * factor


@dataclass(frozen=True)
class RunConfig(JsonCodec):
    """Fully resolved settings for queries, planning, and simulation."""

    nav: NavConfig = field(default_factory=NavConfig)
    optimizer: OptimizerWeights = field(default_factory=OptimizerWeights)
    grasp: GraspConfig = field(default_factory=GraspConfig)
    drawer: DrawerConfig = field(default_factory=DrawerConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)


def load_run_config(path) -> RunConfig:
    """Read a RunConfig from a JSON file; missing sections use defaults."""
    return RunConfig.from_dict(read_json_object(path, "config"))
