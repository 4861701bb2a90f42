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

from .codec import MAX_LENGTH, JsonCodec, bounded, read_json
from .drawer import DrawerConfig
from .errors import ConfigError
from .geometry import CameraIntrinsics
from .grasp import GraspConfig
from .nav import NavConfig
from .optimizer import OptimizerWeights

# px; the image side cap, and box jitter past it moves boxes off any image
_MAX_PIXELS = 2048


@dataclass(frozen=True)
class NoiseModel(JsonCodec):
    """Disturbances applied to rendered depth and detected boxes.

    Defaults are the reference noise level: 5 mm depth noise, 10% depth
    dropout, 5% missed detections, 2 px box jitter, and detector
    confidences drawn uniformly from [0.6, 1.0].
    """

    depth_sigma: float = bounded(0.005, ge=0, le=1.0)
    depth_dropout: float = bounded(0.1, ge=0, le=1)
    detection_dropout: float = bounded(0.05, ge=0, le=1)
    bbox_jitter_sigma: float = bounded(2.0, ge=0, le=_MAX_PIXELS)
    confidence_range: tuple[float, float] = bounded((0.6, 1.0), ge=0, le=1)

    def __post_init__(self):
        super().__post_init__()
        lo, hi = self.confidence_range
        if lo > hi:
            raise ConfigError(
                f"confidence_range must satisfy lo <= hi, got {self.confidence_range}")
        object.__setattr__(self, "confidence_range", (float(lo), float(hi)))

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(depth_sigma=0.0, depth_dropout=0.0, detection_dropout=0.0,
                   bbox_jitter_sigma=0.0, confidence_range=(1.0, 1.0))


@dataclass(frozen=True)
class SimConfig(JsonCodec):
    """Camera, viewpoint, tolerance, and difficulty settings."""

    image_width: int = bounded(160, ge=8, le=_MAX_PIXELS)
    image_height: int = bounded(120, ge=8, le=_MAX_PIXELS)
    focal: float = bounded(130.0, gt=0)
    n_views: int = bounded(4, ge=1)
    view_candidates: int = bounded(12, ge=1, le=360)
    view_span_deg: float = bounded(120.0, gt=0, le=360)
    view_radius: float = bounded(1.5, gt=0, le=MAX_LENGTH)
    grasp_success_tol: float = bounded(0.02, gt=0)
    axis_tol_deg: float = bounded(5.0, gt=0)
    handle_tol: float = bounded(0.03, gt=0)
    close_looks: int = bounded(3, ge=1, le=32)
    tier_noise_easy: float = bounded(1.0, gt=0, le=100.0)
    tier_noise_medium: float = bounded(2.0, gt=0, le=100.0)
    tier_noise_hard: float = bounded(4.0, gt=0, le=100.0)

    def __post_init__(self):
        super().__post_init__()
        if self.view_candidates < self.n_views:
            raise ConfigError(f"view_candidates must be >= n_views, got"
                              f" {self.view_candidates} < {self.n_views}")

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
    return read_json(path, RunConfig, "config")
