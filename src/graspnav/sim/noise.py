"""Sensor noise model shared by the renderer and the box detector."""

from __future__ import annotations

from dataclasses import dataclass

from ..codec import JsonCodec
from ..errors import ConfigError


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
