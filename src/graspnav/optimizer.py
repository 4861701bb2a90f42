"""Joint grasp / body-pose selection.

Every (grasp, body) pair is scored

    s = s_grasp + lambda_body * s_body + lambda_align * s_align

where s_grasp is the grasp detector confidence, s_body the body-placement
score computed by the nav module, and s_align a view-alignment bonus

    s_align = tanh(T * unit(target - camera_point) . unit(approach_axis))

rewarding body placements that look along the grasp approach direction.
The best pair is the score argmax; exact ties prefer the higher s_grasp,
then the lower grasp index, then the lower body index, so selection is
reproducible regardless of evaluation order.

The vectorized cross-product scoring below keeps the same elementwise
operation order as align_score, so a pair-by-pair evaluation produces
bit-identical scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codec import JsonCodec
from .errors import ConfigError, DegenerateGeometryError, NoGraspError, NoPoseError
from .grasp import GraspCandidate
from .nav import BodyCandidate

DEFAULT_LAMBDA_BODY = 0.01
DEFAULT_LAMBDA_ALIGN = 0.02
DEFAULT_TEMPERATURE = 1.0


@dataclass(frozen=True)
class OptimizerWeights(JsonCodec):
    lambda_body: float = DEFAULT_LAMBDA_BODY
    lambda_align: float = DEFAULT_LAMBDA_ALIGN
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")


@dataclass(frozen=True)
class JointSelection:
    grasp_index: int
    body_index: int
    s: float
    s_grasp: float
    s_body: float
    s_align: float


def _unit_rows(v: np.ndarray, what: str) -> np.ndarray:
    norm = np.sqrt(v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2)
    if np.any(norm * norm < 1e-24):
        raise DegenerateGeometryError(f"{what} has zero length")
    return v / norm[..., None]


def align_score(body: BodyCandidate, grasp: GraspCandidate, target: np.ndarray,
                temperature: float = DEFAULT_TEMPERATURE) -> float:
    """Alignment of the body's view direction with the grasp approach axis.

    Bounded by +-tanh(temperature); monotone in the dot product. Raises
    when the camera point coincides with the target (view direction
    undefined) or the approach axis is zero.
    """
    delta = np.asarray(target, dtype=np.float64) - body.camera_point
    rt = _unit_rows(delta[None, :], "camera-to-target vector")[0]
    g = _unit_rows(grasp.approach_axis.astype(np.float64)[None, :],
                   "grasp approach axis")[0]
    dot = g[0] * rt[0] + g[1] * rt[1] + g[2] * rt[2]
    return float(np.tanh(temperature * dot))


def select_best(grasps: Sequence[GraspCandidate], bodies: Sequence[BodyCandidate],
                target: np.ndarray, weights: OptimizerWeights) -> JointSelection:
    """Argmax of the joint score over the grasp x body cross product.

    Bodies must be validated (s_body filled). Ties on the total score are
    broken by higher s_grasp, then lower grasp index, then lower body
    index. Raises NoGraspError / NoPoseError on empty inputs so callers
    can attribute the failure to the right pipeline stage.
    """
    if not grasps:
        raise NoGraspError("no grasp candidates to select from")
    if not bodies:
        raise NoPoseError("no body candidates to select from")
    if any(b.s_body is None for b in bodies):
        raise ValueError("select_best requires validated bodies with s_body filled")

    target = np.asarray(target, dtype=np.float64)
    s_grasp = np.array([g.score for g in grasps])                     # (G,)
    s_body = np.array([b.s_body for b in bodies])                     # (B,)
    approach = _unit_rows(np.stack([g.approach_axis for g in grasps]).astype(np.float64),
                          "grasp approach axis")                      # (G, 3)
    cam = np.stack([b.camera_point for b in bodies])                  # (B, 3)
    rt = _unit_rows(target[None, :] - cam, "camera-to-target vector")  # (B, 3)

    # elementwise, same op order as align_score (no BLAS reassociation)
    dot = (approach[:, None, 0] * rt[None, :, 0]
           + approach[:, None, 1] * rt[None, :, 1]
           + approach[:, None, 2] * rt[None, :, 2])                   # (G, B)
    s_align = np.tanh(weights.temperature * dot)
    s = (s_grasp[:, None]
         + weights.lambda_body * s_body[None, :]
         + weights.lambda_align * s_align)

    best = np.max(s)
    gi, bi = np.nonzero(s == best)
    # tie rule: higher s_grasp, then lower grasp index, then lower body index
    order = np.lexsort((bi, gi, -s_grasp[gi]))
    g, b = int(gi[order[0]]), int(bi[order[0]])
    return JointSelection(grasp_index=g, body_index=b, s=float(s[g, b]),
                          s_grasp=float(s_grasp[g]), s_body=float(s_body[b]),
                          s_align=float(s_align[g, b]))
