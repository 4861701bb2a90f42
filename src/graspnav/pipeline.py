"""The planning stages that the command line and the simulator share.

``localize`` picks the instance a query embedding ranks first, ``plan_grasp``
takes rotation-sweep grasp proposals for it to a joint grasp / body selection,
``perceive_drawers`` turns detection frames into fused drawer targets, and
``plan_pull_stance`` places the body to pull one. ``graspnav.cli`` runs them
on files and ``graspnav.sim.episodes`` on rendered scenes, so the simulator
scores the code that the command line ships (no command ships the pull yet).

A stage that leaves nothing to continue with raises a StageError whose
``reason`` names the failure in episode reports. STAGE_ERRORS gives each
such error the episode stage it fails and the CLI exit code it maps to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .config import RunConfig
from .drawer import (DetectionFrame, DrawerConfig, DrawerTarget, PullPlan,
                     fuse_views, match_handles_to_drawers, plan_pull, view_target)
from .errors import (DegenerateInputError, InvalidAxisError,
                     LocalizationError, MissingDepthError, NoGraspError,
                     NoPlaneFoundError, NoPoseError, UnsupportedQueryError)
from .grasp import (GraspBatch, GraspCandidate, filter_grasps,
                    merge_rotation_sweeps, sweep_pose, top_k_by_score)
from .nav import BodyCandidate, check_stance, sample_positions, validate_candidates
from .optimizer import JointSelection, select_best
from .scene import PointCloudScene, QueryResult

STAGES = ("localization", "detection", "navigation", "manipulation")

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NO_EMBEDDINGS = 2
EXIT_LOCALIZATION = 3
EXIT_GRASP_FILTER = 4
EXIT_NAVIGATION = 5

# error type -> (episode stage it fails, CLI exit code); every other
# GraspNavError, ValueError or OSError exits with EXIT_PARSE
STAGE_ERRORS = {
    UnsupportedQueryError: ("localization", EXIT_NO_EMBEDDINGS),
    LocalizationError: ("localization", EXIT_LOCALIZATION),
    NoGraspError: ("detection", EXIT_GRASP_FILTER),
    NoPoseError: ("navigation", EXIT_NAVIGATION),
}


def localize(scene: PointCloudScene, embedding, config: RunConfig,
             counts: dict | None = None) -> QueryResult:
    """The first-ranked instance, if it reaches ``min_similarity``; its
    ``similarity`` goes to ``counts`` first."""
    counts = {} if counts is None else counts
    top = scene.query_instance(embedding)[0]
    counts["similarity"] = float(top.similarity)
    if top.similarity < config.grasp.min_similarity:
        raise LocalizationError(
            f"best similarity {top.similarity:.3f} is below the min_similarity"
            f" threshold {config.grasp.min_similarity}", reason="low-similarity")
    return top


@dataclass(frozen=True)
class GraspPlan:
    """Grasps kept on the object, every validated ring placement, and the
    joint selection over the valid placements."""

    grasps: list[GraspCandidate]
    bodies: list[BodyCandidate]
    selection: JointSelection

    @property
    def grasp(self) -> GraspCandidate:
        return self.grasps[self.selection.grasp_index]

    @property
    def body(self) -> BodyCandidate:
        return [b for b in self.bodies if b.valid][self.selection.body_index]


def plan_grasp(scene: PointCloudScene, instance_id: int,
               sweeps: Sequence[GraspBatch], config: RunConfig,
               counts: dict | None = None) -> GraspPlan:
    """Merge each sweep's top-k proposals (rotated about the object's
    centroid) into the world frame, filter them onto the object, validate
    ring placements around it, and select the best grasp / body pair.

    ``counts``, when given, receives ``proposals``, ``on_object``,
    ``body_candidates`` and ``valid_bodies`` as each becomes known, also
    when a stage fails.
    """
    counts = {} if counts is None else counts
    grasp_cfg, nav = config.grasp, config.nav
    centroid = scene.centroid_of(instance_id)
    merged = merge_rotation_sweeps(
        [(sweep_pose(sweep.rotation, centroid),
          top_k_by_score(sweep.candidates, grasp_cfg.top_k))
         for sweep in sweeps])
    counts["proposals"] = len(merged)
    if not merged:
        raise NoGraspError("grasp batches contain no candidates",
                           reason="no-proposals")
    kept = filter_grasps(merged, scene.instance_points(instance_id),
                         grasp_cfg.on_object_tol)
    counts["on_object"] = len(kept)
    if not kept:
        raise NoGraspError(
            f"no candidate with positive score lies within"
            f" {grasp_cfg.on_object_tol} m of the object",
            reason="no-grasp-on-object")
    bodies = validate_candidates(sample_positions(centroid, nav), scene,
                                 instance_id, nav)
    valid = [b for b in bodies if b.valid]
    counts["body_candidates"] = len(bodies)
    counts["valid_bodies"] = len(valid)
    if not valid:
        raise NoPoseError("no sampled body placement is valid",
                          reason="no-valid-pose")
    selection = select_best(kept, valid, centroid, config.optimizer)
    return GraspPlan(kept, bodies, selection)


def perceive_drawers(frames: Iterable[DetectionFrame], drawer_cfg: DrawerConfig,
                     seed_of: Callable[[int, int], int],
                     ) -> tuple[list[DrawerTarget], list[dict]]:
    """Match handles to drawers in each frame, lift every matched pair to a
    view target, and fuse the targets of all frames.

    Pair j of frame i fits its plane with seed ``seed_of(i, j)``; a pair
    without depth or without a plane is skipped. Returns the fused targets
    and, per frame, its handle, drawer, matched and lifted counts.
    """
    targets = []
    per_frame = []
    for frame_i, frame in enumerate(frames):
        pairs = match_handles_to_drawers(frame.handles, frame.drawers,
                                         kappa=drawer_cfg.kappa,
                                         ioa_min=drawer_cfg.ioa_min)
        lifted = 0
        for pair_i, pair in enumerate(pairs):
            try:
                targets.append(view_target(pair, frame, drawer_cfg.ransac,
                                           seed=seed_of(frame_i, pair_i)))
            except (MissingDepthError, DegenerateInputError,
                    NoPlaneFoundError):
                continue
            lifted += 1
        per_frame.append({"handles": len(frame.handles),
                          "drawers": len(frame.drawers),
                          "matched": len(pairs), "lifted": lifted})
    return fuse_views(targets, drawer_cfg.cluster_radius), per_frame


def plan_pull_stance(target: DrawerTarget, scene: PointCloudScene,
                     config: RunConfig, counts: dict) -> PullPlan:
    """The pull of ``target``, if the body can stand where it starts, in the
    scene and clear of obstacles; ``counts`` receives ``body_position`` once
    the plan is made and ``body_clearance`` once the stance is in the scene."""
    try:
        plan = plan_pull(target, config.drawer.standoff, config.drawer.pull_distance)
    except InvalidAxisError as exc:
        raise NoPoseError(str(exc), reason="axis-unpullable") from None
    body_xy = plan.body_pose.translation[:2]
    counts["body_position"] = body_xy.tolist()
    (inside,), (clear,), (clearance,) = check_stance(scene, body_xy, None, config.nav)
    if not inside:
        raise NoPoseError("pull stance is outside the scene",
                          reason="body-out-of-scene")
    counts["body_clearance"] = float(clearance)
    if not clear:
        raise NoPoseError("pull stance collides", reason="body-collides")
    return plan
