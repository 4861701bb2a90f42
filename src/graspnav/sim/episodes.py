"""Seeded episodes over synthetic scenes with stage-wise accounting.

Two tasks share a four-stage pipeline: localization (embedding query),
detection (grasp proposals, or drawer boxes across views), navigation
(body placement), and manipulation (execution against ground truth).
Each episode reports pass/fail/not-reached per stage plus one terminal
outcome, so a batch summary conserves episodes across stages.

Randomness derives from one root seed through a documented split: batch
index i yields a scene seed (i, 0) and an episode seed (i, 1); inside a
search episode, view renders, detections, plane fits, and the refinement
look each take fixed sub-streams of the episode seed. Rerunning with the
same configuration and seed reproduces reports byte for byte.

Grasp filtering, body placement and selection, and the drawer perception
loop run through ``graspnav.pipeline``, the same code as the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..config import RunConfig, SimConfig
from ..drawer import DetectionFrame, plan_pull, refine_target
from ..errors import InvalidAxisError, StageError
from ..geometry import Pose, farthest_point_sample, look_at
from ..grasp import GraspBatch, GraspCandidate, sweep_pose, sweep_rotations
from ..pipeline import STAGE_ERRORS, STAGES, perceive_drawers, plan_grasp
from ..scene import PointCloudScene
from .detector import detect_boxes
from .render import add_depth_noise, render_depth, trace_depth
from .scenegen import (PlacedObject, SceneSpec, SyntheticScene,
                       default_grasp_spec, default_search_spec, generate_scene)

GRASP_TASK = "grasp"
SEARCH_TASK = "search"


def derive_seed(root: int, *indices: int) -> int:
    """Child seed for a namespaced index path under one root seed.

    The path length is folded in up front because trailing zero indices
    would otherwise alias (entropy tuples are zero padded internally).
    """
    entropy = (len(indices), int(root)) + tuple(int(i) for i in indices)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class StageOutcome:
    name: str
    status: str = "not-reached"        # pass | fail | not-reached
    reason: str | None = None


@dataclass
class EpisodeReport:
    task: str
    index: int
    seed: int
    query: str
    tier: str | None
    stages: list[StageOutcome]
    success: bool
    details: dict

    def failure_stage(self) -> str | None:
        for stage in self.stages:
            if stage.status == "fail":
                return stage.name
        return None


def _stages(failed: str | None, reason: str | None) -> list[StageOutcome]:
    """Stages before `failed` pass, `failed` fails with `reason`, and later
    ones are not reached; every stage passes when `failed` is None."""
    if failed is None:
        return [StageOutcome(name, "pass") for name in STAGES]
    at = STAGES.index(failed)
    return ([StageOutcome(name, "pass") for name in STAGES[:at]]
            + [StageOutcome(failed, "fail", reason)]
            + [StageOutcome(name) for name in STAGES[at + 1:]])


# ---------------------------------------------------------------------------
# Grasp episodes
# ---------------------------------------------------------------------------

def _approach_rotation(approach: np.ndarray) -> np.ndarray:
    """Orthonormal matrix whose first column is the horizontal approach."""
    x = np.asarray(approach, dtype=np.float64)
    x = x / np.linalg.norm(x)
    up = np.array([0.0, 0.0, 1.0])
    y = np.cross(up, x)
    y = y / np.linalg.norm(y)
    z = np.cross(x, y)
    return np.column_stack([x, y, z])


def _sweep_sector(approach: np.ndarray, count: int) -> int:
    theta = math.atan2(approach[1], approach[0]) % (2.0 * math.pi)
    width = 2.0 * math.pi / count
    return int(((theta + width / 2.0) % (2.0 * math.pi)) / width)


def _propose_grasps(target: PlacedObject, scene: PointCloudScene,
                    config: RunConfig,
                    rng: np.random.Generator) -> list[GraspBatch]:
    """Simulated sweep detections: ground truth perturbed by tiered noise.

    Each truth grasp consumes a fixed draw layout (dropout, 3-D offset,
    confidence) so different noise magnitudes reuse the same underlying
    randomness. Proposals are authored in their sweep's rotated frame,
    as real sweep batches arrive.
    """
    centroid = scene.centroid_of(target.instance_id)
    noise, sweep_count = config.noise, config.grasp.sweep_count
    rotations = sweep_rotations(sweep_count)
    sigma = config.sim.tier_sigma(target.tier, noise.depth_sigma)
    lo, hi = noise.confidence_range
    per_sweep: list[list[GraspCandidate]] = [[] for _ in rotations]
    for truth in target.truth_grasps:
        u_drop = rng.random()
        offset = rng.standard_normal(3)
        conf = float(rng.uniform(lo, hi))
        if u_drop < noise.detection_dropout:
            continue
        center = truth.center + sigma * offset
        world = Pose(_approach_rotation(truth.approach), center)
        sector = _sweep_sector(truth.approach, sweep_count)
        sweep = sweep_pose(rotations[sector], centroid)
        per_sweep[sector].append(GraspCandidate(
            pose=sweep.compose(world), width=truth.width, score=conf))
    return [GraspBatch(r, cands) for r, cands in zip(rotations, per_sweep)]


def run_grasp_episode(synth: SyntheticScene, target: PlacedObject,
                      seed: int, index: int = 0,
                      config: RunConfig = RunConfig()) -> EpisodeReport:
    """Locate the target by embedding, propose and filter grasps, place the
    body, and execute the jointly selected grasp against ground truth."""
    scene = synth.scene
    details: dict = {}
    rng = np.random.default_rng(seed)

    def report(failed: str | None = None,
               reason: str | None = None) -> EpisodeReport:
        return EpisodeReport(task=GRASP_TASK, index=index, seed=seed,
                             query=target.label, tier=target.tier,
                             stages=_stages(failed, reason),
                             success=failed is None, details=details)

    # localization: embedding query must rank the target instance first
    code = synth.label_codes[target.label]
    results = scene.query_instance(code)
    top = results[0]
    details["similarity"] = float(top.similarity)
    if top.instance_id != target.instance_id:
        return report("localization", "wrong-instance")
    if top.similarity < config.grasp.min_similarity:
        return report("localization", "low-similarity")

    # detection and navigation: noisy sweep proposals filtered onto the
    # object, ring placements validated, then the joint selection
    sweeps = _propose_grasps(target, scene, config, rng)
    try:
        plan = plan_grasp(scene, target.instance_id, sweeps, config,
                          counts=details)
    except StageError as exc:
        return report(STAGE_ERRORS[type(exc)][0], exc.reason)

    # manipulation: execute the selected grasp against ground truth
    truth_centers = np.stack([g.center for g in target.truth_grasps])
    errs = np.linalg.norm(truth_centers - plan.grasp.center[None, :], axis=1)
    grasp_error = float(errs.min())
    details["selected_score"] = float(plan.selection.s)
    details["grasp_error"] = grasp_error
    if grasp_error > config.sim.grasp_success_tol:
        return report("manipulation", "grasp-off-target")
    return report()


# ---------------------------------------------------------------------------
# Search episodes
# ---------------------------------------------------------------------------

def _view_poses(synth: SyntheticScene, sim: SimConfig,
                camera_height: float) -> list[Pose]:
    """Camera poses on an arc in front of the cabinet, spread out by
    farthest-point sampling over the arc candidates."""
    cabinet = synth.cabinet
    look_target = cabinet.handle_centers.mean(axis=0)
    center_angle = math.atan2(cabinet.axis[1], cabinet.axis[0])
    span = math.radians(sim.view_span_deg)
    angles = center_angle + np.linspace(-span / 2.0, span / 2.0,
                                        sim.view_candidates)
    eyes = np.stack([
        look_target[0] + sim.view_radius * np.cos(angles),
        look_target[1] + sim.view_radius * np.sin(angles),
        np.full(sim.view_candidates, camera_height),
    ], axis=1)
    middle = sim.view_candidates // 2
    chosen = farthest_point_sample(eyes, sim.n_views, start_index=middle)
    return [look_at(eyes[i], look_target) for i in chosen]


def run_search_episode(synth: SyntheticScene, seed: int, index: int = 0,
                       config: RunConfig = RunConfig()) -> EpisodeReport:
    """Find the cabinet, fuse multi-view drawer estimates, plan the pull,
    and check the refined estimate of the item's drawer against truth."""
    sim, noise, nav, drawer_cfg = (config.sim, config.noise, config.nav,
                                   config.drawer)
    if synth.cabinet is None:
        raise ValueError("search episodes need a scene with a cabinet")
    cabinet = synth.cabinet
    scene = synth.scene
    details: dict = {}
    intr = sim.intrinsics

    def report(failed: str | None = None,
               reason: str | None = None) -> EpisodeReport:
        return EpisodeReport(task=SEARCH_TASK, index=index, seed=seed,
                             query="cabinet", tier=None,
                             stages=_stages(failed, reason),
                             success=failed is None, details=details)

    # localization: the cabinet instance must rank first for its label code
    results = scene.query_instance(synth.label_codes["cabinet"])
    top = results[0]
    details["similarity"] = float(top.similarity)
    if top.instance_id != cabinet.instance_id:
        return report("localization", "wrong-instance")

    # detection: render and detect from arc views, lift, and fuse
    def views():
        for view_i, cam_pose in enumerate(
                _view_poses(synth, sim, nav.camera_height)):
            depth = render_depth(synth.primitives, intr, cam_pose, noise,
                                 seed=derive_seed(seed, 10, view_i))
            dets = detect_boxes(cabinet, intr, cam_pose, noise,
                                seed=derive_seed(seed, 20, view_i))
            yield DetectionFrame(intrinsics=intr, cam_pose=cam_pose,
                                 depth=depth, detections=dets)

    fused, per_view = perceive_drawers(
        views(), drawer_cfg,
        lambda view_i, pair_i: derive_seed(seed, 30, view_i, pair_i))
    details["view_targets"] = sum(v["lifted"] for v in per_view)
    details["views_with_targets"] = sum(1 for v in per_view if v["lifted"])
    if not fused:
        return report("detection", "no-detections")
    details["fused_targets"] = len(fused)
    true_center = cabinet.handle_centers[cabinet.item_drawer_index]
    dists = [float(np.linalg.norm(t.handle_center - true_center)) for t in fused]
    best = int(np.argmin(dists))
    details["association_error"] = dists[best]
    if dists[best] > drawer_cfg.gate_radius:
        return report("detection", "target-drawer-not-found")
    estimate = fused[best]

    # navigation: stand on the pull axis, inside bounds, clear of obstacles
    try:
        plan = plan_pull(estimate, drawer_cfg.standoff, drawer_cfg.pull_distance)
    except InvalidAxisError:
        return report("navigation", "axis-unpullable")
    body_xy = plan.body_pose.translation[:2]
    lo, hi = scene.bounds
    details["body_position"] = [float(body_xy[0]), float(body_xy[1])]
    if (body_xy[0] < lo[0] + nav.footprint_radius
            or body_xy[0] > hi[0] - nav.footprint_radius
            or body_xy[1] < lo[1] + nav.footprint_radius
            or body_xy[1] > hi[1] - nav.footprint_radius):
        return report("navigation", "body-out-of-scene")
    standing = np.array([body_xy[0], body_xy[1], nav.standing_height])
    clearance = scene.distance_to_obstacles(standing, None,
                                            min_z=float(lo[2]) + nav.floor_slab)
    details["body_clearance"] = float(clearance)
    if clearance < nav.footprint_radius:
        return report("navigation", "body-collides")

    # manipulation: close-range looks refine the estimate, then tolerance
    # check vs truth; the body is stationary, so looks average out noise
    close_eye = np.array([body_xy[0], body_xy[1], nav.camera_height])
    close_pose = look_at(close_eye, estimate.handle_center)
    close_trace = trace_depth(synth.primitives, intr, close_pose)
    centers, axes, inliers = [], [], []
    for look_i in range(sim.close_looks):
        close_depth = add_depth_noise(close_trace, noise,
                                      seed=derive_seed(seed, 40, look_i))
        close_dets = detect_boxes(cabinet, intr, close_pose, noise,
                                  seed=derive_seed(seed, 41, look_i))
        close_frame = DetectionFrame(intrinsics=intr, cam_pose=close_pose,
                                     depth=close_depth, detections=close_dets)
        look, ok = refine_target(estimate, close_frame, drawer_cfg,
                                 seed=derive_seed(seed, 42, look_i))
        if ok:
            centers.append(look.handle_center)
            axes.append(look.axis)
            inliers.append(look.plane_inliers)
    refined = bool(centers)
    if refined:
        axis = np.mean(axes, axis=0)
        axis = axis / np.linalg.norm(axis)
        final = replace(estimate, handle_center=np.mean(centers, axis=0),
                        axis=axis, plane_inliers=int(np.sum(inliers)))
    else:
        final = estimate
    details["refined"] = refined
    details["good_looks"] = len(centers)
    handle_error = float(np.linalg.norm(final.handle_center - true_center))
    dot = float(np.clip(final.axis @ cabinet.axis, -1.0, 1.0))
    axis_error = math.degrees(math.acos(dot))
    details["handle_error"] = handle_error
    details["axis_error_deg"] = axis_error
    if handle_error > sim.handle_tol or axis_error > sim.axis_tol_deg:
        return report("manipulation", "tolerance-exceeded")
    return report()


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------

def summarize(reports: list[EpisodeReport]) -> dict:
    """Batch roll-up: success rate with a 95% interval, stage failure
    counts that conserve episodes, and per-tier rates where tiers apply."""
    n = len(reports)
    successes = sum(1 for r in reports if r.success)
    rate = successes / n if n else 0.0
    half = 1.96 * math.sqrt(rate * (1.0 - rate) / n) if n else 0.0
    failures = {stage: 0 for stage in STAGES}
    for r in reports:
        stage = r.failure_stage()
        if stage is not None:
            failures[stage] += 1
    summary = {
        "episodes": n,
        "successes": successes,
        "success_rate": rate,
        "ci95": [max(0.0, rate - half), min(1.0, rate + half)],
        "stage_failures": failures,
        "conserved": successes + sum(failures.values()) == n,
    }
    tiers = sorted({r.tier for r in reports if r.tier is not None})
    if tiers:
        per_tier = {}
        for tier in tiers:
            sub = [r for r in reports if r.tier == tier]
            wins = sum(1 for r in sub if r.success)
            per_tier[tier] = {"episodes": len(sub), "successes": wins,
                              "success_rate": wins / len(sub)}
        summary["per_tier"] = per_tier
    return summary


def run_grasp_batch(n_episodes: int, base_seed: int,
                    spec: SceneSpec | None = None,
                    config: RunConfig = RunConfig(),
                    ) -> tuple[list[EpisodeReport], dict]:
    """Seeded grasp episodes cycling through the spec's objects."""
    spec = spec or default_grasp_spec()
    if not spec.objects:
        raise ValueError("grasp batches need at least one object in the spec")
    reports = []
    for i in range(n_episodes):
        synth = generate_scene(spec, seed=derive_seed(base_seed, i, 0))
        target = synth.objects[i % len(synth.objects)]
        reports.append(run_grasp_episode(
            synth, target, seed=derive_seed(base_seed, i, 1), index=i,
            config=config))
    return reports, summarize(reports)


def run_search_batch(n_episodes: int, base_seed: int,
                     spec: SceneSpec | None = None,
                     config: RunConfig = RunConfig(),
                     ) -> tuple[list[EpisodeReport], dict]:
    """Seeded drawer-search episodes over regenerated scenes."""
    spec = spec or default_search_spec()
    if spec.cabinet is None:
        raise ValueError("search batches need a cabinet in the spec")
    reports = []
    for i in range(n_episodes):
        synth = generate_scene(spec, seed=derive_seed(base_seed, i, 0))
        reports.append(run_search_episode(
            synth, seed=derive_seed(base_seed, i, 1), index=i, config=config))
    return reports, summarize(reports)
