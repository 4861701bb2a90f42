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

Every planning stage runs through ``graspnav.pipeline``, the same code as
the command line, and its failures are reported through ``STAGE_ERRORS``;
only the checks against ground truth live here.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ..config import RunConfig, SimConfig
from ..drawer import DetectionFrame, refine_target
from ..errors import StageError
from ..geometry import Pose, farthest_point_sample, look_at
from ..grasp import GraspBatch, GraspCandidate, sweep_pose, sweep_rotations
from ..pipeline import (STAGE_ERRORS, STAGES, localize, perceive_drawers,
                        plan_grasp, plan_pull_stance)
from ..scene import PointCloudScene
from .detector import detect_boxes, noisy_detections, visible_boxes
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
        return next((s.name for s in self.stages if s.status == "fail"), None)


def _report(task: str, index: int, seed: int, query: str, tier: str | None,
            details: dict, failed: str | None = None,
            reason: str | None = None) -> EpisodeReport:
    """An episode's report: stages before `failed` pass, `failed` fails with
    `reason`, and later ones are not reached; all pass when `failed` is None."""
    at = len(STAGES) if failed is None else STAGES.index(failed)
    stages = [StageOutcome(name, "pass") for name in STAGES[:at]]
    if failed is not None:
        stages.append(StageOutcome(failed, "fail", reason))
        stages += [StageOutcome(name) for name in STAGES[at + 1:]]
    return EpisodeReport(task, index, seed, query, tier, stages,
                         failed is None, details)


# ---------------------------------------------------------------------------
# Grasp episodes
# ---------------------------------------------------------------------------

def _approach_rotation(approach: np.ndarray) -> np.ndarray:
    """Orthonormal matrix whose first column is the horizontal approach."""
    x = np.asarray(approach, dtype=np.float64)
    x = x / np.linalg.norm(x)
    x0, x1, x2 = x.tolist()
    # y = cross(up, x) and z = cross(x, y), term for term as np.cross
    # computes them, zero products included, so signed zeros match
    y = np.array([0.0 * x2 - 1.0 * x1, 1.0 * x0 - 0.0 * x2, 0.0 * x1 - 0.0 * x0])
    y = y / np.linalg.norm(y)
    y0, y1, y2 = y.tolist()
    return np.array([[x0, y0, x1 * y2 - x2 * y1],
                     [x1, y1, x2 * y0 - x0 * y2],
                     [x2, y2, x0 * y1 - x1 * y0]])


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
    sweeps: dict[int, Pose] = {}    # sector -> sweep pose, built on first use
    for truth in target.truth_grasps:
        u_drop = rng.random()
        offset = rng.standard_normal(3)
        conf = float(rng.uniform(lo, hi))
        if u_drop < noise.detection_dropout:
            continue
        center = truth.center + sigma * offset
        world = Pose(_approach_rotation(truth.approach), center)
        sector = _sweep_sector(truth.approach, sweep_count)
        if sector not in sweeps:
            sweeps[sector] = sweep_pose(rotations[sector], centroid)
        per_sweep[sector].append(GraspCandidate(
            pose=sweeps[sector].compose(world), width=truth.width, score=conf))
    return [GraspBatch(r, cands) for r, cands in zip(rotations, per_sweep)]


def run_grasp_episode(synth: SyntheticScene, target: PlacedObject,
                      seed: int, index: int = 0,
                      config: RunConfig = RunConfig()) -> EpisodeReport:
    """Locate the target by embedding, propose and filter grasps, place the
    body, and execute the jointly selected grasp against ground truth."""
    scene = synth.scene
    details: dict = {}
    rng = np.random.default_rng(seed)
    report = partial(_report, GRASP_TASK, index, seed, target.label,
                     target.tier, details)

    try:
        # localization: embedding query must rank the target instance first
        top = localize(scene, synth.label_codes[target.label], config, details)
        if top.instance_id != target.instance_id:
            return report("localization", "wrong-instance")

        # detection and navigation: noisy sweep proposals filtered onto the
        # object, ring placements validated, then the joint selection
        sweeps = _propose_grasps(target, scene, config, rng)
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
    cabinet, scene, intr = synth.cabinet, synth.scene, sim.intrinsics
    details: dict = {}
    report = partial(_report, SEARCH_TASK, index, seed, "cabinet", None, details)

    try:
        # localization: the cabinet instance must rank first for its label code
        top = localize(scene, synth.label_codes["cabinet"], config, details)
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
        plan = plan_pull_stance(estimate, scene, config, details)
    except StageError as exc:
        return report(STAGE_ERRORS[type(exc)][0], exc.reason)

    # manipulation: close-range looks refine the estimate, then tolerance
    # check vs truth; the body is stationary, so the looks share one trace
    # and one visible set, and average out their noise
    close_eye = np.array([*plan.body_pose.translation[:2], nav.camera_height])
    close_pose = look_at(close_eye, estimate.handle_center)
    close_trace = trace_depth(synth.primitives, intr, close_pose)
    close_visible = visible_boxes(cabinet, intr, close_pose)
    centers, axes, inliers = [], [], []
    for look_i in range(sim.close_looks):
        close_depth = add_depth_noise(close_trace, noise,
                                      seed=derive_seed(seed, 40, look_i))
        close_dets = noisy_detections(close_visible, noise,
                                      seed=derive_seed(seed, 41, look_i))
        close_frame = DetectionFrame(intrinsics=intr, cam_pose=close_pose,
                                     depth=close_depth, detections=close_dets)
        look, ok = refine_target(estimate, close_frame, drawer_cfg,
                                 seed=derive_seed(seed, 42, look_i))
        if ok:
            centers.append(look.handle_center)
            axes.append(look.axis)
            inliers.append(look.plane_inliers)
    final = estimate
    if centers:
        axis = np.mean(axes, axis=0)
        axis = axis / np.linalg.norm(axis)
        final = replace(estimate, handle_center=np.mean(centers, axis=0),
                        axis=axis, plane_inliers=int(np.sum(inliers)))
    details["refined"] = bool(centers)
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

def summarize(reports: Iterable[EpisodeReport]) -> dict:
    """Batch roll-up in one pass over any iterable of reports: success rate
    with a 95% Wald interval, stage failure counts that conserve episodes,
    and per-tier rates, tiers sorted, where tiers apply."""
    n = successes = 0
    failures = {stage: 0 for stage in STAGES}
    tiers: dict[str, list[int]] = {}     # tier -> [episodes, successes]
    for r in reports:
        n += 1
        successes += bool(r.success)
        stage = r.failure_stage()
        if stage is not None:
            failures[stage] += 1
        if r.tier is not None:
            row = tiers.setdefault(r.tier, [0, 0])
            row[0] += 1
            row[1] += bool(r.success)
    rate = successes / n if n else 0.0
    half = 1.96 * math.sqrt(rate * (1.0 - rate) / n) if n else 0.0
    summary = {
        "episodes": n,
        "successes": successes,
        "success_rate": rate,
        "ci95": [max(0.0, rate - half), min(1.0, rate + half)],
        "stage_failures": failures,
        "conserved": successes + sum(failures.values()) == n,
    }
    if tiers:
        summary["per_tier"] = {
            tier: {"episodes": eps, "successes": wins, "success_rate": wins / eps}
            for tier, (eps, wins) in sorted(tiers.items())}
    return summary


def batch_spec(task: str, spec: SceneSpec | None = None) -> SceneSpec:
    """`spec`, or the task's built-in one; ValueError if it cannot host `task`."""
    if task not in (GRASP_TASK, SEARCH_TASK):
        raise ValueError(f"unknown task {task!r}")
    spec = spec or (default_grasp_spec() if task == GRASP_TASK else default_search_spec())
    if task == GRASP_TASK and not spec.objects:
        raise ValueError("grasp batches need at least one object in the spec")
    if task == SEARCH_TASK and spec.cabinet is None:
        raise ValueError("search batches need a cabinet in the spec")
    return spec


def run_batch(task: str, n_episodes: int, seed: int,
              spec: SceneSpec | None = None,
              config: RunConfig = RunConfig()) -> Iterator[EpisodeReport]:
    """Seeded `task` episodes, yielded in index order as each one finishes.
    The spec is checked at the call, before any episode runs, and nothing
    is kept between episodes."""
    spec = batch_spec(task, spec)
    return (_batch_episode(task, i, seed, spec, config) for i in range(n_episodes))


def _batch_episode(task: str, i: int, seed: int, spec: SceneSpec,
                   config: RunConfig) -> EpisodeReport:
    """Episode i: scene seed ``derive_seed(seed, i, 0)``, episode seed
    ``derive_seed(seed, i, 1)``, grasp targets cycling through the objects.
    The episode function is the module global at call time, so tracing
    wrappers put in its place see every episode."""
    synth = generate_scene(spec, seed=derive_seed(seed, i, 0))
    if task == GRASP_TASK:
        return run_grasp_episode(synth, synth.objects[i % len(synth.objects)],
                                 seed=derive_seed(seed, i, 1), index=i,
                                 config=config)
    return run_search_episode(synth, seed=derive_seed(seed, i, 1), index=i,
                              config=config)
