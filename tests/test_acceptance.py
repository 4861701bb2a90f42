"""Acceptance gate: one test per shipped guarantee, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion. Oracles here are deliberately independent of the library
paths they check: exhaustive double loops, permutation enumeration, dense
segment sampling, and greedy reimplementations.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from graspnav.cli import main
from graspnav.config import RunConfig
from graspnav.drawer import (BBox2D, Detection2D, assignment_costs, ioa,
                             solve_assignment)
from graspnav.geometry import (CameraIntrinsics, PointIndex, Pose, RansacParams,
                               backproject, farthest_point_sample,
                               line_of_sight, project, ransac_plane)
from graspnav.grasp import GraspCandidate
from graspnav.nav import BodyCandidate
from graspnav.optimizer import OptimizerWeights, align_score, select_best
from graspnav.sim import NoiseModel, run_batch, summarize

from conftest import random_rotation, random_pose


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _random_selection_instance(rng, n_grasps, n_bodies):
    grasps = []
    for _ in range(n_grasps):
        rot = random_rotation(rng)
        pose = Pose(rot, rng.uniform(-1, 1, size=3))
        grasps.append(GraspCandidate(pose=pose, width=0.05,
                                     score=float(rng.uniform(0, 1))))
    bodies = []
    for _ in range(n_bodies):
        bodies.append(BodyCandidate(
            position=rng.uniform(-3, 3, size=2), yaw=float(rng.uniform(0, 6.28)),
            camera_height=float(rng.uniform(0.5, 1.2)), valid=True,
            s_body=float(rng.uniform(-1, 3))))
    target = rng.uniform(-1, 1, size=3) + np.array([0.0, 0.0, 5.0])
    return grasps, bodies, target


def _oracle_select(grasps, bodies, target, weights):
    """Exhaustive double loop using the scalar scoring path."""
    best = None
    best_key = None
    for gi, g in enumerate(grasps):
        for bi, b in enumerate(bodies):
            s_align = align_score(b, g, target, weights.temperature)
            s = (g.score + weights.lambda_body * b.s_body
                 + weights.lambda_align * s_align)
            key = (s, g.score, -gi, -bi)
            if best_key is None or key > best_key:
                best_key = key
                best = (gi, bi, s)
    return best


def _brute_force_assignment_total(costs):
    """Minimum total over all maximal one-to-one assignments.

    Totals use fsum so mathematically equal assignments agree bit for bit
    regardless of the order their terms are added in.
    """
    n, m = costs.shape
    best = None
    if n <= m:
        candidates = (enumerate(perm)
                      for perm in itertools.permutations(range(m), n))
    else:
        candidates = (((i, j) for j, i in enumerate(perm))
                      for perm in itertools.permutations(range(n), m))
    for pairing in candidates:
        total = math.fsum(costs[i, j] for i, j in pairing)
        if best is None or total < best:
            best = total
    return best


def _fps_oracle(points, k, start_index):
    chosen = [start_index]
    remaining = set(range(len(points))) - {start_index}
    while len(chosen) < k:
        best_i, best_d = None, -1.0
        for i in sorted(remaining):
            d = min(float(np.linalg.norm(points[i] - points[c]))
                    for c in chosen)
            if d > best_d:
                best_i, best_d = i, d
        chosen.append(best_i)
        remaining.discard(best_i)
    return chosen


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_joint_selection_matches_exhaustive_oracle():
    weights = OptimizerWeights(lambda_body=0.01, lambda_align=0.02,
                               temperature=1.0)
    rng = np.random.default_rng(1234)
    for _ in range(100):
        grasps, bodies, target = _random_selection_instance(rng, 50, 200)
        sel = select_best(grasps, bodies, target, weights)
        gi, bi, s = _oracle_select(grasps, bodies, target, weights)
        assert (sel.grasp_index, sel.body_index) == (gi, bi)
        assert sel.s == s


def test_joint_selection_runtime_for_ten_thousand_pairs():
    weights = OptimizerWeights()
    rng = np.random.default_rng(7)
    grasps, bodies, target = _random_selection_instance(rng, 50, 200)
    select_best(grasps, bodies, target, weights)  # warm up
    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        select_best(grasps, bodies, target, weights)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.010, f"10^4-pair selection took {best * 1e3:.2f} ms"


def test_assignment_total_matches_permutation_minimum():
    rng = np.random.default_rng(99)
    solver_time = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        handles, drawers = [], []
        for _ in range(n):
            x0, y0 = rng.uniform(0, 50, size=2)
            w, h = rng.uniform(1, 30, size=2)
            handles.append(Detection2D("handle", BBox2D(x0, y0, x0 + w, y0 + h),
                                       float(rng.uniform(0, 1))))
        for _ in range(m):
            x0, y0 = rng.uniform(0, 50, size=2)
            w, h = rng.uniform(1, 40, size=2)
            drawers.append(Detection2D("drawer", BBox2D(x0, y0, x0 + w, y0 + h),
                                       float(rng.uniform(0, 1))))
        costs = assignment_costs(handles, drawers, kappa=10.0)
        t0 = time.perf_counter()
        pairs = solve_assignment(costs)
        solver_time += time.perf_counter() - t0
        total = math.fsum(costs[i, j] for i, j in pairs)
        assert total == _brute_force_assignment_total(costs)
    assert solver_time < 1.0, f"500 assignment solves took {solver_time:.2f} s"


def test_intersection_over_area_analytic_cases():
    handle = BBox2D(0.0, 0.0, 10.0, 10.0)
    assert abs(ioa(handle, BBox2D(-5.0, -5.0, 20.0, 20.0)) - 1.0) <= 1e-12
    assert abs(ioa(handle, BBox2D(30.0, 30.0, 40.0, 40.0)) - 0.0) <= 1e-12
    assert abs(ioa(handle, BBox2D(5.0, 0.0, 20.0, 10.0)) - 0.5) <= 1e-12


def test_plane_normal_recovery_under_noise_and_outliers():
    params = RansacParams(threshold=0.005, iterations=1000,
                          min_inlier_fraction=0.3)
    hits = 0
    t0 = time.perf_counter()
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        # orthonormal frame spanning the plane through a random anchor
        helper = np.array([1.0, 0.0, 0.0])
        if abs(normal @ helper) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        u = np.cross(normal, helper)
        u /= np.linalg.norm(u)
        v = np.cross(normal, u)
        anchor = rng.uniform(-0.5, 0.5, size=3)
        n_in = 1400
        coords = rng.uniform(-0.3, 0.3, size=(n_in, 2))
        inliers = (anchor + coords[:, :1] * u + coords[:, 1:] * v
                   + rng.normal(0.0, 0.002, size=(n_in, 3)))
        outliers = anchor + rng.uniform(-0.5, 0.5, size=(600, 3))
        pts = np.concatenate([inliers, outliers])
        rng.shuffle(pts)
        plane = ransac_plane(pts, params, seed=trial)
        dot = abs(float(np.clip(plane.normal @ normal, -1.0, 1.0)))
        if math.degrees(math.acos(dot)) <= 2.0:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 95, f"normal within 2 degrees in only {hits}/100 trials"
    assert elapsed < 5.0, f"100 plane fits took {elapsed:.2f} s"


def test_backprojection_round_trip():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        intr = CameraIntrinsics(fx=float(rng.uniform(300, 800)),
                                fy=float(rng.uniform(300, 800)),
                                cx=float(rng.uniform(300, 340)),
                                cy=float(rng.uniform(220, 260)),
                                width=640, height=480)
        pose = random_pose(rng, span=2.0)
        u = float(rng.uniform(0, 639))
        v = float(rng.uniform(0, 479))
        d = float(rng.uniform(0.3, 5.0))
        point = backproject(u, v, d, intr, pose)
        u2, v2, z2 = project(point, intr, pose)
        worst = max(worst, abs(u2 - u), abs(v2 - v))
        assert abs(u2 - u) < 1e-6 and abs(v2 - v) < 1e-6
        assert abs(z2 - d) < 1e-9
    assert worst < 1e-6


def test_line_of_sight_agrees_with_dense_sampling():
    step = 0.001
    rng = np.random.default_rng(77)
    for scene_i in range(100):
        a = rng.uniform(-1, 1, size=3)
        b = rng.uniform(-1, 1, size=3)
        clearance = float(rng.uniform(0.05, 0.15))
        exclusion = 0.25 if scene_i % 2 else 0.0
        pts = rng.uniform(-1.5, 1.5, size=(200, 3))
        # drop points inside the sampling oracle's half-step ambiguity band
        d = b - a
        seg_sq = float(d @ d)
        t = np.clip((pts - a) @ d / seg_sq, 0.0, 1.0)
        dist = np.linalg.norm(pts - (a + t[:, None] * d), axis=1)
        pts = pts[np.abs(dist - clearance) > step]

        samples = max(2, int(math.ceil(math.sqrt(seg_sq) / step)) + 1)
        tgrid = np.linspace(0.0, 1.0, samples)
        seg_points = a + tgrid[:, None] * d
        kept = pts
        if exclusion > 0.0:
            kept = pts[np.linalg.norm(pts - b, axis=1) > exclusion]
        if len(kept) == 0:
            expected = True
        else:
            gaps = np.linalg.norm(seg_points[:, None, :] - kept[None, :, :],
                                  axis=2)
            expected = bool(gaps.min() > clearance)
        got = line_of_sight(a, b, PointIndex(kept), clearance)
        assert got == expected, f"scene {scene_i}: {got} vs oracle {expected}"


def test_farthest_point_sampling_matches_greedy_oracle():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, n + 1))
        start = int(rng.integers(0, n))
        pts = rng.uniform(-2, 2, size=(n, 3))
        assert farthest_point_sample(pts, k, start) == _fps_oracle(pts, k, start)


def test_search_batch_reference_noise_success_band():
    t0 = time.perf_counter()
    summary = summarize(run_batch("search", 200, 42))
    elapsed = time.perf_counter() - t0
    assert summary["episodes"] == 200
    assert summary["success_rate"] >= 0.80, summary
    assert elapsed < 300.0, f"200 search episodes took {elapsed:.0f} s"


def test_search_batch_noiseless_is_perfect():
    summary = summarize(run_batch(
        "search", 200, 42, config=RunConfig(noise=NoiseModel.noiseless())))
    assert summary["success_rate"] == 1.0, summary


def test_grasp_batch_tier_difficulty_is_monotone():
    summary = summarize(run_batch("grasp", 200, 42))
    tiers = summary["per_tier"]
    rates, halves = {}, {}
    for name, row in tiers.items():
        p, n = row["success_rate"], row["episodes"]
        rates[name] = p
        halves[name] = 1.96 * math.sqrt(p * (1.0 - p) / n)
    for upper, lower in (("easy", "medium"), ("medium", "hard")):
        slack = math.hypot(halves[upper], halves[lower])
        assert rates[lower] <= rates[upper] + slack, (rates, halves)


def test_grasp_batch_noiseless_easy_tier_is_perfect():
    summary = summarize(run_batch(
        "grasp", 200, 42, config=RunConfig(noise=NoiseModel.noiseless())))
    easy = summary["per_tier"]["easy"]
    assert easy["successes"] == easy["episodes"], summary["per_tier"]


def test_repeated_commands_are_byte_identical(tmp_path):
    from graspnav.scene import save_scene
    from graspnav.sim import default_grasp_spec, generate_scene
    from graspnav.sim.episodes import _approach_rotation

    synth = generate_scene(default_grasp_spec(), seed=5)
    save_scene(synth.scene, tmp_path / "scene.ply", tmp_path / "inst.json")
    (tmp_path / "q.json").write_text(json.dumps(
        {"embedding": list(synth.label_codes["crate"])}))
    crate = synth.objects[0]
    cands = [{"translation": [float(x) for x in g.center],
              "rotation": [float(x)
                           for x in _approach_rotation(g.approach).reshape(-1)],
              "width": float(g.width), "score": 0.9}
             for g in crate.truth_grasps]
    (tmp_path / "b.json").write_text(json.dumps(
        {"rotation": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0], "candidates": cands}))

    outs = []
    for name in ("p1.json", "p2.json"):
        rc = main(["plan-grasp", "--scene", str(tmp_path / "scene.ply"),
                   "--instances", str(tmp_path / "inst.json"),
                   "--query", str(tmp_path / "q.json"),
                   "--grasps", str(tmp_path / "b.json"),
                   "--out", str(tmp_path / name)])
        assert rc == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]

    sim_outs = []
    for name in ("s1", "s2"):
        rc = main(["simulate", "--task", "search", "--episodes", "2",
                   "--seed", "9", "--out", str(tmp_path / name)])
        assert rc == 0
        sim_outs.append(((tmp_path / name / "episodes.ndjson").read_bytes(),
                         (tmp_path / name / "summary.json").read_bytes()))
    assert sim_outs[0] == sim_outs[1]
