"""Output checks computed apart from the program.

Each check either returns quietly or raises CheckFailure naming what is
wrong. The checks recompute results from the benchmark's own inputs with
brute-force or closed-form code (exhaustive argmax, point-to-segment
distances over the whole scan, grip points from the cabinet spec), or
test properties the method must have (stage order, conservation,
binomial success bands). None compares against a copy stored from an
earlier run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

STAGES = ("localization", "detection", "navigation", "manipulation")

# Distances recomputed here may differ from the program's in the last
# bits; a flag decided within this margin of its threshold is not judged.
AMBIGUOUS = 1e-9
# Reported floats that must equal a value recomputed here.
FLOAT_TOL = 1e-9

# One-sided z for binomial bands; a correct program trips one about once
# in a thousand runs at the band's edge rate, far less at its real rate.
BAND_Z = 3.0
SEARCH_RATE = 0.80          # method's rate at reference noise


class CheckFailure(Exception):
    """An output of the program is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _reject_constant(token: str):
    raise CheckFailure(f"report holds the non-JSON number {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"report is not JSON: {exc}") from exc


def ring_count(angular_step: float) -> int:
    """Bodies per ring: ceil(2 pi / step), a near-integer ratio taken whole."""
    ratio = 2.0 * math.pi / angular_step
    nearest = round(ratio)
    return nearest if abs(ratio - nearest) < 1e-9 else math.ceil(ratio)


# ---------------------------------------------------------------------------
# simulate: episodes.ndjson and summary.json
# ---------------------------------------------------------------------------

def check_episode(ep: dict, index: int, task: str, objects: list[dict],
                  config: dict) -> None:
    """One episode line: stage order, outcome and the tolerances behind it."""
    _require(ep.get("task") == task, f"episode {index}: task {ep.get('task')!r}")
    _require(ep.get("index") == index,
             f"episode {index}: line carries index {ep.get('index')}")
    stages = ep["stages"]
    _require([s["name"] for s in stages] == list(STAGES),
             f"episode {index}: stages {[s['name'] for s in stages]} are not"
             f" in pipeline order")
    statuses = [s["status"] for s in stages]
    n_pass = 0
    while n_pass < len(statuses) and statuses[n_pass] == "pass":
        n_pass += 1
    rest = statuses[n_pass:]
    _require(not rest or (rest[0] == "fail"
                          and all(s == "not-reached" for s in rest[1:])),
             f"episode {index}: statuses {statuses} are not pass* fail?"
             f" not-reached*")
    for s in stages:
        _require((s["reason"] is not None) == (s["status"] == "fail"),
                 f"episode {index}: stage {s['name']} {s['status']} has"
                 f" reason {s['reason']!r}")
    _require(ep["success"] == (n_pass == len(STAGES)),
             f"episode {index}: success {ep['success']} with statuses"
             f" {statuses}")

    details = ep["details"]
    sim, nav = config["sim"], config["nav"]
    failed_at = STAGES[n_pass] if n_pass < len(STAGES) else None
    if task == "grasp":
        target = objects[index % len(objects)]
        _require(ep["query"] == target["label"] and ep["tier"] == target["tier"],
                 f"episode {index}: query {ep['query']!r}/{ep['tier']!r}, spec"
                 f" order gives {target['label']!r}/{target['tier']!r}")
        if "on_object" in details:
            _require(details["on_object"] <= details["proposals"],
                     f"episode {index}: {details['on_object']} grasps on the"
                     f" object out of {details['proposals']} proposals")
        if n_pass >= 2:
            expected = len(nav["radii"]) * ring_count(nav["angular_step"])
            _require(details["body_candidates"] == expected,
                     f"episode {index}: {details['body_candidates']} body"
                     f" candidates, config gives {expected}")
            _require(details["valid_bodies"] <= details["body_candidates"],
                     f"episode {index}: more valid bodies than candidates")
        if n_pass >= 3:
            off = details["grasp_error"] > sim["grasp_success_tol"]
            _require(off == (failed_at == "manipulation"),
                     f"episode {index}: grasp error {details['grasp_error']}"
                     f" against tolerance {sim['grasp_success_tol']} but"
                     f" manipulation {statuses[3]}")
    else:
        _require(ep["query"] == "cabinet" and ep["tier"] is None,
                 f"episode {index}: query {ep['query']!r}")
        if n_pass >= 2:
            _require(details["association_error"]
                     <= config["drawer"]["gate_radius"],
                     f"episode {index}: association error"
                     f" {details['association_error']} outside the gate")
        if n_pass >= 3:
            _require(details["body_clearance"] >= nav["footprint_radius"],
                     f"episode {index}: body clearance"
                     f" {details['body_clearance']} below the footprint")
            off = (details["handle_error"] > sim["handle_tol"]
                   or details["axis_error_deg"] > sim["axis_tol_deg"])
            _require(off == (failed_at == "manipulation"),
                     f"episode {index}: handle error {details['handle_error']},"
                     f" axis error {details['axis_error_deg']} deg but"
                     f" manipulation {statuses[3]}")


def check_batch(lines: list[str], summary: dict, task: str, episodes: int,
                seed: int) -> list[dict]:
    """A whole simulate output: line count, then the summary's roll-up.

    Returns the parsed episodes; per-episode checks are separate so that
    one bad line fails one operation.
    """
    _require(summary["command"] == "simulate" and summary["task"] == task
             and summary["seed"] == seed,
             f"summary is for {summary['task']!r} seed {summary['seed']}")
    _require(len(lines) == episodes,
             f"{len(lines)} episode lines for {episodes} episodes")
    eps = [strict_json(line) for line in lines]
    _require(summary["episodes"] == episodes,
             f"summary counts {summary['episodes']} episodes of {episodes}")
    wins = sum(1 for ep in eps if ep["success"])
    _require(summary["successes"] == wins,
             f"summary counts {summary['successes']} successes, lines {wins}")
    _require(summary["success_rate"] == wins / episodes,
             f"success rate {summary['success_rate']} is not {wins}/{episodes}")
    failures = {stage: 0 for stage in STAGES}
    for ep in eps:
        for s in ep["stages"]:
            if s["status"] == "fail" and s["name"] in failures:
                failures[s["name"]] += 1
    _require(summary["stage_failures"] == failures,
             f"stage failures {summary['stage_failures']}, lines {failures}")
    _require(summary["conserved"] is True
             and wins + sum(failures.values()) == episodes,
             "summary does not conserve episodes")
    if task == "grasp":
        tiers: dict[str, list[int]] = {}
        for ep in eps:
            row = tiers.setdefault(ep["tier"], [0, 0])
            row[0] += 1
            row[1] += ep["success"]
        got = {t: [r["episodes"], r["successes"]]
               for t, r in summary["per_tier"].items()}
        _require(got == tiers, f"per-tier counts {got}, lines {tiers}")
    return eps


def check_search_band(successes: int, episodes: int) -> None:
    """Search success at reference noise stays in a binomial band at 0.80."""
    floor = SEARCH_RATE - BAND_Z * math.sqrt(
        SEARCH_RATE * (1.0 - SEARCH_RATE) / episodes)
    _require(successes / episodes >= floor,
             f"search success {successes}/{episodes} is below the band floor"
             f" {floor:.3f}")


def check_tier_order(per_tier: dict[str, tuple[int, int]]) -> None:
    """Grasp success is ordered easy >= medium >= hard within binomial slack.

    ``per_tier`` maps tier -> (successes, episodes).
    """
    def rate_and_sd(tier):
        wins, n = per_tier[tier]
        p = wins / n
        return p, math.sqrt(p * (1.0 - p) / n)

    for upper, lower in (("easy", "medium"), ("medium", "hard")):
        pu, su = rate_and_sd(upper)
        pl, sl = rate_and_sd(lower)
        _require(pl <= pu + BAND_Z * math.hypot(su, sl),
                 f"{lower} tier succeeds at {pl:.3f}, above {upper} at"
                 f" {pu:.3f} beyond binomial slack")


# ---------------------------------------------------------------------------
# plan-grasp
# ---------------------------------------------------------------------------

@dataclass
class ScanTruth:
    """What the benchmark generated for one plan-grasp invocation."""

    points: np.ndarray              # (N, 3), exactly as written to the scan
    target_id: int
    target_indices: np.ndarray      # the target instance's point indices
    truth_centers: np.ndarray       # (T, 3) ground-truth grasp centers
    sweeps: list[list[dict]]        # per sweep: world-frame candidates,
    #                                 {"center", "rotation", "score", "width"}


def _segment_clearance(a: np.ndarray, b: np.ndarray,
                       pts: np.ndarray) -> float:
    """Smallest distance from any point to the closed segment a-b."""
    d = b - a
    t = np.clip(((pts - a) @ d) / (d @ d), 0.0, 1.0)
    diff = pts - (a + t[:, None] * d)
    return float(np.sqrt(np.min(np.einsum("ij,ij->i", diff, diff))))


def expected_grasps(truth: ScanTruth, top_k: int, on_object_tol: float,
                    ) -> list[tuple[int, dict]]:
    """The grasps plan-grasp must keep, in order: top-k per sweep by score
    (ties to the earlier candidate, input order kept), then positive score
    and a center within ``on_object_tol`` of the object's points."""
    obj = truth.points[truth.target_indices]
    kept = []
    for sweep_i, cands in enumerate(truth.sweeps):
        ranked = sorted(range(len(cands)),
                        key=lambda i: (-cands[i]["score"], i))[:top_k]
        for i in sorted(ranked):
            c = cands[i]
            gap = float(np.min(np.linalg.norm(obj - c["center"], axis=1)))
            if c["score"] > 0.0 and gap <= on_object_tol:
                kept.append((sweep_i, c))
    return kept


def check_plan_grasp(text: str, truth: ScanTruth) -> None:
    report = strict_json(text)
    config = report["config"]
    nav, weights = config["nav"], config["optimizer"]

    # localization
    loc = report["localization"]
    _require(loc["instance_id"] == truth.target_id,
             f"localized instance {loc['instance_id']}, query was made for"
             f" {truth.target_id}")
    centroid = truth.points[truth.target_indices].mean(axis=0)
    _require(np.allclose(loc["centroid"], centroid, rtol=0, atol=FLOAT_TOL),
             "localization centroid is not the target's point mean")

    # grasps: sweep merging and on-object filtering
    want = expected_grasps(truth, config["grasp"]["top_k"],
                           config["grasp"]["on_object_tol"])
    grasps = report["grasps"]
    _require(len(grasps) == len(want),
             f"report keeps {len(grasps)} grasps, expected {len(want)}")
    for i, (g, (sweep_i, c)) in enumerate(zip(grasps, want)):
        _require(g["index"] == i and g["source_rotation"] == sweep_i
                 and g["score"] == c["score"]
                 and np.allclose(g["pose"]["translation"], c["center"],
                                 rtol=0, atol=FLOAT_TOL)
                 and np.allclose(g["pose"]["rotation"],
                                 np.asarray(c["rotation"]).reshape(-1),
                                 rtol=0, atol=FLOAT_TOL),
                 f"grasp {i} does not match the de-rotated candidate")

    # bodies: rings, bounds, brute-force clearance and line of sight
    n_ring = ring_count(nav["angular_step"])
    bodies = report["bodies"]
    _require(len(bodies) == len(nav["radii"]) * n_ring,
             f"{len(bodies)} bodies for {len(nav['radii'])} rings of {n_ring}")
    pts = truth.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    others = np.ones(len(pts), dtype=bool)
    others[truth.target_indices] = False
    non_target = pts[others]
    above_floor = non_target[non_target[:, 2] >= lo[2] + nav["floor_slab"]]
    sight = non_target[np.linalg.norm(non_target - centroid, axis=1)
                       > nav["los_target_exclusion"]]
    diagonal = float(np.linalg.norm(hi - lo))
    fp = nav["footprint_radius"]
    for i, body in enumerate(bodies):
        ring, step = divmod(i, n_ring)
        angle = step * nav["angular_step"]
        r = nav["radii"][ring]
        xy = centroid[:2] + r * np.array([math.cos(angle), math.sin(angle)])
        _require(body["index"] == i and np.allclose(body["position"], xy,
                                                    rtol=0, atol=FLOAT_TOL),
                 f"body {i} is not on ring {ring} at step {step}")
        stand = np.array([xy[0], xy[1], nav["standing_height"]])
        clearance = (float(np.sqrt(np.min(np.sum((above_floor - stand) ** 2,
                                                 axis=1))))
                     if len(above_floor) else diagonal)
        in_bounds = bool(np.all(xy >= lo[:2] + fp) and np.all(xy <= hi[:2] - fp))
        eye = np.array([xy[0], xy[1], nav["camera_height"]])
        view = _segment_clearance(eye, centroid, sight) if len(sight) else math.inf
        edge = min(np.min(np.abs(xy - (lo[:2] + fp))),
                   np.min(np.abs(xy - (hi[:2] - fp))))
        if (edge < AMBIGUOUS or abs(clearance - fp) < AMBIGUOUS
                or abs(view - nav["los_clearance"]) < AMBIGUOUS):
            continue
        clear = in_bounds and clearance >= fp
        valid = clear and view > nav["los_clearance"]
        reason = (None if valid else
                  "out-of-scene" if not clear else "no-line-of-sight")
        _require(body["valid"] == valid and body["reason"] == reason,
                 f"body {i}: reported valid={body['valid']}"
                 f" ({body['reason']}), brute force gives {valid} ({reason})")
        if valid:
            d_item = math.hypot(xy[0] - centroid[0], xy[1] - centroid[1])
            _require(abs(body["d_obstacles"] - clearance) <= FLOAT_TOL
                     and abs(body["d_item"] - d_item) <= FLOAT_TOL
                     and abs(body["s_body"] - (clearance - nav["lambda_item"]
                                               * d_item)) <= FLOAT_TOL,
                     f"body {i}: d_obstacles {body['d_obstacles']}, brute"
                     f" force {clearance}")
        else:
            _require(body["d_obstacles"] is None and body["s_body"] is None,
                     f"invalid body {i} carries scores")

    # selection: exhaustive argmax of the README score, same tie rule
    valid_bodies = [b for b in bodies if b["valid"]]
    scores = {}
    best = None
    for gi, g in enumerate(grasps):
        approach = np.asarray(g["pose"]["rotation"]).reshape(3, 3)[:, 0]
        approach = approach / np.linalg.norm(approach)
        for bi, b in enumerate(valid_bodies):
            eye = np.array([b["position"][0], b["position"][1],
                            nav["camera_height"]])
            rt = (centroid - eye) / np.linalg.norm(centroid - eye)
            s = (g["score"] + weights["lambda_body"] * b["s_body"]
                 + weights["lambda_align"]
                 * math.tanh(weights["temperature"] * float(rt @ approach)))
            scores[gi, bi] = s
            key = (s, g["score"], -gi, -bi)
            if best is None or key > best[0]:
                best = (key, gi, bi)
    _require(best is not None, "no grasp x valid body pair to select from")
    sel = report["selection"]
    (s_best, *_), gi, bi = best
    pair = (sel["grasp_index"], sel["body_index"])
    _require(pair in scores, f"selection {pair} is out of range")
    # a pair whose score ties the best to the last bits may win either way
    _require(pair == (gi, bi)
             or abs(scores[pair] - s_best) <= 1e-12 * max(1.0, abs(s_best)),
             f"selection {pair} is not the exhaustive argmax {(gi, bi)}")
    _require(abs(sel["s"] - scores[pair]) <= FLOAT_TOL,
             f"selected score {sel['s']}, recomputed {scores[pair]}")
    _require(sel["grasp"] == grasps[pair[0]]
             and {**sel["body"], "index": None}
             == {**valid_bodies[pair[1]], "index": None},
             "selection repeats a grasp or body that differs from the lists")
    chosen = np.asarray(grasps[sel["grasp_index"]]["pose"]["translation"])
    err = float(np.min(np.linalg.norm(truth.truth_centers - chosen, axis=1)))
    _require(err <= config["sim"]["grasp_success_tol"],
             f"selected grasp lies {err:.4f} m from every ground-truth grasp")


# ---------------------------------------------------------------------------
# match-drawers
# ---------------------------------------------------------------------------

FACINGS = {"+x": (1.0, 0.0), "-x": (-1.0, 0.0),
           "+y": (0.0, 1.0), "-y": (0.0, -1.0)}


def cabinet_truth(cabinet: dict) -> tuple[np.ndarray, np.ndarray]:
    """Grip points (n, 3) and the unit facing, in closed form from a
    CabinetSpec dict: each handle's outer face, at the middle height of
    its drawer, on the cabinet's front."""
    fx, fy = FACINGS[cabinet["facing"]]
    reach = cabinet["depth"] / 2 + cabinet["front_proud"] + cabinet["handle_proud"]
    cx, cy = cabinet["center"]
    n = cabinet["n_drawers"]
    grips = np.array([[cx + fx * reach, cy + fy * reach,
                       (i + 0.5) * cabinet["height"] / n] for i in range(n)])
    return grips, np.array([fx, fy, 0.0])


def check_match_drawers(text: str, cabinet: dict, frames: list[dict]) -> None:
    """Every drawer has a fused target inside the gate radius of its grip
    point whose axis is within the axis tolerance of the facing.

    ``frames`` lists, per frame file, its path and detection counts.
    """
    report = strict_json(text)
    config = report["config"]
    gate = config["drawer"]["gate_radius"]
    tol = config["sim"]["axis_tol_deg"]
    _require([(f["frame"], f["handles"], f["drawers"]) for f in report["frames"]]
             == [(f["frame"], f["handles"], f["drawers"]) for f in frames],
             "frame statistics do not match the frames written")
    grips, facing = cabinet_truth(cabinet)
    targets = report["targets"]
    _require(targets, "no fused drawer targets")
    centers = np.array([t["handle_center"] for t in targets])
    for d, grip in enumerate(grips):
        dist = np.linalg.norm(centers - grip, axis=1)
        k = int(np.argmin(dist))
        _require(dist[k] <= gate,
                 f"drawer {d}: nearest target {dist[k]:.3f} m from its grip"
                 f" point, gate {gate}")
        axis = np.asarray(targets[k]["axis"])
        angle = math.degrees(math.acos(max(-1.0, min(1.0, float(
            axis @ facing / np.linalg.norm(axis))))))
        _require(angle <= tol,
                 f"drawer {d}: axis {angle:.2f} deg from the facing, tol {tol}")
