"""Each output check passes on a real output and rejects a corrupted one."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from graspnav import cli  # noqa: E402
from graspnav import nav  # noqa: E402


def _run(argv):
    assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    folder = tmp_path_factory.mktemp("scan")
    argv, truth = workloads.make_scan(3, 0, folder, binary=False,
                                      density=2500.0)
    out = folder / "report.json"
    _run([*argv, "--out", str(out)])
    return argv, truth, out.read_text()


@pytest.fixture(scope="module")
def frames(tmp_path_factory):
    folder = tmp_path_factory.mktemp("frames")
    argv, cabinet, stats = workloads.make_frames(4, folder)
    out = folder / "report.json"
    _run([*argv, "--out", str(out)])
    return cabinet, stats, out.read_text()


@pytest.fixture(scope="module", params=["grasp", "search"])
def batch(request, tmp_path_factory):
    task = request.param
    out = tmp_path_factory.mktemp(task)
    n = 6 if task == "grasp" else 2
    _run(["simulate", "--task", task, "--episodes", str(n), "--seed", "11",
          "--out", str(out)])
    lines = (out / "episodes.ndjson").read_text().splitlines()
    summary = json.loads((out / "summary.json").read_text())
    return task, n, lines, summary


def _edit(text, change):
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# plan-grasp
# ---------------------------------------------------------------------------

def test_plan_grasp_report_passes(scan):
    _, truth, text = scan
    checks.check_plan_grasp(text, truth)


def _swap_grasp(doc):
    sel = doc["selection"]
    sel["grasp_index"] = (sel["grasp_index"] + 1) % len(doc["grasps"])
    sel["grasp"] = doc["grasps"][sel["grasp_index"]]


def _swap_body(doc):
    valid = [b for b in doc["bodies"] if b["valid"]]
    sel = doc["selection"]
    sel["body_index"] = (sel["body_index"] + 1) % len(valid)
    sel["body"] = {**valid[sel["body_index"]], "index": sel["body_index"]}


def _flip_valid(doc):
    body = doc["bodies"][0]
    body["valid"] = not body["valid"]


def _shift_clearance(doc):
    body = next(b for b in doc["bodies"] if b["valid"])
    body["d_obstacles"] += 1e-3


def _other_instance(doc):
    doc["localization"]["instance_id"] += 1


def _drop_grasp(doc):
    doc["grasps"].pop()


def _move_grasp(doc):
    doc["grasps"][0]["pose"]["translation"][2] += 0.05


@pytest.mark.parametrize("corrupt, reason", [
    (_swap_grasp, "argmax"), (_swap_body, "argmax"),
    (_flip_valid, "brute force gives"), (_shift_clearance, "d_obstacles"),
    (_other_instance, "localized"), (_drop_grasp, "keeps"),
    (_move_grasp, "de-rotated")])
def test_plan_grasp_check_rejects(scan, corrupt, reason):
    _, truth, text = scan
    with pytest.raises(checks.CheckFailure, match=reason):
        checks.check_plan_grasp(_edit(text, corrupt), truth)


def test_selection_off_target_is_rejected(scan):
    """A selected grasp away from every ground-truth grasp fails even when
    it is the argmax of the reported grasps."""
    _, truth, text = scan
    far = checks.ScanTruth(**{**truth.__dict__,
                              "truth_centers": truth.truth_centers + 0.05})
    with pytest.raises(checks.CheckFailure, match="ground-truth"):
        checks.check_plan_grasp(text, far)


def test_nan_in_report_is_rejected(scan):
    _, truth, text = scan
    doc = json.loads(text)
    doc["selection"]["s"] = float("nan")
    with pytest.raises(checks.CheckFailure, match="NaN"):
        checks.check_plan_grasp(json.dumps(doc), truth)


# ---------------------------------------------------------------------------
# match-drawers
# ---------------------------------------------------------------------------

def test_match_drawers_report_passes(frames):
    cabinet, stats, text = frames
    checks.check_match_drawers(text, cabinet, stats)


def _nearest_target(doc, cabinet):
    grips, _ = checks.cabinet_truth(cabinet)
    centers = np.array([t["handle_center"] for t in doc["targets"]])
    return doc["targets"][int(np.argmin(np.linalg.norm(centers - grips[0],
                                                       axis=1)))]


def test_shifted_drawer_is_rejected(frames):
    cabinet, stats, text = frames

    def shift(doc):
        target = _nearest_target(doc, cabinet)
        target["handle_center"][2] += 0.2
    with pytest.raises(checks.CheckFailure, match="gate"):
        checks.check_match_drawers(_edit(text, shift), cabinet, stats)


def test_tilted_axis_is_rejected(frames):
    cabinet, stats, text = frames

    def tilt(doc):
        target = _nearest_target(doc, cabinet)
        a = np.asarray(target["axis"]) + np.array([0.0, 0.0, 0.2])
        target["axis"] = (a / np.linalg.norm(a)).tolist()
    with pytest.raises(checks.CheckFailure, match="axis"):
        checks.check_match_drawers(_edit(text, tilt), cabinet, stats)


def test_frame_counts_are_checked(frames):
    cabinet, stats, text = frames
    with pytest.raises(checks.CheckFailure, match="frame statistics"):
        checks.check_match_drawers(
            _edit(text, lambda d: d["frames"][0].update(handles=0)),
            cabinet, stats)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _check_all(task, n, lines, summary):
    eps = checks.check_batch(lines, summary, task, n, 11)
    for i, ep in enumerate(eps):
        checks.check_episode(ep, i, task, summary["spec"]["objects"],
                             summary["config"])


def test_simulate_output_passes(batch):
    _check_all(*batch)


def test_dropped_episode_line_is_rejected(batch):
    task, n, lines, summary = batch
    with pytest.raises(checks.CheckFailure, match="lines"):
        _check_all(task, n, lines[:-1], summary)


def _edit_line(lines, i, change):
    return [*lines[:i], _edit(lines[i], change), *lines[i + 1:]]


def _check_episode(batch, ep, index):
    task, _, _, summary = batch
    checks.check_episode(ep, index, task, summary["spec"]["objects"],
                         summary["config"])


@pytest.mark.parametrize("change, reason", [
    (lambda ep: ep["stages"].reverse(), "pipeline order"),
    (lambda ep: ep["stages"][0].update(status="not-reached", reason=None),
     "not-reached"),
    (lambda ep: ep.update(success=not ep["success"]), "success"),
    (lambda ep: ep.update(index=ep["index"] + 1), "index"),
], ids=["stages-out-of-order", "status-after-not-reached", "success-flag",
        "index"])
def test_corrupted_episode_is_rejected(batch, change, reason):
    ep = json.loads(batch[2][0])
    change(ep)
    with pytest.raises(checks.CheckFailure, match=reason):
        _check_episode(batch, ep, 0)


def test_error_beyond_tolerance_on_success_is_rejected(batch):
    task, _, lines, _ = batch
    i = next(i for i, line in enumerate(lines) if json.loads(line)["success"])
    ep = json.loads(lines[i])
    ep["details"]["grasp_error" if task == "grasp" else "handle_error"] = 1.0
    with pytest.raises(checks.CheckFailure, match="manipulation pass"):
        _check_episode(batch, ep, i)


def test_flipped_success_breaks_the_summary(batch):
    task, n, lines, summary = batch
    with pytest.raises(checks.CheckFailure, match="successes"):
        _check_all(task, n, _edit_line(
            lines, 0, lambda ep: ep.update(success=not ep["success"])),
            summary)


def test_summary_must_conserve_episodes(batch):
    task, n, lines, summary = batch
    wrong = {**summary, "successes": summary["successes"] - 1}
    with pytest.raises(checks.CheckFailure, match="successes"):
        _check_all(task, n, lines, wrong)


def test_body_candidates_follow_config():
    ep = {"task": "grasp", "index": 0, "query": "crate", "tier": "easy",
          "success": False, "stages": [
              {"name": "localization", "status": "pass", "reason": None},
              {"name": "detection", "status": "pass", "reason": None},
              {"name": "navigation", "status": "fail", "reason": "x"},
              {"name": "manipulation", "status": "not-reached",
               "reason": None}],
          "details": {"proposals": 4, "on_object": 3, "body_candidates": 108,
                      "valid_bodies": 0}}
    config = {"sim": {}, "nav": {"radii": [0.7, 0.9, 1.1],
                                 "angular_step": 2 * np.pi / 36}}
    objects = [{"label": "crate", "tier": "easy"}]
    checks.check_episode(ep, 0, "grasp", objects, config)
    ep["details"]["body_candidates"] = 111
    with pytest.raises(checks.CheckFailure, match="body"):
        checks.check_episode(ep, 0, "grasp", objects, config)


def test_binomial_bands():
    checks.check_search_band(170, 200)
    with pytest.raises(checks.CheckFailure):
        checks.check_search_band(120, 200)
    checks.check_tier_order({"easy": (99, 100), "medium": (80, 100),
                             "hard": (30, 100)})
    checks.check_tier_order({"easy": (100, 100), "medium": (98, 100),
                             "hard": (30, 100)})
    with pytest.raises(checks.CheckFailure):
        checks.check_tier_order({"easy": (60, 100), "medium": (90, 100),
                                 "hard": (30, 100)})


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_traced_run_nests_spans_and_restores_functions(scan, tmp_path):
    argv, _, text = scan
    original = nav.validate_candidates
    recorder = spans.Recorder()
    installed = spans.Installed(recorder)
    try:
        _run([*argv, "--out", str(tmp_path / "traced.json")])
    finally:
        installed.remove()
    assert nav.validate_candidates is original
    assert (tmp_path / "traced.json").read_text() == text
    by_id = {s[1]: s for s in recorder.spans}
    names = {s[3] for s in recorder.spans}
    assert {"cli.main", "scene.read_ply", "nav.validate_candidates",
            "geometry.line_of_sight", "optimizer.select_best"} <= names
    for _, _, parent, name, start, end, self_s in recorder.spans:
        assert -1e-9 <= self_s <= end - start + 1e-9
        if name == "nav.validate_candidates":
            assert by_id[parent][3] == "cli.main"
    metrics = spans.layer_metrics(recorder)
    assert set(metrics) | {"traced.ops_per_s", "traced.invocation_p50_ms"} \
        == set(spans.PER_LAYER)
    assert metrics["cli.main.calls"] == 1
    assert metrics["sim.render.render_depth.calls"] == 0
