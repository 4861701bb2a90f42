"""The benchmark's workloads: inputs made from the seed, and their rounds.

Every workload is one closed-loop client calling ``graspnav.cli.main``
in-process: the next invocation starts when the previous one has
returned. A round is a fixed list of invocations, so every run attempts
whole rounds and the share of failed operations does not depend on the
run's length or seed.

    search  simulate --task search, SEARCH_BATCH episodes per invocation
    grasp   simulate --task grasp, GRASP_BATCH episodes per invocation
    scan    plan-grasp on a seeded ~190k-point ASCII PLY scan, then the
            same invocation on a fixed binary-little-endian PLY scan
    frames  match-drawers on FRAME_COUNT rendered 640x480 frames

An operation is one episode, or one plan-grasp / match-drawers
invocation. It fails when main raises or exits non-zero, or when its
output fails a check in ``checks``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from graspnav import cli
from graspnav.geometry import CameraIntrinsics, look_at
from graspnav.sim import (CabinetSpec, NoiseModel, ObjectSpec, SceneSpec,
                          default_grasp_spec, detect_boxes, generate_scene,
                          render_depth)

SEARCH_BATCH = 5
GRASP_BATCH = 9            # three whole cycles of the spec's three targets
SCAN_DENSITY = 10000.0     # points per m^2: ~190k points on the 4 m floor
# Posts taller than the camera among the grasp spec's objects, so that
# some body placements lose their view of the target or their clearance.
SCAN_PILLAR = ObjectSpec(label="pillar", shape="box", size=(0.12, 0.12, 1.2),
                         tier="easy")
SCAN_PILLARS = 4
BINARY_SCAN_SEED = 0       # the binary scan does not depend on --seed
SWEEPS = 4
DISTRACTORS_PER_SWEEP = 6
FRAME_COUNT = 4
FRAME_INTRINSICS = CameraIntrinsics(fx=525.0, fy=525.0, cx=319.5, cy=239.5,
                                    width=640, height=480)


def child_seed(seed: int, *path: int) -> int:
    """A seed for one consumer, named by its path under the run's seed."""
    entropy = (seed % 2**64, *path)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass
class Outcome:
    """One invocation's share of a run."""

    attempted: int
    failed: int
    seconds: float
    latency: float | None = None       # a sample of the workload's latency
    problems: list[str] = field(default_factory=list)   # failed checks
    errors: list[str] = field(default_factory=list)     # non-zero exits


class Invoker:
    """Runs ``graspnav.cli.main`` in-process, capturing its output.

    ``main`` is looked up on each call so that a traced run reaches the
    wrapper installed in its place; ``recorder.trace`` numbers the
    invocations so that spans of one invocation share an identifier.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder

    def __call__(self, argv: list[str]) -> tuple[int | None, float, str]:
        if self.recorder is not None:
            self.recorder.trace += 1
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback escaping main is a failed operation
            rc = None
            err.write(traceback.format_exc())
        return rc, time.perf_counter() - t0, err.getvalue()


def _fresh(path: Path) -> Path:
    """An empty directory at ``path``.

    Every invocation writes to paths that do not exist yet: on ext4,
    truncating and rewriting a file forces a flush of its data at close
    (auto_da_alloc), ~60 ms per report here, which times the disk rather
    than the program.
    """
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class Simulate:
    """Seeded episode batches over the built-in spec at reference noise."""

    def __init__(self, task: str, seed: int, work: Path, invoke: Invoker):
        self.task, self.seed, self.work, self.invoke = task, seed, work, invoke
        self.batch = SEARCH_BATCH if task == "search" else GRASP_BATCH
        self.tally: dict[str | None, list[int]] = {}   # tier -> [wins, n]
        self.first_round: tuple[bytes, bytes] | None = None

    def prepare(self, repeat: int) -> None:
        _fresh(self.work)
        self._round(-1 - repeat, self.work / "warm", tally=False)

    def verify_reference(self) -> list[str]:
        return []

    def _argv(self, r: int, out: Path) -> list[str]:
        return ["simulate", "--task", self.task, "--episodes", str(self.batch),
                "--seed", str(self._seed(r)), "--out", str(out)]

    def _seed(self, r: int) -> int:
        # warm-up rounds are numbered -1, -2, ...
        return (child_seed(self.seed, 2, r) if r >= 0
                else child_seed(self.seed, 3, -r))

    def _round(self, r: int, out: Path, tally: bool = True) -> Outcome:
        _fresh(out)
        rc, dt, err = self.invoke(self._argv(r, out))
        n = self.batch
        if rc != 0:
            return Outcome(n, n, dt, errors=[f"simulate exited {rc}: {err}"])
        lines = (out / "episodes.ndjson").read_text().splitlines()
        summary_text = (out / "summary.json").read_text()
        try:
            summary = checks.strict_json(summary_text)
            eps = checks.check_batch(lines, summary, self.task, n, self._seed(r))
        except (checks.CheckFailure, KeyError, TypeError) as exc:
            return Outcome(n, n, dt, problems=[f"round {r}: {exc!r}"])
        problems = []
        objects = summary["spec"]["objects"]
        for i, ep in enumerate(eps):
            try:
                checks.check_episode(ep, i, self.task, objects, summary["config"])
            except (checks.CheckFailure, KeyError, TypeError) as exc:
                problems.append(f"round {r}: {exc!r}")
                continue
            if tally:
                row = self.tally.setdefault(ep["tier"], [0, 0])
                row[0] += ep["success"]
                row[1] += 1
        if r == 0:
            self.first_round = ((out / "episodes.ndjson").read_bytes(),
                                summary_text.encode())
        return Outcome(n, len(problems), dt, latency=dt, problems=problems)

    def run_round(self, r: int) -> list[Outcome]:
        return [self._round(r, self.work / "out")]

    def finish(self) -> list[str]:
        try:
            if self.task == "search":
                wins, n = self.tally.get(None, [0, 0])
                checks.check_search_band(wins, n)
            else:
                checks.check_tier_order(
                    {tier: tuple(row) for tier, row in self.tally.items()})
        except (checks.CheckFailure, KeyError, ZeroDivisionError) as exc:
            return [repr(exc)]
        return []

    def replay_first_round(self) -> list[str]:
        """Run round 0 again, untraced, and compare its files byte for byte."""
        out = _fresh(self.work / "replay")
        rc, _, err = self.invoke(self._argv(0, out))
        again = ((out / "episodes.ndjson").read_bytes(),
                 (out / "summary.json").read_bytes()) if rc == 0 else None
        if again != self.first_round:
            return [f"traced and untraced round 0 differ (rc {rc}) {err}"]
        return []


# ---------------------------------------------------------------------------
# plan-grasp
# ---------------------------------------------------------------------------

def _approach_rotation(approach: np.ndarray) -> np.ndarray:
    """Rotation whose first column is the horizontal approach direction."""
    x = approach / np.linalg.norm(approach)
    y = np.cross([0.0, 0.0, 1.0], x)
    y /= np.linalg.norm(y)
    return np.column_stack([x, y, np.cross(x, y)])


def _yaw(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def write_scan(path: Path, points: np.ndarray, binary: bool) -> None:
    """PLY with double x y z: ASCII with round-trip reprs, or raw <f8."""
    header = ("ply\nformat {} 1.0\nelement vertex {}\nproperty double x\n"
              "property double y\nproperty double z\nend_header\n").format(
        "binary_little_endian" if binary else "ascii", len(points))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(np.ascontiguousarray(points, dtype="<f8").tobytes())
        else:
            fh.write("".join(f"{x!r} {y!r} {z!r}\n"
                             for x, y, z in points.tolist()).encode("ascii"))


def make_scan(seed: int, target_choice: int, folder: Path, binary: bool,
              density: float = SCAN_DENSITY) -> tuple[list[str], checks.ScanTruth]:
    """Write one scan, its instances, a query and grasp sweeps.

    The scene is the grasp spec's three objects plus SCAN_PILLARS posts;
    the target is one of the three.

    Grasp candidates: every ground-truth grasp of the target moved by at
    most 2 mm, a zero-score copy of one of them per sweep, and off-object
    distractors; each sweep file holds its candidates in the frame of the
    object rotated by that sweep's yaw about the target centroid.
    Returns the plan-grasp arguments and what the checks need.
    """
    rng = np.random.default_rng(child_seed(seed, 1))
    base = default_grasp_spec()
    spec = dataclasses.replace(
        base, density=density,
        objects=base.objects + (SCAN_PILLAR,) * SCAN_PILLARS)
    synth = generate_scene(spec, seed=child_seed(seed, 0))
    target = synth.objects[target_choice % len(base.objects)]
    points = synth.scene.points
    folder.mkdir(parents=True, exist_ok=True)
    cloud = folder / ("scan.ply" if not binary else "scan_binary.ply")
    write_scan(cloud, points, binary)
    instances = folder / "instances.json"
    instances.write_text(json.dumps({
        "embedding_dim": synth.scene.embedding_dim,
        "instances": [{"id": m.id, "label": m.label,
                       "confidence": m.confidence,
                       "point_indices": m.point_indices.tolist(),
                       "embedding": m.embedding.tolist()}
                      for m in synth.scene.instances]}))
    query = folder / "query.json"
    query.write_text(json.dumps(
        {"embedding": synth.label_codes[target.label].tolist()}))

    indices = synth.scene.instance(target.instance_id).point_indices
    centroid = points[indices].mean(axis=0)
    sweeps: list[list[dict]] = [[] for _ in range(SWEEPS)]
    for truth in target.truth_grasps:
        theta = math.atan2(truth.approach[1], truth.approach[0]) % (2 * math.pi)
        sector = int(((theta + math.pi / SWEEPS) % (2 * math.pi))
                     / (2 * math.pi / SWEEPS))
        offset = rng.normal(size=3)
        offset *= rng.uniform(0.0, 0.002) / np.linalg.norm(offset)
        sweeps[sector].append({
            "center": truth.center + offset,
            "rotation": _approach_rotation(truth.approach),
            "width": float(truth.width), "score": float(rng.uniform(0.3, 1.0))})
    for cands in sweeps:
        if cands:
            cands.append({**cands[0], "score": 0.0})
        for _ in range(DISTRACTORS_PER_SWEEP):
            angle = rng.uniform(0.0, 2 * math.pi)
            reach = rng.uniform(0.3, 0.6)
            center = centroid + np.array([reach * math.cos(angle),
                                          reach * math.sin(angle), 0.0])
            center[2] = rng.uniform(0.05, 0.3)
            cands.append({"center": center,
                          "rotation": _approach_rotation(
                              np.array([math.cos(angle), math.sin(angle), 0.0])),
                          "width": 0.05, "score": float(rng.uniform(0.05, 0.95))})
    grasp_files = []
    for s, cands in enumerate(sweeps):
        rot = _yaw(2 * math.pi * s / SWEEPS)
        path = folder / f"sweep{s}.json"
        path.write_text(json.dumps({
            "rotation": rot.reshape(-1).tolist(),
            "candidates": [{
                "rotation": (rot @ c["rotation"]).reshape(-1).tolist(),
                "translation": (rot @ (c["center"] - centroid)
                                + centroid).tolist(),
                "width": c["width"], "score": c["score"]} for c in cands]}))
        grasp_files.append(str(path))
    truth = checks.ScanTruth(
        points=points, target_id=target.instance_id, target_indices=indices,
        truth_centers=np.stack([g.center for g in target.truth_grasps]),
        sweeps=sweeps)
    argv = ["plan-grasp", "--scene", str(cloud), "--instances", str(instances),
            "--query", str(query), "--grasps", *grasp_files]
    return argv, truth


class _Reference:
    """The first successful output of one invocation, fully checked;
    later outputs of the same invocation must repeat it byte for byte."""

    def __init__(self, check):
        self.check = check
        self.text: str | None = None

    def judge(self, text: str) -> list[str]:
        if self.text is not None:
            return [] if text == self.text else ["output differs from the"
                                                 " checked first output"]
        try:
            self.check(text)
        except (checks.CheckFailure, KeyError, TypeError, IndexError,
                ValueError) as exc:
            return [repr(exc)]
        self.text = text
        return []


class _FileInvocations:
    """Rounds of fixed invocations whose outputs are report files."""

    def __init__(self, seed: int, work: Path, invoke: Invoker):
        self.seed, self.work, self.invoke = seed, work, invoke
        self.ops: list[tuple[list[str], Path, _Reference, bool]] = []

    def _op(self, argv, out: Path, ref: _Reference, primary: bool) -> Outcome:
        out.unlink(missing_ok=True)     # see _fresh
        rc, dt, err = self.invoke([*argv, "--out", str(out)])
        if rc != 0:
            return Outcome(1, 1, dt, errors=[f"exit {rc}: {err.strip()}"])
        problems = ref.judge(out.read_text())
        return Outcome(1, 1 if problems else 0, dt,
                       latency=dt if primary else None, problems=problems)

    def warm_round(self) -> None:
        for argv, out, _, _ in self.ops:
            self.invoke([*argv, "--out", str(out)])

    def verify_reference(self) -> list[str]:
        problems = []
        for _, out, ref, _ in self.ops:
            if out.exists():
                problems += ref.judge(out.read_text())
        return problems

    def run_round(self, r: int) -> list[Outcome]:
        return [self._op(*op) for op in self.ops]

    def finish(self) -> list[str]:
        return []

    def replay_first_round(self) -> list[str]:
        return []      # every traced output was compared with the untraced one


class Scan(_FileInvocations):
    """plan-grasp on the seeded ASCII scan, then on the fixed binary scan.

    The binary invocation fails on every run while ``read_ply`` reads
    only ASCII; it is counted as a failed operation until that is mended,
    and from then on its report gets the same checks.
    """

    def prepare(self, repeat: int) -> None:
        _fresh(self.work)
        argv, truth = make_scan(self.seed, self.seed, self.work / "ascii",
                                binary=False)
        bargv, btruth = make_scan(BINARY_SCAN_SEED, 0, self.work / "binary",
                                  binary=True)
        self.ops = [
            (argv, self.work / "plan_ascii.json",
             _Reference(lambda t: checks.check_plan_grasp(t, truth)), True),
            (bargv, self.work / "plan_binary.json",
             _Reference(lambda t: checks.check_plan_grasp(t, btruth)), False)]
        self.warm_round()


# ---------------------------------------------------------------------------
# match-drawers
# ---------------------------------------------------------------------------

def _write_frame(path: Path, pose, depth: np.ndarray, dets) -> None:
    depth_name = path.stem + ".depth.bin"
    depth.astype("<f4").tofile(path.parent / depth_name)
    path.write_text(json.dumps({
        "intrinsics": {k: getattr(FRAME_INTRINSICS, k)
                       for k in ("fx", "fy", "cx", "cy", "width", "height")},
        "cam_pose": pose.matrix().reshape(-1).tolist(),
        "depth_file": depth_name,
        "detections": [{"class": d.class_label, "bbox": d.bbox.as_list(),
                        "confidence": d.confidence} for d in dets]}))


def make_frames(seed: int, folder: Path) -> tuple[list[str], dict, list[dict]]:
    """Render FRAME_COUNT noisy frames of a cabinet facing a seeded side.

    Reference depth noise and box jitter, but no dropped detections and a
    fixed viewing distance, so that every seed gives match-drawers the
    same amount of work: the same pairs, and drawer fronts of the same
    pixel size to fit planes to.

    Returns the match-drawers arguments, the cabinet spec as a dict and
    the per-frame detection counts.
    """
    rng = np.random.default_rng(child_seed(seed, 3))
    facing = ("-x", "+x", "-y", "+y")[int(rng.integers(4))]
    fx, fy = checks.FACINGS[facing]
    cabinet = CabinetSpec(center=(-1.2 * fx, -1.2 * fy), facing=facing)
    synth = generate_scene(SceneSpec(cabinet=cabinet), seed=child_seed(seed, 4))
    look = synth.cabinet.handle_centers.mean(axis=0)
    heading = math.atan2(fy, fx)
    noise = NoiseModel(detection_dropout=0.0)
    folder.mkdir(parents=True, exist_ok=True)
    paths, stats = [], []
    for i, base in enumerate(np.radians([-30.0, -10.0, 10.0, 30.0])[:FRAME_COUNT]):
        angle = heading + base + math.radians(rng.uniform(-3.0, 3.0))
        eye = np.array([look[0] + 1.8 * math.cos(angle),
                        look[1] + 1.8 * math.sin(angle), 0.9])
        pose = look_at(eye, look)
        depth = render_depth(synth.primitives, FRAME_INTRINSICS, pose, noise,
                             seed=child_seed(seed, 5, i))
        dets = detect_boxes(synth.cabinet, FRAME_INTRINSICS, pose, noise,
                            seed=child_seed(seed, 6, i))
        path = folder / f"frame{i}.json"
        _write_frame(path, pose, depth, dets)
        paths.append(str(path))
        stats.append({"frame": str(path),
                      "handles": sum(d.class_label == "handle" for d in dets),
                      "drawers": sum(d.class_label == "drawer" for d in dets)})
    return ["match-drawers", "--frames", *paths], cabinet.to_dict(), stats


class Frames(_FileInvocations):
    """match-drawers over the same rendered frames, round after round."""

    def prepare(self, repeat: int) -> None:
        _fresh(self.work)
        argv, cabinet, stats = make_frames(self.seed, self.work / "frames")
        self.ops = [(argv, self.work / "drawers.json", _Reference(
            lambda t: checks.check_match_drawers(t, cabinet, stats)), True)]
        self.warm_round()


def build(name: str, seed: int, work: Path, invoke: Invoker):
    if name in ("search", "grasp"):
        return Simulate(name, seed, work, invoke)
    return {"scan": Scan, "frames": Frames}[name](seed, work, invoke)
