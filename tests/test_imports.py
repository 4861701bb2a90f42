"""Every module imports cleanly when it is the first one imported.

An import cycle between packages (for instance a config module that
imports the simulator while the simulator imports the config) only shows
when one side is imported first, so each module gets a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for path in (SRC / "graspnav").rglob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# --- scipy stays off the start-up path -------------------------------------
#
# scipy is imported only where a kd-tree is built (geometry.PointIndex), so
# a command that builds none starts without it.

_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
_CHILD = f"""
import sys
from graspnav.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(rc, *{_SCIPY_MODULES})
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small generated scan with query and grasps, and one cabinet frame."""
    from graspnav.drawer import DetectionFrame, write_detection_frame
    from graspnav.geometry import look_at
    from graspnav.scene import save_scene
    from graspnav.sim import (SimConfig, default_grasp_spec, default_search_spec,
                              detect_boxes, generate_scene, render_depth)
    from graspnav.sim.episodes import _approach_rotation

    root = tmp_path_factory.mktemp("startup")
    synth = generate_scene(default_grasp_spec(), seed=3)
    save_scene(synth.scene, root / "scene.ply", root / "instances.json")
    crate = synth.objects[0]
    (root / "query.json").write_text(json.dumps(
        {"embedding": list(synth.label_codes[crate.label])}))
    cands = [{"translation": [float(x) for x in g.center],
              "rotation": [float(x) for x in _approach_rotation(g.approach).reshape(-1)],
              "width": float(g.width), "score": 0.9} for g in crate.truth_grasps]
    (root / "grasps.json").write_text(json.dumps(
        {"rotation": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0], "candidates": cands}))
    (root / "bad_config.json").write_text(json.dumps({"warp": 9}))

    ss = generate_scene(default_search_spec(), seed=3)
    sim = SimConfig()
    look = ss.cabinet.handle_centers.mean(axis=0)
    eye = look + ss.cabinet.axis * 1.5
    eye[2] = 0.6
    pose = look_at(eye, look)
    write_detection_frame(root / "frame.json", DetectionFrame(
        intrinsics=sim.intrinsics, cam_pose=pose,
        depth=render_depth(ss.primitives, sim.intrinsics, pose),
        detections=detect_boxes(ss.cabinet, sim.intrinsics, pose)))
    return root


def _last_line_fresh(code: str, *args: str) -> list[str]:
    """Words of the last stdout line of `code` run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _scipy_after(argv):
    """Exit code of `main(argv)` in a fresh interpreter, and the scipy modules
    it left loaded."""
    rc, *modules = _last_line_fresh(_CHILD, *argv)
    return int(rc), modules


def test_cli_import_loads_no_scipy():
    assert _last_line_fresh(f"import sys, graspnav.cli; print(*{_SCIPY_MODULES})") == []


@pytest.mark.parametrize("case", ["help", "query", "match-drawers", "bad-flag", "bad-config"])
def test_command_loads_no_scipy(inputs, case, tmp_path):
    argv = {
        "help": ["--help"],
        "query": ["query", "--scene", str(inputs / "scene.ply"),
                  "--instances", str(inputs / "instances.json"),
                  "--query", str(inputs / "query.json")],
        "match-drawers": ["match-drawers", "--frames", str(inputs / "frame.json"),
                          "--out", str(tmp_path / "drawers.json")],
        "bad-flag": ["simulate", "--task", "grasp", "--episodes", "-3",
                     "--out", str(tmp_path / "run")],
        "bad-config": ["simulate", "--task", "search", "--episodes", "1",
                       "--config", str(inputs / "bad_config.json"),
                       "--out", str(tmp_path / "run")],
    }[case]
    rc, modules = _scipy_after(argv)
    assert rc == (0 if case in ("help", "query", "match-drawers") else 1)
    assert modules == []


def test_plan_grasp_loads_only_the_kd_tree(inputs, tmp_path):
    rc, modules = _scipy_after(["plan-grasp", "--scene", str(inputs / "scene.ply"),
                                "--instances", str(inputs / "instances.json"),
                                "--query", str(inputs / "query.json"),
                                "--grasps", str(inputs / "grasps.json"),
                                "--out", str(tmp_path / "plan.json")])
    assert rc == 0
    assert "scipy.spatial" in modules
    assert not any(m.startswith("scipy.optimize") for m in modules)
