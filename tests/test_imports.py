"""Every module imports cleanly when it is the first one imported.

An import cycle between packages (for instance a config module that
imports the simulator while the simulator imports the config) only shows
when one side is imported first, so each module gets a fresh interpreter.
"""

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
