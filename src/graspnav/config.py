"""One config object covering every stage, loadable from a JSON file.

Each section is optional and falls back to that stage's defaults, but
unknown sections and unknown keys inside a section are rejected so silent
typos cannot change behavior. The resolved form (every default filled in)
is what reports echo, making any run reproducible from its own output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codec import JsonCodec, read_json_object
from .drawer import DrawerConfig
from .grasp import GraspConfig
from .nav import NavConfig
from .optimizer import OptimizerWeights
from .sim import NoiseModel, SimConfig


@dataclass
class RunConfig(JsonCodec):
    """Fully resolved settings for queries, planning, and simulation."""

    nav: NavConfig = field(default_factory=NavConfig)
    optimizer: OptimizerWeights = field(default_factory=OptimizerWeights)
    grasp: GraspConfig = field(default_factory=GraspConfig)
    drawer: DrawerConfig = field(default_factory=DrawerConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)


def load_run_config(path) -> RunConfig:
    """Read a RunConfig from a JSON file; missing sections use defaults."""
    return RunConfig.from_dict(read_json_object(path, "config"))
