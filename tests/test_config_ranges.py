"""Tests for the declared ranges of the run config and scene spec: the work
caps at their limit and one step past it, the completeness of the range
table, and a decode fuzzer over extreme values."""

import dataclasses
import json
import math
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspnav.cli import EXIT_PARSE, MAX_EPISODES, build_parser, main
from graspnav.codec import JsonCodec
from graspnav.config import RunConfig, SimConfig
from graspnav.drawer import DrawerConfig
from graspnav.errors import ConfigError
from graspnav.geometry import RansacParams
from graspnav.grasp import GraspConfig
from graspnav.nav import NavConfig
from graspnav.optimizer import OptimizerWeights
from graspnav.sim import CabinetSpec, NoiseModel, ObjectSpec, SceneSpec

_MIN_STEP = 2.0 * math.pi / 1000.0
_OBJECT = {"label": "post", "shape": "box", "size": [0.1, 0.1, 0.5],
           "tier": "easy"}
_RADII = [0.5 + 0.1 * i for i in range(17)]
_BUDGET_DENSITY = 4_000_000 / 4.0 ** 2     # on the default 4 m floor
# a 2 x 2 x 1 m box samples 16 m^2, as much as the default floor
_BIG_BOX = {**_OBJECT, "size": [2.0, 2.0, 1.0]}
_SURFACE_DENSITY = 4_000_000 / 32.0

# (input, document or argv at the cap, one step past it, key the error names)
CAPS = [
    ("config", {"sim": {"image_width": 2048}}, {"sim": {"image_width": 2049}},
     "image_width"),
    ("config", {"sim": {"image_height": 2048}}, {"sim": {"image_height": 2049}},
     "image_height"),
    ("config", {"sim": {"view_candidates": 360}},
     {"sim": {"view_candidates": 361}}, "view_candidates"),
    ("config", {"sim": {"close_looks": 32}}, {"sim": {"close_looks": 33}},
     "close_looks"),
    ("config", {"nav": {"angular_step": _MIN_STEP}},
     {"nav": {"angular_step": math.nextafter(_MIN_STEP, 0.0)}}, "angular_step"),
    ("config", {"nav": {"radii": _RADII[:16]}}, {"nav": {"radii": _RADII}},
     "radii"),
    ("config", {"nav": {"camera_height": 100.0}},
     {"nav": {"camera_height": math.nextafter(100.0, math.inf)}}, "camera_height"),
    ("config", {"grasp": {"sweep_count": 64}}, {"grasp": {"sweep_count": 65}},
     "sweep_count"),
    ("config", {"grasp": {"top_k": 1000}}, {"grasp": {"top_k": 1001}}, "top_k"),
    ("config", {"drawer": {"ransac": {"iterations": 100_000}}},
     {"drawer": {"ransac": {"iterations": 100_001}}}, "iterations"),
    ("spec", {"objects": [_OBJECT] * 64}, {"objects": [_OBJECT] * 65},
     "objects"),
    ("spec", {"density": _BUDGET_DENSITY},
     {"density": math.nextafter(_BUDGET_DENSITY, math.inf)}, "density"),
    ("spec", {"density": _SURFACE_DENSITY, "objects": [_BIG_BOX]},
     {"density": math.nextafter(_SURFACE_DENSITY, math.inf),
      "objects": [_BIG_BOX]}, "sampled area"),
    ("spec", {"cabinet": {"n_drawers": 32}}, {"cabinet": {"n_drawers": 33}},
     "n_drawers"),
    ("spec", {"cabinet": {"width": 10.0}},
     {"cabinet": {"width": math.nextafter(10.0, math.inf)}}, "width"),
    # drawer fronts are width - 0.04 wide
    ("spec", {"cabinet": {"width": math.nextafter(0.04, math.inf)}},
     {"cabinet": {"width": 0.04}}, "width must be > 0.04"),
    ("spec", {"objects": [{**_OBJECT, "size": [10.0, 10.0, 10.0]}]},
     {"objects": [{**_OBJECT, "size": [10.0, 10.0, math.nextafter(10.0, 11.0)]}]},
     "size"),
    ("argv", str(MAX_EPISODES), str(MAX_EPISODES + 1), "--episodes"),
]


@pytest.mark.parametrize("kind, at_cap, past_cap, key", CAPS,
                         ids=[row[-1] for row in CAPS])
class TestWorkCaps:
    def test_accepted_at_the_cap(self, kind, at_cap, past_cap, key):
        # only builds the config or parses the argv; nothing runs
        if kind == "config":
            RunConfig.from_dict(json.loads(json.dumps(at_cap)))
        elif kind == "spec":
            SceneSpec.from_dict(json.loads(json.dumps(at_cap)))
        else:
            args = build_parser().parse_args(
                ["simulate", "--task", "search", "--episodes", at_cap,
                 "--out", "unused"])
            assert args.episodes == MAX_EPISODES

    def test_one_step_past_exits_1_naming_the_key(self, kind, at_cap, past_cap,
                                                  key, tmp_path, capsys):
        argv = ["simulate", "--task", "search", "--episodes", "1",
                "--out", str(tmp_path / "run")]
        if kind == "argv":
            argv[4] = past_cap
            with pytest.raises(SystemExit) as exc:
                main(argv)
            rc = exc.value.code
            # argparse prints its usage line before the error line
            lines = capsys.readouterr().err.splitlines()[-1:]
        else:
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(past_cap))
            rc = main(argv + [f"--{kind}", str(path)])
            lines = capsys.readouterr().err.splitlines()
        assert rc == EXIT_PARSE
        assert len(lines) == 1 and key in lines[0], lines
        assert "Traceback" not in lines[0]
        assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# Completeness of the range table
# ---------------------------------------------------------------------------

def _codec_classes() -> list[type]:
    """Every JsonCodec class reachable from RunConfig and SceneSpec."""
    found, stack = [], [RunConfig, SceneSpec]
    while stack:
        cls = stack.pop()
        if cls in found:
            continue
        found.append(cls)
        for hint in typing.get_type_hints(cls).values():
            stack.extend(t for t in (hint, *typing.get_args(hint))
                         if isinstance(t, type) and issubclass(t, JsonCodec))
    return found


def _numeric(hint) -> type | None:
    """int or float for a number field or a tuple of floats, else None."""
    if hint in (int, float):
        return hint
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and {*args} <= {float, Ellipsis}:
        return float
    return None


# a position on the floor, where either sign is valid
_UNBOUNDED = {(CabinetSpec, "center")}

# every key with a work cap or a natural upper limit
_CAPPED = {
    SimConfig: {"image_width", "image_height", "view_candidates", "close_looks",
                "view_span_deg"},
    NavConfig: {"angular_step", "radii", "footprint_radius", "camera_height",
                "standing_height", "los_clearance", "los_target_exclusion"},
    GraspConfig: {"sweep_count", "top_k", "min_similarity"},
    RansacParams: {"iterations", "min_inlier_fraction"},
    NoiseModel: {"depth_dropout", "detection_dropout", "confidence_range"},
    DrawerConfig: {"ioa_min"},
    CabinetSpec: {"width", "height", "depth", "n_drawers", "handle_width",
                  "handle_height", "front_proud", "handle_proud"},
    ObjectSpec: {"size"},
}

_BASE = {ObjectSpec: ObjectSpec("x", "box", (0.1, 0.1, 0.1), "easy")}

_NUMBER_FIELDS = [(cls, f) for cls in _codec_classes()
                  for f in dataclasses.fields(cls)
                  if _numeric(typing.get_type_hints(cls)[f.name])
                  and (cls, f.name) not in _UNBOUNDED]


def test_walk_reaches_every_config_class():
    assert set(_codec_classes()) == {
        RunConfig, NavConfig, OptimizerWeights, GraspConfig, DrawerConfig,
        RansacParams, SimConfig, NoiseModel, SceneSpec, ObjectSpec,
        CabinetSpec}


@pytest.mark.parametrize("cls, f", _NUMBER_FIELDS,
                         ids=[f"{c.__name__}.{f.name}" for c, f in _NUMBER_FIELDS])
def test_every_number_field_declares_a_lower_bound(cls, f):
    gt, ge, _ = f.metadata["bounds"]
    assert (gt is None) != (ge is None)


@pytest.mark.parametrize("cls", list(_CAPPED), ids=lambda c: c.__name__)
def test_every_capped_key_declares_an_upper_bound(cls):
    for f in dataclasses.fields(cls):
        if f.name in _CAPPED[cls]:
            assert f.metadata["bounds"][2] is not None, f.name


def _step(kind: type, bound, direction: float):
    """The nearest value of `kind` beyond `bound` in `direction` (+-inf)."""
    if kind is int:
        return bound + (1 if direction > 0 else -1)
    return math.nextafter(float(bound), direction)


@pytest.mark.parametrize("cls, f", _NUMBER_FIELDS,
                         ids=[f"{c.__name__}.{f.name}" for c, f in _NUMBER_FIELDS])
def test_one_step_past_each_bound_is_a_config_error(cls, f):
    """Direct construction, as Python callers do; RansacParams included,
    which raised ValueError before its range moved to the field."""
    kind = _numeric(typing.get_type_hints(cls)[f.name])
    base = _BASE.get(cls) or cls()
    gt, ge, le = f.metadata["bounds"]
    crossings = []
    if gt is not None:
        crossings.append((kind(gt), "must be positive" if gt == 0 else f"must be > {gt}"))
    if ge is not None:
        crossings.append((_step(kind, ge, -math.inf), f"must be >= {ge}"))
    if le is not None:
        crossings.append((_step(kind, le, math.inf), f"must be <= {le}"))
    original = getattr(base, f.name)
    for value, wording in crossings:
        name, field_value = f.name, value
        if isinstance(original, tuple):      # every item crosses; the first is named
            name, field_value = f"{f.name}[0]", tuple(value for _ in original)
        with pytest.raises(ConfigError) as exc:
            dataclasses.replace(base, **{f.name: field_value})
        assert str(exc.value) == f"{name} {wording}, got {value}"


# ---------------------------------------------------------------------------
# Decode fuzzer
# ---------------------------------------------------------------------------

_INTS = [0, -1, 1, 2 ** 63, -2 ** 63, 2 ** 63 - 1, 7, 8, 32, 33, 64, 65,
         360, 361, 1000, 1001, 2048, 2049, 100_000, 100_001]
_FLOATS = [0.0, -0.0, 0.5, -0.5, 1e308, -1e308, 5e-324, math.nan, math.inf,
           -math.inf, _BUDGET_DENSITY, 4e6, _MIN_STEP, math.pi]
_MIXED = st.sampled_from(["1", "", None, True, False, [], {}, [1.0, 2.0]])
_TYPED = {int: st.one_of(st.sampled_from(_INTS), st.integers()),
          float: st.one_of(st.sampled_from(_INTS + _FLOATS),
                           st.floats(allow_nan=True, allow_infinity=True)),
          str: st.sampled_from(["box", "cylinder", "easy", "medium", "hard",
                                "+x", "-y", "sphere"])}


def _or_mixed(typed):
    """`typed` nine times in ten, else a value of the wrong type."""
    return st.integers(0, 9).flatmap(lambda k: _MIXED if k == 0 else typed)


def _value(hint):
    args = typing.get_args(hint)
    if isinstance(hint, type) and issubclass(hint, JsonCodec):
        return _or_mixed(_document(hint))
    if type(None) in args:                               # X | None
        (inner,) = [a for a in args if a is not type(None)]
        return st.one_of(st.none(), _value(inner))
    if typing.get_origin(hint) is tuple:
        item = _value(args[0])
        return _or_mixed(st.one_of(st.lists(item, max_size=4),
                                   st.tuples(st.integers(0, 70), item)
                                   .map(lambda t: [t[1]] * t[0])))
    return _or_mixed(_TYPED[hint])


def _document(cls):
    """An object for `cls`: required keys always, the rest at random, and
    one time in ten an unknown key."""
    hints = typing.get_type_hints(cls)
    keys = {f.name: (_value(hints[f.name]),
                     f.default is f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)}
    doc = st.fixed_dictionaries(
        {k: v for k, (v, required) in keys.items() if required},
        optional={k: v for k, (v, required) in keys.items() if not required})
    return st.tuples(st.integers(0, 9), doc).map(
        lambda t: {**t[1], "unknown": 1} if t[0] == 0 else t[1])


def _decodes_or_config_error(cls, doc) -> None:
    try:
        cls.from_dict(doc)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(_document(RunConfig))
def test_run_config_decode_returns_or_raises_config_error(doc):
    _decodes_or_config_error(RunConfig, doc)


@settings(max_examples=300, deadline=None)
@given(_document(SceneSpec))
def test_scene_spec_decode_returns_or_raises_config_error(doc):
    _decodes_or_config_error(SceneSpec, doc)
