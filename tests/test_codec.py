"""Tests for the dataclass-driven JSON codec and fuzzing of the JSON loaders."""

import copy
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspnav.cli import _load_query_embedding
from graspnav.codec import JsonCodec, decode_value, read_json_object, to_json
from graspnav.config import RunConfig
from graspnav.drawer import DrawerConfig, load_detection_frame
from graspnav.errors import ConfigError, FileFormatError, GraspNavError
from graspnav.geometry import CameraIntrinsics, RansacParams
from graspnav.grasp import GraspConfig, load_grasp_batch
from graspnav.nav import NavConfig
from graspnav.optimizer import OptimizerWeights
from graspnav.scene import read_instances
from graspnav.sim import (CabinetSpec, NoiseModel, ObjectSpec, SceneSpec,
                          SimConfig, default_grasp_spec, default_search_spec)

_CABINET = CabinetSpec(center=(2.0, -1.0), facing="+y", n_drawers=2,
                       clear_front=0.8)
_OBJECTS = (ObjectSpec("mug", "cylinder", (0.04, 0.1), "hard"),
            ObjectSpec("crate", "box", (0.3, 0.2, 0.25), "easy"))

CODEC_VALUES = [
    RunConfig(nav=NavConfig(radii=(0.5, 1.0)),
              optimizer=OptimizerWeights(0.1, 0.3, 2.0),
              grasp=GraspConfig(top_k=3),
              drawer=DrawerConfig(kappa=5.0, ransac=RansacParams(threshold=0.01)),
              sim=SimConfig(image_width=80, image_height=60, n_views=2,
                            view_candidates=5),
              noise=NoiseModel.noiseless()),
    NavConfig(radii=(0.5, 1.0), lambda_item=0.25),
    OptimizerWeights(lambda_body=0.1, lambda_align=0.3, temperature=2.0),
    GraspConfig(on_object_tol=0.05, top_k=3, sweep_count=2, min_similarity=0.7),
    DrawerConfig(kappa=5.0, standoff=0.9, ransac=RansacParams(threshold=0.01)),
    RansacParams(threshold=0.01, iterations=50, min_inlier_fraction=0.5),
    SimConfig(image_width=80, image_height=60, n_views=2, view_candidates=5,
              handle_tol=0.05),
    NoiseModel(depth_sigma=0.01, confidence_range=(0.5, 0.9)),
    _OBJECTS[0],
    _CABINET,
    SceneSpec(floor_extent=5.0, density=1000.0, objects=_OBJECTS,
              cabinet=_CABINET),
    CameraIntrinsics(fx=525.0, fy=500.0, cx=319.5, cy=239.5, width=640,
                     height=480),
]


@pytest.mark.parametrize("value", CODEC_VALUES,
                         ids=[type(v).__name__ for v in CODEC_VALUES])
def test_round_trip(value):
    doc = json.loads(json.dumps(value.to_dict(), allow_nan=False))
    assert type(value).from_dict(doc) == value


class TestDecoding:
    def test_integer_in_float_field_is_stored_as_float(self):
        cfg = RunConfig.from_dict({"nav": {"footprint_radius": 1,
                                           "radii": [1, 2]}})
        assert type(cfg.nav.footprint_radius) is float
        assert [type(r) for r in cfg.nav.radii] == [float, float]
        assert cfg.to_dict()["nav"]["footprint_radius"] == 1.0

    def test_omitted_keys_take_defaults(self):
        assert RunConfig.from_dict({}) == RunConfig()
        assert SceneSpec.from_dict({}) == SceneSpec()

    def test_null_cabinet(self):
        spec = SceneSpec.from_dict({"cabinet": None})
        assert spec.cabinet is None
        assert spec.to_dict()["cabinet"] is None

    @pytest.mark.parametrize("doc, message", [
        ({"nav": {"footprint_radius": "0.3"}},
         "nav.footprint_radius: expected a finite number, got '0.3'"),
        ({"nav": 5}, "nav: expected an object, got 5"),
        ({"nav": {"radii": 0.7}}, "nav.radii: expected a list"),
        ({"nav": {"radii": [0.7, None]}}, "nav.radii[1]: expected a finite number"),
        ({"grasp": {"top_k": True}}, "grasp.top_k: expected an integer"),
        ({"optimizer": {"temperature": False}},
         "optimizer.temperature: expected a finite number"),
        ({"drawer": {"kappa": 10 ** 400}}, "drawer.kappa: expected a finite number"),
        ({"drawer": {"ransac": {"iterations": 0}}},
         "drawer.ransac: iterations must be >= 1"),
        ({"drawer": {"ransac": {"tries": 5}}}, "drawer.ransac: unknown keys ['tries']"),
        ({"noise": {"confidence_range": [0.5]}},
         "noise.confidence_range: expected 2 values, got 1"),
        ({"sim": {"handle_tol": -math.inf}}, "sim.handle_tol: expected a finite number"),
        ({"warp": 9}, "unknown keys ['warp']"),
        ({"grasp": {"isolate_padding": 0.5}},
         "grasp: unknown keys ['isolate_padding']"),
    ])
    def test_run_config_errors_name_the_key_path(self, doc, message):
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(doc)
        assert message in str(exc.value)

    @pytest.mark.parametrize("doc, message", [
        ([], "expected an object, got []"),
        ({"objects": [{"label": 3, "shape": "box", "size": [1, 1, 1],
                       "tier": "easy"}]},
         "objects[0].label: expected a string, got 3"),
        ({"objects": [{"label": "x", "shape": "box", "size": [1, 1],
                       "tier": "easy"}]},
         "objects[0]: box size needs 3 positive values"),
        ({"cabinet": {"n_drawers": "3"}}, "cabinet.n_drawers: expected an integer"),
    ])
    def test_scene_spec_errors_name_the_key_path(self, doc, message):
        with pytest.raises(ConfigError) as exc:
            SceneSpec.from_dict(doc)
        assert message in str(exc.value)

    def test_intrinsics_errors_are_config_errors(self):
        good = CODEC_VALUES[-1].to_dict()
        for key, value, message in [("width", 640.0, "width"),
                                    ("fx", "525", "fx"),
                                    ("cx", 700.0, "principal point")]:
            with pytest.raises(ConfigError, match=message):
                CameraIntrinsics.from_dict({**good, key: value})
        with pytest.raises(ConfigError, match="height: missing required key"):
            CameraIntrinsics.from_dict({k: v for k, v in good.items()
                                        if k != "height"})


def _outcome(decode):
    try:
        return [(type(v), v) for v in decode()]
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("hint", [int, float])
@pytest.mark.parametrize("text", ["[1, 2, 3]", "[0.5, 1.5]", "[0.5, 1, 2.5]",
                                  "[1, true, 3]", "[0.5, NaN]",
                                  "[Infinity, 1.0]", "[]"])
def test_flat_list_bulk_path_matches_per_item_path(hint, text):
    """A flat list decoded whole (bulk path when every item has the hinted
    type) equals the items decoded one by one, errors included."""
    items = json.loads(text)
    whole = _outcome(lambda: decode_value(tuple[hint, ...], items, "x"))
    one_by_one = _outcome(lambda: tuple(
        decode_value(hint, v, f"x[{i}]") for i, v in enumerate(items)))
    assert whole == one_by_one


_ROTATION = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("index, item", [
    (None, None), (1, 0), (4, True), (8, math.nan), (3, "0")])
def test_fixed_length_bulk_path_matches_per_item_path(index, item):
    """A fixed-length list of one hinted type takes the bulk path when every
    item has that type, and equals the items decoded one by one."""
    items = list(_ROTATION)
    if index is not None:
        items[index] = item
    whole = _outcome(lambda: decode_value(tuple[(float,) * 9], items,
                                          "rotation"))
    one_by_one = _outcome(lambda: tuple(
        decode_value(float, v, f"rotation[{i}]") for i, v in enumerate(items)))
    assert whole == one_by_one
    if isinstance(item, str):
        assert whole.startswith("rotation[3]: expected a finite number")


def test_fixed_length_is_checked_before_the_items():
    with pytest.raises(ConfigError, match=r"^bbox: expected 4 values, got 3$"):
        decode_value(tuple[float, float, float, float], [1.0, 2.0, "x"], "bbox")


class TestReadJsonObject:
    def test_reads_object(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"a": 1}')
        assert read_json_object(path, "config") == {"a": 1}

    def test_reads_list_when_allowed(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2]")
        assert read_json_object(path, "query", or_list=True) == [1, 2]
        path.write_text("5")
        with pytest.raises(FileFormatError, match="JSON object or list"):
            read_json_object(path, "query", or_list=True)

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "must hold a JSON object"),
        ("{not json", "not valid JSON"),
        (b"\xff\xfe{", "not valid JSON"),
    ])
    def test_rejects_bad_files(self, tmp_path, text, message):
        path = tmp_path / "x.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(FileFormatError, match=message):
            read_json_object(path, "scene spec")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="cannot read"):
            read_json_object(tmp_path / "absent.json", "config")


@dataclasses.dataclass
class _Inner:
    values: np.ndarray


@dataclasses.dataclass
class _Outer:
    name: str
    inner: _Inner
    count: np.int64


class TestToJson:
    def test_arrays_numpy_scalars_and_dataclasses(self):
        value = {"z": np.array([[1.5, 2.0]]), "a": np.int32(3),
                 "m": np.float32(0.5),
                 "d": _Outer("o", _Inner(np.arange(2)), np.int64(7))}
        assert to_json(value) == (
            '{"a": 3, "d": {"count": 7, "inner": {"values": [0, 1]},'
            ' "name": "o"}, "m": 0.5, "z": [[1.5, 2.0]]}\n')

    def test_indent(self):
        assert to_json({"b": [1], "a": None}, indent=2) == (
            '{\n  "a": null,\n  "b": [\n    1\n  ]\n}\n')

    def test_nan_inside_an_array_is_rejected(self):
        with pytest.raises(ValueError):
            to_json({"x": np.array([0.0, math.nan])})

    def test_unknown_type_is_rejected(self):
        with pytest.raises(TypeError, match="set"):
            to_json({"x": {1, 2}})
        with pytest.raises(TypeError):
            to_json(_Inner)                # a dataclass type, not a value

    @pytest.mark.parametrize("value", [RunConfig(), default_search_spec()])
    def test_codec_dataclasses_match_to_dict(self, value):
        assert to_json(value) == json.dumps(value.to_dict(), sort_keys=True) + "\n"


@dataclasses.dataclass(frozen=True)
class _Labelled(JsonCodec):
    class_: str
    score: float = 0.5


class TestTrailingUnderscoreKey:
    """A field named `class_` is the JSON key "class" both ways."""

    def test_reads_the_key_without_the_underscore(self):
        assert _Labelled.from_dict({"class": "handle"}).class_ == "handle"
        with pytest.raises(ConfigError, match=r"^class: missing required key$"):
            _Labelled.from_dict({})

    def test_the_underscored_key_is_unknown(self):
        with pytest.raises(ConfigError, match=r"unknown keys \['class_'\]"):
            _Labelled.from_dict({"class_": "handle"})

    def test_writes_the_key_without_the_underscore(self):
        value = _Labelled("drawer", 0.75)
        assert value.to_dict() == {"class": "drawer", "score": 0.75}
        assert to_json(value) == '{"class": "drawer", "score": 0.75}\n'


# ---------------------------------------------------------------------------
# Fuzzing: only GraspNavError may escape a loader
# ---------------------------------------------------------------------------

_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-10 ** 400, max_value=10 ** 400)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(max_size=4))
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)


def _paths(doc, prefix=()):
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutations(draw, template):
    """The template with the value at one of its key paths replaced, or
    one unknown key added there."""
    path = draw(st.sampled_from(list(_paths(template))))
    value = draw(JSON_VALUES)
    if not path:
        return value
    doc = copy.deepcopy(template)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        parent[draw(st.text(max_size=6))] = value
    else:
        parent[path[-1]] = value
    return doc


def _only_graspnav_errors(load, doc):
    try:
        load(doc)
    except GraspNavError:
        pass


_RUN_CONFIG = RunConfig().to_dict()
_SCENE_SPEC = {**default_grasp_spec().to_dict(),
               "cabinet": default_search_spec().cabinet.to_dict()}
_GRASP_BATCH = {"rotation": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0],
                "candidates": [{"translation": [0.1, 0.2, 0.3],
                                "rotation": [0, -1.0, 0, 1.0, 0, 0, 0, 0, 1.0],
                                "width": 0.04, "score": 0.8}]}
_FRAME = {"intrinsics": {"fx": 10.0, "fy": 10.0, "cx": 3.5, "cy": 3.5,
                         "width": 8, "height": 8},
          "cam_pose": [1.0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0],
          "depth_file": "doc.depth.bin",
          "detections": [{"class": "handle", "bbox": [2.0, 2.0, 4.0, 4.0],
                          "confidence": 0.9},
                         {"class": "drawer", "bbox": [1, 1, 7, 7],
                          "confidence": 0.8}]}
_QUERY = {"embedding": [0.6, 0.8, 0.0]}
_INSTANCES = {"embedding_dim": 2,
              "instances": [{"id": 1, "label": "mug", "confidence": 0.9,
                             "point_indices": [0, 1], "embedding": [1.0, 0.0]},
                            {"id": 2, "label": "box", "confidence": 0.5,
                             "point_indices": [2], "embedding": None}]}


@pytest.fixture(scope="module")
def scratch_file():
    """doc.json in a fresh directory, next to the 8x8 depth file that
    _FRAME names."""
    with tempfile.TemporaryDirectory() as tmp:
        np.full(64, 1.5, dtype="<f4").tofile(Path(tmp) / "doc.depth.bin")
        yield Path(tmp) / "doc.json"


def _via_file(path, load):
    def run(doc):
        # A fresh file each time: truncating one in place can force a
        # slow flush on some file systems.
        path.unlink(missing_ok=True)
        path.write_text(json.dumps(doc))
        return load(str(path))
    return run


class TestLoaderFuzzing:
    def test_templates_load(self, scratch_file):
        RunConfig.from_dict(_RUN_CONFIG)
        SceneSpec.from_dict(_SCENE_SPEC)
        assert len(_via_file(scratch_file, load_grasp_batch)(_GRASP_BATCH)
                   .candidates) == 1
        instances, dim = _via_file(
            scratch_file, lambda p: read_instances(p, 4))(_INSTANCES)
        assert dim == 2 and len(instances) == 2
        frame = _via_file(scratch_file, load_detection_frame)(_FRAME)
        assert len(frame.handles) == 1 and len(frame.drawers) == 1
        assert len(_via_file(scratch_file, _load_query_embedding)(_QUERY)) == 3

    @settings(max_examples=300, deadline=None)
    @given(doc=_mutations(_RUN_CONFIG))
    def test_run_config(self, doc):
        _only_graspnav_errors(RunConfig.from_dict, doc)

    @settings(max_examples=300, deadline=None)
    @given(doc=_mutations(_SCENE_SPEC))
    def test_scene_spec(self, doc):
        _only_graspnav_errors(SceneSpec.from_dict, doc)

    @settings(max_examples=300, deadline=None)
    @given(doc=_mutations(_GRASP_BATCH))
    def test_grasp_batch(self, scratch_file, doc):
        _only_graspnav_errors(_via_file(scratch_file, load_grasp_batch), doc)

    @settings(max_examples=300, deadline=None)
    @given(doc=_mutations(_INSTANCES))
    def test_instances(self, scratch_file, doc):
        _only_graspnav_errors(
            _via_file(scratch_file, lambda p: read_instances(p, 4)), doc)

    @settings(max_examples=300, deadline=None)
    @given(doc=_mutations(_FRAME))
    def test_detection_frame(self, scratch_file, doc):
        _only_graspnav_errors(_via_file(scratch_file, load_detection_frame), doc)

    @settings(max_examples=300, deadline=None)
    @given(doc=_mutations(_QUERY))
    def test_query(self, scratch_file, doc):
        _only_graspnav_errors(_via_file(scratch_file, _load_query_embedding), doc)
