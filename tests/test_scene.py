"""Scene ingestion and query tests.

Brute-force oracles: linear-scan nearest neighbor for obstacle distance,
per-point box-distance filter for isolation, dot-product sort for queries.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspnav.errors import (
    EmptySceneError,
    FileFormatError,
    InstanceNotFoundError,
    UnsupportedQueryError,
)
from graspnav.geometry import _SIGHT_SPACING, sight_fan
from graspnav.scene import (
    InstanceMask,
    PointCloudScene,
    load_scene,
    read_ply,
    save_scene,
    write_instances,
    write_ply,
)


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def make_scene(points, instance_specs, embedding_dim=4):
    """instance_specs: list of (id, label, indices, embedding-or-None)."""
    instances = [
        InstanceMask(id=i, label=lab, point_indices=np.asarray(idx, dtype=np.int64),
                     embedding=None if emb is None else _unit(emb), confidence=0.9)
        for i, lab, idx, emb in instance_specs
    ]
    return PointCloudScene(points=np.asarray(points, dtype=np.float64), colors=None,
                           instances=instances, embedding_dim=embedding_dim)


def write_binary_ply(path, fields, records, n_declared=None):
    """Binary-little-endian PLY: fields are (PLY type, name) pairs."""
    header = ["ply", "format binary_little_endian 1.0",
              f"element vertex {len(records) if n_declared is None else n_declared}"]
    header += [f"property {ptype} {name}" for ptype, name in fields]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\nend_header\n").encode("ascii"))
        fh.write(records.tobytes())


def write_instances_json(path, embedding_dim, records):
    path.write_text(json.dumps({"embedding_dim": embedding_dim, "instances": records}))


# ---------------------------------------------------------------------------
# PLY round trip
# ---------------------------------------------------------------------------

class TestPlyIO:
    def test_round_trip_with_colors(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 3))
        colors = rng.integers(0, 256, size=(50, 3)).astype(np.uint8)
        path = str(tmp_path / "cloud.ply")
        write_ply(path, pts, colors)
        pts2, colors2 = read_ply(path)
        np.testing.assert_array_equal(pts2, pts)  # repr-format write round-trips exactly
        np.testing.assert_array_equal(colors2, colors)

    def test_round_trip_without_colors(self, tmp_path):
        pts = np.array([[0.0, 0.25, -1.5], [1e-9, 2.0, 3.0]])
        path = str(tmp_path / "cloud.ply")
        write_ply(path, pts)
        pts2, colors2 = read_ply(path)
        np.testing.assert_array_equal(pts2, pts)
        assert colors2 is None

    def test_rejects_binary_header_without_vertices(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(FileFormatError):
            read_ply(str(path))

    def test_binary_double_matches_ascii(self, tmp_path):
        pts = np.random.default_rng(1).normal(size=(40, 3))
        write_ply(str(tmp_path / "a.ply"), pts)
        records = np.ascontiguousarray(pts, dtype="<f8")
        write_binary_ply(tmp_path / "b.ply", [("double", c) for c in "xyz"], records)
        pts_a, _ = read_ply(str(tmp_path / "a.ply"))
        pts_b, colors = read_ply(str(tmp_path / "b.ply"))
        assert pts_b.dtype == np.float64
        np.testing.assert_array_equal(pts_b, pts_a)
        assert colors is None

    def test_binary_float_with_colors_and_extra_property(self, tmp_path):
        rng = np.random.default_rng(2)
        dtype = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                          ("intensity", "<u2"), ("red", "u1"), ("green", "u1"),
                          ("blue", "u1")])
        records = np.zeros(25, dtype=dtype)
        for c in "xyz":
            records[c] = rng.normal(size=25)
        for c in ("red", "green", "blue"):
            records[c] = rng.integers(0, 256, size=25)
        fields = [("float", "x"), ("float", "y"), ("float", "z"),
                  ("ushort", "intensity"), ("uchar", "red"), ("uchar", "green"),
                  ("uchar", "blue")]
        write_binary_ply(tmp_path / "c.ply", fields, records)
        pts, colors = read_ply(str(tmp_path / "c.ply"))
        np.testing.assert_array_equal(
            pts, np.stack([records[c] for c in "xyz"], axis=1).astype(np.float64))
        np.testing.assert_array_equal(
            colors, np.stack([records[c] for c in ("red", "green", "blue")], axis=1))
        assert colors.dtype == np.uint8

    def test_binary_rejects_short_payload(self, tmp_path):
        records = np.zeros((3, 3), dtype="<f8")
        write_binary_ply(tmp_path / "short.ply", [("double", c) for c in "xyz"],
                         records, n_declared=4)
        with pytest.raises(FileFormatError, match="4 vertices"):
            read_ply(str(tmp_path / "short.ply"))

    def test_rejects_big_endian(self, tmp_path):
        path = tmp_path / "be.ply"
        path.write_bytes(b"ply\nformat binary_big_endian 1.0\nelement vertex 0\n"
                         b"property double x\nproperty double y\n"
                         b"property double z\nend_header\n")
        with pytest.raises(FileFormatError, match="binary_big_endian"):
            read_ply(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coordinates(self, tmp_path, bad):
        pts = np.array([[0.0, 1.0, 2.0], [3.0, bad, 5.0]])
        write_ply(str(tmp_path / "a.ply"), pts)
        write_binary_ply(tmp_path / "b.ply", [("double", c) for c in "xyz"],
                         np.ascontiguousarray(pts, dtype="<f8"))
        for name in ("a.ply", "b.ply"):
            with pytest.raises(FileFormatError, match="vertex 1"):
                read_ply(str(tmp_path / name))

    def test_rejects_missing_magic(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("not a ply\n")
        with pytest.raises(FileFormatError):
            read_ply(str(path))

    def test_rejects_truncated_data(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1\n")
        with pytest.raises(FileFormatError):
            read_ply(str(path))

    def test_rejects_bad_token(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 zero 0\n")
        with pytest.raises(FileFormatError):
            read_ply(str(path))

    def test_ragged_rows_name_the_first_row_of_the_wrong_width(self, tmp_path):
        header = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                  "property float y\nproperty float z\nend_header\n")
        for body, row, width in (("0 0 0 1\n1 1\n", 0, 4), ("0 0 0\n1 1\n", 1, 2)):
            path = tmp_path / "ragged.ply"
            path.write_text(header + body)
            with pytest.raises(FileFormatError) as exc:
                read_ply(str(path))
            assert str(exc.value) == (f"{path}: vertex row {row} has {width} values,"
                                      " header declares 3")

    def test_uniform_wrong_width_keeps_its_message(self, tmp_path):
        path = tmp_path / "wide.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                        "property float y\nproperty float z\nend_header\n"
                        "0 0 0 1\n1 1 1 1\n")
        with pytest.raises(FileFormatError, match="vertex rows have 4 columns, "
                                                  "header declares 3"):
            read_ply(str(path))

    @pytest.mark.parametrize("bad", ["300", "-1", "1.5", "nan", "inf", "256"])
    def test_rejects_colour_outside_uchar(self, tmp_path, bad):
        path = tmp_path / "colour.ply"
        path.write_text(_ascii_header(2, ["x", "y", "z", "red", "green", "blue"])
                        + f"0 0 0 1 2 3\n1 1 1 4 {bad} 6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FileFormatError) as exc:
                read_ply(str(path))
        assert str(exc.value) == (f"{path}: vertex 1 has green {float(bad)},"
                                  " expected an integer in [0, 255]")

    def test_integral_colour_values_load(self, tmp_path):
        path = tmp_path / "colour.ply"
        path.write_text(_ascii_header(2, ["x", "y", "z", "red", "green", "blue"])
                        + "0 0 0 0 255.0 -0\n1 1 1 1e2 7 254\n")
        _, colors = read_ply(str(path))
        np.testing.assert_array_equal(colors, [[0, 255, 0], [100, 7, 254]])
        assert colors.dtype == np.uint8


# ---------------------------------------------------------------------------
# PLY fuzzers: every file is loaded bit-equal to a reference or rejected
# ---------------------------------------------------------------------------

_RGB = ("red", "green", "blue")


def _ascii_header(n_declared, names, eol="\n"):
    lines = ["ply", "format ascii 1.0", f"element vertex {n_declared}"]
    lines += [f"property {'uchar' if name in _RGB else 'double'} {name}"
              for name in names]
    return eol.join(lines + ["end_header"]) + eol


def _reference_ascii(body: bytes, n_declared: int, names: list[str]):
    """The per-row reader, one float() per token: (points, colors) or None
    where the file is rejected."""
    try:
        rows = body.decode("ascii").splitlines()[:n_declared]
    except UnicodeDecodeError:
        return None
    if len(rows) < n_declared:
        return None
    data = np.empty((0, len(names)))
    if n_declared:
        try:
            data = np.array([[float(tok) for tok in row.split()] for row in rows])
        except ValueError:          # a bad token, or ragged rows
            return None
        if data.shape[1] != len(names):
            return None
    column = dict(zip(names, data.T))
    points = np.stack([column[c] for c in "xyz"], axis=1)
    if not np.isfinite(points).all():
        return None
    if not all(c in names for c in _RGB):
        return points, None
    rgb = np.stack([column[c] for c in _RGB], axis=1)
    if not all(float(v).is_integer() and 0 <= v <= 255 for v in rgb.flat):
        return None
    return points, rgb.astype(np.uint8)


def _load_or_none(path):
    """read_ply's result, or None for a FileFormatError; a warning or any
    other exception fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return read_ply(str(path))
        except FileFormatError:
            return None


def _assert_same_load(got, want):
    assert (got is None) == (want is None), (got, want)
    if want is None:
        return
    assert got[0].dtype == np.float64 and got[0].shape == want[0].shape
    np.testing.assert_array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
    if want[1] is None:
        assert got[1] is None
    else:
        assert got[1].dtype == np.uint8
        np.testing.assert_array_equal(got[1], want[1])


_FINITE_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda v: st.sampled_from([repr(v), f"{v:.3e}", f"{v:G}", f"{v:.17g}"])),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["1e308", "-1e-320", "5e-324", "-1E+5", "+.5", "-0", "7."]))
_COORD_TOKENS = st.one_of(
    _FINITE_TOKENS, st.sampled_from(["1e400", "Infinity", "-nan", "NaN", "-inf"]))
_UCHAR_TOKENS = st.one_of(st.integers(0, 255).map(str),
                          st.sampled_from(["255.0", "0e3", "-0", "1e2"]))
_COLOUR_TOKENS = st.one_of(
    _UCHAR_TOKENS, st.sampled_from(["300", "-1", "1.5", "nan", "256", "1e400"]))
_SEPARATORS = st.sampled_from([" ", " ", "\t", "  ", " \t "])
_MUTATIONS = [None] * 6 + ["blank row", "ragged row", "extra column",
                           "comment", "underscore", "non-ascii", "short",
                           "trailing lines"]


@st.composite
def _ascii_ply(draw):
    """(file bytes, body bytes, declared vertex count, property names)."""
    names = ["x", "y", "z"] + list(_RGB[:draw(st.integers(0, 3))])
    n = draw(st.integers(0, 12))
    # most files hold only finite coordinates and valid colours, so that
    # most reach the end of the parse
    coords = draw(st.sampled_from([_FINITE_TOKENS] * 3 + [_COORD_TOKENS]))
    colours = draw(st.sampled_from([_UCHAR_TOKENS] * 3 + [_COLOUR_TOKENS]))
    rows = [[draw(coords if name in "xyz" else colours) for name in names]
            for _ in range(n)]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    mutation = draw(st.sampled_from(_MUTATIONS))
    at = draw(st.integers(0, max(n - 1, 0)))
    n_declared, tail, rows = n, "", [list(r) for r in rows]
    if mutation == "short":
        n_declared = n + 1
    elif mutation == "trailing lines":
        tail = eol.join(["1 2 3", "", "garbage #", "1_0"]) + eol
    elif mutation == "extra column":
        rows = [r + ["0"] for r in rows]
    elif rows and mutation == "blank row":
        rows.insert(at, [])
        rows.pop()
    elif rows and mutation == "ragged row":
        rows[at].pop()
    elif rows and mutation == "comment":
        rows[at].append("# note")
    elif rows and mutation == "underscore":
        rows[at][0] = "1_0"
    lines = []
    for r in rows:
        sep = draw(_SEPARATORS)
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
        lines.append(lead + sep.join(r) + trail)
    body = "".join(line + eol for line in lines) + tail
    raw = body.encode("ascii")
    if rows and mutation == "non-ascii":
        cut = draw(st.integers(0, len(raw) - 1))
        raw = raw[:cut] + b"\xe9" + raw[cut:]
    return _ascii_header(n_declared, names, eol).encode("ascii") + raw, raw, n_declared, names


@settings(max_examples=400, deadline=None)
@given(_ascii_ply())
def test_ascii_ply_fuzz_matches_per_row_reference(tmp_path_factory, case):
    data, body, n_declared, names = case
    path = tmp_path_factory.mktemp("ply") / "cloud.ply"
    path.write_bytes(data)
    _assert_same_load(_load_or_none(path), _reference_ascii(body, n_declared, names))


@st.composite
def _binary_ply(draw):
    """(file bytes, the records as written, whether the payload is short)."""
    coord_type = [draw(st.sampled_from(["float", "double"])) for _ in "xyz"]
    fields = [(t, c) for t, c in zip(coord_type, "xyz")]
    if draw(st.booleans()):
        fields.append(("ushort", "intensity"))
    if draw(st.booleans()):
        fields += [("uchar", c) for c in _RGB]
    dtype = np.dtype([(name, {"float": "<f4", "double": "<f8", "ushort": "<u2",
                               "uchar": "u1"}[ptype]) for ptype, name in fields])
    n = draw(st.integers(0, 12))
    records = np.zeros(n, dtype=dtype)
    for ptype, name in fields:
        if ptype in ("float", "double"):
            width = 32 if ptype == "float" else 64
            values = st.floats(allow_nan=True, allow_infinity=True, width=width)
        else:
            values = st.integers(0, 255 if ptype == "uchar" else 65535)
        records[name] = draw(st.lists(values, min_size=n, max_size=n))
    payload = records.tobytes()
    cut = draw(st.sampled_from([0, 0, 0, 1, dtype.itemsize, len(payload)]))
    short = 0 < cut <= len(payload)
    if short:
        payload = payload[:-cut]
    elif draw(st.booleans()):
        payload += b"\x00trailing"
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    header += [f"property {ptype} {name}" for ptype, name in fields]
    return ("\n".join(header + ["end_header"]) + "\n").encode("ascii") + payload, \
        records, short


@settings(max_examples=300, deadline=None)
@given(_binary_ply())
def test_binary_ply_fuzz_matches_records(tmp_path_factory, case):
    data, records, short = case
    path = tmp_path_factory.mktemp("ply") / "cloud.ply"
    path.write_bytes(data)
    want = None
    if not short:
        points = np.stack([records[c].astype(np.float64) for c in "xyz"], axis=1)
        if np.isfinite(points).all():
            colors = (np.stack([records[c] for c in _RGB], axis=1)
                      if "red" in records.dtype.names else None)
            want = (points, colors)
    _assert_same_load(_load_or_none(path), want)


# ---------------------------------------------------------------------------
# Instances file validation
# ---------------------------------------------------------------------------

class TestJsonWriters:
    def test_write_instances_rejects_nan_and_writes_nothing(self, tmp_path):
        inst = InstanceMask(id=0, label="mug", point_indices=np.array([0]),
                            embedding=np.array([np.nan, 0.0]), confidence=0.5)
        path = tmp_path / "instances.json"
        with pytest.raises(ValueError):
            write_instances(str(path), [inst], 2)
        assert not path.exists()


class TestLoadScene:
    @pytest.fixture
    def cloud(self, tmp_path):
        pts = np.arange(30, dtype=np.float64).reshape(10, 3) / 10.0
        path = str(tmp_path / "cloud.ply")
        write_ply(path, pts)
        return path

    def test_counts_match_files(self, cloud, tmp_path):
        inst_path = tmp_path / "instances.json"
        write_instances_json(inst_path, 2, [
            {"id": 0, "label": "mug", "confidence": 0.8,
             "point_indices": [0, 1, 2], "embedding": [1.0, 0.0]},
            {"id": 1, "label": "book", "confidence": 0.7,
             "point_indices": [3, 4], "embedding": None},
        ])
        scene = load_scene(cloud, str(inst_path))
        assert len(scene.points) == 10
        assert len(scene.instances) == 2
        assert scene.embedding_dim == 2
        np.testing.assert_array_equal(scene.bounds[0], scene.points.min(axis=0))

    def test_out_of_range_index_names_instance(self, cloud, tmp_path):
        inst_path = tmp_path / "instances.json"
        write_instances_json(inst_path, 2, [
            {"id": 7, "label": "mug", "confidence": 0.8,
             "point_indices": [0, 10], "embedding": None},
        ])
        with pytest.raises(FileFormatError, match="instance 7"):
            load_scene(cloud, str(inst_path))

    def test_overlap_names_instance(self, cloud, tmp_path):
        inst_path = tmp_path / "instances.json"
        write_instances_json(inst_path, 2, [
            {"id": 0, "label": "mug", "confidence": 0.8,
             "point_indices": [0, 1], "embedding": None},
            {"id": 1, "label": "book", "confidence": 0.7,
             "point_indices": [1, 2], "embedding": None},
        ])
        with pytest.raises(FileFormatError, match="instance 1 overlaps"):
            load_scene(cloud, str(inst_path))

    def test_non_unit_embedding_rejected(self, cloud, tmp_path):
        inst_path = tmp_path / "instances.json"
        write_instances_json(inst_path, 2, [
            {"id": 0, "label": "mug", "confidence": 0.8,
             "point_indices": [0], "embedding": [1.0, 1.0]},
        ])
        with pytest.raises(FileFormatError, match="norm"):
            load_scene(cloud, str(inst_path))

    def test_huge_embedding_component_rejected_without_a_warning(self, cloud, tmp_path):
        inst_path = tmp_path / "instances.json"
        write_instances_json(inst_path, 2, [
            {"id": 0, "label": "mug", "confidence": 0.8,
             "point_indices": [0], "embedding": [1e200, 0.0]},
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FileFormatError, match="embedding norm inf is not 1"):
                load_scene(cloud, str(inst_path))

    def test_embedding_dim_mismatch_rejected(self, cloud, tmp_path):
        inst_path = tmp_path / "instances.json"
        write_instances_json(inst_path, 3, [
            {"id": 0, "label": "mug", "confidence": 0.8,
             "point_indices": [0], "embedding": [1.0, 0.0]},
        ])
        with pytest.raises(FileFormatError, match="declares 3"):
            load_scene(cloud, str(inst_path))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        scene = make_scene(rng.normal(size=(40, 3)), [
            (0, "mug", [0, 1, 2], [1.0, 0.0, 0.0, 0.0]),
            (3, "book", [5, 6], None),
        ])
        cloud_path = str(tmp_path / "c.ply")
        inst_path = str(tmp_path / "i.json")
        save_scene(scene, cloud_path, inst_path)
        again = load_scene(cloud_path, inst_path)
        np.testing.assert_array_equal(again.points, scene.points)
        assert [i.id for i in again.instances] == [0, 3]
        np.testing.assert_array_equal(again.instances[0].embedding,
                                      scene.instances[0].embedding)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

class TestQueryInstance:
    def test_exact_match_ranks_first(self):
        pts = np.zeros((6, 3))
        pts[3:, 0] = 1.0
        scene = make_scene(pts, [
            (0, "mug", [0, 1, 2], [1.0, 0.0, 0.0, 0.0]),
            (1, "book", [3, 4, 5], [0.0, 1.0, 0.0, 0.0]),
        ])
        out = scene.query_instance(np.array([1.0, 0.0, 0.0, 0.0]))
        assert out[0].instance_id == 0
        assert out[0].similarity == pytest.approx(1.0, abs=1e-12)
        assert out[1].similarity == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out[0].centroid, [0.0, 0.0, 0.0])

    def test_tie_broken_by_lower_id(self):
        pts = np.zeros((4, 3))
        scene = make_scene(pts, [
            (5, "a", [0], [1.0, 0.0, 0.0, 0.0]),
            (2, "b", [1], [1.0, 0.0, 0.0, 0.0]),
        ])
        out = scene.query_instance(np.array([1.0, 0.0, 0.0, 0.0]))
        assert [r.instance_id for r in out] == [2, 5]

    def test_no_embeddings_unsupported(self):
        scene = make_scene(np.zeros((3, 3)), [(0, "mug", [0], None)])
        with pytest.raises(UnsupportedQueryError):
            scene.query_instance(np.array([1.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        scene = make_scene(np.zeros((3, 3)), [(0, "mug", [0], [1.0, 0.0, 0.0, 0.0])])
        with pytest.raises(ValueError, match="non-finite"):
            scene.query_instance(np.array([bad, 0.0, 0.0, 0.0]))

    def test_huge_query_component_rejected_without_a_warning(self):
        scene = make_scene(np.zeros((3, 3)), [(0, "mug", [0], [1.0, 0.0, 0.0, 0.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="got norm inf"):
                scene.query_instance(np.array([1e200, 0.0, 0.0, 0.0]))

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(64, 3))
        specs = []
        for i in range(16):
            specs.append((i, f"obj{i}", [4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3],
                          rng.normal(size=4)))
        scene = make_scene(pts, specs)
        for _ in range(20):
            q = _unit(rng.normal(size=4))
            got = [(r.instance_id, r.similarity) for r in scene.query_instance(q)]
            want = sorted(
                ((float(inst.embedding @ q), inst.id) for inst in scene.instances),
                key=lambda t: (-t[0], t[1]))
            assert got == [(i, s) for s, i in want]
            assert all(-1.0 - 1e-12 <= s <= 1.0 + 1e-12 for _, s in got)


class TestDistanceToObstacles:
    def test_coincident_point(self):
        scene = make_scene([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [])
        assert scene.distance_to_obstacles(np.zeros(3)) == 0.0

    def test_single_point_distance(self):
        scene = make_scene([[1.0, 0.0, 0.0]], [])
        assert scene.distance_to_obstacles(np.zeros(3)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(1000, 3))
        scene = make_scene(pts, [(0, "a", list(range(100)), None)])
        for _ in range(25):
            p = rng.normal(size=3) * 1.5
            got = scene.distance_to_obstacles(p, exclude_instance=0)
            want = np.min(np.linalg.norm(pts[100:] - p, axis=1))
            assert got == pytest.approx(want, abs=1e-12)

    def test_floor_slab_exclusion(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        scene = make_scene(pts, [])
        # slab removes the floor point at z=0, nearest becomes the z=0.5 point
        d = scene.distance_to_obstacles(np.zeros(3), min_z=0.02)
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_all_excluded_is_error(self):
        scene = make_scene(np.zeros((3, 3)), [(0, "a", [0, 1, 2], None)])
        for p in (np.zeros(3), np.zeros((5, 3)), np.empty((0, 3))):
            with pytest.raises(EmptySceneError):
                scene.distance_to_obstacles(p, exclude_instance=0)

    def test_batch_equals_scalar_calls(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(2000, 3))
        scene = make_scene(pts, [(0, "a", list(range(150)), None)])
        queries = rng.normal(size=(108, 3)) * 1.5
        for kwargs in ({}, {"exclude_instance": 0}, {"exclude_instance": 0, "min_z": 0.3}):
            got = scene.distance_to_obstacles(queries, **kwargs)
            assert got.shape == (108,)
            for q, d in zip(queries, got):
                one = scene.distance_to_obstacles(q, **kwargs)
                assert type(one) is float and one == d


class TestObstacleIndex:
    def test_target_exclusion_drops_points_near_the_centroid(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(-1.0, 1.0, size=(1500, 3))
        scene = make_scene(pts, [(0, "a", list(range(100)), None)])
        centroid = pts[:100].mean(axis=0)
        keep = np.linalg.norm(pts - centroid, axis=1) > 0.4
        keep[:100] = False
        index = scene.obstacle_index(exclude_instance=0, target_exclusion=0.4)
        np.testing.assert_array_equal(index.points, pts[keep])
        assert len(scene.obstacle_index(exclude_instance=0)) == 1400

    def test_target_exclusion_needs_an_instance(self):
        scene = make_scene(np.zeros((3, 3)), [])
        with pytest.raises(ValueError):
            scene.obstacle_index(target_exclusion=0.1)


class TestSightCropAndCaches:
    def test_sight_starts_keep_the_fan_points(self):
        rng = np.random.default_rng(24)
        pts = rng.uniform(-2.0, 2.0, size=(3000, 3))
        scene = make_scene(pts, [(0, "a", list(range(100)), None)])
        centroid = pts[:100].mean(axis=0)
        starts = centroid + np.array([[1.0, 0.0, 0.8], [0.0, -1.2, 0.3], [0.5, 0.5, -0.4]])
        fan = np.zeros(len(pts), dtype=bool)
        fan[sight_fan(pts, centroid, starts, 0.1)] = True
        for exclusion in (0.0, 0.4):
            keep = fan & (np.linalg.norm(pts - centroid, axis=1) > exclusion)
            keep[:100] = False
            index = scene.obstacle_index(exclude_instance=0, target_exclusion=exclusion,
                                         sight_starts=starts, sight_clearance=0.1)
            np.testing.assert_array_equal(index.points, pts[keep])
            assert 0 < len(index) < len(scene.obstacle_index(
                exclude_instance=0, target_exclusion=exclusion))

    def test_squared_reach_and_hypot_differ_only_at_the_reach_rounding(self):
        # starts level with the centroid keep the points within the slab of
        # the sight radius r and within reach = max ground distance + r;
        # points a few ulps either side of the reach, and 1e-7 m inside
        # it: every point hypot keeps short of the reach's last ulps is
        # kept, far points (their squares overflow) go without a warning,
        # and no point past the rounding is kept
        rng = np.random.default_rng(27)
        target = rng.uniform(-0.1, 0.1, size=(50, 3))
        centroid = target.mean(axis=0)
        far = np.array([[1e200, 0.0, 0.0], [0.0, -1e200, 0.5], [1e300, 1e300, 1e300]])
        clearance = 0.1
        r = clearance + 0.5 * _SIGHT_SPACING + 1e-6
        for reach in (0.3, 1.2, 2.0 / 3.0, 3.7051):
            angle = rng.uniform(0.0, 2.0 * np.pi, 4000)
            radius = reach * (1.0 + rng.integers(-6, 7, 4000) * np.finfo(float).eps)
            radius[::8] = reach - 1e-7
            ring = np.column_stack([centroid[0] + radius * np.cos(angle),
                                    centroid[1] + radius * np.sin(angle),
                                    centroid[2] + rng.uniform(-0.1, 0.1, 4000)])
            scene = make_scene(np.vstack([target, ring, far]),
                               [(0, "a", list(range(50)), None)])
            starts = centroid + np.array([[reach - r, 0.0, 0.0], [0.0, r - reach, 0.0]])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                index = scene.obstacle_index(exclude_instance=0, sight_starts=starts,
                                             sight_clearance=clearance)
            kept = np.isin(ring.view([("", float)] * 3).ravel(),
                           index.points.view([("", float)] * 3).ravel())
            assert len(index) == kept.sum()        # no far or target point
            ground = np.hypot(ring[:, 0] - centroid[0], ring[:, 1] - centroid[1])
            assert kept[ground <= reach - 1e-9].all() and kept[::8].all()
            assert np.all(np.abs(ground[kept != (ground <= reach)] - reach)
                          <= 8 * np.spacing(reach))

    def test_reach_needs_an_instance(self):
        scene = make_scene(np.zeros((3, 3)), [])
        with pytest.raises(ValueError):
            scene.obstacle_index(sight_starts=np.zeros((1, 3)), sight_clearance=0.1)

    def test_centroid_is_one_read_only_mean_per_instance(self):
        rng = np.random.default_rng(25)
        pts = rng.normal(size=(500, 3))
        scene = make_scene(pts, [(0, "a", list(range(40)), None),
                                 (1, "b", list(range(40, 90)), None)])
        for inst, idx in ((0, slice(0, 40)), (1, slice(40, 90))):
            centroid = scene.centroid_of(inst)
            assert centroid.tobytes() == pts[idx].mean(axis=0).tobytes()
            assert scene.centroid_of(inst) is centroid
            with pytest.raises(ValueError):
                centroid[0] = 0.0
        with pytest.raises(InstanceNotFoundError):
            scene.centroid_of(7)

    def test_bounds_equal_the_axis_reductions_bit_for_bit(self):
        rng = np.random.default_rng(26)
        wide = rng.normal(size=(4001, 6))
        zeros = rng.choice(np.array([0.0, -0.0, 1.0, -1.0]), size=(257, 3))
        clouds = [rng.normal(size=(41_000, 3)), wide[:, ::2], wide[::3, 1:4],
                  np.asfortranarray(wide[:, :3]), zeros, zeros[:1]]
        for pts in clouds:
            scene = PointCloudScene(points=pts, colors=None, instances=[], embedding_dim=4)
            want = np.stack([pts.min(axis=0), pts.max(axis=0)])
            assert scene.bounds.dtype == want.dtype and scene.bounds.shape == (2, 3)
            assert scene.bounds.tobytes() == want.tobytes()
