"""Scene ingestion and query tests.

Brute-force oracles: linear-scan nearest neighbor for obstacle distance,
per-point box-distance filter for isolation, dot-product sort for queries.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from graspnav.errors import (
    EmptySceneError,
    FileFormatError,
    UnsupportedQueryError,
)
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
        assert scene.obstacle_index(exclude_instance=0, target_exclusion=0.4) is index

    def test_target_exclusion_needs_an_instance(self):
        scene = make_scene(np.zeros((3, 3)), [])
        with pytest.raises(ValueError):
            scene.obstacle_index(target_exclusion=0.1)
