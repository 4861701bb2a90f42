"""Point-cloud scenes: file ingestion, instance queries, obstacle distances.

A scene couples a point cloud with labeled instance masks. Masks may carry
a unit embedding; localization queries rank instances by cosine similarity
against a query embedding in the same space. Scenes are immutable after
load; every accessor is read-only.

File formats:
    * Cloud: ASCII or binary-little-endian PLY, vertex properties x y z
      (float or double, meters) plus optional red green blue (uchar).
    * Instances: JSON {"embedding_dim": D, "instances": [{"id", "label",
      "confidence", "point_indices": [...], "embedding": [D floats]|null}]}.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .codec import JsonCodec, bounded, read_json, to_json
from .errors import (
    EmptySceneError,
    FileFormatError,
    InstanceNotFoundError,
    UnsupportedQueryError,
)
from .geometry import PointIndex, sight_fan

DEFAULT_EMBEDDING_DIM = 768
EMBEDDING_NORM_TOL = 1e-6

_FLOAT_TYPES = {"float", "float32", "float64", "double"}
_UCHAR_TYPES = {"uchar", "uint8"}
_COLOR_NAMES = ("red", "green", "blue")
# PLY scalar types as little-endian numpy types, for binary payloads
_BINARY_TYPES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "<i2", "int16": "<i2", "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4", "uint": "<u4", "uint32": "<u4",
    "float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
}


# ---------------------------------------------------------------------------
# PLY I/O
# ---------------------------------------------------------------------------

def read_ply(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Read an ASCII or binary-little-endian PLY cloud; returns (points, colors-or-None)."""
    with open(path, "rb") as fh:
        fmt, n_vertices, properties = _read_ply_header(path, fh)
        names = [name for _, name in properties]
        if fmt == "ascii":
            data = _ascii_vertices(path, fh, n_vertices, len(names))
            column = {name: data[:, i] for i, name in enumerate(names)}
        else:
            column = _binary_vertices(path, fh, n_vertices, properties)

    points = np.stack([column[c] for c in ("x", "y", "z")], axis=1).astype(
        np.float64, copy=False)
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        raise FileFormatError(
            f"{path}: vertex {int(np.argmax(bad))} has a non-finite coordinate")
    colors = None
    if all(c in names for c in _COLOR_NAMES):
        rgb = np.stack([column[c] for c in _COLOR_NAMES], axis=1)
        # ASCII values arrive as floats; NaN fails every comparison
        bad = ~((rgb >= 0) & (rgb <= 255) & (rgb == np.round(rgb)))
        if bad.any():
            vertex, channel = (int(i) for i in np.argwhere(bad)[0])
            raise FileFormatError(
                f"{path}: vertex {vertex} has {_COLOR_NAMES[channel]} "
                f"{rgb[vertex, channel]}, expected an integer in [0, 255]")
        colors = rgb.astype(np.uint8)
    return points, colors


def _read_ply_header(path: str, fh) -> tuple[str, int, list[tuple[str, str]]]:
    """Format, vertex count and vertex (type, name) properties; leaves
    `fh` at the first byte after ``end_header``."""
    if _header_line(path, fh) != "ply":
        raise FileFormatError(f"{path}: missing 'ply' magic line")

    fmt = "ascii"
    n_vertices = None
    properties: list[tuple[str, str]] = []
    in_vertex_element = False
    while True:
        line = _header_line(path, fh)
        if not line or line.startswith("comment"):
            continue
        if line.startswith("format"):
            fmt = line.split()[1]
            if fmt not in ("ascii", "binary_little_endian"):
                raise FileFormatError(
                    f"{path}: only ascii and binary_little_endian PLY are "
                    f"supported, got '{line}'")
        elif line.startswith("element"):
            parts = line.split()
            in_vertex_element = parts[1] == "vertex"
            if in_vertex_element:
                n_vertices = int(parts[2])
                if n_vertices < 0:
                    raise FileFormatError(f"{path}: negative vertex count {n_vertices}")
            elif int(parts[2]) != 0:
                raise FileFormatError(f"{path}: unsupported non-empty element '{parts[1]}'")
        elif line.startswith("property"):
            if in_vertex_element:
                parts = line.split()
                if len(parts) != 3:
                    raise FileFormatError(f"{path}: unsupported property line '{line}'")
                properties.append((parts[1], parts[2]))
        elif line == "end_header":
            break
        else:
            raise FileFormatError(f"{path}: unrecognized header line '{line}'")
    if n_vertices is None:
        raise FileFormatError(f"{path}: PLY header declares no vertex element")

    names = [name for _, name in properties]
    for coord in ("x", "y", "z"):
        if coord not in names:
            raise FileFormatError(f"{path}: vertex element lacks property '{coord}'")
    for ptype, name in properties:
        if name in ("x", "y", "z") and ptype not in _FLOAT_TYPES:
            raise FileFormatError(f"{path}: property '{name}' must be float, got '{ptype}'")
        if name in _COLOR_NAMES and ptype not in _UCHAR_TYPES:
            raise FileFormatError(f"{path}: property '{name}' must be uchar, got '{ptype}'")
    return fmt, n_vertices, properties


def _header_line(path: str, fh) -> str:
    raw = fh.readline()
    if not raw.endswith(b"\n"):
        raise FileFormatError(f"{path}: truncated PLY header")
    try:
        return raw.decode("ascii").strip()
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}: non-ASCII byte in PLY header") from None


def _ascii_vertices(path: str, fh, n_vertices: int, n_columns: int) -> np.ndarray:
    """(n_vertices, n_columns) floats from the ASCII vertex rows left in `fh`:
    one vertex per line, whitespace-separated; lines after the declared
    rows are ignored."""
    try:
        rows = fh.read().decode("ascii").splitlines()[:n_vertices]
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}: non-ASCII byte in vertex data") from None
    if len(rows) < n_vertices:
        raise FileFormatError(
            f"{path}: header declares {n_vertices} vertices but only "
            f"{len(rows)} data rows are present")
    if n_vertices == 0:
        return np.empty((0, n_columns))
    # One C-level parse reads a well-formed file. loadtxt skips blank rows
    # and rejects `1_0`, which float() reads, so any other shape or error
    # goes to the per-row parse, which decides and words every rejection.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # "input contained no data"
            data = np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)
        if data.shape == (n_vertices, n_columns):
            return data
    except ValueError:
        pass
    return _ascii_rows(path, rows, n_columns)


def _ascii_rows(path: str, rows: list[str], n_columns: int) -> np.ndarray:
    """The rows parsed one `float()` per token; raises FileFormatError for
    a non-numeric token or a row that is not `n_columns` wide."""
    try:
        values = [[float(tok) for tok in row.split()] for row in rows]
    except ValueError as exc:
        raise FileFormatError(f"{path}: non-numeric vertex row: {exc}") from exc
    widths = [len(v) for v in values]
    if min(widths) != max(widths):
        row = next(i for i, k in enumerate(widths) if k != n_columns)
        raise FileFormatError(
            f"{path}: vertex row {row} has {widths[row]} values, "
            f"header declares {n_columns}")
    if widths[0] != n_columns:
        raise FileFormatError(
            f"{path}: vertex rows have {widths[0]} columns, "
            f"header declares {n_columns}")
    return np.array(values)


def _binary_vertices(path: str, fh, n_vertices: int,
                     properties: list[tuple[str, str]]) -> np.ndarray:
    """Little-endian vertex records left in `fh`, one field per property."""
    try:
        dtype = np.dtype([(name, _BINARY_TYPES[ptype]) for ptype, name in properties])
    except KeyError as exc:
        raise FileFormatError(f"{path}: unsupported property type {exc}") from None
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad vertex properties: {exc}") from None
    need = n_vertices * dtype.itemsize
    payload = fh.read(need)
    if len(payload) < need:
        raise FileFormatError(
            f"{path}: header declares {n_vertices} vertices ({need} bytes) but "
            f"only {len(payload)} bytes of vertex data are present")
    return np.frombuffer(payload, dtype=dtype, count=n_vertices)


def write_ply(path: str, points: np.ndarray, colors: np.ndarray | None = None) -> None:
    """Write an ASCII PLY cloud with full float64 precision (repr round trip)."""
    points = np.asarray(points, dtype=np.float64)
    header = ["ply", "format ascii 1.0", f"element vertex {len(points)}",
              "property double x", "property double y", "property double z"]
    if colors is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\nend_header\n")
        if colors is None:
            for p in points:
                fh.write(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")
        else:
            for p, c in zip(points, colors):
                fh.write(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r} "
                         f"{int(c[0])} {int(c[1])} {int(c[2])}\n")


# ---------------------------------------------------------------------------
# Scene types
# ---------------------------------------------------------------------------

@dataclass
class InstanceMask:
    """One labeled object: point indices into the scene cloud, optional embedding."""

    id: int
    label: str
    point_indices: np.ndarray
    embedding: np.ndarray | None
    confidence: float


@dataclass(frozen=True)
class QueryResult:
    instance_id: int
    similarity: float
    centroid: np.ndarray


class PointCloudScene:
    """Immutable environment model: points, optional colors, instance masks."""

    def __init__(self, points: np.ndarray, colors: np.ndarray | None,
                 instances: list[InstanceMask], embedding_dim: int):
        self.points = np.asarray(points, dtype=np.float64)
        self.colors = colors
        self.instances = list(instances)
        self.embedding_dim = embedding_dim
        if len(self.points) == 0:
            raise FileFormatError("scene contains no points")
        # per column: a strided column reduces far faster than axis=0 of (n, 3)
        self.bounds = np.array([[self.points[:, k].min() for k in range(3)],
                                [self.points[:, k].max() for k in range(3)]])
        self._by_id = {inst.id: inst for inst in self.instances}
        self._centroids: dict[int, np.ndarray] = {}

    # -- lookups ------------------------------------------------------------

    def instance(self, instance_id: int) -> InstanceMask:
        try:
            return self._by_id[instance_id]
        except KeyError:
            raise InstanceNotFoundError(f"no instance with id {instance_id}") from None

    def instance_points(self, instance_id: int) -> np.ndarray:
        return self.points[self.instance(instance_id).point_indices]

    def centroid_of(self, instance_id: int) -> np.ndarray:
        """Mean of the instance's points; one read-only array per instance."""
        centroid = self._centroids.get(instance_id)
        if centroid is None:
            centroid = self.instance_points(instance_id).mean(axis=0)
            centroid.setflags(write=False)
            self._centroids[instance_id] = centroid
        return centroid

    def obstacle_index(self, exclude_instance: int | None = None,
                       min_z: float | None = None,
                       target_exclusion: float = 0.0,
                       sight_starts: np.ndarray | None = None,
                       sight_clearance: float = 0.0) -> PointIndex:
        """Index over scene points outside the excluded instance / floor slab.

        With `target_exclusion` > 0 it also drops the points within that
        distance of the excluded instance's centroid; this is the one rule
        for which points block the line of sight of body placement. With
        `sight_starts` it keeps only the points of `geometry.sight_fan` for
        segments from those starts to the centroid at `sight_clearance`:
        the points whose ground distance from the centroid and height can
        bring them within ``sight_clearance + h/2`` of a segment. None of
        the dropped points decides a `line_of_sight` flag for those starts.
        """
        if exclude_instance is None and (target_exclusion > 0.0 or sight_starts is not None):
            raise ValueError("target_exclusion and sight_starts need an excluded instance")
        mask = np.ones(len(self.points), dtype=bool)
        if exclude_instance is not None:
            mask[self.instance(exclude_instance).point_indices] = False
        if min_z is not None:
            mask &= self.points[:, 2] >= min_z
        if sight_starts is None:
            keep = np.flatnonzero(mask)
        else:
            keep = sight_fan(self.points, self.centroid_of(exclude_instance), sight_starts,
                             sight_clearance)
            keep = keep[mask[keep]]
        points = self.points.take(keep, axis=0)
        if target_exclusion > 0.0:
            # np.linalg.norm's row norm, summed in its order: equal bit for bit
            d = points - self.centroid_of(exclude_instance)
            with np.errstate(over="ignore"):
                d *= d
                dist = d[:, 0] + d[:, 1]
                dist += d[:, 2]
            points = points[np.sqrt(dist, out=dist) > target_exclusion]
        return PointIndex(points)

    # -- queries ------------------------------------------------------------

    def query_instance(self, query_embedding: np.ndarray) -> list[QueryResult]:
        """Rank embedded instances by cosine similarity, best first.

        Ties are broken by ascending instance id so rankings are total.
        Raises UnsupportedQueryError when no instance has an embedding.
        """
        embedded = [inst for inst in self.instances if inst.embedding is not None]
        if not embedded:
            raise UnsupportedQueryError("no instance in this scene carries an embedding")
        q = np.asarray(query_embedding, dtype=np.float64).reshape(-1)
        if q.shape[0] != self.embedding_dim:
            raise ValueError(
                f"query embedding has dimension {q.shape[0]}, scene declares "
                f"{self.embedding_dim}")
        if not np.isfinite(q).all():
            raise ValueError("query embedding has a non-finite component")
        with np.errstate(over="ignore"):    # a huge component gives norm inf
            norm = float(np.linalg.norm(q))
        if abs(norm - 1.0) > EMBEDDING_NORM_TOL:
            raise ValueError(f"query embedding must be unit length, got norm {norm}")
        scored = [(float(inst.embedding @ q), inst) for inst in embedded]
        scored.sort(key=lambda pair: (-pair[0], pair[1].id))
        return [QueryResult(inst.id, sim, self.centroid_of(inst.id)) for sim, inst in scored]

    def distance_to_obstacles(self, p: np.ndarray,
                              exclude_instance: int | None = None,
                              min_z: float | None = None) -> "float | np.ndarray":
        """Distance from p to the nearest point outside the excluded instance.

        One (3,) point gives a float, an (N, 3) batch an (N,) array."""
        index = self.obstacle_index(exclude_instance, min_z)
        if len(index) == 0:
            raise EmptySceneError("no obstacle points remain after exclusion")
        dist, _ = index.nearest(p)
        return dist


# ---------------------------------------------------------------------------
# Instances file I/O and scene loading
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _InstanceRecord(JsonCodec):
    id: int
    label: str
    confidence: float = bounded(ge=0, le=1)
    # no `bounded`: it would check each of up to n_points items in Python
    point_indices: tuple[int, ...]
    embedding: tuple[float, ...] | None = None


@dataclass(frozen=True)
class _InstancesFile(JsonCodec):
    instances: tuple[_InstanceRecord, ...]
    embedding_dim: int = bounded(DEFAULT_EMBEDDING_DIM, gt=0)


def read_instances(path: str, n_points: int) -> tuple[list[InstanceMask], int]:
    doc = read_json(path, _InstancesFile, "instances file")
    claimed = np.zeros(n_points, dtype=bool)
    instances = []
    seen_ids: set[int] = set()
    for record in doc.instances:
        inst_id = record.id
        try:
            indices = np.array(record.point_indices, dtype=np.int64)
        except OverflowError:       # an integer index that int64 cannot hold
            raise FileFormatError(f"{path}: point_indices exceed int64") from None
        if indices.size == 0:
            raise FileFormatError(f"{path}: instance {inst_id} has no points")
        if indices.min() < 0 or indices.max() >= n_points:
            raise FileFormatError(
                f"{path}: instance {inst_id} references point index "
                f"{int(indices.max())} outside [0, {n_points})")
        overlap = claimed[indices]
        if overlap.any():
            clash = int(indices[np.argmax(overlap)])
            raise FileFormatError(
                f"{path}: instance {inst_id} overlaps a previous instance at "
                f"point index {clash}")
        claimed[indices] = True
        embedding = record.embedding
        if embedding is not None:
            embedding = np.array(embedding)
            if embedding.shape != (doc.embedding_dim,):
                raise FileFormatError(
                    f"{path}: instance {inst_id} embedding has {embedding.size} "
                    f"values, header declares {doc.embedding_dim}")
            with np.errstate(over="ignore"):    # a huge component gives norm inf
                norm = float(np.linalg.norm(embedding))
            if not abs(norm - 1.0) <= EMBEDDING_NORM_TOL:
                raise FileFormatError(
                    f"{path}: instance {inst_id} embedding norm {norm} is not 1")
        if inst_id in seen_ids:
            raise FileFormatError(f"{path}: duplicate instance id {inst_id}")
        seen_ids.add(inst_id)
        instances.append(InstanceMask(
            id=inst_id, label=record.label, point_indices=indices,
            embedding=embedding, confidence=record.confidence))
    return instances, doc.embedding_dim


def write_instances(path: str, instances: list[InstanceMask], embedding_dim: int) -> None:
    text = to_json({"embedding_dim": embedding_dim, "instances": instances})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_scene(cloud_path: str, instances_path: str) -> PointCloudScene:
    """Load and validate a (cloud, instances) file pair into a scene."""
    points, colors = read_ply(cloud_path)
    instances, dim = read_instances(instances_path, len(points))
    return PointCloudScene(points=points, colors=colors, instances=instances,
                           embedding_dim=dim)


def save_scene(scene: PointCloudScene, cloud_path: str, instances_path: str) -> None:
    write_ply(cloud_path, scene.points, scene.colors)
    write_instances(instances_path, scene.instances, scene.embedding_dim)
