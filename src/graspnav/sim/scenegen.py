"""Synthetic scene generation: furniture, objects, clouds, ground truth.

A scene spec describes a square floor, free-standing objects (each with a
graspability tier), and optionally a drawer cabinet. Generation samples
surface point clouds at a spec density, builds labeled instances with
one-hot unit embeddings per distinct label, and records ground truth:
per-object grasp sets (more grasps for easier tiers) and per-drawer
handle centers and pull axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..codec import JsonCodec, bounded, read_json
from ..errors import ConfigError, GenerationError
from ..scene import InstanceMask, PointCloudScene
from .primitives import Box, Cylinder, aabbs_overlap, stratified_rect

TIERS = ("easy", "medium", "hard")
TIER_GRASP_COUNTS = {"easy": 12, "medium": 6, "hard": 2}
_SHAPES = ("box", "cylinder")
_FACINGS = {"+x": (1.0, 0.0), "-x": (-1.0, 0.0),
            "+y": (0.0, 1.0), "-y": (0.0, -1.0)}

GRASP_DEPTH_BELOW_TOP = 0.01
CABINET_LABEL = "cabinet"

DEFAULT_DENSITY = 2500.0

_PLACE_MARGIN = 0.25          # clearance between placed objects
_PLACE_ATTEMPTS = 100
_FRONT_INSET = 0.04           # drawer fronts are this much narrower than the cabinet

# work caps: every object or cabinet dimension (m), and the points a scene samples
_MAX_EXTENT = 10.0
_MAX_POINTS = 4_000_000


def _box_area(sx: float, sy: float, sz: float) -> float:
    return 2.0 * (sx * sy + sx * sz + sy * sz)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObjectSpec(JsonCodec):
    """A free-standing object: box size (sx, sy, sz) or cylinder (r, h)."""

    label: str
    shape: str
    size: tuple[float, ...] = bounded(gt=0, le=_MAX_EXTENT)
    tier: str

    def __post_init__(self):
        super().__post_init__()
        if self.shape not in _SHAPES:
            raise ConfigError(f"shape must be one of {_SHAPES}, got {self.shape!r}")
        if self.tier not in TIERS:
            raise ConfigError(f"tier must be one of {TIERS}, got {self.tier!r}")
        expected = 3 if self.shape == "box" else 2
        size = tuple(float(x) for x in self.size)
        if len(size) != expected:
            raise ConfigError(
                f"{self.shape} size needs {expected} positive values, got {self.size}")
        object.__setattr__(self, "size", size)

    def sampled_area(self) -> float:
        """The surface area (m^2) that generation samples at the spec density."""
        if self.shape == "box":
            return _box_area(*self.size)
        r, h = self.size
        return 2.0 * math.pi * r * h + 2.0 * (2.0 * r) ** 2   # caps: bounding squares


@dataclass(frozen=True)
class CabinetSpec(JsonCodec):
    """A drawer cabinet standing on the floor, facing a cardinal direction."""

    center: tuple[float, float] = (1.2, 0.0)
    facing: str = "-x"
    width: float = bounded(0.6, gt=_FRONT_INSET, le=_MAX_EXTENT)
    height: float = bounded(0.8, gt=0, le=_MAX_EXTENT)
    depth: float = bounded(0.5, gt=0, le=_MAX_EXTENT)
    n_drawers: int = bounded(3, ge=1, le=32)
    handle_width: float = bounded(0.2, gt=0, le=_MAX_EXTENT)
    handle_height: float = bounded(0.05, gt=0, le=_MAX_EXTENT)
    front_proud: float = bounded(0.01, gt=0, le=_MAX_EXTENT)
    handle_proud: float = bounded(0.03, gt=0, le=_MAX_EXTENT)
    clear_front: float = bounded(1.2, ge=0)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))
        if len(self.center) != 2:
            raise ConfigError(f"cabinet center must be (x, y), got {self.center}")
        if self.facing not in _FACINGS:
            raise ConfigError(
                f"facing must be one of {sorted(_FACINGS)}, got {self.facing!r}")

    def sampled_area(self) -> float:
        """An upper bound on the surface area (m^2) that generation samples:
        the body, and per drawer a full-width front and a handle."""
        n = self.n_drawers
        return (_box_area(self.depth, self.width, self.height)
                + n * _box_area(self.front_proud, self.width, self.height / n)
                + n * _box_area(self.handle_proud, self.handle_width,
                                self.handle_height))


@dataclass(frozen=True)
class SceneSpec(JsonCodec):
    """Everything needed to generate a scene, minus the seed."""

    floor_extent: float = bounded(4.0, gt=0)
    density: float = bounded(DEFAULT_DENSITY, gt=0)   # points per m^2
    objects: tuple[ObjectSpec, ...] = ()
    cabinet: CabinetSpec | None = None

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "objects", tuple(self.objects))
        if len(self.objects) > 64:
            raise ConfigError(f"objects must hold at most 64, got {len(self.objects)}")
        area = (self.floor_extent * self.floor_extent
                + sum(o.sampled_area() for o in self.objects)
                + (self.cabinet.sampled_area() if self.cabinet else 0.0))
        if self.density * area > _MAX_POINTS:
            raise ConfigError(
                f"density * sampled area must be <= {_MAX_POINTS} points,"
                f" got {self.density} * {area} m^2")


def load_scene_spec(path: str | Path) -> SceneSpec:
    return read_json(path, SceneSpec, "scene spec")


# ---------------------------------------------------------------------------
# Generated artifacts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundTruthGrasp:
    center: np.ndarray                 # (3,) world
    approach: np.ndarray               # (3,) unit, toward the object
    width: float


@dataclass
class PlacedObject:
    spec: ObjectSpec
    instance_id: int
    primitive: Box | Cylinder
    truth_grasps: list[GroundTruthGrasp]

    @property
    def tier(self) -> str:
        return self.spec.tier

    @property
    def label(self) -> str:
        return self.spec.label


@dataclass
class PlacedCabinet:
    instance_id: int
    body: Box
    fronts: list[Box]
    handles: list[Box]
    handle_centers: np.ndarray         # (n_drawers, 3)
    axis: np.ndarray                   # (3,) unit, out of the fronts
    item_drawer_index: int


@dataclass
class SyntheticScene:
    scene: PointCloudScene
    label_codes: dict[str, np.ndarray]
    objects: list[PlacedObject]
    cabinet: PlacedCabinet | None
    floor: Box

    @property
    def primitives(self) -> list:
        prims: list = [self.floor]
        prims.extend(o.primitive for o in self.objects)
        if self.cabinet is not None:
            prims.append(self.cabinet.body)
            prims.extend(self.cabinet.fronts)
            prims.extend(self.cabinet.handles)
        return prims


# ---------------------------------------------------------------------------
# Ground-truth grasps
# ---------------------------------------------------------------------------

def _box_truth_grasps(prim: Box, count: int) -> list[GroundTruthGrasp]:
    """Top grasps along the long horizontal axis, alternating sides."""
    cx, cy, _ = prim.center
    sx, sy, sz = prim.size
    long_axis = 0 if sx >= sy else 1
    short = sy if long_axis == 0 else sx
    top_z = prim.hi[2] - GRASP_DEPTH_BELOW_TOP
    length = prim.size[long_axis]
    if count == 1:
        offsets = [0.0]
    else:
        offsets = list(np.linspace(-0.35 * length, 0.35 * length, count))
    grasps = []
    for k, off in enumerate(offsets):
        center = np.array([cx, cy, top_z])
        center[long_axis] += off
        side = 1.0 if k % 2 == 0 else -1.0
        approach = np.zeros(3)
        approach[1 - long_axis] = -side
        grasps.append(GroundTruthGrasp(center=center, approach=approach,
                                       width=short))
    return grasps


def _cylinder_truth_grasps(prim: Cylinder, count: int) -> list[GroundTruthGrasp]:
    """Top-center grasps approached from evenly spaced azimuths."""
    cx, cy, _ = prim.center
    top_z = prim.z_hi - GRASP_DEPTH_BELOW_TOP
    center = np.array([cx, cy, top_z])
    grasps = []
    for k in range(count):
        theta = 2.0 * math.pi * k / count
        approach = np.array([-math.cos(theta), -math.sin(theta), 0.0])
        grasps.append(GroundTruthGrasp(center=center.copy(), approach=approach,
                                       width=2.0 * prim.radius))
    return grasps


# ---------------------------------------------------------------------------
# Cabinet construction
# ---------------------------------------------------------------------------

def _build_cabinet(spec: CabinetSpec) -> tuple[Box, list[Box], list[Box], np.ndarray, np.ndarray]:
    fx, fy = _FACINGS[spec.facing]
    facing = np.array([fx, fy, 0.0])
    cx, cy = spec.center
    along_x = abs(fx) > 0.5
    body_size = ((spec.depth, spec.width, spec.height) if along_x
                 else (spec.width, spec.depth, spec.height))
    body = Box(center=(cx, cy, spec.height / 2.0), size=body_size)

    drawer_h = spec.height / spec.n_drawers
    front_gap = min(0.02, 0.4 * drawer_h)
    front_w = spec.width - _FRONT_INSET
    face_offset = spec.depth / 2.0 + spec.front_proud / 2.0
    handle_offset = spec.depth / 2.0 + spec.front_proud + spec.handle_proud / 2.0
    # grip point: the handle's outer face, the surface a camera measures
    grip_offset = spec.depth / 2.0 + spec.front_proud + spec.handle_proud

    fronts, handles, centers = [], [], []
    for i in range(spec.n_drawers):
        z = (i + 0.5) * drawer_h
        fc = np.array([cx + fx * face_offset, cy + fy * face_offset, z])
        hc = np.array([cx + fx * handle_offset, cy + fy * handle_offset, z])
        grip = np.array([cx + fx * grip_offset, cy + fy * grip_offset, z])
        if along_x:
            front_size = (spec.front_proud, front_w, drawer_h - front_gap)
            handle_size = (spec.handle_proud, spec.handle_width, spec.handle_height)
        else:
            front_size = (front_w, spec.front_proud, drawer_h - front_gap)
            handle_size = (spec.handle_width, spec.handle_proud, spec.handle_height)
        fronts.append(Box(center=tuple(fc), size=front_size))
        handles.append(Box(center=tuple(hc), size=handle_size))
        centers.append(grip)
    return body, fronts, handles, np.array(centers), facing


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _object_primitive(spec: ObjectSpec, x: float, y: float) -> Box | Cylinder:
    if spec.shape == "box":
        sx, sy, sz = spec.size
        return Box(center=(x, y, sz / 2.0), size=(sx, sy, sz))
    r, h = spec.size
    return Cylinder(center=(x, y, h / 2.0), radius=r, height=h)


def generate_scene(spec: SceneSpec, seed: int = 0) -> SyntheticScene:
    """Place objects, sample clouds, and assemble the labeled scene.

    Objects are placed uniformly in a central region of the floor with a
    clearance margin between them (and the cabinet); placement failure
    after repeated attempts raises GenerationError. Each distinct label
    gets a one-hot unit embedding reused by queries.
    """
    rng = np.random.default_rng(seed)
    half = spec.floor_extent / 2.0
    place_half = max(0.4, half - 1.0)

    occupied: list[tuple[np.ndarray, np.ndarray]] = []
    cabinet_parts = None
    if spec.cabinet is not None:
        cab = spec.cabinet
        cabinet_parts = _build_cabinet(cab)
        occupied.append(cabinet_parts[0].aabb())
        if cab.clear_front > 0:
            # keep the approach corridor in front of the drawers free
            facing = cabinet_parts[4]
            reach = cab.depth / 2.0 + cab.clear_front
            span = np.array([cab.center[0], cab.center[1], 0.0])
            near = span + facing * (cab.depth / 2.0)
            far = span + facing * reach
            lo = np.minimum(near, far)
            hi = np.maximum(near, far) + np.array([0, 0, cab.height])
            cross = np.abs(np.array([facing[1], facing[0], 0.0]))
            lo = lo - cross * (cab.width / 2.0)
            hi = hi + cross * (cab.width / 2.0)
            occupied.append((lo, hi))

    placed: list[tuple[ObjectSpec, Box | Cylinder]] = []
    for obj_spec in spec.objects:
        prim = None
        for _ in range(_PLACE_ATTEMPTS):
            x, y = rng.uniform(-place_half, place_half, size=2)
            candidate = _object_primitive(obj_spec, x, y)
            if any(aabbs_overlap(candidate.aabb(), other, _PLACE_MARGIN)
                   for other in occupied):
                continue
            prim = candidate
            break
        if prim is None:
            raise GenerationError(
                f"could not place object {obj_spec.label!r} after "
                f"{_PLACE_ATTEMPTS} attempts")
        occupied.append(prim.aabb())
        placed.append((obj_spec, prim))

    # one-hot embeddings per distinct label, stable order
    labels = sorted({o.label for o in spec.objects}
                    | ({CABINET_LABEL} if spec.cabinet is not None else set()))
    dim = max(2, len(labels))
    label_codes = {}
    for i, label in enumerate(labels):
        code = np.zeros(dim)
        code[i] = 1.0
        label_codes[label] = code

    # assemble the cloud: floor, then objects, then cabinet
    floor_xy = stratified_rect(spec.floor_extent, spec.floor_extent,
                               spec.density, rng)
    floor_pts = np.zeros((len(floor_xy), 3))
    np.subtract(floor_xy, half, out=floor_pts[:, :2])
    clouds = [floor_pts]

    instances: list[InstanceMask] = []
    objects: list[PlacedObject] = []
    offset = len(clouds[0])
    next_id = 0
    for obj_spec, prim in placed:
        pts = prim.sample_surface(spec.density, rng)
        indices = np.arange(offset, offset + len(pts))
        offset += len(pts)
        clouds.append(pts)
        instances.append(InstanceMask(
            id=next_id, label=obj_spec.label, point_indices=indices,
            embedding=label_codes[obj_spec.label].copy(), confidence=1.0))
        count = TIER_GRASP_COUNTS[obj_spec.tier]
        truth = (_box_truth_grasps(prim, count) if isinstance(prim, Box)
                 else _cylinder_truth_grasps(prim, count))
        objects.append(PlacedObject(spec=obj_spec, instance_id=next_id,
                                    primitive=prim, truth_grasps=truth))
        next_id += 1

    cabinet = None
    if spec.cabinet is not None:
        body, fronts, handles, handle_centers, facing = cabinet_parts
        parts = [body] + fronts + handles
        part_pts = [p.sample_surface(spec.density, rng) for p in parts]
        pts = np.concatenate(part_pts, axis=0)
        indices = np.arange(offset, offset + len(pts))
        offset += len(pts)
        clouds.append(pts)
        instances.append(InstanceMask(
            id=next_id, label=CABINET_LABEL, point_indices=indices,
            embedding=label_codes[CABINET_LABEL].copy(), confidence=1.0))
        item_drawer = int(rng.integers(spec.cabinet.n_drawers))
        cabinet = PlacedCabinet(instance_id=next_id, body=body, fronts=fronts,
                                handles=handles, handle_centers=handle_centers,
                                axis=facing, item_drawer_index=item_drawer)
        next_id += 1

    points = np.concatenate(clouds, axis=0)
    scene = PointCloudScene(points=points, colors=None, instances=instances,
                            embedding_dim=dim)
    floor = Box(center=(0.0, 0.0, -0.005),
                size=(spec.floor_extent, spec.floor_extent, 0.01))
    return SyntheticScene(scene=scene, label_codes=label_codes, objects=objects,
                          cabinet=cabinet, floor=floor)


# ---------------------------------------------------------------------------
# Stock specs
# ---------------------------------------------------------------------------

def default_grasp_spec() -> SceneSpec:
    """Three objects spanning the graspability tiers on an open floor."""
    return SceneSpec(
        objects=(
            ObjectSpec(label="crate", shape="box", size=(0.30, 0.20, 0.25),
                       tier="easy"),
            ObjectSpec(label="bottle", shape="cylinder", size=(0.06, 0.28),
                       tier="medium"),
            ObjectSpec(label="stick", shape="box", size=(0.05, 0.04, 0.18),
                       tier="hard"),
        ),
    )


def default_search_spec() -> SceneSpec:
    """A three-drawer cabinet with a couple of bystander objects."""
    return SceneSpec(
        objects=(
            ObjectSpec(label="crate", shape="box", size=(0.30, 0.20, 0.25),
                       tier="easy"),
        ),
        cabinet=CabinetSpec(),
    )
