"""Tests for the synthetic-scene simulator and episode runners."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from graspnav.codec import to_json
from graspnav.config import RunConfig
from graspnav.errors import ConfigError, GenerationError
from graspnav.geometry import (CameraIntrinsics, Pose, look_at, project_many,
                               rotation_about_z)
from graspnav.sim import (Box, CabinetSpec, Cylinder, NoiseModel, ObjectSpec,
                          SceneSpec, SimConfig, default_grasp_spec,
                          default_search_spec, derive_seed, detect_boxes,
                          generate_scene, render_depth, run_batch,
                          run_grasp_episode, run_search_episode,
                          stratified_rect, summarize)
from graspnav.sim import episodes
from graspnav.sim.episodes import (STAGES, EpisodeReport, StageOutcome,
                                   _approach_rotation)
from graspnav.sim.detector import noisy_detections, visible_boxes
from graspnav.sim.primitives import aabbs_overlap
from graspnav.sim.render import add_depth_noise, trace_depth
from graspnav.sim.scenegen import TIER_GRASP_COUNTS, load_scene_spec

from conftest import random_pose, vga_intrinsics


class TestStratifiedRect:
    def test_exact_count_on_unit_square(self):
        rng = np.random.default_rng(0)
        pts = stratified_rect(1.0, 1.0, 1e4, rng)
        assert len(pts) == 10_000

    def test_rectangle_count(self):
        rng = np.random.default_rng(0)
        # cell edge 0.1 m: 20 x 5 cells
        pts = stratified_rect(2.0, 0.5, 100.0, rng)
        assert len(pts) == 100

    def test_points_inside_rect(self):
        rng = np.random.default_rng(1)
        pts = stratified_rect(3.0, 2.0, 50.0, rng)
        assert pts[:, 0].min() >= 0.0 and pts[:, 0].max() <= 3.0
        assert pts[:, 1].min() >= 0.0 and pts[:, 1].max() <= 2.0

    def test_seed_reproducible(self):
        a = stratified_rect(1.0, 1.0, 500.0, np.random.default_rng(7))
        b = stratified_rect(1.0, 1.0, 500.0, np.random.default_rng(7))
        assert_array_equal(a, b)

    @given(w=st.floats(0.2, 5.0), h=st.floats(0.2, 5.0),
           density=st.floats(10.0, 2000.0))
    @settings(max_examples=30, deadline=None)
    def test_coverage_property(self, w, h, density):
        pts = stratified_rect(w, h, density, np.random.default_rng(0))
        assert len(pts) >= 1
        assert np.all((pts[:, 0] >= 0) & (pts[:, 0] <= w))
        assert np.all((pts[:, 1] >= 0) & (pts[:, 1] <= h))

    @staticmethod
    def meshgrid_reference(width, height, density, rng):
        """The grid formula as two meshgrids and a stack."""
        cell = 1.0 / math.sqrt(density)
        nx, ny = max(1, round(width / cell)), max(1, round(height / cell))
        jitter = rng.random((ny, nx, 2))
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
        xs = (ix + jitter[:, :, 0]) * (width / nx)
        ys = (iy + jitter[:, :, 1]) * (height / ny)
        return np.stack([xs.ravel(), ys.ravel()], axis=1)

    def test_bit_equal_to_the_meshgrid_formula(self):
        # 1x1, 1xn and nx1 grids, non-square cells, the stock floor and faces
        sizes = [(0.01, 0.01, 1.0), (0.3, 0.02, 2500.0), (0.02, 0.3, 2500.0),
                 (4.0, 4.0, 2500.0), (0.30, 0.25, 2500.0), (0.05, 0.18, 2500.0),
                 (2.0, 0.5, 100.0), (1.7, 0.9, 333.3)]
        rng = np.random.default_rng(30)
        sizes += [(w, h, d) for w, h, d in zip(rng.uniform(0.01, 3.0, 40),
                                                rng.uniform(0.01, 3.0, 40),
                                                rng.uniform(1.0, 5000.0, 40))]
        for i, (w, h, d) in enumerate(sizes):
            for seed in (i, 1000 + i):
                got = stratified_rect(w, h, d, np.random.default_rng(seed))
                want = self.meshgrid_reference(w, h, d, np.random.default_rng(seed))
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (w, h, d, seed)
        assert len(stratified_rect(0.01, 0.01, 1.0, rng)) == 1


class TestBox:
    def test_frontal_hit_exact(self):
        box = Box(center=(2.0, 0.0, 0.0), size=(2.0, 2.0, 2.0))
        t = box.intersect(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
        assert t[0] == 1.0

    def test_scaled_direction_scales_t(self):
        box = Box(center=(2.0, 0.0, 0.0), size=(2.0, 2.0, 2.0))
        t = box.intersect(np.zeros(3), np.array([[2.0, 0.0, 0.0]]))
        assert t[0] == 0.5

    def test_miss_is_inf(self):
        box = Box(center=(2.0, 0.0, 0.0), size=(0.5, 0.5, 0.5))
        t = box.intersect(np.zeros(3), np.array([[0.0, 1.0, 0.0],
                                                 [-1.0, 0.0, 0.0]]))
        assert np.all(np.isinf(t))

    def test_origin_inside_misses(self):
        box = Box(center=(0.0, 0.0, 0.0), size=(2.0, 2.0, 2.0))
        t = box.intersect(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
        assert np.isinf(t[0])

    def test_axis_parallel_ray_outside_slab(self):
        box = Box(center=(2.0, 5.0, 0.0), size=(1.0, 1.0, 1.0))
        t = box.intersect(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
        assert np.isinf(t[0])

    def test_aabb(self):
        box = Box(center=(1.0, 2.0, 3.0), size=(2.0, 4.0, 6.0))
        lo, hi = box.aabb()
        assert_array_equal(lo, [0.0, 0.0, 0.0])
        assert_array_equal(hi, [2.0, 4.0, 6.0])

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigError):
            Box(center=(0, 0, 0), size=(1.0, 0.0, 1.0))

    def test_surface_samples_lie_on_faces(self):
        box = Box(center=(1.0, -2.0, 0.5), size=(0.4, 0.6, 1.0))
        pts = box.sample_surface(2000.0, np.random.default_rng(3))
        lo, hi = box.aabb()
        assert np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12)
        # each point touches at least one face plane
        face_dist = np.minimum(np.abs(pts - lo), np.abs(pts - hi)).min(axis=1)
        assert face_dist.max() < 1e-12

    def test_surface_sample_count_tracks_area(self):
        box = Box(center=(0, 0, 0), size=(1.0, 1.0, 1.0))
        pts = box.sample_surface(1000.0, np.random.default_rng(0))
        # stratified cell rounding per face: within 10% of area x density
        assert abs(len(pts) - 6000) <= 600

    @given(cx=st.floats(-3, 3), cy=st.floats(-3, 3), cz=st.floats(-3, 3),
           sx=st.floats(0.1, 2), sy=st.floats(0.1, 2), sz=st.floats(0.1, 2))
    @settings(max_examples=60, deadline=None)
    def test_hit_point_is_on_surface(self, cx, cy, cz, sx, sy, sz):
        box = Box(center=(cx, cy, cz), size=(sx, sy, sz))
        origin = np.array([10.0, 10.0, 10.0])
        lo, hi = box.aabb()
        if np.all(origin >= lo) and np.all(origin <= hi):
            return
        direction = (np.array(box.center) - origin)[None, :]
        t = box.intersect(origin, direction)[0]
        assert np.isfinite(t)
        hit = origin + t * direction[0]
        face_dist = np.minimum(np.abs(hit - lo), np.abs(hit - hi)).min()
        assert face_dist < 1e-9
        assert np.all(hit >= lo - 1e-9) and np.all(hit <= hi + 1e-9)


class TestCylinder:
    def test_side_hit_exact(self):
        cyl = Cylinder(center=(2.0, 0.0, 1.0), radius=0.5, height=2.0)
        t = cyl.intersect(np.array([0.0, 0.0, 1.0]),
                          np.array([[1.0, 0.0, 0.0]]))
        assert t[0] == pytest.approx(1.5, abs=1e-12)

    def test_cap_hit_from_above(self):
        cyl = Cylinder(center=(2.0, 0.0, 1.0), radius=0.5, height=2.0)
        t = cyl.intersect(np.array([2.0, 0.0, 5.0]),
                          np.array([[0.0, 0.0, -1.0]]))
        assert t[0] == pytest.approx(3.0, abs=1e-12)

    def test_side_miss_above_height(self):
        cyl = Cylinder(center=(2.0, 0.0, 0.5), radius=0.5, height=1.0)
        t = cyl.intersect(np.array([0.0, 0.0, 5.0]),
                          np.array([[1.0, 0.0, 0.0]]))
        assert np.isinf(t[0])

    def test_origin_inside_misses(self):
        cyl = Cylinder(center=(0.0, 0.0, 0.0), radius=1.0, height=2.0)
        t = cyl.intersect(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
        assert np.isinf(t[0])

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ConfigError):
            Cylinder(center=(0, 0, 0), radius=0.0, height=1.0)
        with pytest.raises(ConfigError):
            Cylinder(center=(0, 0, 0), radius=1.0, height=-1.0)

    def test_surface_samples_on_shell_or_caps(self):
        cyl = Cylinder(center=(1.0, 2.0, 0.5), radius=0.3, height=1.0)
        pts = cyl.sample_surface(3000.0, np.random.default_rng(5))
        radial = np.hypot(pts[:, 0] - 1.0, pts[:, 1] - 2.0)
        on_side = np.abs(radial - 0.3) < 1e-9
        on_cap = (np.isclose(pts[:, 2], 0.0) | np.isclose(pts[:, 2], 1.0)) \
            & (radial <= 0.3 + 1e-9)
        assert np.all(on_side | on_cap)
        assert on_side.any() and on_cap.any()


class TestAabbsOverlap:
    def test_overlapping(self):
        a = Box(center=(0, 0, 0), size=(1, 1, 1)).aabb()
        b = Box(center=(0.5, 0, 0), size=(1, 1, 1)).aabb()
        assert aabbs_overlap(a, b, 0.0)

    def test_disjoint(self):
        a = Box(center=(0, 0, 0), size=(1, 1, 1)).aabb()
        b = Box(center=(3.0, 0, 0), size=(1, 1, 1)).aabb()
        assert not aabbs_overlap(a, b, 0.0)

    def test_margin_bridges_gap(self):
        a = Box(center=(0, 0, 0), size=(1, 1, 1)).aabb()
        b = Box(center=(1.4, 0, 0), size=(1, 1, 1)).aabb()
        assert not aabbs_overlap(a, b, 0.0)
        assert aabbs_overlap(a, b, 0.5)


class TestRenderDepth:
    def test_flat_wall_exact_depth(self):
        intr = vga_intrinsics()
        wall = Box(center=(0.0, 0.0, 1.5), size=(40.0, 40.0, 1.0))
        pose = look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        depth = render_depth([wall], intr, pose)
        assert depth.shape == (intr.height, intr.width)
        assert np.all(depth == 1.0)

    def test_empty_scene_is_zero(self):
        depth = render_depth([], vga_intrinsics(), look_at(
            np.zeros(3), np.array([0.0, 0.0, 1.0])))
        assert np.all(depth == 0.0)

    def test_nearest_primitive_wins(self):
        intr = vga_intrinsics()
        pose = look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        near = Box(center=(0.0, 0.0, 1.5), size=(40.0, 40.0, 1.0))
        far = Box(center=(0.0, 0.0, 4.5), size=(40.0, 40.0, 1.0))
        depth = render_depth([far, near], intr, pose)
        assert np.all(depth == 1.0)

    def test_noise_seed_reproducible(self):
        intr = vga_intrinsics()
        wall = Box(center=(0.0, 0.0, 1.5), size=(40.0, 40.0, 1.0))
        pose = look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        noise = NoiseModel()
        a = render_depth([wall], intr, pose, noise, seed=9)
        b = render_depth([wall], intr, pose, noise, seed=9)
        c = render_depth([wall], intr, pose, noise, seed=10)
        assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dropout_fraction(self):
        intr = vga_intrinsics()
        wall = Box(center=(0.0, 0.0, 1.5), size=(40.0, 40.0, 1.0))
        pose = look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        noise = NoiseModel(depth_sigma=0.0, depth_dropout=0.25)
        depth = render_depth([wall], intr, pose, noise, seed=3)
        frac = np.mean(depth == 0.0)
        assert abs(frac - 0.25) < 0.02

    def test_full_dropout_blanks_image(self):
        intr = vga_intrinsics()
        wall = Box(center=(0.0, 0.0, 1.5), size=(40.0, 40.0, 1.0))
        pose = look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        depth = render_depth([wall], intr, pose,
                             NoiseModel(depth_dropout=1.0), seed=0)
        assert np.all(depth == 0.0)

    def test_noise_never_negative(self):
        intr = vga_intrinsics()
        wall = Box(center=(0.0, 0.0, 0.15), size=(40.0, 40.0, 0.1))
        pose = look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        noise = NoiseModel(depth_sigma=0.5, depth_dropout=0.0)
        depth = render_depth([wall], intr, pose, noise, seed=1)
        assert depth.min() >= 0.0


def _brute_force_depth(prims, intr, pose):
    """Every ray against every primitive: the renderer's reference."""
    us, vs = np.meshgrid(np.arange(intr.width, dtype=np.float64),
                         np.arange(intr.height, dtype=np.float64))
    dirs_cam = np.stack([(us.ravel() - intr.cx) / intr.fx,
                         (vs.ravel() - intr.cy) / intr.fy,
                         np.ones(intr.width * intr.height)], axis=1)
    dirs = dirs_cam @ pose.rotation.T
    t = np.full(len(dirs), np.inf)
    if prims:
        t = np.minimum.reduce([p.intersect(pose.translation, dirs) for p in prims])
    return np.where(np.isfinite(t), t, 0.0).reshape(intr.height, intr.width)


_SMALL_INTR = SimConfig().intrinsics


class TestTraceDepthMatchesBruteForce:
    """Culling each primitive to its screen window changes no depth bit."""

    def _check(self, prims, intr, pose):
        depth = trace_depth(prims, intr, pose)
        assert_array_equal(depth, _brute_force_depth(prims, intr, pose))
        return depth

    @pytest.mark.parametrize("seed", range(12))
    def test_random_boxes_and_cylinders(self, seed):
        rng = np.random.default_rng(seed)
        prims = []
        for _ in range(6):
            center = rng.uniform(-2.0, 2.0, size=3)
            if rng.random() < 0.3:
                prims.append(Cylinder(center=center, radius=rng.uniform(0.05, 0.6),
                                      height=rng.uniform(0.1, 1.5)))
            else:
                prims.append(Box(center=center, size=rng.uniform(0.05, 1.5, size=3)))
        # aimed at the cluster with a random roll, and one arbitrary pose
        roll = Pose(rotation_about_z(rng.uniform(0.0, 2.0 * math.pi)), np.zeros(3))
        aimed = look_at(rng.uniform(-4.0, 4.0, size=3),
                        rng.uniform(-1.0, 1.0, size=3)).compose(roll)
        depth = self._check(prims, _SMALL_INTR, aimed)
        assert np.count_nonzero(depth) > 0
        self._check(prims, _SMALL_INTR, random_pose(rng, span=1.5))

    def test_searched_scenes_from_random_poses(self):
        rng = np.random.default_rng(3)
        for seed in range(3):
            synth = generate_scene(default_search_spec(), seed=seed)
            for _ in range(4):
                eye = np.array([*rng.uniform(-2.5, 2.5, size=2), rng.uniform(0.2, 1.5)])
                target = np.array([*rng.uniform(-2.5, 2.5, size=2), rng.uniform(0.0, 1.0)])
                if np.linalg.norm(target - eye) < 0.1:
                    continue
                self._check(synth.primitives, _SMALL_INTR, look_at(eye, target))

    def test_boxes_partly_and_wholly_off_screen(self):
        pose = look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        partly = Box(center=(1.2, 0.3, 2.0), size=(1.0, 0.5, 0.5))
        beside = Box(center=(6.0, 0.0, 2.0), size=(0.5, 0.5, 0.5))
        behind = Box(center=(0.0, 0.0, -3.0), size=(1.0, 1.0, 1.0))
        depth = self._check([partly, beside, behind], _SMALL_INTR, pose)
        assert 0 < np.count_nonzero(depth) < depth.size

    def test_box_straddling_camera_plane(self):
        pose = look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        slab = Box(center=(0.8, 0.0, 0.0), size=(0.5, 0.5, 4.0))
        depth = self._check([slab], _SMALL_INTR, pose)
        assert np.count_nonzero(depth) > 0

    def test_camera_inside_box(self):
        pose = look_at(np.zeros(3), np.array([1.0, 0.5, 0.2]))
        room = Box(center=(0.1, 0.0, 0.0), size=(3.0, 3.0, 3.0))
        inner = Box(center=(1.0, 0.5, 0.2), size=(0.3, 0.3, 0.3))
        depth = self._check([room, inner], _SMALL_INTR, pose)
        assert np.count_nonzero(depth) > 0

    def test_cylinder(self):
        pose = look_at(np.array([1.5, -1.0, 0.8]), np.array([0.0, 0.0, 0.4]))
        can = Cylinder(center=(0.0, 0.0, 0.4), radius=0.3, height=0.8)
        depth = self._check([can], _SMALL_INTR, pose)
        assert np.count_nonzero(depth) > 0

    def test_frame_intrinsics(self):
        synth = generate_scene(default_search_spec(), seed=4)
        pose = _front_camera(synth)
        depth = self._check(synth.primitives, vga_intrinsics(), pose)
        assert np.count_nonzero(depth) > 0

    def test_noise_overlay_composes_to_render_depth(self):
        synth = generate_scene(default_search_spec(), seed=2)
        pose = _front_camera(synth)
        traced = trace_depth(synth.primitives, _SMALL_INTR, pose)
        before = traced.copy()
        for s in (0, 5, 17):
            assert_array_equal(
                add_depth_noise(traced, NoiseModel(), s),
                render_depth(synth.primitives, _SMALL_INTR, pose, NoiseModel(), seed=s))
        assert_array_equal(traced, before)
        assert_array_equal(render_depth(synth.primitives, _SMALL_INTR, pose), traced)

    def test_odd_image_size_has_an_exact_centre_ray(self):
        # cx and cy on integer pixels: the centre column's ray has exactly
        # zero x and the centre row's exactly zero y in the camera frame
        intr = CameraIntrinsics(fx=130.0, fy=130.0, cx=80.0, cy=60.0,
                                width=161, height=121)
        synth = generate_scene(default_search_spec(), seed=1)
        depth = self._check(synth.primitives, intr, _front_camera(synth))
        assert depth[60, 80] > 0
        wall = Box(center=(0.0, 0.0, 2.0), size=(1.0, 1.0, 1.0))
        pose = look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        assert self._check([wall], intr, pose)[60, 80] == 1.5

    @pytest.mark.parametrize("quarter_turns", range(4))
    def test_axis_aligned_poses_with_slabs_through_the_camera(self, quarter_turns):
        # exact 0/+-1 rotations looking along +x, +y, -x, -y: whole rows and
        # columns of rays have exact zero world components, and the slab
        # planes through the camera's coordinates turn (lo - o) * inf into
        # the NaN that the slab test must drop
        turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        along_x = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        rotation = np.linalg.matrix_power(turn, quarter_turns) @ along_x
        origin = np.array([0.25, -0.5, 0.75])
        pose = Pose(rotation, origin)
        forward = rotation[:, 2]
        side = rotation[:, 0]
        prims = [
            # flush with the camera's height, its side plane and its depth
            Box(center=origin + 1.5 * forward + [0.0, 0.0, 0.25],
                size=(0.5, 0.5, 0.5)),
            Box(center=origin + 1.0 * forward + 0.25 * side,
                size=(0.5, 0.5, 0.2)),
            Box(center=origin - 0.25 * forward + 0.6 * side,
                size=(0.5, 0.5, 0.5)),
        ]
        for prim in prims:
            assert np.any(prim.aabb()[0] == origin) or np.any(prim.aabb()[1] == origin)
        intr = CameraIntrinsics(fx=130.0, fy=130.0, cx=80.0, cy=60.0,
                                width=161, height=121)
        depth = self._check(prims, intr, pose)
        assert np.count_nonzero(depth) > 0
        # the centre row's rays run flat along the first box's bottom face
        ray = pose.rotation @ np.array([20.0 / 130.0, 0.0, 1.0])
        assert ray[2] == 0.0 and prims[0].aabb()[0][2] == origin[2]

    def test_alternating_intrinsics(self):
        synth = generate_scene(default_search_spec(), seed=3)
        pose = _front_camera(synth)
        odd = CameraIntrinsics(fx=130.0, fy=130.0, cx=80.0, cy=60.0,
                               width=161, height=121)
        first = {}
        for intr in (_SMALL_INTR, odd, _SMALL_INTR, odd, vga_intrinsics(), odd):
            depth = self._check(synth.primitives, intr, pose)
            assert_array_equal(depth, first.setdefault(intr, depth))


def _front_camera(synth, sim=None):
    cabinet = synth.cabinet
    look = cabinet.handle_centers.mean(axis=0)
    eye = look + cabinet.axis * 1.5
    eye[2] = 0.6
    return look_at(eye, look)


def _expected_bbox(box, intr, pose):
    lo, hi = box.aabb()
    corners = np.array([[x, y, z] for x in (lo[0], hi[0])
                        for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
    us, vs, zs = project_many(corners, intr, pose)
    assert np.all(zs > 0)
    return (max(0.0, us.min()), max(0.0, vs.min()),
            min(intr.width - 1.0, us.max()), min(intr.height - 1.0, vs.max()))


class TestDetectBoxes:
    def setup_method(self):
        self.synth = generate_scene(default_search_spec(), seed=2)
        self.sim = SimConfig()
        self.intr = self.sim.intrinsics

    def test_noiseless_detects_all_fronts_and_handles(self):
        pose = _front_camera(self.synth)
        dets = detect_boxes(self.synth.cabinet, self.intr, pose)
        n = self.synth.cabinet.item_drawer_index  # noqa: F841 touch field
        labels = [d.class_label for d in dets]
        assert labels.count("drawer") == 3
        assert labels.count("handle") == 3
        assert all(d.confidence == 1.0 for d in dets)

    def test_noiseless_bbox_matches_projection(self):
        pose = _front_camera(self.synth)
        dets = detect_boxes(self.synth.cabinet, self.intr, pose)
        drawers = [d for d in dets if d.class_label == "drawer"]
        handles = [d for d in dets if d.class_label == "handle"]
        for det, box in zip(drawers, self.synth.cabinet.fronts):
            assert_allclose(det.bbox.as_list(),
                            _expected_bbox(box, self.intr, pose), atol=1e-9)
        for det, box in zip(handles, self.synth.cabinet.handles):
            assert_allclose(det.bbox.as_list(),
                            _expected_bbox(box, self.intr, pose), atol=1e-9)

    def test_back_view_is_culled(self):
        cabinet = self.synth.cabinet
        look = cabinet.handle_centers.mean(axis=0)
        eye = look - cabinet.axis * 1.5
        eye[2] = 0.6
        dets = detect_boxes(cabinet, self.intr, look_at(eye, look))
        assert dets == []

    def test_jitter_center_error_statistic(self):
        pose = _front_camera(self.synth)
        clean = detect_boxes(self.synth.cabinet, self.intr, pose)
        sigma = 2.0
        noise = NoiseModel(bbox_jitter_sigma=sigma, detection_dropout=0.0)
        errs = []
        for seed in range(300):
            noisy = detect_boxes(self.synth.cabinet, self.intr, pose, noise,
                                 seed=seed)
            for c, n in zip(clean, noisy):
                dcx = n.bbox.center[0] - c.bbox.center[0]
                dcy = n.bbox.center[1] - c.bbox.center[1]
                errs.append(abs(dcx) + abs(dcy))
        expected = 2.0 * sigma * math.sqrt(2.0 / math.pi)
        assert abs(np.mean(errs) - expected) <= 0.15 * expected

    def test_detection_dropout_rate(self):
        pose = _front_camera(self.synth)
        noise = NoiseModel(detection_dropout=0.5, bbox_jitter_sigma=0.0)
        counts = [len(detect_boxes(self.synth.cabinet, self.intr, pose, noise,
                                   seed=s)) for s in range(400)]
        assert abs(np.mean(counts) - 3.0) < 0.3

    def test_confidence_range_respected(self):
        pose = _front_camera(self.synth)
        noise = NoiseModel(detection_dropout=0.0, bbox_jitter_sigma=0.0,
                           confidence_range=(0.7, 0.7))
        dets = detect_boxes(self.synth.cabinet, self.intr, pose, noise, seed=0)
        assert all(d.confidence == pytest.approx(0.7) for d in dets)

    def test_seed_reproducible(self):
        pose = _front_camera(self.synth)
        noise = NoiseModel()
        a = detect_boxes(self.synth.cabinet, self.intr, pose, noise, seed=4)
        b = detect_boxes(self.synth.cabinet, self.intr, pose, noise, seed=4)
        assert a == b

    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(detection_dropout=1.0),
                                       NoiseModel.noiseless()],
                             ids=["reference", "all-dropped", "noiseless"])
    def test_detect_boxes_is_noise_over_the_visible_set(self, noise):
        pose = _front_camera(self.synth)
        visible = visible_boxes(self.synth.cabinet, self.intr, pose)
        assert len(visible) == 6
        for s in range(20):
            assert (noisy_detections(visible, noise, s)
                    == detect_boxes(self.synth.cabinet, self.intr, pose, noise, seed=s))

    def test_visible_boxes_match_per_box_projection_bit_for_bit(self):
        cabinet = self.synth.cabinet
        pose = _front_camera(self.synth)
        visible = visible_boxes(cabinet, self.intr, pose)
        for (label, bbox), box in zip(visible, [*cabinet.fronts, *cabinet.handles]):
            assert bbox.as_list() == list(_expected_bbox(box, self.intr, pose))

    def test_close_looks_share_one_visible_set(self):
        cabinet, noise = self.synth.cabinet, NoiseModel()
        pose = _front_camera(self.synth)
        visible = visible_boxes(cabinet, self.intr, pose)
        for look_i in range(5):
            seed = derive_seed(7, 41, look_i)
            assert (noisy_detections(visible, noise, seed)
                    == detect_boxes(cabinet, self.intr, pose, noise, seed=seed))


class TestSceneGen:
    def test_grasp_spec_layout(self):
        synth = generate_scene(default_grasp_spec(), seed=0)
        assert [o.label for o in synth.objects] == ["crate", "bottle", "stick"]
        assert [o.tier for o in synth.objects] == ["easy", "medium", "hard"]
        scene = synth.scene
        assert len(scene.instances) == 3
        all_idx = np.concatenate([m.point_indices for m in scene.instances])
        assert len(np.unique(all_idx)) == len(all_idx)
        assert all_idx.max() < len(scene.points)

    def test_embeddings_are_unit_one_hot(self):
        synth = generate_scene(default_grasp_spec(), seed=0)
        for mask in synth.scene.instances:
            emb = mask.embedding
            assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-12)
            assert np.sum(emb != 0) == 1
        codes = {label: tuple(code) for label, code in synth.label_codes.items()}
        assert len(set(codes.values())) == len(codes)

    def test_truth_grasp_counts_by_tier(self):
        synth = generate_scene(default_grasp_spec(), seed=1)
        for obj in synth.objects:
            assert len(obj.truth_grasps) == TIER_GRASP_COUNTS[obj.tier]

    def test_truth_grasps_sit_on_object_top(self):
        synth = generate_scene(default_grasp_spec(), seed=1)
        for obj in synth.objects:
            lo, hi = obj.primitive.aabb()
            for g in obj.truth_grasps:
                assert g.center[2] == pytest.approx(hi[2] - 0.01, abs=1e-12)
                assert np.all(g.center[:2] >= lo[:2] - 1e-9)
                assert np.all(g.center[:2] <= hi[:2] + 1e-9)
                assert np.linalg.norm(g.approach) == pytest.approx(1.0)
                assert g.width > 0

    def test_placement_respects_margin(self):
        for seed in range(5):
            synth = generate_scene(default_grasp_spec(), seed=seed)
            prims = [o.primitive for o in synth.objects]
            for i in range(len(prims)):
                for j in range(i + 1, len(prims)):
                    assert not aabbs_overlap(prims[i].aabb(), prims[j].aabb(),
                                             0.249)

    def test_corridor_in_front_of_cabinet_stays_clear(self):
        spec = default_search_spec()
        cab = spec.cabinet
        reach = cab.depth / 2.0 + cab.clear_front
        corridor = (np.array([cab.center[0] - reach, -cab.width / 2.0, 0.0]),
                    np.array([cab.center[0] - cab.depth / 2.0,
                              cab.width / 2.0, cab.height]))
        for seed in range(10):
            synth = generate_scene(spec, seed=seed)
            for obj in synth.objects:
                assert not aabbs_overlap(obj.primitive.aabb(), corridor, 0.0)

    def test_cabinet_is_single_instance_with_grip_points(self):
        synth = generate_scene(default_search_spec(), seed=3)
        cab = synth.cabinet
        spec = default_search_spec().cabinet
        assert synth.scene.instance(cab.instance_id).label == "cabinet"
        grip_x = spec.center[0] - (spec.depth / 2.0 + spec.front_proud
                                   + spec.handle_proud)
        drawer_h = spec.height / spec.n_drawers
        for i in range(spec.n_drawers):
            assert_allclose(cab.handle_centers[i],
                            [grip_x, spec.center[1], (i + 0.5) * drawer_h],
                            atol=1e-12)
        assert 0 <= cab.item_drawer_index < spec.n_drawers
        assert_array_equal(cab.axis, [-1.0, 0.0, 0.0])

    def test_same_seed_reproduces_cloud(self):
        a = generate_scene(default_search_spec(), seed=11)
        b = generate_scene(default_search_spec(), seed=11)
        assert_array_equal(a.scene.points, b.scene.points)
        assert a.cabinet.item_drawer_index == b.cabinet.item_drawer_index

    def test_impossible_placement_raises(self):
        big = ObjectSpec(label="slab", shape="box", size=(0.7, 0.7, 0.2),
                         tier="easy")
        spec = SceneSpec(floor_extent=1.0,
                         objects=(big, ObjectSpec(label="slab2", shape="box",
                                                  size=(0.7, 0.7, 0.2),
                                                  tier="easy")))
        with pytest.raises(GenerationError):
            generate_scene(spec, seed=0)

    def test_spec_json_round_trip(self, tmp_path):
        spec = default_search_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = load_scene_spec(path)
        assert loaded.to_dict() == spec.to_dict()

    def test_spec_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ObjectSpec.from_dict({"label": "x", "shape": "box",
                                  "size": [1, 1, 1], "tier": "easy",
                                  "wobble": 2})
        with pytest.raises(ConfigError):
            CabinetSpec.from_dict({"spring": 1})
        with pytest.raises(ConfigError):
            SceneSpec.from_dict({"objects": [], "gravity": 9.8})

    def test_object_spec_validation(self):
        with pytest.raises(ConfigError):
            ObjectSpec(label="x", shape="sphere", size=(1.0,), tier="easy")
        with pytest.raises(ConfigError):
            ObjectSpec(label="x", shape="box", size=(1.0, 1.0), tier="easy")
        with pytest.raises(ConfigError):
            ObjectSpec(label="x", shape="box", size=(1, 1, 1), tier="epic")


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1, 0) == derive_seed(42, 1, 0)

    def test_distinct_paths_differ(self):
        seeds = {derive_seed(42), derive_seed(42, 0), derive_seed(42, 1),
                 derive_seed(42, 0, 0), derive_seed(42, 0, 1),
                 derive_seed(43)}
        assert len(seeds) == 6

    def test_fits_unsigned_32_bit(self):
        for args in [(0,), (123, 4, 5), (2**31, 7)]:
            s = derive_seed(*args)
            assert 0 <= s < 2**32


class TestSimConfig:
    def test_round_trip(self):
        cfg = SimConfig(image_width=80, image_height=60, n_views=2,
                        view_candidates=5)
        assert SimConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"fps": 30})

    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(focal=0.0)
        with pytest.raises(ConfigError):
            SimConfig(n_views=5, view_candidates=4)
        with pytest.raises(ConfigError):
            SimConfig(close_looks=0)

    def test_intrinsics_center(self):
        intr = SimConfig().intrinsics
        assert intr.cx == pytest.approx((intr.width - 1) / 2)
        assert intr.cy == pytest.approx((intr.height - 1) / 2)


class TestGraspEpisode:
    def test_noiseless_succeeds_on_every_tier(self):
        synth = generate_scene(default_grasp_spec(), seed=4)
        noiseless = NoiseModel.noiseless()
        for obj in synth.objects:
            rep = run_grasp_episode(synth, obj, seed=9,
                                    config=RunConfig(noise=noiseless))
            assert rep.success, (obj.tier, rep.details)
            assert [s.status for s in rep.stages] == ["pass"] * 4
            assert rep.details["grasp_error"] == pytest.approx(0.0, abs=1e-9)
            assert rep.tier == obj.tier
            assert rep.query == obj.label

    def test_duplicate_label_fails_localization(self):
        # both crates carry the crate code, so the other one may rank first
        # with similarity 1.0: the threshold passes, the truth check fails
        crate = ObjectSpec(label="crate", shape="box", size=(0.3, 0.2, 0.25),
                           tier="easy")
        for scene_seed, seed, config in (
                (0, 0, RunConfig(noise=NoiseModel.noiseless())),
                (4, 9, RunConfig())):
            synth = generate_scene(SceneSpec(objects=(crate, crate)),
                                   seed=scene_seed)
            rep = run_grasp_episode(synth, synth.objects[1], seed=seed,
                                    config=config)
            assert not rep.success
            assert [(s.name, s.status, s.reason) for s in rep.stages] == [
                ("localization", "fail", "wrong-instance"),
                *[(name, "not-reached", None) for name in STAGES[1:]]]
            assert rep.details == {"similarity": 1.0}

    def test_full_dropout_fails_detection(self):
        synth = generate_scene(default_grasp_spec(), seed=4)
        noise = NoiseModel(depth_sigma=0.0, detection_dropout=1.0)
        rep = run_grasp_episode(synth, synth.objects[0], seed=9,
                                config=RunConfig(noise=noise))
        assert not rep.success
        assert rep.failure_stage() == "detection"
        assert rep.stages[1].reason == "no-proposals"

    def test_report_json_excludes_timings(self):
        synth = generate_scene(default_grasp_spec(), seed=4)
        rep = run_grasp_episode(synth, synth.objects[0], seed=9,
                                config=RunConfig(noise=NoiseModel.noiseless()))
        payload = json.loads(to_json(rep))
        assert "timings_ms" not in payload
        assert payload["task"] == "grasp"
        assert [s["name"] for s in payload["stages"]] == list(STAGES)


class TestApproachRotation:
    @staticmethod
    def cross_reference(approach):
        """The rotation built with np.cross."""
        x = np.asarray(approach, dtype=np.float64)
        x = x / np.linalg.norm(x)
        y = np.cross(np.array([0.0, 0.0, 1.0]), x)
        y = y / np.linalg.norm(y)
        return np.column_stack([x, y, np.cross(x, y)])

    def test_bit_equal_to_np_cross(self):
        rng = np.random.default_rng(31)
        approaches = rng.normal(size=(3000, 3))
        approaches[::3, 2] = 0.0                      # horizontal, as truth grasps are
        approaches[1::6, 0] = 0.0
        approaches[2::6, 1] = 0.0
        approaches[3::12, 0] *= -0.0                  # zeros of either sign
        approaches[9::12, 1] *= -0.0
        stock = [[0.0, -1.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                 [-0.0, 1.0, 0.0], [1.0, -0.0, 0.0], [-0.0, -1.0, -0.0],
                 [-math.cos(2.0), -math.sin(2.0), 0.0]]
        for approach in [*approaches, *np.array(stock)]:
            got, want = _approach_rotation(approach), self.cross_reference(approach)
            assert got.shape == want.shape == (3, 3)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSearchEpisode:
    def test_noiseless_succeeds(self):
        synth = generate_scene(default_search_spec(), seed=3)
        rep = run_search_episode(synth, seed=7,
                                 config=RunConfig(noise=NoiseModel.noiseless()))
        assert rep.success, rep.details
        assert [s.status for s in rep.stages] == ["pass"] * 4
        assert rep.details["axis_error_deg"] == pytest.approx(0.0, abs=1e-6)
        assert rep.details["handle_error"] < 0.01

    def test_full_detection_dropout_fails_detection(self):
        synth = generate_scene(default_search_spec(), seed=3)
        noise = NoiseModel(detection_dropout=1.0)
        rep = run_search_episode(synth, seed=7, config=RunConfig(noise=noise))
        assert not rep.success
        assert rep.failure_stage() == "detection"
        assert rep.stages[1].reason == "no-detections"

    def test_requires_cabinet(self):
        synth = generate_scene(default_grasp_spec(), seed=0)
        with pytest.raises(ValueError):
            run_search_episode(synth, seed=0)


# Each episode failure a config can reach, at reference noise: the stage
# that fails, its reason, and the pass / not-reached status around it.
@pytest.mark.parametrize("task, overrides, stage, reason", [
    ("grasp", {"grasp": {"on_object_tol": 1e-6}}, "detection",
     "no-grasp-on-object"),
    ("grasp", {"nav": {"footprint_radius": 100.0}}, "navigation",
     "no-valid-pose"),
    ("grasp", {"sim": {"grasp_success_tol": 1e-9}}, "manipulation",
     "grasp-off-target"),
    ("search", {"drawer": {"gate_radius": 1e-6}}, "detection",
     "target-drawer-not-found"),
    ("search", {"drawer": {"standoff": 50.0}}, "navigation",
     "body-out-of-scene"),
    ("search", {"drawer": {"standoff": 0.05}}, "navigation", "body-collides"),
    ("search", {"sim": {"handle_tol": 1e-9}}, "manipulation",
     "tolerance-exceeded"),
])
def test_episode_failure_stage_and_reason(task, overrides, stage, reason):
    config = RunConfig.from_dict(overrides)
    if task == "grasp":
        synth = generate_scene(default_grasp_spec(), seed=4)
        rep = run_grasp_episode(synth, synth.objects[0], seed=9,
                                config=config)
    else:
        synth = generate_scene(default_search_spec(), seed=3)
        rep = run_search_episode(synth, seed=7, config=config)
    assert not rep.success
    assert rep.failure_stage() == stage
    failed = STAGES.index(stage)
    expected = ([(name, "pass", None) for name in STAGES[:failed]]
                + [(stage, "fail", reason)]
                + [(name, "not-reached", None) for name in STAGES[failed + 1:]])
    assert [(s.name, s.status, s.reason) for s in rep.stages] == expected


class TestBatchesAndSummary:
    def test_search_batch_deterministic_bytes(self):
        r1, r2 = list(run_batch("search", 4, 5)), list(run_batch("search", 4, 5))
        assert [to_json(r) for r in r1] == [to_json(r) for r in r2]
        assert summarize(r1) == summarize(r2)

    def test_report_line_rejects_nan(self):
        rep = EpisodeReport(task="search", index=0, seed=1, query="cabinet",
                            tier=None, stages=[StageOutcome("localization")],
                            success=False, details={"handle_error": math.nan})
        with pytest.raises(ValueError):
            to_json(rep)

    def test_grasp_batch_cycles_targets(self):
        reports = list(run_batch(
            "grasp", 6, 5, config=RunConfig(noise=NoiseModel.noiseless())))
        summary = summarize(reports)
        assert [r.query for r in reports] == ["crate", "bottle", "stick"] * 2
        assert summary["episodes"] == 6
        assert summary["successes"] == 6
        assert set(summary["per_tier"]) == {"easy", "medium", "hard"}

    def test_summary_conserves_episodes(self):
        noise = NoiseModel(depth_sigma=0.02, detection_dropout=0.3)
        summary = summarize(run_batch("grasp", 12, 1,
                                      config=RunConfig(noise=noise)))
        total = summary["successes"] + sum(summary["stage_failures"].values())
        assert total == summary["episodes"] == 12
        assert summary["conserved"]
        assert set(summary["stage_failures"]) == set(STAGES)

    def test_summary_ci_width(self):
        class Stub:
            def __init__(self, success):
                self.success = success
                self.tier = None

            def failure_stage(self):
                return None if self.success else "manipulation"

        reports = [Stub(i < 80) for i in range(100)]
        summary = summarize(reports)
        assert summary["success_rate"] == pytest.approx(0.8)
        half = 1.96 * math.sqrt(0.8 * 0.2 / 100)
        assert summary["ci95"][0] == pytest.approx(0.8 - half)
        assert summary["ci95"][1] == pytest.approx(0.8 + half)

    def test_summary_of_no_episodes(self):
        assert summarize([])["episodes"] == 0

    def test_search_batch_requires_cabinet(self):
        with pytest.raises(ValueError):
            run_batch("search", 1, 0, spec=default_grasp_spec())

    def test_grasp_batch_requires_objects(self):
        with pytest.raises(ValueError):
            run_batch("grasp", 1, 0, spec=SceneSpec())

    def test_batch_streams_one_episode_per_report(self, monkeypatch):
        calls = []
        real = episodes.run_grasp_episode

        def counted(*args, **kwargs):
            calls.append(kwargs["index"])
            return real(*args, **kwargs)
        monkeypatch.setattr(episodes, "run_grasp_episode", counted)
        batch = run_batch("grasp", 3, 5)
        assert calls == []
        assert next(batch).index == 0
        assert calls == [0]
