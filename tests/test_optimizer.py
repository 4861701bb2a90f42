"""Joint grasp / body selection tests.

The reference oracle scores every (grasp, body) pair one at a time with
align_score and plain Python arithmetic, applying the documented tie rule.
select_best must reproduce it exactly, including float identity of the
returned score.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from graspnav.errors import (ConfigError, DegenerateGeometryError, NoGraspError,
                             NoPoseError)
from graspnav.geometry import Pose
from graspnav.grasp import GraspCandidate
from graspnav.nav import BodyCandidate
from graspnav.optimizer import (JointSelection, OptimizerWeights, align_score,
                                select_best)

from conftest import random_rotation

TANH_1 = math.tanh(1.0)


def rotation_with_approach(axis: np.ndarray) -> np.ndarray:
    """Orthonormal matrix whose first column is the given unit axis."""
    x = np.asarray(axis, dtype=np.float64)
    x = x / np.linalg.norm(x)
    aux = np.array([0.0, 0.0, 1.0]) if abs(x[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    y = np.cross(aux, x)
    y = y / np.linalg.norm(y)
    z = np.cross(x, y)
    return np.column_stack([x, y, z])


def make_grasp(approach, score, center=(0.0, 0.0, 0.0), width=0.08):
    pose = Pose(rotation_with_approach(np.asarray(approach, dtype=np.float64)),
                np.asarray(center, dtype=np.float64))
    return GraspCandidate(pose=pose, width=width, score=score)


def make_body(x, y, s_body, camera_height=0.8):
    return BodyCandidate(position=np.array([x, y]), yaw=0.0,
                         camera_height=camera_height,
                         valid=True, s_body=s_body)


def oracle_select(grasps, bodies, target, weights):
    """Exhaustive pairwise argmax with the documented tie rule."""
    best_key, best = None, None
    for gi, g in enumerate(grasps):
        for bi, b in enumerate(bodies):
            sa = align_score(b, g, target, weights.temperature)
            s = g.score + weights.lambda_body * b.s_body + weights.lambda_align * sa
            key = (s, g.score, -gi, -bi)
            if best_key is None or key > best_key:
                best_key, best = key, (gi, bi, s, sa)
    return best


def random_instance(rng, n_grasps, n_bodies):
    target = rng.uniform(-0.5, 0.5, size=3) + np.array([0.0, 0.0, 0.5])
    grasps = []
    for _ in range(n_grasps):
        pose = Pose(random_rotation(rng), target + rng.uniform(-0.05, 0.05, size=3))
        grasps.append(GraspCandidate(pose=pose, width=0.08,
                                     score=float(rng.uniform(0.0, 1.0))))
    bodies = []
    for _ in range(n_bodies):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(0.6, 1.4)
        bodies.append(make_body(target[0] + r * math.cos(angle),
                                target[1] + r * math.sin(angle),
                                s_body=float(rng.uniform(-0.5, 2.0))))
    return grasps, bodies, target


class TestOptimizerWeights:
    def test_defaults(self):
        w = OptimizerWeights()
        assert w.lambda_body == 0.01
        assert w.lambda_align == 0.02
        assert w.temperature == 1.0

    def test_temperature_must_be_positive(self):
        with pytest.raises(ConfigError):
            OptimizerWeights(temperature=0.0)
        with pytest.raises(ConfigError):
            OptimizerWeights(temperature=-1.0)

    def test_dict_round_trip(self):
        w = OptimizerWeights(lambda_body=0.1, lambda_align=0.3, temperature=2.0)
        assert OptimizerWeights.from_dict(w.to_dict()) == w

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="gain"):
            OptimizerWeights.from_dict({"gain": 1.0})


class TestAlignScore:
    def test_aligned_view(self):
        # camera at origin looking at +x, approach axis +x
        body = make_body(0.0, 0.0, s_body=0.0, camera_height=0.0)
        grasp = make_grasp(approach=(1.0, 0.0, 0.0), score=1.0)
        s = align_score(body, grasp, target=np.array([1.0, 0.0, 0.0]))
        assert s == pytest.approx(TANH_1, abs=1e-12)

    def test_orthogonal_view(self):
        body = make_body(0.0, 0.0, s_body=0.0, camera_height=0.0)
        grasp = make_grasp(approach=(0.0, 1.0, 0.0), score=1.0)
        s = align_score(body, grasp, target=np.array([1.0, 0.0, 0.0]))
        assert s == 0.0

    def test_opposed_view(self):
        body = make_body(0.0, 0.0, s_body=0.0, camera_height=0.0)
        grasp = make_grasp(approach=(-1.0, 0.0, 0.0), score=1.0)
        s = align_score(body, grasp, target=np.array([1.0, 0.0, 0.0]))
        assert s == pytest.approx(-TANH_1, abs=1e-12)

    def test_temperature_sharpens(self):
        body = make_body(0.0, 0.0, s_body=0.0, camera_height=0.0)
        grasp = make_grasp(approach=(1.0, 0.0, 0.0), score=1.0)
        target = np.array([1.0, 0.0, 0.0])
        assert align_score(body, grasp, target, temperature=10.0) == \
            pytest.approx(math.tanh(10.0), abs=1e-12)

    def test_bounded_by_tanh_temperature(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            grasps, bodies, target = random_instance(rng, 1, 1)
            s = align_score(bodies[0], grasps[0], target)
            assert abs(s) <= TANH_1 + 1e-15

    def test_target_at_camera_rejected(self):
        body = make_body(0.0, 0.0, s_body=0.0, camera_height=0.8)
        grasp = make_grasp(approach=(1.0, 0.0, 0.0), score=1.0)
        with pytest.raises(DegenerateGeometryError):
            align_score(body, grasp, target=np.array([0.0, 0.0, 0.8]))

    def test_unnormalized_inputs_are_normalized(self):
        # a distant target along +x scores the same as a near one
        body = make_body(0.0, 0.0, s_body=0.0, camera_height=0.0)
        grasp = make_grasp(approach=(1.0, 0.0, 0.0), score=1.0)
        near = align_score(body, grasp, np.array([1.0, 0.0, 0.0]))
        far = align_score(body, grasp, np.array([25.0, 0.0, 0.0]))
        assert near == pytest.approx(far, abs=1e-12)


class TestSelectBest:
    def test_single_pair_arithmetic(self):
        w = OptimizerWeights()
        body = make_body(1.0, 0.0, s_body=0.75)
        grasp = make_grasp(approach=(-1.0, 0.0, 0.2), score=0.9)
        target = np.array([0.0, 0.0, 0.5])
        sel = select_best([grasp], [body], target, w)
        sa = align_score(body, grasp, target)
        assert sel.grasp_index == 0 and sel.body_index == 0
        assert sel.s == 0.9 + 0.01 * 0.75 + 0.02 * sa
        assert sel.s_grasp == 0.9
        assert sel.s_body == 0.75
        assert sel.s_align == sa

    def test_empty_inputs(self):
        w = OptimizerWeights()
        body = make_body(1.0, 0.0, s_body=0.0)
        grasp = make_grasp(approach=(1.0, 0.0, 0.0), score=0.5)
        target = np.zeros(3)
        with pytest.raises(NoGraspError):
            select_best([], [body], target, w)
        with pytest.raises(NoPoseError):
            select_best([grasp], [], target, w)

    def test_unvalidated_body_rejected(self):
        w = OptimizerWeights()
        grasp = make_grasp(approach=(1.0, 0.0, 0.0), score=0.5)
        raw = BodyCandidate(position=np.zeros(2), yaw=0.0, camera_height=0.8)
        with pytest.raises(ValueError, match="s_body"):
            select_best([grasp], [raw], np.array([1.0, 0.0, 0.0]), w)

    def test_exact_tie_prefers_higher_grasp_score(self):
        # Tie pairs both have alignment exactly 0 (orthogonal view), so
        # 1.0 + 0.25*0 == 0.5 + 0.25*2.0 exactly; off-tie pairs are pushed
        # far down by a large alignment weight on anti-aligned views.
        w = OptimizerWeights(lambda_body=0.25, lambda_align=2.0)
        target = np.array([0.0, 0.0, 0.0])
        g_strong = make_grasp(approach=(0.0, 1.0, 0.0), score=1.0)
        g_weak = make_grasp(approach=(1.0, 0.0, 0.0), score=0.5)
        b_plain = make_body(1.0, 0.0, s_body=0.0, camera_height=0.0)
        b_rich = make_body(0.0, 1.0, s_body=2.0, camera_height=0.0)
        # lower indices go to the weak pair; the s_grasp rule must override
        sel = select_best([g_weak, g_strong], [b_rich, b_plain], target, w)
        assert (sel.grasp_index, sel.body_index) == (1, 1)
        assert sel.s == 1.0
        assert sel.s_grasp == 1.0

    def test_exact_tie_prefers_lower_indices(self):
        w = OptimizerWeights(lambda_body=0.25, lambda_align=0.0)
        g = make_grasp(approach=(1.0, 0.0, 0.0), score=0.5)
        b = make_body(1.0, 0.0, s_body=0.5)
        target = np.array([0.0, 0.0, 0.5])
        sel = select_best([g, g], [b, b, b], target, w)
        assert (sel.grasp_index, sel.body_index) == (0, 0)

    def test_matches_oracle_exactly(self):
        w = OptimizerWeights()
        rng = np.random.default_rng(11)
        for _ in range(25):
            grasps, bodies, target = random_instance(rng, 20, 50)
            sel = select_best(grasps, bodies, target, w)
            gi, bi, s, sa = oracle_select(grasps, bodies, target, w)
            assert (sel.grasp_index, sel.body_index) == (gi, bi)
            assert sel.s == s
            assert sel.s_align == sa

    def test_matches_oracle_with_odd_weights(self):
        w = OptimizerWeights(lambda_body=0.3, lambda_align=0.7, temperature=2.5)
        rng = np.random.default_rng(12)
        for _ in range(10):
            grasps, bodies, target = random_instance(rng, 15, 30)
            sel = select_best(grasps, bodies, target, w)
            gi, bi, s, _ = oracle_select(grasps, bodies, target, w)
            assert (sel.grasp_index, sel.body_index, sel.s) == (gi, bi, s)

    def test_permutation_invariant_selection(self):
        w = OptimizerWeights()
        rng = np.random.default_rng(13)
        grasps, bodies, target = random_instance(rng, 12, 40)
        sel = select_best(grasps, bodies, target, w)
        gp = rng.permutation(len(grasps))
        bp = rng.permutation(len(bodies))
        shuffled = select_best([grasps[i] for i in gp], [bodies[i] for i in bp],
                               target, w)
        assert gp[shuffled.grasp_index] == sel.grasp_index
        assert bp[shuffled.body_index] == sel.body_index
        assert shuffled.s == sel.s

    def test_zero_weights_reduce_to_best_grasp(self):
        w = OptimizerWeights(lambda_body=0.0, lambda_align=0.0)
        rng = np.random.default_rng(14)
        grasps, bodies, target = random_instance(rng, 30, 10)
        sel = select_best(grasps, bodies, target, w)
        scores = [g.score for g in grasps]
        assert sel.grasp_index == int(np.argmax(scores))
        assert sel.body_index == 0
        assert sel.s == max(scores)

    def test_ten_thousand_pairs_fast(self):
        w = OptimizerWeights()
        rng = np.random.default_rng(15)
        grasps, bodies, target = random_instance(rng, 50, 200)
        select_best(grasps, bodies, target, w)  # warm up
        t0 = time.perf_counter()
        select_best(grasps, bodies, target, w)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.05

    def test_selection_report_dict(self):
        sel = JointSelection(grasp_index=2, body_index=5, s=1.25, s_grasp=1.0,
                             s_body=20.0, s_align=0.25)
        d = dataclasses.asdict(sel)
        assert d["grasp_index"] == 2 and d["body_index"] == 5
        assert set(d) == {"grasp_index", "body_index", "s", "s_grasp",
                          "s_body", "s_align"}
