"""Grasp merging and filtering tests."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from graspnav.errors import DegenerateInputError, FileFormatError
from graspnav.geometry import Pose, rotation_about_z
from graspnav.grasp import (
    GraspCandidate,
    filter_grasps,
    load_grasp_batch,
    merge_rotation_sweeps,
    sweep_pose,
    sweep_rotations,
    top_k_by_score,
)

from conftest import random_pose, random_rotation


def _candidate(translation, score=0.5, width=0.04, rotation=None):
    rot = np.eye(3) if rotation is None else rotation
    return GraspCandidate(pose=Pose(rot, np.asarray(translation, dtype=float)),
                          width=width, score=score)


class TestSweepPose:
    def test_fixes_centroid(self):
        rng = np.random.default_rng(1)
        centroid = rng.normal(size=3)
        pose = sweep_pose(random_rotation(rng), centroid)
        np.testing.assert_allclose(pose.apply(centroid), centroid, atol=1e-12)

    def test_sweep_rotations_spacing(self):
        rots = sweep_rotations(4)
        assert len(rots) == 4
        np.testing.assert_allclose(rots[0], np.eye(3), atol=1e-15)
        np.testing.assert_allclose(rots[1], rotation_about_z(np.pi / 2), atol=1e-12)
        for count in (1, 4, 7):
            for i, rot in enumerate(sweep_rotations(count)):
                angle = 2.0 * math.pi * i / count
                ca, sa = math.cos(angle), math.sin(angle)
                expected = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
                np.testing.assert_array_equal(rot, expected)


class TestMergeRotationSweeps:
    def test_identity_batch_passthrough(self):
        cands = [_candidate([0.1, 0.2, 0.3], score=0.7)]
        out = merge_rotation_sweeps([(Pose.identity(), cands)])
        assert len(out) == 1
        np.testing.assert_allclose(out[0].center, [0.1, 0.2, 0.3], atol=1e-15)
        assert out[0].score == 0.7
        assert out[0].source_rotation == 0

    def test_derotation_about_centroid(self):
        # candidate seen at p in the rotated frame must land at R^-1 (about c)
        centroid = np.array([1.0, 2.0, 0.0])
        rot = rotation_about_z(np.pi / 2)
        pose = sweep_pose(rot, centroid)
        p_rotated = pose.apply(np.array([1.5, 2.0, 0.0]))  # world point rotated in
        out = merge_rotation_sweeps([(pose, [_candidate(p_rotated)])])
        np.testing.assert_allclose(out[0].center, [1.5, 2.0, 0.0], atol=1e-12)

    def test_count_bookkeeping_four_batches(self):
        rng = np.random.default_rng(5)
        centroid = rng.normal(size=3)
        batches = []
        for rot in sweep_rotations(4):
            cands = [_candidate(rng.normal(size=3), score=float(rng.uniform(0, 1)))
                     for _ in range(10)]
            batches.append((sweep_pose(rot, centroid), cands))
        merged = merge_rotation_sweeps(batches)
        assert len(merged) == 40
        for b in range(4):
            assert sum(c.source_rotation == b for c in merged) == 10

    def test_scores_widths_and_centroid_distance_preserved(self):
        rng = np.random.default_rng(6)
        centroid = rng.normal(size=3)
        rot = random_rotation(rng)
        pose = sweep_pose(rot, centroid)
        cands = [_candidate(rng.normal(size=3), score=float(rng.normal()),
                            width=float(rng.uniform(0, 0.1))) for _ in range(8)]
        merged = merge_rotation_sweeps([(pose, cands)])
        for before, after in zip(cands, merged):
            assert after.score == before.score
            assert after.width == before.width
            # rotation about the centroid preserves distance to it
            d_before = np.linalg.norm(before.center - centroid)
            d_after = np.linalg.norm(after.center - centroid)
            assert d_after == pytest.approx(d_before, abs=1e-9)


class TestFilterGrasps:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.object_points = rng.uniform(-0.05, 0.05, size=(200, 3))

    def test_zero_score_removed(self):
        cand = _candidate(self.object_points[0], score=0.0)
        assert filter_grasps([cand], self.object_points) == []

    def test_on_object_positive_score_kept(self):
        cand = _candidate(self.object_points[3], score=0.9)
        out = filter_grasps([cand], self.object_points)
        assert out == [cand]

    def test_far_candidate_removed(self):
        cand = _candidate([1.0, 1.0, 1.0], score=0.9)
        assert filter_grasps([cand], self.object_points) == []

    def test_matches_brute_force_predicates(self):
        rng = np.random.default_rng(12)
        cands = [_candidate(rng.normal(scale=0.08, size=3), score=float(rng.normal()))
                 for _ in range(200)]
        tol = 0.02
        got = filter_grasps(cands, self.object_points, on_object_tol=tol)
        want = []
        for cand in cands:
            dist = min(np.linalg.norm(p - cand.center) for p in self.object_points)
            if cand.score > 0.0 and dist <= tol:
                want.append(cand)
        assert got == want
        # survivors form a subsequence of the input
        it = iter(cands)
        assert all(any(c is s for c in it) for s in got)

    def test_empty_object_points_degenerate(self):
        with pytest.raises(DegenerateInputError):
            filter_grasps([_candidate([0, 0, 0])], np.empty((0, 3)))


class TestBatchFile:
    def test_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        rot = random_rotation(rng)
        doc = {
            "rotation": [float(x) for x in rot.ravel()],
            "candidates": [
                {
                    "translation": [0.1, 0.2, 0.3],
                    "rotation": [float(x) for x in random_rotation(rng).ravel()],
                    "width": 0.05,
                    "score": 0.8,
                }
            ],
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(doc))
        batch = load_grasp_batch(str(path))
        np.testing.assert_allclose(batch.rotation, rot, atol=1e-15)
        assert len(batch.candidates) == 1
        assert batch.candidates[0].width == 0.05

    def test_bad_candidate_rotation_names_record(self, tmp_path):
        doc = {
            "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
            "candidates": [
                {"translation": [0, 0, 0],
                 "rotation": [2, 0, 0, 0, 1, 0, 0, 0, 1],
                 "width": 0.05, "score": 0.8}
            ],
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=r"candidates\[0\]"):
            load_grasp_batch(str(path))

    def test_not_json(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text("{nope")
        with pytest.raises(FileFormatError):
            load_grasp_batch(str(path))


class TestTopK:
    def test_selects_by_score_keeping_order(self):
        cands = [_candidate([i, 0, 0], score=s)
                 for i, s in enumerate([0.3, 0.9, 0.1, 0.9, 0.5])]
        out = top_k_by_score(cands, 3)
        assert [c.score for c in out] == [0.9, 0.9, 0.5]
        assert [c.center[0] for c in out] == [1, 3, 4]

    def test_k_larger_than_input(self):
        cands = [_candidate([0, 0, 0], score=0.2)]
        assert top_k_by_score(cands, 10) == cands
