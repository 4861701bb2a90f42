"""End-to-end tests for the command-line interface and its exit codes."""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graspnav import cli
from graspnav.cli import (EXIT_GRASP_FILTER, EXIT_LOCALIZATION,
                          EXIT_NAVIGATION, EXIT_NO_EMBEDDINGS, EXIT_OK,
                          EXIT_PARSE, main)
from graspnav.drawer import Detection2D, DetectionFrame, write_detection_frame
from graspnav.errors import GenerationError
from graspnav.geometry import BBox2D, CameraIntrinsics, look_at
from graspnav.scene import save_scene, write_instances
from graspnav.sim import (SimConfig, default_grasp_spec, default_search_spec,
                          detect_boxes, generate_scene, render_depth)
from graspnav.sim import episodes
from graspnav.sim.episodes import _approach_rotation


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Scene, query, and grasp-batch fixtures shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    synth = generate_scene(default_grasp_spec(), seed=5)
    save_scene(synth.scene, root / "scene.ply", root / "instances.json")

    crate = synth.objects[0]
    (root / "query_crate.json").write_text(json.dumps(
        {"embedding": list(synth.label_codes["crate"])}))

    cands = []
    for g in crate.truth_grasps:
        rot = _approach_rotation(g.approach)
        cands.append({"translation": [float(x) for x in g.center],
                      "rotation": [float(x) for x in rot.reshape(-1)],
                      "width": float(g.width), "score": 0.9})
    identity = [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0]
    (root / "batch.json").write_text(json.dumps(
        {"rotation": identity, "candidates": cands}))
    (root / "batch_empty.json").write_text(json.dumps(
        {"rotation": identity, "candidates": []}))

    # same masks with the embeddings stripped
    stripped = [dataclasses.replace(m, embedding=None)
                for m in synth.scene.instances]
    write_instances(root / "instances_noembed.json", stripped,
                    synth.scene.embedding_dim)

    # one clean detection frame of the cabinet, plus an empty one
    ss = generate_scene(default_search_spec(), seed=5)
    sim = SimConfig()
    look = ss.cabinet.handle_centers.mean(axis=0)
    eye = look + ss.cabinet.axis * 1.5
    eye[2] = 0.6
    pose = look_at(eye, look)
    depth = render_depth(ss.primitives, sim.intrinsics, pose)
    dets = detect_boxes(ss.cabinet, sim.intrinsics, pose)
    write_detection_frame(root / "frame.json", DetectionFrame(
        intrinsics=sim.intrinsics, cam_pose=pose, depth=depth,
        detections=dets))
    write_detection_frame(root / "frame_empty.json", DetectionFrame(
        intrinsics=sim.intrinsics, cam_pose=pose, depth=depth, detections=[]))
    return root


class TestQuery:
    def test_ranks_instances(self, workdir, capsys):
        rc = main(["query", "--scene", str(workdir / "scene.ply"),
                   "--instances", str(workdir / "instances.json"),
                   "--query", str(workdir / "query_crate.json")])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "query"
        assert doc["results"][0]["label"] == "crate"
        assert doc["results"][0]["similarity"] == pytest.approx(1.0)
        assert "nav" in doc["config"] and "optimizer" in doc["config"]

    def test_no_embeddings_exits_2(self, workdir, capsys):
        rc = main(["query", "--scene", str(workdir / "scene.ply"),
                   "--instances", str(workdir / "instances_noembed.json"),
                   "--query", str(workdir / "query_crate.json")])
        assert rc == EXIT_NO_EMBEDDINGS

    def test_bad_ply_exits_1(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.ply"
        bad.write_text("not a point cloud\n")
        rc = main(["query", "--scene", str(bad),
                   "--instances", str(workdir / "instances.json"),
                   "--query", str(workdir / "query_crate.json")])
        assert rc == EXIT_PARSE

    def test_missing_required_flag_exits_1(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--scene", str(workdir / "scene.ply")])
        assert exc.value.code == EXIT_PARSE

    def test_writes_report_file(self, workdir, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["query", "--scene", str(workdir / "scene.ply"),
                   "--instances", str(workdir / "instances.json"),
                   "--query", str(workdir / "query_crate.json"),
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["results"]


class TestPlanGrasp:
    def _run(self, workdir, out, batch="batch.json", config=None,
             instances="instances.json"):
        argv = ["plan-grasp", "--scene", str(workdir / "scene.ply"),
                "--instances", str(workdir / instances),
                "--query", str(workdir / "query_crate.json"),
                "--grasps", str(workdir / batch), "--out", str(out)]
        if config:
            argv += ["--config", str(config)]
        return main(argv)

    def test_produces_selection(self, workdir, tmp_path):
        out = tmp_path / "plan.json"
        assert self._run(workdir, out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["localization"]["label"] == "crate"
        assert doc["grasps"] and doc["bodies"]
        sel = doc["selection"]
        assert sel["grasp_index"] < len(doc["grasps"])
        assert sel["s"] == pytest.approx(
            sel["s_grasp"] + 0.01 * sel["s_body"] + 0.02 * sel["s_align"])

    def test_repeat_runs_byte_identical(self, workdir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert self._run(workdir, a) == EXIT_OK
        assert self._run(workdir, b) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_no_embeddings_exits_2(self, workdir, tmp_path):
        rc = self._run(workdir, tmp_path / "x.json",
                       instances="instances_noembed.json")
        assert rc == EXIT_NO_EMBEDDINGS

    def test_similarity_threshold_exits_3(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grasp": {"min_similarity": 0.999}}))
        quer = tmp_path / "query_mix.json"
        v = np.array([0.8, 0.6, 0.0])
        quer.write_text(json.dumps({"embedding": list(v / np.linalg.norm(v))}))
        rc = main(["plan-grasp", "--scene", str(workdir / "scene.ply"),
                   "--instances", str(workdir / "instances.json"),
                   "--query", str(quer),
                   "--grasps", str(workdir / "batch.json"),
                   "--config", str(cfg), "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_LOCALIZATION
        assert capsys.readouterr().err == (
            "graspnav: best similarity 0.800 is below the min_similarity"
            " threshold 0.999\n")
        assert not (tmp_path / "x.json").exists()

    def test_empty_batch_exits_4(self, workdir, tmp_path):
        rc = self._run(workdir, tmp_path / "x.json", batch="batch_empty.json")
        assert rc == EXIT_GRASP_FILTER

    def test_cramped_scene_exits_5(self, tmp_path, capsys):
        from graspnav.sim import ObjectSpec, SceneSpec
        spec = SceneSpec(floor_extent=1.2, objects=(
            ObjectSpec(label="crate", shape="box", size=(0.3, 0.2, 0.25),
                       tier="easy"),))
        synth = generate_scene(spec, seed=0)
        save_scene(synth.scene, tmp_path / "s.ply", tmp_path / "inst.json")
        (tmp_path / "q.json").write_text(json.dumps(
            {"embedding": list(synth.label_codes["crate"])}))
        crate = synth.objects[0]
        cands = [{"translation": [float(x) for x in g.center],
                  "rotation": [float(x)
                               for x in _approach_rotation(g.approach).reshape(-1)],
                  "width": float(g.width), "score": 0.9}
                 for g in crate.truth_grasps]
        (tmp_path / "b.json").write_text(json.dumps(
            {"rotation": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0],
             "candidates": cands}))
        rc = main(["plan-grasp", "--scene", str(tmp_path / "s.ply"),
                   "--instances", str(tmp_path / "inst.json"),
                   "--query", str(tmp_path / "q.json"),
                   "--grasps", str(tmp_path / "b.json"),
                   "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_NAVIGATION

    def test_nan_query_exits_1_without_report(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "query_crate.json").read_text())
        doc["embedding"][1] = float("nan")
        (tmp_path / "query_nan.json").write_text(json.dumps(doc))
        out = tmp_path / "x.json"
        rc = main(["plan-grasp", "--scene", str(workdir / "scene.ply"),
                   "--instances", str(workdir / "instances.json"),
                   "--query", str(tmp_path / "query_nan.json"),
                   "--grasps", str(workdir / "batch.json"), "--out", str(out)])
        assert rc == EXIT_PARSE
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["temperature", "lambda_body", "lambda_align"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_optimizer_weight_exits_1(self, workdir, tmp_path, capsys,
                                                 key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"optimizer": {{"{key}": {value}}}}}')
        out = tmp_path / "x.json"
        assert self._run(workdir, out, config=cfg) == EXIT_PARSE
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_config_key_exits_1(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"warp": 9}))
        rc = self._run(workdir, tmp_path / "x.json", config=cfg)
        assert rc == EXIT_PARSE

    def test_config_echoed_with_overrides(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nav": {"radii": [0.8, 1.0]}}))
        out = tmp_path / "plan.json"
        assert self._run(workdir, out, config=cfg) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["config"]["nav"]["radii"] == [0.8, 1.0]
        assert doc["config"]["grasp"]["top_k"] == 10  # default filled in


class TestMatchDrawers:
    def test_fuses_targets(self, workdir, capsys):
        rc = main(["match-drawers", "--frames", str(workdir / "frame.json")])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["targets"]) == 3
        for t in doc["targets"]:
            assert t["axis"][0] == pytest.approx(-1.0, abs=1e-6)
        assert doc["frames"][0]["matched"] == 3

    def test_zero_detections_is_success_with_empty_list(self, workdir, capsys):
        rc = main(["match-drawers",
                   "--frames", str(workdir / "frame_empty.json")])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["targets"] == []

    def test_truncated_depth_exits_1(self, workdir, tmp_path, capsys):
        frame_doc = json.loads((workdir / "frame.json").read_text())
        depth_name = frame_doc["depth_file"]
        blob = (workdir / depth_name).read_bytes()
        (tmp_path / depth_name).write_bytes(blob[: len(blob) // 2])
        (tmp_path / "frame.json").write_text(json.dumps(frame_doc))
        rc = main(["match-drawers", "--frames", str(tmp_path / "frame.json")])
        assert rc == EXIT_PARSE

    def test_negative_seed_exits_1(self, workdir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["match-drawers", "--frames", str(workdir / "frame.json"),
                  "--seed", "-5", "--out", str(tmp_path / "r.json")])
        assert exc.value.code == EXIT_PARSE
        assert "--seed: must be at least 0, got -5" in capsys.readouterr().err

    def test_strings_and_booleans_in_detections_exit_1(self, workdir, tmp_path,
                                                       capsys):
        frame_doc = json.loads((workdir / "frame.json").read_text())
        frame_doc["detections"][0]["confidence"] = True
        frame_doc["detections"][0]["bbox"] = ["1", "1", "3", "3"]
        depth_name = frame_doc["depth_file"]
        (tmp_path / depth_name).write_bytes((workdir / depth_name).read_bytes())
        (tmp_path / "frame.json").write_text(json.dumps(frame_doc))
        out = tmp_path / "r.json"
        rc = main(["match-drawers", "--frames", str(tmp_path / "frame.json"),
                   "--out", str(out)])
        assert rc == EXIT_PARSE
        assert "detections[0].bbox[0]: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_repeat_runs_byte_identical(self, workdir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            rc = main(["match-drawers", "--frames",
                       str(workdir / "frame.json"), "--seed", "7",
                       "--out", str(out)])
            assert rc == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_writes_episodes_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["simulate", "--task", "search", "--episodes", "2",
                   "--seed", "3", "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "episodes.ndjson").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["task"] == "search"
        assert [s["name"] for s in first["stages"]] == [
            "localization", "detection", "navigation", "manipulation"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["episodes"] == 2
        assert summary["seed"] == 3
        assert summary["config"]["noise"]["depth_sigma"] == 0.005
        assert summary["spec"]["cabinet"] is not None

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(["simulate", "--task", "grasp", "--episodes", "3",
                       "--seed", "11", "--out", str(out)])
            assert rc == EXIT_OK
            outs.append(((out / "episodes.ndjson").read_bytes(),
                         (out / "summary.json").read_bytes()))
        assert outs[0] == outs[1]

    def test_custom_spec_file(self, tmp_path, capsys):
        spec = default_grasp_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        rc = main(["simulate", "--task", "grasp", "--episodes", "1",
                   "--seed", "0", "--spec", str(path),
                   "--out", str(tmp_path / "run")])
        assert rc == EXIT_OK

    def test_invalid_spec_names_field(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"floor_extent": 4.0, "tilt": 3}))
        rc = main(["simulate", "--task", "grasp", "--episodes", "1",
                   "--seed", "0", "--spec", str(path),
                   "--out", str(tmp_path / "run")])
        assert rc == EXIT_PARSE
        assert "tilt" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["-3", "0", "two"])
    def test_episode_count_below_one_exits_1(self, tmp_path, capsys, count):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--task", "grasp", "--episodes", count,
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == EXIT_PARSE
        assert "--episodes" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("task", ["grasp", "search"])
    def test_negative_seed_exits_1_naming_flag_and_value(self, tmp_path, capsys,
                                                         task):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--task", task, "--episodes", "1", "--seed", "-1",
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == EXIT_PARSE
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_help_says_seed_is_non_negative(self, capsys):
        for sub in ("simulate", "match-drawers"):
            with pytest.raises(SystemExit):
                main([sub, "--help"])
            assert "integer >= 0" in capsys.readouterr().out

    def test_nan_summary_exits_1_without_summary(self, tmp_path, capsys,
                                                 monkeypatch):
        def nan_summary(reports):
            n = sum(1 for _ in reports)
            return {"episodes": n, "successes": 0, "success_rate": math.nan}
        monkeypatch.setattr(cli, "summarize", nan_summary)
        out = tmp_path / "run"
        rc = main(["simulate", "--task", "grasp", "--episodes", "1",
                   "--out", str(out)])
        assert rc == EXIT_PARSE
        assert not (out / "summary.json").exists()
        # the episode lines are not renamed into place either
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 1.42 PiB for an array"),
         "graspnav: out of memory: Unable to allocate 1.42 PiB for an array\n"),
        (MemoryError(), "graspnav: out of memory\n")])
    def test_out_of_memory_exits_1_with_one_line(self, tmp_path, capsys,
                                                 monkeypatch, exc, line):
        def exhausted(*args, **kwargs):
            raise exc
        monkeypatch.setattr(episodes, "run_grasp_episode", exhausted)
        rc = main(["simulate", "--task", "grasp", "--episodes", "1",
                   "--out", str(tmp_path / "run")])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err == line

    def test_failed_batch_leaves_nothing_behind(self, tmp_path, capsys,
                                                monkeypatch):
        real = episodes.run_grasp_episode

        def fails_at_2(*args, **kwargs):
            if kwargs["index"] == 2:
                raise GenerationError("could not place object 'b'")
            return real(*args, **kwargs)
        monkeypatch.setattr(episodes, "run_grasp_episode", fails_at_2)
        out = tmp_path / "deep" / "run"
        rc = main(["simulate", "--task", "grasp", "--episodes", "4",
                   "--out", str(out)])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err == "graspnav: could not place object 'b'\n"
        assert list(tmp_path.iterdir()) == []

    def test_batch_into_existing_directory_writes_only_its_files(
            self, tmp_path, capsys):
        rc = main(["simulate", "--task", "grasp", "--episodes", "2",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "episodes.ndjson", "summary.json"]
        assert len((tmp_path / "episodes.ndjson").read_text().splitlines()) == 2

    def test_unknown_task_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--task", "fly", "--episodes", "1",
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == EXIT_PARSE


_NAN = float("nan")
_IDENTITY = [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0]
_CANDIDATE = {"translation": [0.1, 0.2, 0.3], "rotation": _IDENTITY,
              "width": 0.04, "score": 0.9}


def _batch_with(**candidate):
    return {"rotation": _IDENTITY, "candidates": [{**_CANDIDATE, **candidate}]}


# a detection frame that is valid up to its (absent) depth file
_FRAME = {"intrinsics": {"fx": 10.0, "fy": 10.0, "cx": 3.5, "cy": 3.5,
                         "width": 8, "height": 8},
          "cam_pose": [1.0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0],
          "depth_file": "frame.depth.bin", "detections": []}


def _instances_with(**record):
    """An instances file whose one record takes the given values."""
    return {"embedding_dim": 2,
            "instances": [{"id": 1, "label": "mug", "confidence": 0.9,
                           "point_indices": [0, 1], "embedding": [1.0, 0.0],
                           **record}]}


# (input file, its JSON document or raw bytes, text the error message
# must contain)
BOUNDARY_PROBES = [
    ("config", {"nav": {"footprint_radius": "0.3"}}, "nav.footprint_radius"),
    ("config", {"nav": 5}, "nav: expected an object"),
    ("config", {"sim": {"image_width": 160.0}}, "sim.image_width"),
    ("config", {"drawer": {"ransac": {"iterations": 2.5}}},
     "drawer.ransac.iterations"),
    ("config", {"grasp": {"top_k": 2.5}}, "grasp.top_k"),
    ("config", {"grasp": {"sweep_count": True}}, "grasp.sweep_count"),
    ("config", {"drawer": {"kappa": _NAN}}, "drawer.kappa"),
    ("config", {"sim": {"handle_tol": _NAN}}, "sim.handle_tol"),
    ("config", {"nav": {"footprint_radius": _NAN}}, "nav.footprint_radius"),
    ("config", {"grasp": {"on_object_tol": _NAN}}, "grasp.on_object_tol"),
    ("config", [], "must hold a JSON object"),
    ("spec", [{"floor_extent": 4.0}], "must hold a JSON object"),
    ("spec", {"objects": [{"label": "x", "shape": "box",
                           "size": [0.2, 0.2, 0.2]}]}, "objects[0].tier"),
    ("spec", {"cabinet": {"center": [1.0, 0.0, 0.0]}}, "cabinet.center"),
    ("grasps", {"rotation": _IDENTITY, "candidates": 5}, "candidates"),
    ("grasps", {"rotation": [_NAN] + _IDENTITY[1:], "candidates": []},
     "rotation"),
    ("grasps", _batch_with(rotation=[_NAN] + _IDENTITY[1:]),
     "candidates[0].rotation"),
    ("grasps", _batch_with(translation=[0.1, _NAN, 0.3]),
     "candidates[0].translation"),
    ("grasps", _batch_with(width=_NAN), "candidates[0].width"),
    ("grasps", _batch_with(score=float("inf")), "candidates[0].score"),
    ("instances", {"embedding_dim": 4, "instances": 5}, "instances: expected a list"),
    ("instances", {"embedding_dim": 2.7, "instances": []}, "embedding_dim"),
    ("instances", {"embedding_dim": _NAN, "instances": []}, "embedding_dim"),
    ("instances", {"embedding_dim": [1], "instances": []}, "embedding_dim"),
    ("frames", 5, "must hold a JSON object"),
    ("frames", {**_FRAME, "detections": 5}, "detections: expected a list"),
    ("frames", {**_FRAME, "depth_file": 5}, "depth_file: expected a string"),
    ("query", [{"a": 1}, 2], "embedding[0]: expected a finite number"),
    ("query", [False, True, False], "embedding[0]: expected a finite number"),
    ("query", ["0", "1", "0"], "embedding[0]: expected a finite number"),
    ("query", [[0.0, 1.0, 0.0]], "embedding[0]: expected a finite number"),
    ("query", {"embedding": [[0.0], [1.0], [0.0]]}, "embedding[0]: expected a finite number"),
    ("query", [10 ** 400, 0, 0], "embedding[0]: expected a finite number"),
    ("query", {"embedding": []}, "embedding: expected at least one value"),
    # test ids carry the row index, so new rows go at the end
    ("grasps", _batch_with(width="0.04"), "candidates[0].width"),
    ("grasps", _batch_with(score=True), "candidates[0].score"),
    ("grasps", _batch_with(translation=["0.1", "0.2", "0.3"]),
     "candidates[0].translation[0]"),
    ("instances", _instances_with(id=3.7), "id: expected an integer"),
    ("instances", _instances_with(id="3"), "id: expected an integer"),
    ("instances", _instances_with(label=5), "label: expected a string"),
    ("instances", _instances_with(confidence="0.9"),
     "confidence: expected a finite number"),
    ("instances", _instances_with(confidence=True),
     "confidence: expected a finite number"),
    ("instances", _instances_with(point_indices=[0.9, 1.5]),
     "point_indices[0]: expected an integer"),
    ("instances", _instances_with(point_indices=[True, 2]),
     "point_indices[0]: expected an integer"),
    ("instances", _instances_with(point_indices=[10 ** 30]), "point_indices"),
    ("instances", _instances_with(embedding=["1.0", "0"]),
     "embedding[0]: expected a finite number"),
    ("query", b"{embedding: [1.0]}", "query.json"),
    ("query", b"[\xff\xfe]", "query.json"),
    ("frames", b"{intrinsics", "frames.json"),
    ("frames", b"{\"cam_pose\": \"\xff\"}", "frames.json"),
    ("grasps", {"rotation": _IDENTITY, "candidates": [
        {k: v for k, v in _CANDIDATE.items() if k != "width"}]},
     "candidates[0].width: missing required key"),
    ("instances", {"embedding_dim": 2,
                   "instances": [{"label": "mug", "confidence": 0.9,
                                  "point_indices": [0, 1]}]},
     "instances[0].id: missing required key"),
    ("frames", {**_FRAME, "detections": [{"class": "handle",
                                          "confidence": 0.9}]},
     "detections[0].bbox: missing required key"),
    # every input file rejects unknown keys, and every rejection names its file
    ("instances", {**_instances_with(), "units": "m"}, "unknown keys ['units']"),
    ("grasps", _batch_with(colour="red"), "candidates[0]: unknown keys ['colour']"),
    ("frames", {**_FRAME, "camera": "rgb"}, "unknown keys ['camera']"),
    ("query", {"embedding": [0.0, 1.0, 0.0], "norm": 1.0},
     "unknown keys ['norm']"),
    ("config", {"nav": {"footprint_radius": "0.3"}},
     "config.json: nav.footprint_radius"),
    ("spec", {"objects": 5}, "spec.json: objects"),
]


class TestBoundaryProbes:
    """Malformed input files exit 1 naming the file and the offending key."""

    @pytest.mark.parametrize(
        "kind, doc, needle", BOUNDARY_PROBES,
        ids=[f"{kind}{i}" for i, (kind, _, _) in enumerate(BOUNDARY_PROBES)])
    def test_probe_exits_1_naming_the_key(self, workdir, tmp_path, capsys,
                                          kind, doc, needle):
        path = tmp_path / f"{kind}.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        if kind in ("config", "spec"):
            argv = ["simulate", "--task", "search", "--episodes", "1",
                    f"--{kind}", str(path), "--out", str(out)]
        elif kind == "frames":
            argv = ["match-drawers", "--frames", str(path), "--out", str(out)]
        else:
            inputs = {"instances": workdir / "instances.json",
                      "query": workdir / "query_crate.json",
                      "grasps": workdir / "batch.json", kind: path}
            argv = ["plan-grasp", "--scene", str(workdir / "scene.ply"),
                    "--instances", str(inputs["instances"]),
                    "--query", str(inputs["query"]),
                    "--grasps", str(inputs["grasps"]), "--out", str(out)]
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err
        assert str(path) in err
        assert not out.exists()


PYPROJECT =Path(__file__).resolve().parents[1] / "pyproject.toml"

# The console-script wrapper an installer (pip, via distlib) writes.
_CONSOLE_SCRIPT = """\
import re
import sys
from {module} import {import_name}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({func}())
"""


def _declared_console_script(name):
    """The ``module:attr`` target pyproject.toml declares for script ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def _assert_help_contract(cmd):
    proc = subprocess.run(cmd + ["--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: graspnav")
    for sub in ("query", "plan-grasp", "match-drawers", "simulate"):
        assert re.search(rf"^\s+{re.escape(sub)}\s", proc.stdout, re.M), sub


class TestJsonEmitters:
    def test_report_with_nan_is_not_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        for target in (str(out), None):
            with pytest.raises(ValueError):
                cli._emit({"similarity": math.nan}, target)
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_detection_frame_with_infinity_is_not_written(self, tmp_path):
        # CameraIntrinsics rejects a non-finite focal length itself, so the
        # infinity rides in a detection box
        intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.5, cy=0.5,
                                width=2, height=2)
        det = Detection2D(class_label="handle",
                          bbox=BBox2D(0.0, 0.0, math.inf, 1.0), confidence=0.5)
        frame = DetectionFrame(intrinsics=intr, cam_pose=look_at(
            np.zeros(3), np.array([0.0, 0.0, 1.0])), depth=np.ones((2, 2)),
            detections=[det])
        with pytest.raises(ValueError):
            write_detection_frame(tmp_path / "frame.json", frame)
        assert list(tmp_path.iterdir()) == []


class TestHelpContract:
    def test_help_enumerates_exit_codes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "graspnav.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "exit codes:" in proc.stdout
        for line in ("0  success", "2  query unsupported",
                     "3  localization failed", "4  grasp filtering",
                     "5  navigation"):
            assert line in proc.stdout

    def test_python_m_graspnav(self):
        _assert_help_contract([sys.executable, "-m", "graspnav"])

    def test_console_script_installed(self, tmp_path):
        """The declared ``graspnav`` entry point honours the help contract.

        The target comes from ``[project.scripts]`` in pyproject.toml and runs
        through a wrapper shaped like the one an installer writes, so the test
        needs no install; an installed ``graspnav`` on PATH is checked too.
        """
        target = _declared_console_script("graspnav")
        module, _, func = target.partition(":")
        wrapper = tmp_path / "graspnav"
        wrapper.write_text(_CONSOLE_SCRIPT.format(
            module=module, import_name=func.split(".")[0], func=func))
        _assert_help_contract([sys.executable, str(wrapper)])

        installed = shutil.which("graspnav")
        if installed is not None:
            _assert_help_contract([installed])
