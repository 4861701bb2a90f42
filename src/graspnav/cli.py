"""Command-line frontend: file-in, JSON-report-out, stable exit codes.

Subcommands cover the pipeline end to end: `query` ranks instances
against an embedding, `plan-grasp` runs localization through joint
grasp/body selection, `match-drawers` fuses drawer targets from detection
frames, and `simulate` runs seeded episode batches.

Every report embeds the fully resolved configuration (defaults plus any
config-file overrides), is serialized with sorted keys, and contains no
timestamps, so identical inputs and seed reproduce identical bytes.

Randomness policy: one ``--seed`` flag per invocation. Subsystems never
share a stream; each draws from ``derive_seed(seed, *path)`` where the
path indexes the consumer (frame index, pair index, episode index), so
adding a consumer never shifts the draws of another.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .codec import JsonCodec, read_json, to_json
from .config import RunConfig, load_run_config
from .drawer import load_detection_frame
from .errors import FileFormatError, GraspNavError, LocalizationError
from .grasp import load_grasp_batch
# the EXIT_* codes stay importable from here for callers of main
from .pipeline import (EXIT_GRASP_FILTER, EXIT_LOCALIZATION, EXIT_NAVIGATION,
                       EXIT_NO_EMBEDDINGS, EXIT_OK, EXIT_PARSE, STAGE_ERRORS,
                       perceive_drawers, plan_grasp)
from .scene import load_scene
from .sim import batch_spec, derive_seed, run_batch, summarize
from .sim.scenegen import load_scene_spec

MAX_EPISODES = 100_000

_EXIT_CODES_HELP = """\
exit codes:
  0  success
  1  parse or validation failure (arguments, files, config), or out of memory
  2  query unsupported: no instance in the scene carries an embedding
  3  localization failed: query matched no usable instance
  4  grasp filtering left no usable candidate
  5  navigation found no valid body placement
"""


def _int_in(low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2."""

    def __init__(self, **kwargs):
        super().__init__(epilog=_EXIT_CODES_HELP,
                         formatter_class=argparse.RawDescriptionHelpFormatter,
                         **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


@dataclasses.dataclass(frozen=True)
class _QueryFile(JsonCodec):
    embedding: tuple[float, ...]


def _load_query_embedding(path: str) -> np.ndarray:
    """A query file holds a flat list of numbers, bare or as `embedding`."""
    values = read_json(path, _QueryFile, "query", list_key="embedding").embedding
    if not values:
        raise FileFormatError(f"{path}: embedding: expected at least one value")
    return np.array(values)


def _resolve_config(path: str | None) -> RunConfig:
    return load_run_config(path) if path else RunConfig()


def _emit(report: dict, out: str | None) -> None:
    text = to_json(report, indent=2)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _body_dict(index: int, body) -> dict:
    return {"index": index, "position": body.position, "yaw": body.yaw,
            "valid": body.valid, "reason": body.reason, "s_body": body.s_body,
            "d_obstacles": body.d_obstacles, "d_item": body.d_item}


def _grasp_dict(index: int, grasp) -> dict:
    return {"index": index,
            "pose": {"translation": grasp.pose.translation,
                     "rotation": grasp.pose.rotation.reshape(-1)},
            "width": grasp.width, "score": grasp.score,
            "source_rotation": grasp.source_rotation}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_query(args) -> int:
    config = _resolve_config(args.config)
    scene = load_scene(args.scene, args.instances)
    results = scene.query_instance(_load_query_embedding(args.query))
    report = {
        "command": "query",
        "config": config,
        "results": [{"instance_id": r.instance_id,
                     "label": scene.instance(r.instance_id).label,
                     "similarity": r.similarity, "centroid": r.centroid}
                    for r in results],
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_plan_grasp(args) -> int:
    config = _resolve_config(args.config)
    scene = load_scene(args.scene, args.instances)
    top = scene.query_instance(_load_query_embedding(args.query))[0]
    if top.similarity < config.grasp.min_similarity:
        raise LocalizationError(
            f"best similarity {top.similarity:.3f} is below the"
            f" min_similarity threshold {config.grasp.min_similarity}")
    plan = plan_grasp(scene, top.instance_id,
                      [load_grasp_batch(path) for path in args.grasps], config)
    selection = plan.selection
    report = {
        "command": "plan-grasp",
        "config": config,
        "localization": {"instance_id": top.instance_id,
                         "label": scene.instance(top.instance_id).label,
                         "similarity": top.similarity,
                         "centroid": top.centroid},
        "grasps": [_grasp_dict(i, g) for i, g in enumerate(plan.grasps)],
        "bodies": [_body_dict(i, b) for i, b in enumerate(plan.bodies)],
        "selection": {**dataclasses.asdict(selection),
                      "grasp": _grasp_dict(selection.grasp_index, plan.grasp),
                      "body": _body_dict(selection.body_index, plan.body)},
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_match_drawers(args) -> int:
    config = _resolve_config(args.config)
    fused, per_frame = perceive_drawers(
        (load_detection_frame(path) for path in args.frames), config.drawer,
        lambda frame_i, pair_i: derive_seed(args.seed, frame_i, pair_i))
    report = {
        "command": "match-drawers",
        "config": config,
        "seed": args.seed,
        "frames": [{"frame": str(path), **counts}
                   for path, counts in zip(args.frames, per_frame)],
        "targets": fused,
    }
    _emit(report, args.out)
    return EXIT_OK


def _written(reports, stream):
    """Pass reports through, writing each one's NDJSON line to `stream`."""
    for report in reports:
        stream.write(to_json(report))
        yield report


def cmd_simulate(args) -> int:
    config = _resolve_config(args.config)
    spec = batch_spec(args.task, load_scene_spec(args.spec) if args.spec else None)
    out_dir = Path(args.out)
    episodes_path, summary_path = out_dir / "episodes.ndjson", out_dir / "summary.json"
    # lines stream into a temporary file in the nearest existing directory
    # and are renamed into place once the batch and its summary succeed, so
    # a failed run leaves no file and no new directory
    home = next((p for p in (out_dir, *out_dir.parents) if p.is_dir()), out_dir)
    tmp = home / f".episodes.ndjson.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as stream:
            summary = summarize(_written(run_batch(
                args.task, args.episodes, args.seed, spec, config), stream))
        summary_text = to_json({"command": "simulate", "task": args.task,
                                "seed": args.seed, "spec": spec,
                                "config": config, **summary}, indent=2)
        out_dir.mkdir(parents=True, exist_ok=True)
        os.replace(tmp, episodes_path)
    finally:
        tmp.unlink(missing_ok=True)
    summary_path.write_text(summary_text, encoding="utf-8")
    print(f"{args.task} batch: {summary['successes']}/{summary['episodes']}"
          f" succeeded (rate {summary['success_rate']:.3f})")
    print(f"wrote {episodes_path} and {summary_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------

# flags that several subcommands declare alike
_SHARED_FLAGS = {
    "--scene": dict(required=True, help="PLY point cloud"),
    "--instances": dict(required=True, help="instances JSON"),
    "--query": dict(required=True,
                    help="JSON file holding the unit query embedding"),
    "--config": dict(help="run config JSON"),
    "--out": dict(help="report path (stdout when omitted)"),
}


def _shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graspnav",
        description="Object localization, grasp/body planning, drawer"
                    " matching, and seeded simulation.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    q = sub.add_parser("query", help="rank instances against an embedding")
    _shared(q, "--scene", "--instances", "--query", "--config", "--out")
    q.set_defaults(func=cmd_query)

    p = sub.add_parser("plan-grasp",
                       help="localize, merge grasp sweeps, pick grasp + body")
    _shared(p, "--scene", "--instances", "--query")
    p.add_argument("--grasps", required=True, nargs="+",
                   help="grasp batch JSON files, one per rotation sweep")
    _shared(p, "--config", "--out")
    p.set_defaults(func=cmd_plan_grasp)

    m = sub.add_parser("match-drawers",
                       help="fuse drawer targets from detection frames")
    m.add_argument("--frames", required=True, nargs="+",
                   help="detection frame JSON files")
    _shared(m, "--config")
    m.add_argument("--seed", type=_int_in(0), default=0,
                   help="root seed, an integer >= 0 (default 0); per-frame"
                        " plane fits use derive_seed(seed, frame_index,"
                        " pair_index)")
    _shared(m, "--out")
    m.set_defaults(func=cmd_match_drawers)

    s = sub.add_parser("simulate", help="run a seeded episode batch")
    s.add_argument("--task", required=True, choices=("grasp", "search"),
                   help="which episode type to run")
    s.add_argument("--episodes", type=_int_in(1, MAX_EPISODES), default=200,
                   help=f"number of episodes, 1 to {MAX_EPISODES} (default 200)")
    s.add_argument("--spec", help="scene spec JSON (built-in default per task)")
    _shared(s, "--config")
    s.add_argument("--seed", type=_int_in(0), default=0,
                   help="root seed, an integer >= 0 (default 0); episode i"
                        " uses derive_seed(seed, i, 0) for the scene and"
                        " derive_seed(seed, i, 1) inside")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(func=cmd_simulate)
    return parser


# parsing leaves a parser unchanged, so one serves every call in a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraspNavError, ValueError, OSError) as exc:
        print(f"graspnav: {exc}", file=sys.stderr)
        return STAGE_ERRORS.get(type(exc), (None, EXIT_PARSE))[1]
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"graspnav: out of memory{detail}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
