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
import sys
from pathlib import Path

import numpy as np

from .codec import decode_value, read_json_object, to_json
from .config import RunConfig, load_run_config
from .drawer import load_detection_frame
from .errors import (ConfigError, FileFormatError, GraspNavError,
                     LocalizationError)
from .grasp import load_grasp_batch
# the EXIT_* codes stay importable from here for callers of main
from .pipeline import (EXIT_GRASP_FILTER, EXIT_LOCALIZATION, EXIT_NAVIGATION,
                       EXIT_NO_EMBEDDINGS, EXIT_OK, EXIT_PARSE, STAGE_ERRORS,
                       perceive_drawers, plan_grasp)
from .scene import load_scene
from .sim import derive_seed, run_grasp_batch, run_search_batch
from .sim.scenegen import (default_grasp_spec, default_search_spec,
                           load_scene_spec)

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

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _load_query_embedding(path: str) -> np.ndarray:
    raw = read_json_object(path, "query", or_list=True)
    if isinstance(raw, dict):
        raw = raw.get("embedding")
    try:
        values = decode_value(tuple[float, ...], raw, "embedding")
        if not values:
            raise ConfigError("embedding: expected at least one value")
    except ConfigError as exc:
        raise FileFormatError(
            f"{path}: expected a non-empty flat JSON list of numbers, or an"
            f" object whose 'embedding' is one ({exc})") from exc
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
    query = _load_query_embedding(args.query)
    results = scene.query_instance(query)
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
    query = _load_query_embedding(args.query)

    results = scene.query_instance(query)
    top = results[0]
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


def cmd_simulate(args) -> int:
    config = _resolve_config(args.config)
    if args.spec:
        spec = load_scene_spec(args.spec)
    else:
        spec = (default_grasp_spec() if args.task == "grasp"
                else default_search_spec())
    run_batch = run_grasp_batch if args.task == "grasp" else run_search_batch
    reports, summary = run_batch(args.episodes, args.seed, spec=spec,
                                 config=config)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    episodes_path = out_dir / "episodes.ndjson"
    episodes_path.write_text("".join(map(to_json, reports)), encoding="utf-8")
    summary_doc = {"command": "simulate", "task": args.task,
                   "seed": args.seed, "spec": spec, "config": config,
                   **summary}
    summary_path = out_dir / "summary.json"
    summary_path.write_text(to_json(summary_doc, indent=2), encoding="utf-8")
    print(f"{args.task} batch: {summary['successes']}/{summary['episodes']}"
          f" succeeded (rate {summary['success_rate']:.3f})")
    print(f"wrote {episodes_path} and {summary_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graspnav",
        description="Object localization, grasp/body planning, drawer"
                    " matching, and seeded simulation.",
        epilog=_EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    q = sub.add_parser("query", help="rank instances against an embedding",
                       epilog=_EXIT_CODES_HELP,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    q.add_argument("--scene", required=True, help="PLY point cloud")
    q.add_argument("--instances", required=True, help="instances JSON")
    q.add_argument("--query", required=True,
                   help="JSON file holding the unit query embedding")
    q.add_argument("--config", help="run config JSON")
    q.add_argument("--out", help="report path (stdout when omitted)")
    q.set_defaults(func=cmd_query)

    p = sub.add_parser("plan-grasp",
                       help="localize, merge grasp sweeps, pick grasp + body",
                       epilog=_EXIT_CODES_HELP,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--scene", required=True, help="PLY point cloud")
    p.add_argument("--instances", required=True, help="instances JSON")
    p.add_argument("--query", required=True,
                   help="JSON file holding the unit query embedding")
    p.add_argument("--grasps", required=True, nargs="+",
                   help="grasp batch JSON files, one per rotation sweep")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--out", help="report path (stdout when omitted)")
    p.set_defaults(func=cmd_plan_grasp)

    m = sub.add_parser("match-drawers",
                       help="fuse drawer targets from detection frames",
                       epilog=_EXIT_CODES_HELP,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    m.add_argument("--frames", required=True, nargs="+",
                   help="detection frame JSON files")
    m.add_argument("--config", help="run config JSON")
    m.add_argument("--seed", type=_int_in(0), default=0,
                   help="root seed, an integer >= 0 (default 0); per-frame"
                        " plane fits use derive_seed(seed, frame_index,"
                        " pair_index)")
    m.add_argument("--out", help="report path (stdout when omitted)")
    m.set_defaults(func=cmd_match_drawers)

    s = sub.add_parser("simulate", help="run a seeded episode batch",
                       epilog=_EXIT_CODES_HELP,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    s.add_argument("--task", required=True, choices=("grasp", "search"),
                   help="which episode type to run")
    s.add_argument("--episodes", type=_int_in(1, MAX_EPISODES), default=200,
                   help=f"number of episodes, 1 to {MAX_EPISODES} (default 200)")
    s.add_argument("--spec", help="scene spec JSON (built-in default per task)")
    s.add_argument("--config", help="run config JSON")
    s.add_argument("--seed", type=_int_in(0), default=0,
                   help="root seed, an integer >= 0 (default 0); episode i"
                        " uses derive_seed(seed, i, 0) for the scene and"
                        " derive_seed(seed, i, 1) inside")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
