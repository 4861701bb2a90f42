"""graspnav benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload {search,grasp,scan,frames} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its
``src/``. Inputs are made from ``--seed`` and written under
``.bench_out/<workload>/``, with ``environment.json`` (CPU count,
Python, numpy and scipy versions, thread settings). Whole rounds of
invocations run until their summed wall time reaches ``--seconds``.
Every output is checked (see ``checks.py``). The last line of standard
output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

    ops_per_s          operations completed per second of a round's wall
                       time, median over the rounds
    invocation_p50_ms  median wall time of one invocation, argv to report
                       written (scan: the ASCII plan-grasp only)
    setup_s            imports, plus the median of SETUP_REPEATS times
                       (generate and write the inputs, one warm-up round)
    peak_rss_mb        peak resident set of this process

With ``--trace 1`` the program's public functions are wrapped from here
(``spans.py``), the spans are written to ``spans.ndjson`` next to the
outputs, and the metrics are the per-layer ones.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
WORKLOADS = ("search", "grasp", "scan", "frames")
END_TO_END = {"ops_per_s": "1/s", "invocation_p50_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MiB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    """What the figures depend on besides the code, written with them."""
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "thread_env": {k: v for k, v in os.environ.items()
                           if k.endswith("_NUM_THREADS")}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "graspnav" / "__init__.py").is_file():
        print(f"benchmark: no graspnav sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads
    import graspnav
    if Path(graspnav.__file__).resolve().parent != ROOT / "src" / "graspnav":
        print(f"benchmark: imported graspnav from {graspnav.__file__}, not"
              f" from this checkout", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    recorder = spans.Recorder() if args.trace else None
    work = ROOT / ".bench_out" / args.workload
    load = workloads.build(args.workload, args.seed, work,
                           workloads.Invoker(recorder))
    prepare_s = []
    for repeat in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        load.prepare(repeat)
        prepare_s.append(time.perf_counter() - t0)
    problems = load.verify_reference()

    installed = spans.Installed(recorder) if recorder else None
    outcomes = []
    round_rates = []
    measured = 0.0
    r = 0
    try:
        while measured < args.seconds:
            done = load.run_round(r)
            outcomes += done
            seconds = sum(o.seconds for o in done)
            round_rates.append(sum(o.attempted - o.failed for o in done)
                               / seconds)
            measured += seconds
            r += 1
    finally:
        if installed:
            installed.remove()
    problems += [p for o in outcomes for p in o.problems]
    problems += load.finish()
    if recorder:
        problems += load.replay_first_round()
        recorder.write(work / "spans.ndjson")
    (work / "environment.json").write_text(json.dumps(environment(), indent=2))

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    ops_per_s = statistics.median(round_rates)
    latencies = [o.latency for o in outcomes if o.latency is not None]
    p50_ms = statistics.median(latencies) * 1e3 if latencies else 0.0
    if recorder:
        metrics = spans.layer_metrics(recorder)
        metrics["traced.ops_per_s"] = ops_per_s
        metrics["traced.invocation_p50_ms"] = p50_ms
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, (unit, _) in spans.PER_LAYER.items()}
    else:
        values = {"ops_per_s": ops_per_s, "invocation_p50_ms": p50_ms,
                  "setup_s": import_s + statistics.median(prepare_s),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    errors = sorted({e for o in outcomes for e in o.errors})
    for line in errors + problems:
        print(f"benchmark: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {r} rounds, {attempted}"
          f" operations, {failed} failed, {len(problems)} check failures",
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
