"""The repository benchmark: one command, three workloads (two gated).

    python3 perfbench/run.py --workload stream|ingest|durable \\
        --seed N --seconds S --trace 0|1 [--details PATH]

Run it from the repository root.  It builds nothing: the program is the
pure-Python package under ``src/``.  Each run sets the system up
several times (the median is ``setup_s``), measures for ``--seconds``,
checks the outputs (see each workload module), and prints as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the calls into each layer are wrapped in spans
(:mod:`spans`) and the metrics are the per-layer ones, with a per-layer
table printed above.  ``--details`` also writes every measurement,
p99s and sample counts included, to a JSON file.

Metric names, units, bounds, the gated workloads and the reasons for
them live in ``BENCHMARK.json`` at the repository root; ``README.md``
next to this file explains every metric and gate.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

if __name__ == "__mp_main__" and os.environ.get("PERFBENCH_SPAN_DIR"):
    # A spawned fold worker of a traced ``stream`` run re-imports this
    # module; record its fold spans and write them when it exits.
    from spans import install_fold_worker

    install_fold_worker(os.environ["PERFBENCH_SPAN_DIR"])

WORKLOADS = ("stream", "ingest", "durable")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", default=None, metavar="PATH")
    return parser.parse_args(argv)


def _benchmark_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    config = _benchmark_config()
    run_dir = os.path.join(
        WORK, f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(run_dir)
    span_dir = run_dir if args.trace else None
    try:
        if args.workload == "stream":
            import workload_stream

            result = workload_stream.run(args.seed, args.seconds, span_dir)
        else:
            import workload_http

            result = workload_http.run(
                args.workload, args.seed, args.seconds, run_dir, span_dir
            )
        summary = None
        if span_dir is not None:
            from spans import format_layers, load_dumps, summarize

            summary = summarize(
                load_dumps(sorted(glob.glob(os.path.join(span_dir, "spans-*.json"))))
            )
            print(format_layers(summary))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is still using it

    from measure import emit
    from report import layer_metrics, print_summary

    print_summary(args.workload, result)
    if summary is None:
        wanted = [entry["name"] for entry in config["end_to_end"]]
        metrics = {name: result["metrics"][name] for name in wanted}
    else:
        metrics = layer_metrics(config, summary, result["counters"])
    details = dict(result, workload=args.workload, seed=args.seed,
                   trace=args.trace, layers=summary)
    emit(
        result["checks"]["ok"],
        result["attempted"],
        result["failed"],
        metrics,
        details,
        args.details,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
