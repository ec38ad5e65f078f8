"""Steadiness report: many runs per workload, spread against each bound.

    python3 perfbench/steadiness.py [--workloads stream ingest durable]
        [--runs 10] [--first-seed 1] [--seconds S] [--traced] [--out FILE]

Runs ``perfbench/run.py`` once per seed and workload with tracing off
and prints, per workload and end-to-end metric, the median and the
first and third quartiles (``statistics.quantiles(values, n=4)``), the
spread ``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``, and whether the spread is below a third of the bound.
With ``--traced`` it also makes one traced run per workload on the first
seed and prints its per-layer self times and the tracing overhead: the
traced run's end-to-end metrics against the untraced median.

Run it from the repository root.  Progress goes to standard error; the
report (markdown) goes to standard output or ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int, trace: int, details: str) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--details", details]
    completed = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                               timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {completed.returncode}:\n"
                           f"{completed.stderr[-3000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    with open(details) as handle:
        result["details"] = json.load(handle)
    return result


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    seconds = args.seconds or config["run_seconds"]
    workloads = args.workloads or [entry["name"] for entry in config["workloads"]]
    bounds = {entry["name"]: entry for entry in config["end_to_end"]}

    lines = [f"# Steadiness: {args.runs} runs per workload, seeds "
             f"{args.first_seed}..{args.first_seed + args.runs - 1}, "
             f"{seconds} s each", ""]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_report_") as scratch:
        details = os.path.join(scratch, "details.json")
        for workload in workloads:
            runs = []
            for seed in range(args.first_seed, args.first_seed + args.runs):
                print(f"{workload} seed {seed} ...", file=sys.stderr, flush=True)
                runs.append(_run(workload, seed, seconds, 0, details))
            attempted = sum(run["attempted"] for run in runs)
            failed = sum(run["failed"] for run in runs)
            incorrect = sum(not run["correct"] for run in runs)
            lines += [f"## {workload}", "",
                      f"runs failing a correctness gate: {incorrect} of {len(runs)}; "
                      f"operations refused or failed: {failed} of {attempted}", "",
                      "| metric | unit | q1 | median | q3 | spread | bound | spread < bound/3 |",
                      "|---|---|---|---|---|---|---|---|"]
            medians = {}
            for name, entry in bounds.items():
                values = [run["metrics"][name]["value"] for run in runs]
                q1, median, q3 = _quartiles(values)
                medians[name] = median
                spread = (q3 - q1) / median
                steady = "n/a (setup)" if name == "setup_s" else (
                    "yes" if spread < entry["bound"] / 3 else "NO")
                lines.append(f"| {name} | {entry['unit']} | {q1:.6g} | {median:.6g} | "
                             f"{q3:.6g} | {spread:.4f} | {entry['bound']} | {steady} |")
            lines += ["", "Every run (seed: value per metric, in the order above):", ""]
            for seed, run in zip(range(args.first_seed, args.first_seed + args.runs), runs):
                values = " ".join(f"{run['metrics'][name]['value']:.4g}" for name in bounds)
                lines.append(f"- {seed}: {values}")
            lines.append("")
            if args.traced:
                print(f"{workload} traced ...", file=sys.stderr, flush=True)
                traced = _run(workload, args.first_seed, seconds, 1, details)
                layers = traced["details"]["layers"]
                lines += [f"Traced run (seed {args.first_seed}): "
                          f"{layers['spans']} spans; correct: {traced['correct']}", ""]
                digest = runs[0]["details"]["checks"].get("epoch0_sha256")
                if digest is not None:
                    same = traced["details"]["checks"]["epoch0_sha256"] == digest
                    lines += [f"Epoch-0 estimates of the traced and the untraced run "
                              f"of seed {args.first_seed} identical: "
                              f"{'yes' if same else 'NO'}", ""]
                lines += ["| layer | calls | self s | total s |", "|---|---|---|---|"]
                for name, layer in sorted(layers["layers"].items(),
                                          key=lambda item: -item[1]["self_s"]):
                    lines.append(f"| {name} | {layer['count']} | "
                                 f"{layer['self_s']:.4f} | {layer['total_s']:.4f} |")
                lines += ["", "Tracing overhead (traced run vs untraced median):", "",
                          "| metric | untraced median | traced | change |",
                          "|---|---|---|---|"]
                for name in bounds:
                    value = traced["details"]["metrics"][name]["value"]
                    lines.append(f"| {name} | {medians[name]:.6g} | {value:.6g} | "
                                 f"{(value - medians[name]) / medians[name]:+.2%} |")
                lines.append("")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
