"""Launch ``repro serve`` for the HTTP workloads, optionally traced.

    python3 perfbench/server_main.py --state-out PATH [--span-file PATH] \\
        -- <repro serve arguments>

Runs the real ``repro serve`` command in this process.  With
``--span-file`` the calls into each layer are wrapped in spans first
(:mod:`spans`), and the spans are written to that file at exit.  In
every mode the launcher reads the pipeline's final state just before
the server closes it — budget spent, rejected flushes, fault counters,
health counters and the state store's size — and writes it as JSON to
``--state-out``, so the benchmark can check it after the server exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _final_state(server) -> dict:
    pipeline = server.pipeline
    config = pipeline.config
    eps_spent, delta_spent = pipeline.accountant.spent()
    fault_stats = getattr(pipeline, "fault_stats", None)
    store = pipeline.store
    db_bytes = 0
    path = getattr(store, "path", None)
    if path is not None:
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(f"{path}{suffix}"):
                db_bytes += os.path.getsize(f"{path}{suffix}")
    result = pipeline.result()
    folded = result.n_genuine + result.n_fake
    return {
        "genuine_share": result.n_genuine / folded if folded else 0.0,
        "eps_spent": eps_spent,
        "delta_spent": delta_spent,
        "eps_budget": config.eps_budget,
        "delta_budget": config.delta_budget,
        "n_rejected": pipeline.n_rejected,
        # The single-shard serial pipeline folds inline and has no fold
        # supervisor, so it has nothing to absorb.
        "fault_stats": fault_stats() if fault_stats is not None else None,
        "health": server._health_payload(),
        "db_bytes": db_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-out", required=True)
    parser.add_argument("--span-file", default=None)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    if args.cpu is not None:
        # Before any thread starts, so the server's threads inherit it.
        os.sched_setaffinity(0, {args.cpu})
    sys.path.insert(0, SRC)
    recorder = None
    if args.span_file:
        from spans import SpanRecorder

        recorder = SpanRecorder("server")
        recorder.install()

    from repro.cli import main as repro_main
    from repro.server.app import TelemetryServer

    final = {}
    close_pipeline = TelemetryServer._close_pipeline

    def capture_then_close(server):
        # Runs on the ingest thread once every accepted job has applied.
        if server.pipeline is not None:
            final.update(_final_state(server))
        return close_pipeline(server)

    TelemetryServer._close_pipeline = capture_then_close
    status = repro_main(["serve"] + serve_args)
    final["exit_status"] = status
    with open(args.state_out, "w") as handle:
        json.dump(final, handle)
    if recorder is not None:
        recorder.dump(args.span_file)
    return status


if __name__ == "__main__":
    sys.exit(main())
