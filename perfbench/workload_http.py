"""The ``ingest`` and ``durable`` workloads: open-loop HTTP load on ``repro serve``.

The server runs in its own process (:mod:`server_main`, which runs the
real ``repro serve``); the auto planner picks GRR at d=64 and folds
inline on the server's ingest thread.  This process is the load
generator: one asyncio loop, two keep-alive connections, and a fixed
schedule that does not slow down when the server does (open loop).
Every operation is timed from when it was *due*, so a stall also
charges the operations queued behind it; a refused upload (HTTP 429) is
counted against the operations attempted and never retried.

* ``ingest`` — both connections upload 200-value JSON batches at a fixed
  total rate (about half of the front door's capacity on a 2-core box);
  connection 0 closes an epoch every ``epoch_batches`` batches, and
  connection 1 also reads the latest released epoch a few times a
  second.  Memory store.
* ``durable`` — the same front door journaling to a SQLite state store
  with small flushes, so commits are a large share of server CPU.
  Connection 0 uploads and closes epochs; connection 1 reads the latest
  released epoch's estimates at a fixed rate.

A read follows the pagination cursor to the epoch's last page; its
latency runs from when it was due to the last page.  The generator runs
on one CPU and the server on another (see :func:`_pin`).
``BENCHMARK.json`` gates ``durable`` only;
``ingest`` stays runnable (see the README).

After the measured window the generator closes a final epoch, reads
every served estimate, stops the server, and checks: the estimates are
bit-identical to an in-process replay of the accepted batches in
``submit_seq`` order (epoch closes sit in the gaps of the sequence);
every read returned exactly the final estimates of its epoch; no flush
was rejected, the budget was not overspent, nothing failed or had to be
recovered; and the generator itself kept to its schedule.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from measure import cpu_seconds, metric, peak_rss_mb, percentile, timing_summary

HERE = os.path.dirname(os.path.abspath(__file__))

D = 64
BATCH = 200
N_BODIES = 256
SETUPS = 5
#: leading seconds of the schedule that warm the server and are not measured
WARM_S = 1.0
#: a run whose generator woke this late (p90, the gated tail) is
#: invalid, not slow: the lateness is the generator's, not the server's
LATE_BOUND_MS = 5.0
#: estimates per page when reading one epoch back
QUERY_PAGE = 16
#: seconds between health samples in the traced run
HEALTH_EVERY_S = 0.1
#: the generator spins (instead of sleeping) this long before an operation
SPIN_S = 0.002

#: two epochs per second, so the epoch log the reads walk stays
#: short and the same length in every run; an epoch is not a whole number
#: of flushes, so every release folds a remainder flush, and no release
#: waits on a size-triggered fold by the luck of the schedule
PROFILES = {
    "ingest": {
        "flush_size": 12_000,
        "epoch_batches": 125,
        "batches_per_s": 250.0,
        "writers": 2,
        "queries_per_s": 5.0,
        "state_db": False,
    },
    "durable": {
        "flush_size": 2_500,
        "epoch_batches": 55,
        "batches_per_s": 120.0,
        "writers": 1,
        "queries_per_s": 20.0,
        "state_db": True,
    },
}


def _inputs(seed: int):
    """The batch values and their pre-encoded upload requests."""
    from repro.data import zipf_histogram
    from repro.data.synthetic import values_from_histogram

    rng = np.random.default_rng((seed, 0x4E7))
    values = [
        values_from_histogram(zipf_histogram(BATCH, D, 1.3, rng), rng)
        for __ in range(N_BODIES)
    ]
    requests = []
    for batch in values:
        body = json.dumps({"values": batch.tolist()}).encode()
        requests.append(
            b"POST /api/reports HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body) + body
        )
    return values, requests


def _get(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode()


_CLOSE_EPOCH = (
    b"POST /api/epochs HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n"
)


class _Connection:
    """One keep-alive HTTP/1.1 connection; one request in flight."""

    async def open(self, port: int) -> "_Connection":
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        return self

    async def call(self, request: bytes):
        self.writer.write(request)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        at = head.index(b"Content-Length:") + 15
        length = int(head[at:head.index(b"\r\n", at)])
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _schedule(profile: dict, seconds: float, trace: bool) -> List[list]:
    """Per connection, the ``(due_s, kind, arg)`` operations in due order."""
    total = WARM_S + seconds
    rate = profile["batches_per_s"]
    connections: List[list] = [[], []]
    for i in range(int(total * rate)):
        connections[i % profile["writers"]].append((i / rate, "batch", i % N_BODIES))
        if (i + 1) % profile["epoch_batches"] == 0:
            connections[0].append(((i + 0.5) / rate, "epoch", None))
    every = 1.0 / profile["queries_per_s"]
    connections[1].extend(
        (j * every, "query", None) for j in range(int(total / every))
    )
    if trace:
        connections[1].extend(
            (j * HEALTH_EVERY_S, "health", None)
            for j in range(int(total / HEALTH_EVERY_S))
        )
    for operations in connections:
        operations.sort(key=lambda op: op[0])
    return connections


async def _read_epoch(connection: _Connection, epoch: int) -> tuple:
    """Every estimate of one epoch, following the cursor page by page."""
    target = f"/api/estimates?epoch={epoch}&limit={QUERY_PAGE}"
    estimates: list = []
    while True:
        status, body = await connection.call(_get(target))
        if status != 200:
            return status, None
        page = json.loads(body)
        estimates.extend(item["estimate"] for item in page["items"])
        cursor = page["page"]["next_cursor"]
        if cursor is None:
            return status, estimates
        target = (f"/api/estimates?epoch={epoch}&limit={QUERY_PAGE}"
                  f"&cursor={cursor.replace('|', '%7C')}")


async def _drive(connection, operations, start, requests, state, log):
    """Run one connection's schedule; append one record per operation."""
    ready = start
    for due_s, kind, arg in operations:
        due = start + due_s
        now = time.perf_counter()
        if now < due:
            # Sleep, then spin the last stretch: a sleeping generator
            # wakes up to a millisecond late, which would be charged to the
            # server, while spinning all the time slowed the server's CPU.
            if due - now > SPIN_S:
                await asyncio.sleep(due - now - SPIN_S)
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            sent = time.perf_counter()
            late = sent - due
        else:
            sent = now
            late = sent - max(due, ready)
        if kind == "batch":
            status, body = await connection.call(requests[arg])
            record = (kind, due_s, late, time.perf_counter() - due, status, body, arg)
        elif kind == "epoch":
            status, body = await connection.call(_CLOSE_EPOCH)
            if status == 200:
                state["released"] = json.loads(body)["epoch"]
            record = (kind, due_s, late, time.perf_counter() - due, status, body, None)
        elif kind == "query":
            epoch = state["released"]
            if epoch is None:
                ready = time.perf_counter()
                continue  # nothing released yet: not an operation
            status, estimates = await _read_epoch(connection, epoch)
            record = (kind, due_s, late, time.perf_counter() - due, status,
                      estimates, epoch)
        else:
            status, body = await connection.call(_get("/api/health"))
            state["pending"].append(json.loads(body)["pending"])
            ready = time.perf_counter()
            continue  # a measurement probe, not an operation
        ready = time.perf_counter()
        log.append(record)


async def _sample_cpu(pid: int, at: float, marks: list) -> None:
    """The server's CPU seconds when the measured window opens."""
    delay = at - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)
    marks.append(cpu_seconds(pid))


class _Server:
    """One ``server_main`` child process."""

    def __init__(self, run_dir: str, serve_args: List[str], tag: str,
                 span_file: Optional[str], cpu: Optional[int]):
        self.state_path = os.path.join(run_dir, f"state-{tag}.json")
        self.log_path = os.path.join(run_dir, f"server-{tag}.log")
        self.argv = [sys.executable, os.path.join(HERE, "server_main.py"),
                     "--state-out", self.state_path]
        if span_file is not None:
            self.argv += ["--span-file", span_file]
        if cpu is not None:
            self.argv += ["--cpu", str(cpu)]
        self.argv += ["--"] + serve_args
        self.process = None
        self.port = None

    async def start(self, timeout: float = 120.0) -> float:
        """Launch, wait until health answers; return the seconds it took."""
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = await asyncio.create_subprocess_exec(
                *self.argv, stdout=asyncio.subprocess.PIPE, stderr=log,
            )
        line = await asyncio.wait_for(self.process.stdout.readline(), timeout)
        if not line.startswith(b"serving on http://"):
            await self.kill()
            with open(self.log_path, errors="replace") as log:
                tail = log.read()[-4000:]
            raise RuntimeError(f"server did not start: {line!r}\n{tail}")
        self.port = int(line.split()[2].rsplit(b":", 1)[1])
        probe = await _Connection().open(self.port)
        try:
            status, __ = await probe.call(_get("/api/health"))
        finally:
            await probe.close()
        if status != 200:
            raise RuntimeError(f"health answered {status}")
        return time.perf_counter() - started

    async def stop(self, timeout: float = 60.0) -> dict:
        """SIGTERM, wait for the drain and exit; return the final state."""
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(self.process.stdout.read(), timeout)
            status = await asyncio.wait_for(self.process.wait(), timeout)
        finally:
            await self.kill()
        if status != 0:
            with open(self.log_path, errors="replace") as log:
                tail = log.read()[-4000:]
            raise RuntimeError(f"server exited with {status}:\n{tail}")
        with open(self.state_path) as handle:
            return json.load(handle)

    async def kill(self) -> None:
        if self.process is not None and self.process.returncode is None:
            self.process.kill()
            await self.process.wait()


def _pin() -> List[int]:
    """Pin the generator to one CPU; return it and the server's CPU.

    On a 2-core box the generator and the server's two threads would
    otherwise share both CPUs, and the scheduler placing them differently
    from run to run made the latencies jump between runs.  Empty (no
    pinning) when fewer than two CPUs are available.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return []
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[:2]


def _serve_args(profile: dict, seed: int, db_path: Optional[str]) -> List[str]:
    args = [
        "--port", "0", "--d", str(D), "--seed", str(seed),
        "--flush-size", str(profile["flush_size"]),
        "--epoch-size", str(profile["epoch_batches"] * BATCH),
        "--budget-epochs", "100000",
        "--eps1", "1", "--eps2", "3", "--eps3", "6",
        "--max-pending", "256",
    ]
    if db_path is not None:
        args += ["--state-db", db_path]
    return args


async def _session(workload, seed, seconds, run_dir, span_dir, requests, cpu):
    profile = PROFILES[workload]
    setups = []
    server = None
    for attempt in range(SETUPS):
        if server is not None:
            await server.stop()
        db_path = (os.path.join(run_dir, f"state-{attempt}.db")
                   if profile["state_db"] else None)
        span_file = (os.path.join(span_dir, "spans-server.json")
                     if span_dir is not None and attempt == SETUPS - 1 else None)
        server = _Server(run_dir, _serve_args(profile, seed, db_path),
                         str(attempt), span_file, cpu)
        try:
            setups.append(await server.start())
        except BaseException:
            await server.kill()
            raise

    connections = []
    try:
        for __ in range(2):
            connections.append(await _Connection().open(server.port))
        status, body = await connections[0].call(_get("/api/config"))
        deployment = json.loads(body)["deployment"]

        schedule = _schedule(profile, seconds, span_dir is not None)
        state = {"released": None, "pending": []}
        log: list = []
        start = time.perf_counter() + 0.05
        pid = server.process.pid
        cpu_marks: list = []
        sampler = asyncio.ensure_future(
            _sample_cpu(pid, start + WARM_S, cpu_marks)
        )
        gc.disable()  # keep collector pauses out of the generator's timing
        try:
            await asyncio.gather(*(
                _drive(connection, operations, start, requests, state, log)
                for connection, operations in zip(connections, schedule)
            ))
        finally:
            gc.enable()
            await sampler
        status, body = await connections[0].call(_CLOSE_EPOCH)
        log.append(("final", None, 0.0, 0.0, status, body, None))
        cpu_marks.append(cpu_seconds(pid))
        rss = peak_rss_mb(pid)

        served: Dict[int, list] = {}
        target = "/api/estimates?limit=200"
        while True:
            status, body = await connections[0].call(_get(target))
            page = json.loads(body)
            for item in page["items"]:
                served.setdefault(item["epoch"], []).append(item["estimate"])
            cursor = page["page"]["next_cursor"]
            if cursor is None:
                break
            target = f"/api/estimates?limit=200&cursor={cursor.replace('|', '%7C')}"
        status, body = await connections[0].call(_get("/api/health"))
        health = json.loads(body)
    finally:
        for connection in connections:
            await connection.close()
        final = await server.stop()
    return {
        "setups": setups, "deployment": deployment, "log": log,
        "pending": state["pending"], "cpu_marks": cpu_marks, "rss": rss,
        "served": served, "health": health, "final": final,
    }


def _replay(deployment: dict, seed: int, acks: Dict[int, int], values, n_epochs):
    """The accepted batches in submit_seq order, folded in-process."""
    from repro.persistence.records import config_from_dict
    from repro.service import ShardedPipeline

    with ShardedPipeline(
        config_from_dict(deployment), np.random.default_rng(seed),
        n_shards=1, fold_backend="serial",
    ) as pipeline:
        closed = 0
        for seq in range(max(acks) + 1 if acks else 0):
            if seq in acks:
                pipeline.submit(values[acks[seq]])
            else:
                pipeline.end_epoch()  # an epoch close took this seq
                closed += 1
        for __ in range(n_epochs - closed):
            pipeline.end_epoch()
        return {
            int(epoch): [float(x) for x in estimates]
            for epoch, estimates in pipeline.store.epoch_log()
        }


def run(workload: str, seed: int, seconds: float, run_dir: str, span_dir) -> dict:
    cpus = _pin()
    values, requests = _inputs(seed)
    measured = asyncio.run(_session(
        workload, seed, seconds, run_dir, span_dir, requests,
        cpus[1] if cpus else None,
    ))
    log = measured["log"]
    final = measured["final"]
    served = measured["served"]
    failures = []

    acks: Dict[int, int] = {}
    timings = {"ack": [], "release": [], "query": []}
    lateness = []
    attempted = failed = 0
    n_reports = 0
    n_released = 0
    window_end = WARM_S
    for kind, due_s, late, latency, status, body, arg in log:
        attempted += 1
        ok = status in (200, 202)
        failed += not ok
        if due_s is not None:
            lateness.append(late)
        in_window = due_s is not None and due_s >= WARM_S
        if kind == "batch" and ok:
            acks[json.loads(body)["submit_seq"]] = arg
        if kind in ("epoch", "final") and ok:
            n_released += 1
        if kind == "query" and ok and served.get(arg) != body:
            failures.append(f"a read of epoch {arg} differs from its final estimates")
        if not (ok and in_window):
            continue
        if kind == "batch":
            timings["ack"].append(latency)
            n_reports += BATCH
            window_end = max(window_end, due_s + latency)
        elif kind == "epoch":
            timings["release"].append(latency)
        elif kind == "query":
            timings["query"].append(latency)

    replayed = _replay(measured["deployment"], seed, acks, values, n_released)
    identical = replayed == served
    if not identical:
        failures.append("served estimates differ from the in-process replay "
                        "in submit_seq order")
    if final["n_rejected"]:
        failures.append(f"{final['n_rejected']} flush(es) rejected")
    if (final["eps_spent"] > final["eps_budget"] * (1 + 1e-9)
            or final["delta_spent"] > final["delta_budget"] * (1 + 1e-9)):
        failures.append("budget overspent")
    faults = final["fault_stats"] or {}
    if any(faults.values()):
        failures.append(f"fault_stats not all zero: {faults}")
    health = measured["health"]
    if health["failed_batches"] or health["recoveries"] or health["status"] != "ok":
        failures.append(f"server health not clean: {health}")
    late_p90_ms = percentile(lateness, 90) * 1e3
    if late_p90_ms > LATE_BOUND_MS:
        failures.append(
            f"invalid run: the generator woke {late_p90_ms:.1f} ms late at "
            f"p90 (bound {LATE_BOUND_MS} ms)"
        )

    summaries = {name: timing_summary(samples) for name, samples in timings.items()}
    marks = measured["cpu_marks"]
    metrics = {
        "setup_s": metric(float(np.median(measured["setups"])), "s"),
        "reports_per_s": metric(n_reports / (window_end - WARM_S), "1/s"),
        "ack_p50_ms": metric(summaries["ack"]["p50_ms"], "ms"),
        "ack_p90_ms": metric(summaries["ack"]["p90_ms"], "ms"),
        "release_p50_ms": metric(summaries["release"]["p50_ms"], "ms"),
        "query_p50_ms": metric(summaries["query"]["p50_ms"], "ms"),
        "query_p90_ms": metric(summaries["query"]["p90_ms"], "ms"),
        "cpu_us_per_report": metric((marks[-1] - marks[0]) / n_reports * 1e6, "us"),
        "ok_ratio": metric(1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": metric(measured["rss"], "MiB"),
    }
    pending = measured["pending"] or [0]
    counters = {
        "server.app.pending_p50": percentile(pending, 50),
        "server.app.pending_max": max(pending),
        "server.app.rejected_429": health["rejected_429"],
        "service.accountant.rejected_flushes": final["n_rejected"],
        "service.sharded.fold_retries": faults.get("fold_retries", 0),
        "service.backends.genuine_share": final["genuine_share"],
        "persistence.db_bytes": final["db_bytes"],
    }
    return {
        "metrics": metrics,
        "counters": counters,
        "attempted": attempted,
        "failed": failed,
        "checks": {
            "ok": not failures,
            "failures": failures,
            "replay_identical": identical,
            "epochs": len(served),
            "eps_spent": final["eps_spent"],
            "eps_budget": final["eps_budget"],
        },
        "timings": summaries,
        "setups_s": measured["setups"],
        "window_s": seconds,
        "reports": n_reports,
        "generator_late_ms": {
            "p50_ms": percentile(lateness, 50) * 1e3,
            "p90_ms": late_p90_ms,
            "p99_ms": percentile(lateness, 99) * 1e3,
            "bound_ms": LATE_BOUND_MS,
        },
    }
