"""Span recorder for the traced run: wraps the program's public calls.

A traced run replaces selected functions and methods of ``repro`` with
wrappers that record one span per call: an id, the id of the enclosing
span on the same thread (its parent), the layer name, and the start and
end on ``time.perf_counter``.  Coroutines (the HTTP request reader) are
stepped by hand, so their span also carries *busy* time: the time the
coroutine ran, without the time it sat suspended waiting for bytes.

Spans stay in memory and are written once, as JSON, when the process
ends (:meth:`SpanRecorder.dump`).  :func:`summarize` turns the dumps of
every process of a run into per-layer counts and self times: a span's
self time is its duration (busy time for coroutines) minus the time of
its child spans.

Nothing here is imported by the program; the benchmark installs the
wrappers from outside, into the benchmark process itself (``stream``),
the server launcher (``ingest``/``durable``) and the fold workers, which
re-run the benchmark entry module when they spawn.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: (module, attribute path, span name[, call counter]) — every call the
#: traced run wraps; a call counter counts the calls (a single-statement
#: sqlite write autocommits, so it counts as a commit)
TRACE_POINTS: Tuple[tuple, ...] = (
    ("repro.api.session", "ShuffleSession.stream", "api.stream"),
    ("repro.frequency_oracles.grr", "GRR.privatize", "frequency_oracles.privatize"),
    ("repro.frequency_oracles.grr", "GRR.encode_reports", "frequency_oracles.privatize"),
    ("repro.frequency_oracles.grr", "GRR.decode_reports", "frequency_oracles.decode"),
    ("repro.frequency_oracles.grr", "GRR.support_counts", "frequency_oracles.support_counts"),
    ("repro.frequency_oracles.olh", "LocalHashingOracle.privatize", "frequency_oracles.privatize"),
    ("repro.frequency_oracles.olh", "LocalHashingOracle.encode_reports", "frequency_oracles.privatize"),
    ("repro.frequency_oracles.olh", "LocalHashingOracle.decode_reports", "frequency_oracles.decode"),
    ("repro.frequency_oracles.olh", "LocalHashingOracle.support_counts", "frequency_oracles.support_counts"),
    ("repro.frequency_oracles.olh", "support_counts_kernel", "hashing.support_counts_kernel"),
    ("repro.service.pipeline", "TelemetryPipeline.submit", "service.pipeline.submit"),
    ("repro.service.pipeline", "TelemetryPipeline.end_epoch", "service.pipeline.end_epoch"),
    ("repro.service.sharded", "ShardedPipeline.submit", "service.pipeline.submit"),
    ("repro.service.sharded", "ShardedPipeline.end_epoch", "service.pipeline.end_epoch"),
    ("repro.service.sharded", "ShardedPipeline.drain", "service.sharded.drain"),
    ("repro.service.buffer", "ReportBuffer.submit", "service.buffer.submit"),
    ("repro.service.buffer", "ReportBuffer.end_epoch", "service.buffer.submit"),
    ("repro.service.accountant", "PrivacyAccountant.charge", "service.accountant.charge"),
    ("repro.service.backends", "PlainShuffleBackend.shuffle", "service.backends.shuffle"),
    ("repro.service.aggregator", "IncrementalAggregator.fold_counts", "service.aggregator.fold_counts"),
    ("repro.service.aggregator", "IncrementalAggregator.estimates", "service.aggregator.estimates"),
    ("repro.persistence.store", "MemoryStateStore.record_ingest", "persistence.record_ingest"),
    ("repro.persistence.store", "MemoryStateStore.record_flushes", "persistence.record_flushes"),
    ("repro.persistence.store", "MemoryStateStore.record_release", "persistence.record_release"),
    ("repro.persistence.store", "MemoryStateStore.record_epoch", "persistence.record_epoch"),
    ("repro.persistence.store", "MemoryStateStore.epoch_log", "persistence.epoch_log"),
    ("repro.persistence.sqlite", "SqliteStateStore.record_ingest", "persistence.record_ingest", "persistence.commits"),
    ("repro.persistence.sqlite", "SqliteStateStore.record_flushes", "persistence.record_flushes"),
    ("repro.persistence.sqlite", "SqliteStateStore.record_release", "persistence.record_release"),
    ("repro.persistence.sqlite", "SqliteStateStore.record_epoch", "persistence.record_epoch"),
    ("repro.persistence.sqlite", "SqliteStateStore.epoch_log", "persistence.epoch_log"),
    ("repro.persistence.sqlite", "SqliteStateStore._commit", "persistence.commit", "persistence.commits"),
    ("repro.server.http", "Request.json", "server.http.json_decode"),
    ("repro.server.app", "read_request", "server.http.read_request"),
    ("repro.server.app", "paginate", "server.pagination.paginate"),
    ("repro.server.app", "response_bytes", "server.http.response_bytes"),
    ("repro.server.app", "TelemetryServer._accept_reports", "server.app.accept_reports"),
    ("repro.server.app", "TelemetryServer._apply", "server.app.apply"),
    ("repro.server.app", "TelemetryServer._epoch_rows", "server.app.epoch_rows"),
)

#: spans whose return value's length is added to a byte counter
_BYTE_COUNTERS = {"server.http.response_bytes": "server.response_bytes"}


class SpanRecorder:
    """Records spans of one process in memory; see the module docstring."""

    def __init__(self, role: str):
        self.role = role
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, fn, name: str, call_counter: Optional[str] = None):
        recorder = self
        byte_counter = _BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(recorder._ids)
            stack = recorder._stack()
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((span_id, parent, name, start, end, None))
            if byte_counter is not None:
                recorder.add(byte_counter, len(result))
            if call_counter is not None:
                recorder.add(call_counter, 1)
            return result

        return traced

    def wrap_async(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            return await _Stepped(recorder, name, fn(*args, **kwargs))

        return traced

    def install(self, points: Iterable[tuple] = TRACE_POINTS):
        """Replace every trace point with its recording wrapper."""
        for module_name, path, name, *call_counter in points:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
            if getattr(original, "_perfbench_span", None) is not None:
                raise RuntimeError(f"{module_name}:{path} is already wrapped")
            if inspect.iscoroutinefunction(original):
                wrapper = self.wrap_async(original, name)
            else:
                wrapper = self.wrap(original, name, *call_counter)
            wrapper._perfbench_span = name
            setattr(owner, attribute, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "role": self.role,
                    "pid": os.getpid(),
                    "spans": self.spans,
                    "counters": self.counters,
                },
                handle,
            )


class _Stepped:
    """Await a coroutine one step at a time, timing only the steps."""

    def __init__(self, recorder: SpanRecorder, name: str, coro):
        self.recorder = recorder
        self.name = name
        self.coro = coro

    def __await__(self):
        recorder, coro = self.recorder, self.coro
        span_id = next(recorder._ids)
        stack = recorder._stack()
        parent = stack[-1] if stack else 0
        busy = 0.0
        first = None
        send_value, thrown = None, None
        while True:
            step_start = time.perf_counter()
            if first is None:
                first = step_start
            stack.append(span_id)
            try:
                if thrown is not None:
                    yielded = coro.throw(thrown)
                else:
                    yielded = coro.send(send_value)
            except BaseException as finished:
                stack.pop()
                end = time.perf_counter()
                busy += end - step_start
                recorder.spans.append(
                    (span_id, parent, self.name, first, end, busy)
                )
                if isinstance(finished, StopIteration):
                    return finished.value
                raise
            stack.pop()
            busy += time.perf_counter() - step_start
            try:
                send_value, thrown = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as delivered:
                send_value, thrown = None, delivered


def install_fold_worker(span_dir: str) -> None:
    """Trace a spawned fold worker; its spans are written when it exits.

    ``multiprocessing`` runs its exit finalizers when a pool worker
    leaves normally (the pool was shut down), which is where the dump
    happens.
    """
    from multiprocessing import util

    recorder = SpanRecorder("fold-worker")
    recorder.install(
        point for point in TRACE_POINTS
        if point[0].startswith(("repro.frequency_oracles", "repro.service"))
    )
    path = os.path.join(span_dir, f"spans-worker-{os.getpid()}.json")
    util.Finalize(None, recorder.dump, args=(path,), exitpriority=10)


def summarize(dumps: Iterable[dict]) -> Dict[str, object]:
    """Per-layer count, self time and total time over every process dump."""
    layers: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    n_spans = 0
    for dump in dumps:
        spans = dump["spans"]
        n_spans += len(spans)
        child_time: Dict[int, float] = {}
        for _sid, parent, _name, start, end, busy in spans:
            if parent:
                duration = busy if busy is not None else end - start
                child_time[parent] = child_time.get(parent, 0.0) + duration
        for sid, _parent, name, start, end, busy in spans:
            duration = busy if busy is not None else end - start
            entry = layers.setdefault(
                name, {"count": 0, "self_s": 0.0, "total_s": 0.0}
            )
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += max(0.0, duration - child_time.get(sid, 0.0))
        for name, amount in dump["counters"].items():
            counters[name] = counters.get(name, 0) + amount
    return {"layers": layers, "counters": counters, "spans": n_spans}


def load_dumps(paths: Iterable[str]) -> List[dict]:
    dumps = []
    for path in paths:
        with open(path) as handle:
            dumps.append(json.load(handle))
    return dumps


def self_time(summary: dict, *names: str) -> float:
    layers = summary["layers"]
    return sum(layers[name]["self_s"] for name in names if name in layers)


def format_layers(summary: dict) -> str:
    """The per-layer table the traced run prints."""
    rows = sorted(
        summary["layers"].items(), key=lambda item: -item[1]["self_s"]
    )
    lines = [f"{'layer':40s} {'calls':>9s} {'self s':>10s} {'total s':>10s}"]
    for name, entry in rows:
        lines.append(
            f"{name:40s} {entry['count']:9d} {entry['self_s']:10.4f} "
            f"{entry['total_s']:10.4f}"
        )
    lines.append(f"spans recorded: {summary['spans']}")
    return "\n".join(lines)
