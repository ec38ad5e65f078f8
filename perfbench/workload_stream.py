"""The ``stream`` workload: in-process closed loop over process-sharded folds.

One caller feeds pre-generated Zipf batches to the pipeline that
``ShuffleSession.stream`` builds (SOLH pinned, d=256, 2 shards folded by
``backend="process"`` workers over the shared-memory transport, memory
store) and closes an epoch every ``EPOCH_BATCHES`` batches.  Each
operation waits for the previous one (closed loop), so the run measures
how fast the support-count kernel and the fold transport keep up; the
HTTP front door and the durable store are not involved.

Per epoch the loop times three calls: every ``submit`` (the ack), the
``end_epoch`` (release: collects every outstanding fold and records the
epoch), and one ``estimates`` read (the query).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time

import numpy as np

from measure import cpu_of, metric, peak_rss_mb, timing_summary

D = 256
BATCH = 5000
EPOCH_BATCHES = 16
FLUSH_SIZE = 20000
N_BATCHES = 64
SHARDS = 2
SETUPS = 5
#: estimates may stray from the true frequencies by this many standard
#: deviations of the plan's closed-form variance (any of the d values)
ERROR_Z = 6.0


def _inputs(seed: int):
    from repro.data import zipf_histogram
    from repro.data.synthetic import values_from_histogram

    rng = np.random.default_rng((seed, 0x5EED))
    return [
        values_from_histogram(zipf_histogram(BATCH, D, 1.3, rng), rng)
        for __ in range(N_BATCHES)
    ]


def _session():
    from repro.api import DeploymentConfig, PrivacyBudget, ShuffleSession

    return ShuffleSession(
        DeploymentConfig(mechanism="SOLH", d=D),
        PrivacyBudget(eps=1.0, delta=1e-9),
    )


def _build(seed: int):
    pipeline = _session().stream(
        FLUSH_SIZE,
        epoch_size=BATCH * EPOCH_BATCHES,
        admitted_epochs=100_000,
        shards=SHARDS,
        backend="process",
        transport="shm",
        seed=seed,
    )
    pipeline.warmup()
    return pipeline


def _stop_resource_tracker() -> None:
    """End the resource tracker the spawned fold workers started; reap it.

    The tracker would otherwise outlive this process until it read EOF
    on its pipe.  Stopping it last, after every segment is unlinked,
    leaves no process of the run behind.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    elif tracker._fd is not None:
        os.close(tracker._fd)
        os.waitpid(tracker._pid, 0)
        tracker._fd = tracker._pid = None


def _replay_first_epoch(config, seed: int, batches) -> np.ndarray:
    """Epoch 0 folded inline in one shard: must equal the process folds."""
    from repro.service import ShardedPipeline

    with ShardedPipeline(
        config, np.random.default_rng(seed), n_shards=1, fold_backend="serial"
    ) as replay:
        for values in batches:
            replay.submit(values)
        replay.end_epoch()
        return replay.store.epoch_log()[0][1]


def run(seed: int, seconds: float, span_dir) -> dict:
    """Set up, measure for ``seconds``, check the outputs; return results."""
    batches = _inputs(seed)
    epoch_of = [
        batches[(e * EPOCH_BATCHES) % N_BATCHES:][:EPOCH_BATCHES]
        for e in range(N_BATCHES // EPOCH_BATCHES)
    ]
    recorder = None
    if span_dir is not None:
        from spans import SpanRecorder

        recorder = SpanRecorder("stream")
        recorder.install()
        # Spawned fold workers re-run the entry module, which installs
        # the span recorder when it sees this variable.
        os.environ["PERFBENCH_SPAN_DIR"] = span_dir

    setups = []
    pipeline = None
    try:
        for __ in range(SETUPS):
            if pipeline is not None:
                pipeline.close()
                pipeline = None
            started = time.perf_counter()
            pipeline = _build(seed)
            setups.append(time.perf_counter() - started)

        # Epoch 0 is the warm-up: folded and recorded, but not timed.
        for values in epoch_of[0]:
            pipeline.submit(values)
        pipeline.end_epoch()

        workers = [child.pid for child in multiprocessing.active_children()]
        pids = [os.getpid()] + workers
        acks, releases, queries = [], [], []
        submitted = []
        cpu_start = cpu_of(pids)
        window_start = time.perf_counter()
        epoch = 1
        while True:
            for values in epoch_of[epoch % len(epoch_of)]:
                started = time.perf_counter()
                pipeline.submit(values)
                acks.append(time.perf_counter() - started)
                submitted.append(values)
            started = time.perf_counter()
            pipeline.end_epoch()
            releases.append(time.perf_counter() - started)
            started = time.perf_counter()
            pipeline.estimates()
            finished = time.perf_counter()
            queries.append(finished - started)
            epoch += 1
            if finished - window_start >= seconds:
                break
        window = finished - window_start
        cpu_used = cpu_of(pids) - cpu_start
        rss = sum(peak_rss_mb(pid) for pid in pids)

        checks = _check(pipeline, seed, epoch_of[0], submitted)
        transport = pipeline.transport_stats()
        faults = pipeline.fault_stats()
        aggregate = pipeline.aggregate()
    finally:
        try:
            if pipeline is not None:
                pipeline.close()
        finally:
            os.environ.pop("PERFBENCH_SPAN_DIR", None)
            _stop_resource_tracker()
    if recorder is not None:
        recorder.dump(os.path.join(span_dir, "spans-stream.json"))

    n_reports = sum(len(values) for values in submitted)
    operations = len(acks) + len(releases) + len(queries)
    ack, release, query = (
        timing_summary(acks), timing_summary(releases), timing_summary(queries)
    )
    metrics = {
        "setup_s": metric(float(np.median(setups)), "s"),
        "reports_per_s": metric(n_reports / window, "1/s"),
        "ack_p50_ms": metric(ack["p50_ms"], "ms"),
        "ack_p90_ms": metric(ack["p90_ms"], "ms"),
        "release_p50_ms": metric(release["p50_ms"], "ms"),
        "query_p50_ms": metric(query["p50_ms"], "ms"),
        "query_p90_ms": metric(query["p90_ms"], "ms"),
        "cpu_us_per_report": metric(cpu_used / n_reports * 1e6, "us"),
        "ok_ratio": metric(1.0, "ratio"),
        "peak_rss_mb": metric(rss, "MiB"),
    }
    counters = {
        "service.sharded.bytes_moved": transport["bytes_moved"],
        "service.shm.peak_bytes": transport["shm_peak_bytes"],
        "service.sharded.fold_retries": faults["fold_retries"],
        "service.backends.genuine_share": aggregate.n_genuine
        / (aggregate.n_genuine + aggregate.n_fake),
        "service.accountant.rejected_flushes": checks["rejected_flushes"],
    }
    return {
        "metrics": metrics,
        "counters": counters,
        "attempted": operations,
        "failed": 0,
        "checks": checks,
        "timings": {"ack": ack, "release": release, "query": query},
        "setups_s": setups,
        "window_s": window,
        "reports": n_reports,
        "epochs": epoch,
        "workers": len(workers),
        "generator_late_ms": None,
    }


def _check(pipeline, seed: int, first_epoch, submitted) -> dict:
    """Correctness gates: budget, faults, inline replay, error bound."""
    failures = []
    eps_spent, delta_spent = pipeline.accountant.spent()
    config = pipeline.config
    if pipeline.n_rejected:
        failures.append(f"{pipeline.n_rejected} flush(es) rejected")
    if (eps_spent > config.eps_budget * (1 + 1e-9)
            or delta_spent > config.delta_budget * (1 + 1e-9)):
        failures.append(
            f"spent ({eps_spent}, {delta_spent}) exceeds the budget "
            f"({config.eps_budget}, {config.delta_budget})"
        )
    faults = pipeline.fault_stats()
    if any(faults[key] for key in faults):
        failures.append(f"fault_stats not all zero: {faults}")

    served = pipeline.store.epoch_log()[0][1]
    replayed = _replay_first_epoch(config, seed, first_epoch)
    identical = bool(np.array_equal(served, replayed))
    if not identical:
        failures.append("epoch 0 differs from its inline single-shard replay")

    aggregate = pipeline.aggregate()
    values = np.concatenate(list(first_epoch) + submitted)
    truth = np.bincount(values, minlength=config.d) / len(values)
    n_flushes = aggregate.n_batches
    sigma = float(np.sqrt(config.plan.variance / n_flushes))
    worst = float(np.max(np.abs(aggregate.estimates() - truth)))
    if worst > ERROR_Z * sigma:
        failures.append(
            f"max estimate error {worst:.3g} exceeds {ERROR_Z} sigma "
            f"({ERROR_Z * sigma:.3g})"
        )
    return {
        "ok": not failures,
        "failures": failures,
        "rejected_flushes": pipeline.n_rejected,
        "eps_spent": eps_spent,
        "eps_budget": config.eps_budget,
        "epoch0_identical_to_replay": identical,
        "epoch0_sha256": hashlib.sha256(served.tobytes()).hexdigest(),
        "max_error": worst,
        "error_bound": ERROR_Z * sigma,
    }
