"""Turn one run's measurements into the printed summary and layer metrics."""

from __future__ import annotations

from spans import self_time

#: per-layer metric -> the span names whose self time it sums
LAYER_SPANS = {
    # the frequency oracle layer includes the hashing kernel it calls
    "frequency_oracles.support_counts_busy_s": (
        "frequency_oracles.support_counts", "hashing.support_counts_kernel",
    ),
    "hashing.support_counts_kernel_busy_s": ("hashing.support_counts_kernel",),
    "frequency_oracles.privatize_busy_s": ("frequency_oracles.privatize",),
    "frequency_oracles.decode_busy_s": ("frequency_oracles.decode",),
    "service.pipeline.submit_busy_s": ("service.pipeline.submit",),
    "service.sharded.drain_wait_s": ("service.sharded.drain",),
    "service.backends.shuffle_busy_s": ("service.backends.shuffle",),
    "service.buffer.submit_busy_s": ("service.buffer.submit",),
    "service.accountant.charge_busy_s": ("service.accountant.charge",),
    "service.aggregator.fold_counts_busy_s": ("service.aggregator.fold_counts",),
    "server.http.read_request_busy_s": ("server.http.read_request",),
    "server.http.json_decode_busy_s": ("server.http.json_decode",),
    "server.app.accept_reports_busy_s": ("server.app.accept_reports",),
    "persistence.record_ingest_busy_s": ("persistence.record_ingest",),
    "persistence.record_flushes_busy_s": ("persistence.record_flushes",),
    "persistence.record_release_busy_s": ("persistence.record_release",),
    "persistence.record_epoch_busy_s": ("persistence.record_epoch",),
    "persistence.epoch_log_busy_s": ("persistence.epoch_log",),
    "server.pagination.paginate_busy_s": ("server.pagination.paginate",),
    "api.stream_busy_s": ("api.stream",),
}


def layer_metrics(config: dict, summary: dict, counters: dict) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json from one traced run.

    Busy times come from span self times, counts from the span
    recorder's counters and from the workload's own readings; a layer
    the workload never enters reads 0.
    """
    values = dict(summary["counters"])
    values.update(counters)
    values["trace.spans"] = summary["spans"]
    for name, spans in LAYER_SPANS.items():
        values[name] = self_time(summary, *spans)
    metrics = {}
    for entry in config["per_layer"]:
        name = entry["name"]
        metrics[name] = {"value": float(values.get(name, 0)), "unit": entry["unit"]}
    return metrics


def print_summary(workload: str, result: dict) -> None:
    """Human-readable lines above the JSON result: p99s, counts, gates."""
    print(f"workload {workload}: {result['reports']} reports accepted in "
          f"{result['window_s']:.2f} s; {result['attempted']} operations "
          f"attempted, {result['failed']} refused or failed "
          f"(refused_ratio {result['failed'] / result['attempted']:.6f})")
    for name, timing in result["timings"].items():
        print(f"  {name:8s} n={timing['n']:7d}  p50 {timing['p50_ms']:9.3f} ms"
              f"  p90 {timing['p90_ms']:9.3f} ms  p99 {timing['p99_ms']:9.3f} ms"
              f" (p90, p99 not gated)")
    for name, entry in result["metrics"].items():
        print(f"  {name:20s} {entry['value']:.6g} {entry['unit']}")
    late = result.get("generator_late_ms")
    if late is not None:
        print(f"  generator lateness: p50 {late['p50_ms']:.3f} ms, "
              f"p90 {late['p90_ms']:.3f} ms (bound {late['bound_ms']} ms), "
              f"p99 {late['p99_ms']:.3f} ms")
    checks = result["checks"]
    print(f"  correctness: {'ok' if checks['ok'] else 'FAILED'}"
          + "".join(f"\n    - {failure}" for failure in checks["failures"]))
