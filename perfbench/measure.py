"""Shared measurement helpers: percentiles, process CPU and memory, output.

Everything here reads the operating system from outside the program
under test: CPU time and peak resident memory come from ``/proc/<pid>``
(Linux), timings from ``time.perf_counter``.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Iterable, List, Optional

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank-interpolated percentile ``q`` in [0, 100] of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def timing_summary(samples_s: List[float]) -> Dict[str, float]:
    """p50/p90/p99 in milliseconds plus the sample count."""
    return {
        "n": len(samples_s),
        "p50_ms": percentile(samples_s, 50) * 1e3,
        "p90_ms": percentile(samples_s, 90) * 1e3,
        "p99_ms": percentile(samples_s, 99) * 1e3,
    }


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds the process has used so far (all threads)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read().decode("ascii", "replace")
    # The command name may hold spaces; the fields after its ')' are fixed.
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S


def peak_rss_mb(pid: int) -> float:
    """The process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def cpu_of(pids: Iterable[int]) -> float:
    return sum(cpu_seconds(pid) for pid in pids)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Dict[str, object]],
    details: Optional[dict],
    details_path: Optional[str],
) -> None:
    """Write the optional details file, then the one-line JSON result."""
    if details_path:
        with open(details_path, "w") as handle:
            json.dump(details, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)
