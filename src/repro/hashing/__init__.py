"""Seeded hash families and the support-count kernel engine.

:mod:`repro.hashing.families` defines the universal families local-hashing
oracles draw from; :mod:`repro.hashing.kernels` holds the shared
low-allocation O(n*d) support-count kernel every aggregation path routes
through; :mod:`repro.hashing.xxhash32` provides both the scalar xxHash32
reference and the vectorized fixed-width array path.
"""

from .calibrate import (
    KernelCalibration,
    calibrate_kernel,
    ensure_calibration,
    resolve_chunk_bytes,
)
from .families import (
    CarterWegmanHashFamily,
    HashFamily,
    MultiplyShiftHashFamily,
    XXHash32Family,
    default_family,
    splitmix64,
)
from .kernels import (
    TILE_BYTES,
    KernelPlan,
    SeedRowCache,
    active_chunk_bytes,
    chunk_spans,
    plan_support_counts,
    set_active_chunk_bytes,
    support_counts_kernel,
)
from .xxhash32 import xxhash32, xxhash32_int, xxhash32_int_array

__all__ = [
    "CarterWegmanHashFamily",
    "HashFamily",
    "KernelCalibration",
    "KernelPlan",
    "MultiplyShiftHashFamily",
    "SeedRowCache",
    "TILE_BYTES",
    "XXHash32Family",
    "active_chunk_bytes",
    "calibrate_kernel",
    "chunk_spans",
    "default_family",
    "ensure_calibration",
    "plan_support_counts",
    "resolve_chunk_bytes",
    "set_active_chunk_bytes",
    "splitmix64",
    "support_counts_kernel",
    "xxhash32",
    "xxhash32_int",
    "xxhash32_int_array",
]
