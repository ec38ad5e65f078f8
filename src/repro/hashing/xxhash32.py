"""xxHash32: scalar reference implementation plus a vectorized array path.

The paper's prototype uses ``python-xxhash`` seeds (4 bytes) as the random
hash functions of OLH/SOLH.  That package is not available offline, so this
module re-implements the XXH32 algorithm exactly (validated against the
reference test vectors in ``tests/hashing/test_xxhash32.py``).

Two implementations are provided:

* :func:`xxhash32` / :func:`xxhash32_int` — the scalar reference, a direct
  transcription of the canonical specification at
  https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md.  It
  handles arbitrary byte strings and is the ground truth every vectorized
  result is validated against.
* :func:`xxhash32_int_array` — branch-free uint32 lane arithmetic over
  numpy arrays.  The frequency-oracle layer only ever hashes the fixed
  8-byte little-endian encoding of a domain value, and fixed-width 8-byte
  inputs take exactly one path through the spec (the short-input branch:
  ``acc = seed + PRIME5 + 8`` followed by two 4-byte-lane rounds and the
  avalanche), so the whole algorithm collapses to a handful of wrapping
  uint32 array operations that broadcast over ``seeds x values``.  They
  run in place in an ``out`` buffer with one ``scratch`` buffer, which
  lets the support-count kernel hash straight into its cache-resident
  tile.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_PRIME1 = 0x9E3779B1
_PRIME2 = 0x85EBCA77
_PRIME3 = 0xC2B2AE3D
_PRIME4 = 0x27D4EB2F
_PRIME5 = 0x165667B1

_MASK32 = 0xFFFFFFFF


def _rotl32(value: int, count: int) -> int:
    """Rotate a 32-bit integer left by ``count`` bits."""
    value &= _MASK32
    return ((value << count) | (value >> (32 - count))) & _MASK32


def _round(acc: int, lane: int) -> int:
    """One accumulator round: mix a 32-bit lane into ``acc``."""
    acc = (acc + lane * _PRIME2) & _MASK32
    acc = _rotl32(acc, 13)
    return (acc * _PRIME1) & _MASK32


def _avalanche(acc: int) -> int:
    """Final mixing stage that spreads entropy across all output bits."""
    acc ^= acc >> 15
    acc = (acc * _PRIME2) & _MASK32
    acc ^= acc >> 13
    acc = (acc * _PRIME3) & _MASK32
    acc ^= acc >> 16
    return acc


def xxhash32(data: bytes, seed: int = 0) -> int:
    """Hash ``data`` with 32-bit xxHash using ``seed``.

    Parameters
    ----------
    data:
        The byte string to hash.
    seed:
        A 32-bit unsigned seed selecting the hash function.

    Returns
    -------
    int
        The 32-bit unsigned hash value.
    """
    seed &= _MASK32
    length = len(data)
    index = 0

    if length >= 16:
        acc1 = (seed + _PRIME1 + _PRIME2) & _MASK32
        acc2 = (seed + _PRIME2) & _MASK32
        acc3 = seed
        acc4 = (seed - _PRIME1) & _MASK32
        limit = length - 16
        while index <= limit:
            acc1 = _round(acc1, int.from_bytes(data[index:index + 4], "little"))
            acc2 = _round(acc2, int.from_bytes(data[index + 4:index + 8], "little"))
            acc3 = _round(acc3, int.from_bytes(data[index + 8:index + 12], "little"))
            acc4 = _round(acc4, int.from_bytes(data[index + 12:index + 16], "little"))
            index += 16
        acc = (
            _rotl32(acc1, 1) + _rotl32(acc2, 7) + _rotl32(acc3, 12) + _rotl32(acc4, 18)
        ) & _MASK32
    else:
        acc = (seed + _PRIME5) & _MASK32

    acc = (acc + length) & _MASK32

    while index + 4 <= length:
        lane = int.from_bytes(data[index:index + 4], "little")
        acc = (acc + lane * _PRIME3) & _MASK32
        acc = (_rotl32(acc, 17) * _PRIME4) & _MASK32
        index += 4

    while index < length:
        acc = (acc + data[index] * _PRIME5) & _MASK32
        acc = (_rotl32(acc, 11) * _PRIME1) & _MASK32
        index += 1

    return _avalanche(acc)


def xxhash32_int(value: int, seed: int = 0) -> int:
    """Hash a non-negative integer by its 8-byte little-endian encoding.

    This is the encoding the frequency-oracle layer uses when hashing domain
    values with a seeded xxHash function.
    """
    return xxhash32(int(value).to_bytes(8, "little"), seed)


def _rotl32_np(values: np.ndarray, count: int, scratch: np.ndarray) -> np.ndarray:
    """Rotate a uint32 array left by ``count`` bits, in place.

    ``scratch`` (same shape, clobbered) holds the right-shifted half, so
    the rotation writes only into buffers the caller already owns.
    """
    np.right_shift(values, np.uint32(32 - count), out=scratch)
    np.left_shift(values, np.uint32(count), out=values)
    np.bitwise_or(values, scratch, out=values)
    return values


def _avalanche_np(acc: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Vectorized final mixing stage, in place on ``acc`` (``scratch`` is
    clobbered)."""
    for shift, prime in ((15, _PRIME2), (13, _PRIME3)):
        np.right_shift(acc, np.uint32(shift), out=scratch)
        np.bitwise_xor(acc, scratch, out=acc)
        np.multiply(acc, np.uint32(prime), out=acc)
    np.right_shift(acc, np.uint32(16), out=scratch)
    np.bitwise_xor(acc, scratch, out=acc)
    return acc


def xxhash32_int_array(
    values: np.ndarray,
    seeds: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized :func:`xxhash32_int`: hash 8-byte encodings of ``values``.

    ``values`` and ``seeds`` are integer arrays (or scalars) that broadcast
    against each other — pass ``seeds[:, None]`` against a 1-D ``values``
    to evaluate the full outer product.  Values must lie in ``[0, 2^64)``
    (the 8-byte encoding's range); seeds wrap modulo ``2^32`` exactly like
    the scalar path.  Returns the uint32 hashes with the broadcast shape,
    bit-for-bit identical to the scalar reference.

    ``out`` and ``scratch`` are optional uint32 buffers of the broadcast
    shape; missing ones are allocated.  The lane arithmetic runs in place
    in ``out`` and uses ``scratch`` as its only work buffer, so the
    matrix-shaped footprint is exactly those two arrays (8 bytes per
    hash); every other temporary has the shape of ``seeds`` or ``values``
    alone.  The support-count kernel passes its cache-resident tile here.
    """
    values = np.asarray(values)
    if values.size and values.dtype != np.uint64 and int(values.min()) < 0:
        raise ValueError(
            f"value {int(values.min())} outside [0, 2^64): xxHash32 hashes "
            f"the 8-byte little-endian encoding"
        )
    values = values.astype(np.uint64, copy=False)
    seeds = np.asarray(seeds)
    shape = np.broadcast_shapes(seeds.shape, values.shape)
    if out is None:
        out = np.empty(shape, dtype=np.uint32)
    if scratch is None:
        scratch = np.empty(shape, dtype=np.uint32)
    with np.errstate(over="ignore"):
        # Short-input branch for length 8: acc = seed + PRIME5 + len.
        acc0 = (
            seeds.astype(np.uint64, copy=False) & np.uint64(_MASK32)
        ).astype(np.uint32) + np.uint32((_PRIME5 + 8) & _MASK32)
        # 8-byte little-endian encoding = two 4-byte lanes; premultiply by
        # the lane prime so the matrix-shaped work is add/rotate/multiply.
        lane_lo = (values & np.uint64(_MASK32)).astype(np.uint32)
        lane_lo *= np.uint32(_PRIME3)
        lane_hi = (values >> np.uint64(32)).astype(np.uint32)
        np.add(acc0, lane_lo, out=out)
        _rotl32_np(out, 17, scratch)
        np.multiply(out, np.uint32(_PRIME4), out=out)
        # Values below 2^32 have an all-zero high lane: adding it would be
        # a full matrix pass that changes nothing.
        if lane_hi.any():
            lane_hi *= np.uint32(_PRIME3)
            np.add(out, lane_hi, out=out)
        _rotl32_np(out, 17, scratch)
        np.multiply(out, np.uint32(_PRIME4), out=out)
        return _avalanche_np(out, scratch)
