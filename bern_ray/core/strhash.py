"""Vectorized string hashing straight over Arrow string buffers.

One stable 63-bit string hash for the whole engine: join co-location
keys, shuffle buckets (stages/bucketed.py `key_buckets`) and the
token-hash kernels in functions/ all read the same FNV-1a over the
raw offsets + data buffers, so no per-row Python touches a string.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _as_string_array(arr) -> pa.Array:
    """One contiguous int32-offset StringArray: combines chunks and
    downcasts large_string (whose offsets are int64 — the raw buffer
    readers below would silently misread them as int32). Ray Data
    batches are far below the 2 GiB int32 payload bound, so the
    downcast never overflows here."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_large_string(arr.type):
        arr = arr.cast(pa.string())
    return arr


def _token_h64(tokens) -> np.ndarray:
    """Stable 63-bit token hash (join co-location key; exactness comes
    from the post-merge string-equality filter, never from the hash).

    Vectorized FNV-1a straight over the Arrow string buffer: <= 32
    numpy column passes, zero per-row Python (measured 7x the old
    blake2b-per-token loop, BASELINE.md r5). Tokens sharing their
    first 32 bytes AND full byte length collide — which only
    CO-LOCATES them (the join post-filters on token equality)."""
    if not isinstance(tokens, (pa.Array, pa.ChunkedArray)):
        tokens = pa.array(list(tokens), type=pa.string())
    tokens = _as_string_array(tokens)
    n = len(tokens)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    offs = np.frombuffer(tokens.buffers()[1], dtype=np.int32)[
        tokens.offset : tokens.offset + n + 1
    ].astype(np.int64)
    data = np.frombuffer(tokens.buffers()[2], dtype=np.uint8)
    true_lens = np.diff(offs)
    lens = np.minimum(true_lens, 32)
    starts = offs[:-1]
    h = np.full(n, 0xCBF29CE484222325, dtype=np.uint64)
    cap = len(data) - 1 if len(data) else 0
    with np.errstate(over="ignore"):
        for j in range(int(lens.max()) if n else 0):
            m = j < lens
            b = np.zeros(n, dtype=np.uint64)
            pos = np.minimum(starts + j, cap)
            b[m] = data[pos[m]]
            nh = (h ^ b) * np.uint64(0x100000001B3)
            h = np.where(m, nh, h)
        h = (h ^ true_lens.astype(np.uint64)) * np.uint64(0x100000001B3)
    return (h >> np.uint64(1)).astype(np.int64)
