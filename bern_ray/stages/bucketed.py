"""Bucket-and-segment: the one shuffle shape for per-key work.

`groupby(key).map_groups(fn)` is one Python call per key and ~one
block per group out of the shuffle — correct, but at web scale (10^8
users / documents) it is the canonical tiny-groups scheduler death.
This module gives the replacement shape that every wide step on the
linkage, near-dup and meta-blocking paths goes through — pair
generation and pair dedup (stages/blocking.py), contraction CC
(stages/cc.py), cluster assignment (pipelines/linkage.py), the dedup
family's band / posting-list shuffles (functions/dedup.py) and the
meta-blocking token, pair and node passes (functions/metablocking.py,
summing partials with `segmented_reduce`): shuffle ONCE on
``bucket = hash(key) % K`` (K small, independent of key cardinality),
then hand the WHOLE bucket to a vectorized kernel that lexsorts by
(key, order cols) and segments per key with numpy run-length
arithmetic — C speed inside, K Python calls total.

K is the caller's ``num_buckets``. The linkage pass plans it once from
its input size, and each near-dup operator that materializes a
shingle table plans it from that table's row count
(stages/partitions.py ``plan_buckets``: two buckets per planned block,
capped at each site's old constant), so a small input makes a few
kernel calls instead of hundreds; the other callers pass a fixed
count. A kernel's output never depends on K, since all rows of a key
share one bucket at any count.

Every kernel gets a pyarrow.Table containing all rows of one bucket
(the ``_bucket`` column already stripped) and returns a pyarrow.Table.
The partitioning assumption is one BUCKET fits one task, not one key
— keys never need to be rare.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

import ray.data

from ..core.strhash import _token_h64

# Shuffle-prep bundling: parquet reads produce small blocks; feeding
# hundreds of tiny blocks into the sort barrier is superlinearly slow
# (measured: 750k rows, 0.26s @16 blocks vs 4.2s @256). Bundle first.
PREP_BATCH = 65536

_MIX = np.uint64(0x9E3779B97F4A7C15)


def key_buckets(col: pa.ChunkedArray | pa.Array, num_buckets: int) -> np.ndarray:
    """Deterministic int64 bucket ids for an int or string key column.

    Strings hash through the vectorized FNV (`core/strhash.py`) first;
    both kinds then take the same multiplicative int mix."""
    if pa.types.is_integer(col.type):
        k = col.to_numpy(zero_copy_only=False).astype(np.uint64)
    else:
        k = _token_h64(col).astype(np.uint64)
    with np.errstate(over="ignore"):
        h = (k * _MIX) >> np.uint64(33)
    return (h % np.uint64(num_buckets)).astype(np.int64)


def bucketed_apply(
    ds: "ray.data.Dataset",
    key: str,
    fn: Callable[[pa.Table], pa.Table],
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Apply ``fn`` once per hash bucket of ``key``.

    One wide shuffle on a K-ary int key; ``fn`` sees every row whose
    key hashes to that bucket and is responsible for its own per-key
    lexsort + segmentation (see `segments` below for the helper).
    """

    def add_bucket(t: pa.Table) -> pa.Table:
        # strip pandas metadata parquet readers attach to schemas: a
        # metadata-carrying schema is unhashable in this pyarrow, which
        # disables Ray Data's cheap schema-dedup on every block concat
        return t.replace_schema_metadata(None).append_column(
            "_bucket", pa.array(key_buckets(t[key], num_buckets))
        )

    def run(t: pa.Table) -> pa.Table:
        return fn(t.drop_columns(["_bucket"]))

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", batch_size=PREP_BATCH)
        .groupby("_bucket")
        .map_groups(run, batch_format="pyarrow")
    )


def segments(*sorted_key_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length segmentation over already-lexsorted key columns.

    Returns (starts, sizes): ``starts[i]`` is the first row of segment
    i, ``sizes[i]`` its length. Rows i and i-1 are in the same segment
    iff every key column is equal at both positions.
    """
    n = len(sorted_key_cols[0])
    if n == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for col in sorted_key_cols:
        new[1:] |= col[1:] != col[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, n))
    return starts, sizes


def segmented_reduce(
    keys: np.ndarray, values: np.ndarray, ufunc: np.ufunc = np.add
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce ``values`` per distinct key -> (sorted distinct keys,
    reductions), e.g. the per-key sum of a bucket's partials.

    Rows are lexsorted by (key, value) first, so a float sum adds its
    terms in one fixed order whatever order the rows arrived in.
    """
    order = np.lexsort((values, keys))
    keys, values = keys[order], values[order]
    starts, _ = segments(keys)
    if not starts.size:
        return keys, values
    return keys[starts], ufunc.reduceat(values, starts)


def segment_starts_repeat(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-row index of the row's own segment start (length n)."""
    return np.repeat(starts, sizes)
