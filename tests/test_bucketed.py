"""Unit tests for the bucket-and-segment scale shape
(bern_ray/stages/bucketed.py): the replacement for per-key
groupby(key).map_groups across the temporal/window family.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from bern_ray.stages.bucketed import (
    bucketed_apply,
    key_buckets,
    segmented_reduce,
    segments,
)


def test_segments_single_key():
    starts, sizes = segments(np.array([1, 1, 2, 2, 2, 5]))
    assert starts.tolist() == [0, 2, 5]
    assert sizes.tolist() == [2, 3, 1]


def test_segments_multi_key():
    a = np.array([1, 1, 1, 2, 2])
    b = np.array([7, 7, 8, 8, 8])
    starts, sizes = segments(a, b)
    # breaks where EITHER column changes
    assert starts.tolist() == [0, 2, 3]
    assert sizes.tolist() == [2, 1, 2]


def test_segments_empty():
    starts, sizes = segments(np.empty(0, dtype=np.int64))
    assert len(starts) == 0 and len(sizes) == 0


def test_segmented_reduce_empty():
    keys, vals = segmented_reduce(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    )
    assert len(keys) == 0 and len(vals) == 0
    assert vals.dtype == np.float64


def test_segmented_reduce_int_sum():
    keys, sums = segmented_reduce(
        np.array([5, 2, 5, 9, 2, 5]), np.array([1, 10, 2, 7, 20, 3])
    )
    assert keys.tolist() == [2, 5, 9]
    assert sums.tolist() == [30, 6, 7]


def test_segmented_reduce_maximum():
    keys, mx = segmented_reduce(
        np.array([3, 1, 3, 1]), np.array([4, 8, 9, 2]), np.maximum
    )
    assert keys.tolist() == [1, 3]
    assert mx.tolist() == [8, 9]


def test_segmented_reduce_float_sum_order_free():
    """The same multiset of float partials sums to the same bits in
    any row order (a sum in arrival order would not)."""
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 5, 400)
    vals = rng.standard_normal(400) * 10.0 ** rng.integers(-8, 8, 400)
    perm = rng.permutation(400)
    k1, s1 = segmented_reduce(keys, vals)
    k2, s2 = segmented_reduce(keys[perm], vals[perm])
    assert k1.tolist() == k2.tolist()
    assert s1.tobytes() == s2.tobytes()


def test_key_buckets_deterministic_and_bounded():
    ids = pa.array(np.arange(1000, dtype=np.int64) * 10_000_019)
    b1 = key_buckets(ids, 64)
    b2 = key_buckets(ids, 64)
    assert (b1 == b2).all()
    assert b1.min() >= 0 and b1.max() < 64
    # spread: no bucket hogs the keys (the int mix must actually mix)
    counts = np.bincount(b1, minlength=64)
    assert counts.max() < 3 * (1000 / 64)
    # string keys hash deterministically too
    s = pa.array([f"url-{i}" for i in range(100)])
    assert (key_buckets(s, 16) == key_buckets(s, 16)).all()


def test_key_buckets_string_layout_invariant():
    """A string key lands in the same bucket whatever Arrow layout the
    batch hands over: chunked, sliced or one contiguous array."""
    words = [f"band-{i}:{i * 7919 % 1000:04x}" for i in range(200)]
    whole = pa.array(words)
    want = key_buckets(whole, 64)
    chunked = pa.chunked_array([pa.array(words[:77]), pa.array(words[77:])])
    assert key_buckets(chunked, 64).tolist() == want.tolist()
    sliced = key_buckets(whole.slice(30, 50), 64)
    assert sliced.tolist() == want[30:80].tolist()
    assert 1 < len(np.unique(want)) <= 64


def test_key_buckets_one_bucket_is_all_zero():
    """num_buckets=1 sends every key to bucket 0 (contract_cc's final
    one-task solve relies on it)."""
    ints = pa.array(np.arange(-50, 50, dtype=np.int64) * 1_000_003)
    strs = pa.array([f"k{i}" for i in range(100)])
    assert key_buckets(ints, 1).tolist() == [0] * 100
    assert key_buckets(strs, 1).tolist() == [0] * 100


def test_bucketed_apply_matches_per_key_groupby(ray_session):
    """A per-key ordered kernel through bucketed_apply must equal the
    naive per-key pandas computation (here: running count per key)."""
    rng = np.random.default_rng(7)
    n = 5000
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 300, n),
            "ts": rng.integers(0, 10_000, n),
            "row_id": np.arange(n, dtype=np.int64),
        }
    )

    def kernel(t: pa.Table) -> pa.Table:
        rid = t["row_id"].to_numpy(zero_copy_only=False)
        k = t["k"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        order = np.lexsort((rid, ts, k))
        starts, sizes = segments(k[order])
        occ = np.arange(t.num_rows) - np.repeat(starts, sizes) + 1
        return pa.table(
            {
                "row_id": pa.array(rid[order], type=pa.int64()),
                "occ": pa.array(occ, type=pa.int64()),
            }
        )

    ds = ray.data.from_pandas(df).repartition(8)
    got = (
        bucketed_apply(ds, "k", kernel, num_buckets=16)
        .to_pandas()
        .sort_values("row_id")
        .reset_index(drop=True)
    )

    exp = df.sort_values(["k", "ts", "row_id"], kind="mergesort").copy()
    exp["occ"] = exp.groupby("k").cumcount() + 1
    exp = exp.sort_values("row_id")[["row_id", "occ"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_bucketed_apply_each_key_fully_in_one_call(ray_session):
    """Every row of a key must arrive in the SAME kernel invocation —
    the contract per-key ordered operators rely on."""
    df = pd.DataFrame(
        {"k": np.repeat(np.arange(50, dtype=np.int64), 20)}
    )

    def kernel(t: pa.Table) -> pa.Table:
        k = np.sort(t["k"].to_numpy(zero_copy_only=False))
        starts, sizes = segments(k)
        return pa.table(
            {
                "k": pa.array(k[starts], type=pa.int64()),
                "n": pa.array(sizes, type=pa.int64()),
            }
        )

    ds = ray.data.from_pandas(df).repartition(16)
    got = bucketed_apply(ds, "k", kernel, num_buckets=8).to_pandas()
    # one output row per key with the FULL count => never split
    assert len(got) == 50
    assert (got["n"] == 20).all()
