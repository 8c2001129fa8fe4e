"""Distributed partitioned hash join built from Ray Data primitives.

The engine's one join kernel (SURVEY.md §2.4): both sides get a
``__b = hash(key) % num_buckets`` column, one ``groupby(__b)``
co-locates matching keys, and a per-bucket pandas merge emits joined
rows — the bucket rule is stages/bucketed.py's ``key_buckets``; only
the two-sided union is this module's own. It serves every attach /
verify site that previously used a driver-built broadcast map.

Why not ``Dataset.join``: measured on this target (500k pairs ⋈ 100k
attrs, 32 CPUs) the hash-shuffle aggregator join costs 8.9-18.8 s
where this bucketed groupby join costs 2.2 s — the aggregator-actor
startup dominates at per-stage scale. The bucketed join also rides the
same sort-shuffle path as every other stage (one shuffle
implementation to tune) and supports list-typed carry columns.

Scale notes: the shuffle ships each side exactly once; `num_buckets`
bounds per-task memory (a bucket must fit one worker's heap — at
10^12 rows raise it proportionally) and sets the number of merge
calls. ``DEFAULT_NUM_BUCKETS`` (64) serves direct callers. Two
callers plan the count (stages/partitions.py) and cap it at 64: the
linkage pass's label join, so 1,500 pages on 2 CPUs join in 10
buckets, and the near-dup verify joins (functions/dedup.py
``verify_setsim_pairs``), from the operator's shingle table, so 2,000
docs on 2 CPUs join in 14.
Skewed keys split across buckets only if the caller salts them first
(stages/blocking.py does for block keys; join keys here are
near-unique ids).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .bucketed import PREP_BATCH, key_buckets

DEFAULT_NUM_BUCKETS = 64


def bucket_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    left_on: str,
    right_on: str,
    left_schema: dict[str, pa.DataType],
    right_schema: dict[str, pa.DataType],
    how: str = "inner",
    num_buckets: int = DEFAULT_NUM_BUCKETS,
    keep_right_key: bool = False,
    left_prepare=None,
    right_prepare=None,
) -> "ray.data.Dataset":
    """left ⋈ right on an int64 key, fully distributed.

    ``left_schema`` / ``right_schema`` list every column each side
    carries (key included) with its Arrow type — passed explicitly so
    no lazy ``.schema()`` execution is triggered. Non-key column names
    must be disjoint across sides (rename before joining). ``how`` is
    'inner', 'left' or 'outer'; a left join null-fills the right
    columns, a full outer join null-fills both sides and COALESCES the
    key column (right-only rows surface under ``left_on``).

    ``left_prepare`` (optional) runs on the left frame inside each
    bucket before the merge — the hook that lets callers fold a
    same-key dedup/filter into the join's shuffle instead of paying a
    separate groupby barrier (rows it drops/keeps must be decidable
    within one bucket, i.e. keyed by a column that determines the
    join key). ``right_prepare`` is the symmetric hook on the right
    frame — e.g. an in-bucket ``drop_duplicates`` turns a left join
    into an exact SEMI/ANTI join probe (a key's rows all land in one
    bucket, so per-bucket distinct is globally exact).
    """
    if how not in ("inner", "left", "outer"):
        raise ValueError(f"how={how!r}: only inner/left/outer supported")
    left_cols = list(left_schema)
    right_cols = list(right_schema)
    overlap = (set(left_cols) & set(right_cols)) - (
        {left_on} if left_on == right_on else set()
    )
    if overlap:
        raise ValueError(f"column collision across join sides: {overlap}")
    out_right = [c for c in right_cols if c != right_on or keep_right_key]
    out_schema = {**left_schema}
    for c in out_right:
        out_schema[c] = right_schema[c]
    all_cols = ["__b", "__side"] + left_cols + [
        c for c in right_cols if c not in left_cols
    ]

    def tag(on_col: str, side: int, schema: dict):
        def fn(t: pa.Table) -> pa.Table:
            # drop pandas metadata from read schemas (unhashable in
            # this pyarrow — breaks Ray's schema-dedup fast path)
            t = t.replace_schema_metadata(None)
            cols: dict[str, pa.Array | pa.ChunkedArray] = {
                "__b": pa.array(key_buckets(t[on_col], num_buckets)),
                "__side": pa.array(
                    np.full(t.num_rows, side, dtype=np.int8)
                ),
            }
            for c in all_cols[2:]:
                if c in schema:
                    cols[c] = t[c]
                else:
                    # the other side's column: null padding for union
                    other = (
                        right_schema[c] if side == 0 else left_schema[c]
                    )
                    cols[c] = pa.nulls(t.num_rows, other)
            return pa.table(cols)

        return fn

    tagged = left.map_batches(
        tag(left_on, 0, left_schema),
        batch_format="pyarrow",
        batch_size=PREP_BATCH,
    ).union(
        right.map_batches(
            tag(right_on, 1, right_schema),
            batch_format="pyarrow",
            batch_size=PREP_BATCH,
        )
    )

    def merge_bucket(g: pa.Table) -> pa.Table:
        # split sides BEFORE pandas conversion and keep ArrowDtype
        # backing: classic numpy-backed frames promote nullable int64
        # to float64, silently corrupting 64-bit hash keys above 2^53.
        side = g["__side"].to_numpy(zero_copy_only=False)
        l = g.filter(pa.array(side == 0)).select(left_cols).to_pandas(
            types_mapper=pd.ArrowDtype
        )
        if left_prepare is not None:
            l = left_prepare(l)
        r = g.filter(pa.array(side == 1)).select(right_cols).to_pandas(
            types_mapper=pd.ArrowDtype
        )
        if right_prepare is not None:
            r = right_prepare(r)
        m = l.merge(r, left_on=left_on, right_on=right_on, how=how)
        if how == "outer" and left_on != right_on:
            # right-only rows carry their key in right_on; surface it
            # under the canonical left_on column
            m[left_on] = m[left_on].fillna(m[right_on])
        return pa.table(
            {
                c: pa.Array.from_pandas(m[c], type=typ)
                for c, typ in out_schema.items()
            }
        )

    return tagged.groupby("__b").map_groups(
        merge_bucket, batch_format="pyarrow"
    )
