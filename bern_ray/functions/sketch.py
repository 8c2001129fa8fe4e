"""Mergeable sketches: HyperLogLog, Misra-Gries, KLL, Bloom, Count-Min.

HyperLogLog is the scale path for COUNT(DISTINCT key) GROUP BY group
when the key cardinality is too large to shuffle distinct pairs. The
sketch never ships keys at all: each batch folds its keys into m
one-byte registers PER GROUP, the shuffle moves only
``groups x m`` bytes, and register merge is an elementwise max —
associative, commutative, idempotent, so duplicate or re-executed
batches cannot bias the estimate (Flajolet et al., HyperLogLog,
AofA 2007).

Reference parity note: the reference engine has no sketch operators;
this is part of the beyond-reference LLM-data-pipeline surface the
task brief asks for (novel sketch / aggregate family).

Shapes:
  - partial:  map_batches -> one row (group, registers[m] binary) per
    group per batch — shuffle payload is sketch-sized, not data-sized.
  - combine:  groupby(group).map_groups elementwise-max — group count
    rows of m bytes each; tiny by construction (this is the one place
    map_groups is the RIGHT shape: the group count equals the output
    row count, not the key cardinality).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..stages.bucketed import PREP_BATCH

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — a full-avalanche 64-bit hash
    (public-domain constants, Steele et al.)."""
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def _hash_key(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    if pa.types.is_integer(col.type):
        return _splitmix64(col.to_numpy(zero_copy_only=False))
    # strings: process-stable vectorized hash, then re-avalanched
    h = pd.util.hash_array(np.asarray(col.to_pylist(), dtype=object))
    return _splitmix64(h.astype(np.uint64))


def _registers(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rho) per hash. rho = 1 + trailing zeros of the
    non-index bits — geometric(1/2), computed exactly: ``w & -w`` is a
    power of two and float64 represents every power of two exactly, so
    ``log2`` is exact (no popcount needed)."""
    m = np.uint64(1) << np.uint64(p)
    idx = (h & (m - np.uint64(1))).astype(np.int64)
    w = h >> np.uint64(p)
    maxrho = 64 - p + 1
    rho = np.full(len(h), maxrho, dtype=np.uint8)
    nz = w != 0
    if nz.any():
        wnz = w[nz]
        with np.errstate(over="ignore"):
            low = wnz & (~wnz + np.uint64(1))  # w & -w
        tz = np.log2(low.astype(np.float64)).astype(np.int64)
        rho[nz] = np.minimum(tz + 1, maxrho).astype(np.uint8)
    return idx, rho


def _fold(idx: np.ndarray, rho: np.ndarray, m: int) -> bytes:
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rho)  # m is small — ufunc.at is fine here
    return regs.tobytes()


def _estimate(regs: np.ndarray, p: int) -> float:
    m = 1 << p
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.ldexp(1.0, -regs.astype(np.int64)))
    if est <= 2.5 * m:
        zeros = int(np.count_nonzero(regs == 0))
        if zeros:
            est = m * np.log(m / zeros)  # linear-counting correction
    return float(est)


def hll_distinct(
    ds: "ray.data.Dataset",
    key: str,
    group: str,
    p: int = 10,
) -> "ray.data.Dataset":
    """Approximate COUNT(DISTINCT key) per ``group`` value.

    Returns rows (group, n_distinct: int64) — the HLL estimate,
    standard error ~1.04/sqrt(2^p) (~3.3% at the default p=10).
    """
    m = 1 << p

    def partial(t: pa.Table) -> pa.Table:
        h = _hash_key(t[key])
        idx, rho = _registers(h, p)
        gvals, ginv = np.unique(
            np.asarray(t[group].to_pylist(), dtype=object),
            return_inverse=True,
        )
        sketches = [
            _fold(idx[ginv == gi], rho[ginv == gi], m)
            for gi in range(len(gvals))
        ]
        return pa.table(
            {
                # preserve the input group dtype (int groups stay int —
                # a string() cast here would raise ArrowInvalid on them)
                group: pa.array(list(gvals), type=t.schema.field(group).type),
                "regs": pa.array(sketches, type=pa.binary()),
            }
        )

    def combine(t: pa.Table) -> pa.Table:
        stacked = np.frombuffer(
            b"".join(t["regs"].to_pylist()), dtype=np.uint8
        ).reshape(-1, m)
        merged = stacked.max(axis=0)
        return pa.table(
            {
                group: t[group].slice(0, 1),
                "n_distinct": pa.array(
                    [int(round(_estimate(merged, p)))], type=pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(
            partial, batch_format="pyarrow", batch_size=PREP_BATCH
        )
        .groupby(group)
        .map_groups(combine, batch_format="pyarrow")
    )


def merge_registers(sketches: list[bytes], p: int = 10) -> bytes:
    """Merge serialized register arrays (elementwise max) — the union
    of the underlying sets; exposed for checkpointed/incremental use."""
    m = 1 << p
    stacked = np.frombuffer(b"".join(sketches), dtype=np.uint8).reshape(
        -1, m
    )
    return stacked.max(axis=0).tobytes()


def estimate(sketch: bytes, p: int = 10) -> float:
    return _estimate(np.frombuffer(sketch, dtype=np.uint8), p)


# ------------------------------------------------- heavy hitters (MG)


def _mg_compress(counts: dict, k: int) -> dict:
    """Misra-Gries compress of an exact counter to <= k entries:
    subtract the (k+1)-th largest count from every entry and keep the
    positive remainder. Standard mergeable-summaries compress (Agarwal
    et al., PODS 2012): per-compress under-count <= the subtracted
    threshold, total under-count <= n/(k+1)."""
    if len(counts) <= k:
        return dict(counts)
    thresh = sorted(counts.values(), reverse=True)[k]
    return {key: c - thresh for key, c in counts.items() if c > thresh}


def mg_heavy_hitters(
    ds: "ray.data.Dataset",
    key: str,
    k: int = 64,
    top_n: int = 10,
) -> "ray.data.Dataset":
    """Approximate top-`top_n` most frequent `key` values.

    Scale shape: each batch folds its exact counts into a <=k-entry
    Misra-Gries summary (the shuffle ships at most k rows per batch,
    never one row per occurrence or per distinct key); the global
    groupby sums the summary counts. Guarantees (mergeable-summaries
    bound): reported_count <= true_count, and every key with
    true_count > n/(k+1) survives to the global stage — so for
    top_n << k the heavy tail is exact in practice.

    Returns (key, approx_count) rows, top_n by (count desc, key asc).
    """
    def partial(t: pa.Table) -> pa.Table:
        # exact per-batch counts via the Arrow kernel (one pass, no
        # per-row Python), then MG-compress to <= k entries
        vc = pc.value_counts(t[key].combine_chunks())
        c = dict(
            zip(
                vc.field("values").to_pylist(),
                vc.field("counts").to_pylist(),
            )
        )
        mg = _mg_compress(c, k)
        ks = sorted(mg)
        return pa.table(
            {
                "mg_key": pa.array(
                    [str(x) for x in ks], type=pa.string()
                ),
                "partial": pa.array([mg[x] for x in ks], type=pa.int64()),
            }
        )

    agg = (
        ds.map_batches(
            partial, batch_format="pyarrow", batch_size=PREP_BATCH
        )
        .groupby("mg_key")
        .sum("partial")
    )
    # candidate set is <= k x n_batches rows — tiny; final top-n is a
    # driver-sized sort
    return (
        agg.map_batches(
            lambda t: pa.table(
                {
                    "key": t["mg_key"],
                    "approx_count": pc.cast(t["sum(partial)"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .sort(["approx_count", "key"], descending=[True, False])
        .limit(top_n)
    )


# --------------------------------------- approximate quantiles (KLL)


def _kll_compact(
    vals: np.ndarray, wts: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Compact a weighted (value, weight) multiset to <= 2k entries by
    KLL-style pair-merging of the lowest weight level: sort, then
    replace adjacent same-weight pairs with one survivor of doubled
    weight. The survivor coin is derived from the value bits (hash
    parity), so the sketch is DETERMINISTIC for a given input multiset
    — re-executed batches produce identical partials (Ray retry
    safety), at the cost of the textbook's independent-coin analysis;
    rank error stays O(levels / k) in practice (pytest-pinned)."""
    while len(vals) > 2 * k:
        order = np.argsort(vals, kind="stable")
        vals, wts = vals[order], wts[order]
        # lowest weight level holding >= 2 items (a lone straggler
        # stays put — merging unequal weights or inflating one would
        # bias total mass). Weights are powers of two, so if every
        # level is a singleton there are < 64 items << 2k and the
        # loop has already exited.
        idx = np.empty(0, dtype=np.int64)
        for wmin in np.unique(wts):
            idx = np.flatnonzero(wts == wmin)
            if len(idx) >= 2:
                break
        pairs = idx[: 2 * (len(idx) // 2)].reshape(-1, 2)
        if len(pairs) == 0:
            break
        # deterministic coin per pair from the value bits
        coin = (
            np.frombuffer(
                vals[pairs[:, 0]].astype(np.float64).tobytes(),
                dtype=np.uint64,
            )
            >> np.uint64(1)
        ) & np.uint64(1)
        survivor = np.where(coin == 0, pairs[:, 0], pairs[:, 1])
        loser = np.where(coin == 0, pairs[:, 1], pairs[:, 0])
        wts = wts.copy()
        wts[survivor] *= 2
        keep = np.ones(len(vals), dtype=bool)
        keep[loser] = False
        vals, wts = vals[keep], wts[keep]
    return vals, wts


def _weighted_quantiles(
    vals: np.ndarray, wts: np.ndarray, qs: list[float]
) -> list[float]:
    if len(vals) == 0:
        # empty / all-NaN input column: NaN per requested quantile
        # (matches SQL quantile-over-empty semantics) instead of an
        # IndexError on cum[-1]
        return [float("nan")] * len(qs)
    order = np.argsort(vals, kind="stable")
    v, w = vals[order], wts[order]
    cum = np.cumsum(w)
    total = cum[-1]
    out = []
    for q in qs:
        target = q * total
        i = int(np.searchsorted(cum, target, side="left"))
        out.append(float(v[min(i, len(v) - 1)]))
    return out


def kll_quantiles(
    ds: "ray.data.Dataset",
    col: str,
    qs: tuple[float, ...] = (0.5, 0.9, 0.99),
    k: int = 256,
) -> "ray.data.Dataset":
    """Approximate quantiles of `col` via a KLL-style compactor.

    Scale shape (same as mg_heavy_hitters): each batch compacts its
    values to <= 2k weighted survivors — the shuffle ships O(k) rows
    per batch, never the data — and the final merge re-compacts the
    concatenated partials in one driver-sized task (n_batches x 2k
    rows; re-compaction keeps it O(k) even at 10^6 batches because
    compaction is associative over weighted multisets). This is
    the sketch that replaces an exact sort-based quantile when a
    global sort is off the table.

    Returns one row per q: (q, value).
    """

    def partial(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        w = np.ones(len(v), dtype=np.int64)
        cv, cw = _kll_compact(v, w, k)
        return pa.table(
            {
                "v": pa.array(cv, type=pa.float64()),
                "w": pa.array(cw, type=pa.int64()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=PREP_BATCH
    )
    # zero-weight sentinel: an empty/all-NaN column otherwise yields a
    # ZERO-block dataset after the partials and the merge task never
    # runs (no schema at all); the sentinel guarantees one merge call,
    # and its weight-0 row is dropped before estimation
    sentinel = ray.data.from_arrow(
        pa.table(
            {
                "v": pa.array([0.0], type=pa.float64()),
                "w": pa.array([0], type=pa.int64()),
            }
        )
    )
    parts = parts.union(sentinel)

    def merge(t: pa.Table) -> pa.Table:
        v = t["v"].to_numpy(zero_copy_only=False)
        w = t["w"].to_numpy(zero_copy_only=False)
        keep = w > 0
        v, w = v[keep], w[keep]
        cv, cw = _kll_compact(v, w, k)
        est = _weighted_quantiles(cv, cw, list(qs))
        return pa.table(
            {
                "q": pa.array(list(qs), type=pa.float64()),
                "value": pa.array(est, type=pa.float64()),
            }
        )

    # repartition(1): the merge is a single task over sketch-sized
    # input by construction
    return parts.repartition(1).map_batches(
        merge, batch_format="pyarrow", batch_size=None
    )


# ------------------------------------------------------ Bloom filter


BLOOM_HASHES = 7  # ~ ln2 * bits/n at bits = 10n -> FP ~ 0.8%


def _bloom_positions(keys: list[str], m_bits: int) -> np.ndarray:
    """k positions per key from double hashing over the md5 halves
    (Kirsch-Mitzenmacher: h1 + i*h2 is as good as k independent
    hashes). Vectorized over the key batch."""
    import hashlib

    h1 = np.empty(len(keys), dtype=np.uint64)
    h2 = np.empty(len(keys), dtype=np.uint64)
    for i, s in enumerate(keys):
        d = hashlib.md5(s.encode("utf-8")).digest()
        h1[i] = int.from_bytes(d[:8], "little")
        h2[i] = int.from_bytes(d[8:], "little") | 1
    ii = np.arange(BLOOM_HASHES, dtype=np.uint64)
    with np.errstate(over="ignore"):
        pos = (h1[:, None] + ii[None, :] * h2[:, None]) % np.uint64(m_bits)
    return pos.astype(np.int64)


def bloom_build(
    ds: "ray.data.Dataset", key: str, m_bits: int = 1 << 20
) -> np.ndarray:
    """Build a Bloom filter (packed uint8 bitmap) over `key`.

    Scale shape: each batch folds its keys into a LOCAL bitmap and the
    partials reduce by elementwise OR — associative, commutative,
    idempotent (duplicate/re-executed batches cannot corrupt it), so
    the shuffle ships m/8 bytes per batch and the driver holds one
    m/8-byte array, never the keys. Size m_bits to ~10 bits/key for
    <1% FP; the bitmap broadcasts via ray.put to the probe stage.
    """

    def partial(t: pa.Table) -> pa.Table:
        bm = np.zeros(m_bits // 8, dtype=np.uint8)
        pos = _bloom_positions(
            [s or "" for s in t[key].to_pylist()], m_bits
        )
        np.bitwise_or.at(bm, pos.ravel() // 8, 1 << (pos.ravel() % 8).astype(np.uint8))
        return pa.table({"bm": pa.array([bm.tobytes()], type=pa.binary())})

    out = np.zeros(m_bits // 8, dtype=np.uint8)
    for b in ds.map_batches(
        partial, batch_format="pyarrow", batch_size=PREP_BATCH
    ).iter_batches(batch_format="pyarrow"):
        for raw in b["bm"].to_pylist():
            out |= np.frombuffer(raw, dtype=np.uint8)
    return out


def bloom_filter_new(
    increment: "ray.data.Dataset",
    prior_bloom: np.ndarray,
    key: str,
    m_bits: int = 1 << 20,
) -> "ray.data.Dataset":
    """Keep only increment rows whose `key` is NOT in the prior Bloom
    filter — the cheap first gate of incremental exact dedup (no false
    negatives: a surviving row is definitely new; false positives drop
    ~FP% of genuinely-new rows, acceptable for corpus hygiene or
    re-checked by the exact path). The bitmap is broadcast ONCE via
    ray.put; the probe is a shuffle-free map_batches."""
    import ray as _ray

    ref = _ray.put(prior_bloom)

    def probe(t: pa.Table) -> pa.Table:
        bm = _ray.get(ref)
        keys = [s or "" for s in t[key].to_pylist()]
        pos = _bloom_positions(keys, m_bits)
        hit = (
            (bm[pos // 8] >> (pos % 8).astype(np.uint8)) & 1
        ).all(axis=1)
        return t.filter(pa.array(~hit))

    return increment.map_batches(probe, batch_format="pyarrow")


# ---------------------------------------------- Count-Min frequency


CM_DEPTH = 4


def _cm_rows(keys: list[str], width: int) -> np.ndarray:
    """(depth, n) column indices via Kirsch-Mitzenmacher double
    hashing over the md5 halves (same construction as the Bloom
    filter — k row-hashes from two)."""
    import hashlib

    h1 = np.empty(len(keys), dtype=np.uint64)
    h2 = np.empty(len(keys), dtype=np.uint64)
    for i, s in enumerate(keys):
        d = hashlib.md5(s.encode("utf-8")).digest()
        h1[i] = int.from_bytes(d[:8], "little")
        h2[i] = int.from_bytes(d[8:], "little") | 1
    ii = np.arange(CM_DEPTH, dtype=np.uint64)
    with np.errstate(over="ignore"):
        pos = (h1[None, :] + ii[:, None] * h2[None, :]) % np.uint64(width)
    return pos.astype(np.int64)


def cm_build(
    ds: "ray.data.Dataset", key: str, width: int = 1 << 14
) -> np.ndarray:
    """Build a Count-Min sketch (depth x width int64 matrix) over
    ``key`` occurrences (Cormode & Muthukrishnan 2005).

    Scale shape (same as bloom_build): each batch folds its keys into
    a LOCAL counter matrix; partials reduce by elementwise SUM —
    associative and commutative, so the shuffle ships depth*width*8
    bytes per batch and the driver holds ONE matrix, never the keys.
    Estimate error: count <= est <= count + e*N/width with prob
    1 - (1/2)^depth (one-sided overestimate only).
    """

    def partial(t: pa.Table) -> pa.Table:
        M = np.zeros((CM_DEPTH, width), dtype=np.int64)
        pos = _cm_rows([s or "" for s in t[key].to_pylist()], width)
        for d in range(CM_DEPTH):
            np.add.at(M[d], pos[d], 1)
        return pa.table(
            {"cm": pa.array([M.tobytes()], type=pa.binary())}
        )

    out = np.zeros((CM_DEPTH, width), dtype=np.int64)
    for b in ds.map_batches(
        partial, batch_format="pyarrow", batch_size=PREP_BATCH
    ).iter_batches(batch_format="pyarrow"):
        for raw in b["cm"].to_pylist():
            out += np.frombuffer(raw, dtype=np.int64).reshape(
                CM_DEPTH, width
            )
    return out


def cm_estimate(
    sketch: np.ndarray, keys: list[str], width: int = 1 << 14
) -> np.ndarray:
    """Point-frequency estimates for ``keys`` (min over depth rows)."""
    pos = _cm_rows(keys, width)
    ests = np.stack(
        [sketch[d][pos[d]] for d in range(sketch.shape[0])]
    )
    return ests.min(axis=0)


def cm_join_size(
    ds_a: "ray.data.Dataset",
    key_a: str,
    ds_b: "ray.data.Dataset",
    key_b: str,
    width: int = 1 << 14,
) -> int:
    """Join-cardinality estimate |A ⋈ B| from two Count-Min sketches
    (Cormode & Muthukrishnan 2005 §4.2): the true size is the inner
    product of the two key-frequency vectors, and min over depth of
    the per-row sketch dot products overestimates it by at most
    e/width * N_a * N_b with prob 1-(1/2)^depth (one-sided, like the
    point estimate). Each side ships only its depth×width matrix —
    the planner-statistics primitive that sizes a shuffle join
    WITHOUT running it."""
    A = cm_build(ds_a, key_a, width=width)
    B = cm_build(ds_b, key_b, width=width)
    return int(min(int((A[d] * B[d]).sum()) for d in range(CM_DEPTH)))

