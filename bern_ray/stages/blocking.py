"""Blocking stage: normalization keys + minhash-LSH bands -> candidate pairs.

Ray-native recast of the reference's per-type dictionary fan-out
(SURVEY.md §7.0): instead of routing mentions to per-type normalizer
processes, every mention is EXPLODED to (block_key, mention_id) rows
and candidates are generated by the ONE wide shuffle on the hot path —
a bucketed ``groupby`` (SURVEY.md §7.4).

Block keys per mention (all hashed to int64 — the shuffle ships THREE
INT COLUMNS, never strings; mention attributes are re-attached after
pair generation, the SparkER block-with-ids / fetch-profiles pattern):
- primary : hash('O:{oid}') when the dictionary chain hit, else
            hash('S:{tmchem fold}') — the reference's normalization
            key (chemical_normalizer.py:64-72)
- LSH     : minhash band hashes over char shingles of the folded
            surface (public LSH blocking, cf. SparkER) — catches
            near-miss variants the dictionary does not know.

Skew handling (north_rule requirement):
- per-block pair cap: blocks up to MAX_ALLPAIRS emit all pairs;
  larger blocks emit a linear star+chain spanning topology (connected
  components only needs connectivity, not the quadratic pair set).
- hot-key salting: block sizes are pre-counted on a mention sample
  (one value_counts on the driver below stages/partitions.py's
  DRIVER_BYTES, else an in-batch partial count -> tiny groupby); keys
  above `salt_threshold` are split into `ceil(n/salt_threshold)`
  salted sub-blocks (int mix), and
  sub-block pivots are linked by a second, tiny pass over pivot rows
  grouped by the carried base key, so connectivity across salts is
  preserved.

Below stages/partitions.py's DRIVER_BYTES the linkage pass makes the
same pairs on the driver instead (``held_pair_chunks``): explode,
census and salting over the held mention columns, then the pair kernel
one key-hash bucket at a time, with no shuffle.

Candidate pairs are canonically ordered (a_mid < b_mid). With
``dedup=True`` they are globally exact-deduplicated by one more
int-keyed bucketed shuffle, so the consumer sees each pair exactly
once; the linkage hot path passes ``dedup=False`` (connected
components is idempotent to repeated edges). Both shuffles go through
stages/bucketed.py's ``bucketed_apply``.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..core.fold import tmchem_key
from ..core.minhash import _splitmix64, char_shingles, minhash_signatures
from .broadcast import get_broadcast
from .bucketed import PREP_BATCH, bucketed_apply, key_buckets, segments
from .partitions import driver_table

LSH_BANDS = 4  # detection prob at j=0.7: 1-(1-0.7^2)^4 ~= 0.93
LSH_ROWS = 2
LSH_PERMS = LSH_BANDS * LSH_ROWS
# Per-block pair caps. PRIMARY blocks (same oid / same fold) switch to
# a star+chain spanning topology above MAX_ALLPAIRS — safe, because
# every primary-block pair scores over the edge threshold (base 1.0 /
# 0.9), so connectivity alone preserves the clusters.
#
# LSH-band blocks are capped separately so the policy can differ. With
# the FROZEN ensemble (stages/scoring.py) the same cap is provably
# lossless: an edge needs base >= 0.9, i.e. same resolved oid or
# both-unresolved equal folds — and exactly those pairs are co-blocked
# by their PRIMARY key ('O:{oid}' / 'S:{fold}') already, so an
# LSH-only pair can never become an edge and its star/chain topology
# cannot disconnect anything (pytest
# test_salting.py::test_lsh_only_pairs_never_link pins the premise).
# A deployment with a scorer where LSH-only pairs CAN link (e.g. a
# sim-dominated model score) must raise LSH_MAX_ALLPAIRS toward its
# recall target — raising it to 256 here multiplied scored pairs 8x
# at the bench corpus for zero cluster change.
MAX_ALLPAIRS = 64
LSH_MAX_ALLPAIRS = 64
DEFAULT_SALT_THRESHOLD = 5000
N_PAIR_BUCKETS = 256

_MASK63 = np.uint64((1 << 63) - 1)
_MASK62 = np.uint64((1 << 62) - 1)
_PRIMARY_BIT = np.uint64(1 << 62)  # key bit 62 marks primary blocks


# ------------------------------------------------ attribute vocabulary
# De-stringified hot path: surface/oid are dictionary-encoded to int32
# codes against a broadcast vocabulary BEFORE the pair-gen shuffle, so
# the one wide sort ships only fixed-width ints (measured: the carried
# string payload was the replicate-256 block_score cliff). The
# gazetteer surface set is small by construction; above MAX_VOCAB
# distinct surfaces the caller falls back to the two-join attach
# (attach_pair_attrs), which never ships attrs through the pair sort.

MAX_VOCAB = 4_000_000  # int32 headroom; beyond this, two-join attach


class AttrVocab:
    """Broadcast handles for the sorted surface / oid vocabularies.

    Plain ``ray.put``, not ``put_broadcast``: the refs ride inside task
    closures (no linkage stage is an actor, so ray#53727 does not
    apply), and the plans holding this object keep them alive; pinning
    them for the driver's life would add two objects per pass."""

    def __init__(self, surfaces: np.ndarray, oids: np.ndarray):
        self.n_surfaces = len(surfaces)
        self.n_oids = len(oids)
        self.surf_ref = ray.put(surfaces)
        self.oid_ref = ray.put(oids)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return get_broadcast(self.surf_ref), get_broadcast(self.oid_ref)


def build_attr_vocab(
    mentions: "ray.data.Dataset", max_size: int = MAX_VOCAB
) -> AttrVocab | None:
    """Distinct surfaces/oids -> sorted vocab arrays, broadcast once.

    Values are tagged with a column-id prefix byte ('s\\x00' /
    'o\\x00') so both columns share one distinct, and split back on
    the driver. A materialized ``mentions`` within
    ``partitions.DRIVER_BYTES`` takes its distinct on the driver (no
    Ray Data execution); otherwise a per-batch ``pc.unique`` partial
    (so the shuffle sees vocab-bounded rows, not one per mention) feeds
    ONE Dataset-level unique — two sequential uniques measured ~2x the
    fixed cost at bench scale. Returns None above ``max_size`` — the
    signal to take the two-join attach instead."""

    def tag_uniques(t: pa.Table) -> pa.Table:
        parts = []
        for col, tag in (("surface", "s\x00"), ("oid", "o\x00")):
            u = pc.drop_null(pc.unique(t[col].combine_chunks()))
            if len(u):
                parts.append(pc.binary_join_element_wise(tag, u, ""))
        if not parts:
            return pa.table({"v": pa.array([], type=pa.string())})
        return pa.table({"v": pa.concat_arrays(parts)})

    held = driver_table(mentions, ["surface", "oid"])
    if held is not None:
        # per-column uniques over the whole table: already distinct
        vals = tag_uniques(held)["v"].to_numpy()
    else:
        vals = np.asarray(
            mentions.map_batches(
                tag_uniques, batch_format="pyarrow"
            ).unique("v"),
            dtype=object,
        )
    is_surf = np.array([v[0] == "s" for v in vals], dtype=bool)
    stripped = np.array([v[2:] for v in vals], dtype=object)
    surfaces = np.sort(stripped[is_surf])
    if len(surfaces) > max_size:
        return None
    return AttrVocab(surfaces, np.sort(stripped[~is_surf]))


def _encode_sorted(vocab: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values -> int32 codes into the SORTED vocab; None -> -1.

    Raises if a non-null value is absent — the vocab is built from the
    same mentions stream, so a miss means caller error, and a silent
    wrong code would corrupt pairs downstream."""
    codes = np.full(len(values), -1, dtype=np.int32)
    mask = np.fromiter(
        (v is not None for v in values), dtype=bool, count=len(values)
    )
    if mask.any():
        vals = values[mask]
        idx = np.searchsorted(vocab, vals)
        idx_c = np.minimum(idx, len(vocab) - 1)
        if len(vocab) == 0 or not (vocab[idx_c] == vals).all():
            raise ValueError("attribute value missing from vocab")
        codes[mask] = idx.astype(np.int32)
    return codes


def _hash_strings(strs: list) -> np.ndarray:
    """Vectorized stable string hash -> uint64 (crc32 pair mix)."""
    from zlib import crc32

    lo = np.fromiter(
        (crc32(s.encode()) for s in strs), dtype=np.uint64, count=len(strs)
    )
    hi = np.fromiter(
        (crc32(s.encode(), 0x9E3779B9) for s in strs),
        dtype=np.uint64,
        count=len(strs),
    )
    with np.errstate(over="ignore"):
        return _splitmix64(lo | (hi << np.uint64(32)))


def add_fold_key(batch: pa.Table) -> pa.Table:
    if "fold_key" in batch.schema.names:
        return batch
    return batch.append_column("fold_key", tmchem_key(batch["surface"]))


def explode_block_keys(
    batch: pa.Table, with_attrs: bool = False, vocab: AttrVocab | None = None
) -> pa.Table:
    """One row per (mention, key): int64 key/base/mention_id.

    `base == key` until salting rewrites hot keys; the pivot-link pass
    groups by `base` to re-connect salted sub-blocks.

    ``with_attrs=True`` additionally carries the mention attributes so
    pair generation can emit fully-attributed pairs from the SAME
    shuffle (the single-sort hot path). With a ``vocab`` the attrs ride
    as INT32 CODES (surface_c/oid_c — fixed-width, the sort never sees
    a string; the scorer decodes against the broadcast vocab); without
    one they ride as strings (legacy shape, fine at small replicate).
    """
    batch = add_fold_key(batch)
    n = batch.num_rows
    empty_cols = {
        "key": pa.array([], type=pa.int64()),
        "base": pa.array([], type=pa.int64()),
        "mention_id": pa.array([], type=pa.int64()),
    }
    carry_new = with_attrs and "is_new" in batch.schema.names
    if with_attrs and vocab is not None:
        empty_cols["surface_c"] = pa.array([], type=pa.int32())
        empty_cols["oid_c"] = pa.array([], type=pa.int32())
        if carry_new:
            empty_cols["is_new"] = pa.array([], type=pa.bool_())
    elif with_attrs:
        empty_cols["surface"] = pa.array([], type=pa.string())
        empty_cols["oid"] = pa.array([], type=pa.string())
        if carry_new:
            empty_cols["is_new"] = pa.array([], type=pa.bool_())
    if n == 0:
        return pa.table(empty_cols)
    oid = batch["oid"].to_pylist()
    fold = batch["fold_key"].to_pylist()
    primary_strs = [
        (f"O:{o}" if o is not None else f"S:{f}") for o, f in zip(oid, fold)
    ]
    primary = _hash_strings(primary_strs)
    flat, starts = char_shingles(fold, k=3)
    sig = minhash_signatures(flat, starts, num_perm=LSH_PERMS)
    keys_per_row = 1 + LSH_BANDS
    all_keys = np.empty((n, keys_per_row), dtype=np.uint64)
    all_keys[:, 0] = (primary & _MASK62) | _PRIMARY_BIT
    with np.errstate(over="ignore"):
        for b in range(LSH_BANDS):
            chunk = sig[:, b * LSH_ROWS : (b + 1) * LSH_ROWS]
            h = np.full(n, np.uint64(b + 1), dtype=np.uint64)
            for r in range(LSH_ROWS):
                h = _splitmix64(h ^ chunk[:, r])
            all_keys[:, b + 1] = h & _MASK62
    keys = all_keys.ravel().astype(np.int64)
    rep = np.repeat(np.arange(n), keys_per_row)
    mids = batch["mention_id"].to_numpy(zero_copy_only=False)[rep]
    cols = {
        "key": pa.array(keys, type=pa.int64()),
        "base": pa.array(keys, type=pa.int64()),
        "mention_id": pa.array(mids, type=pa.int64()),
    }
    if with_attrs and vocab is not None:
        vs, vo = vocab.arrays()
        sc = _encode_sorted(
            vs, batch["surface"].to_numpy(zero_copy_only=False)
        )
        oc = _encode_sorted(vo, np.asarray(oid, dtype=object))
        cols["surface_c"] = pa.array(sc[rep], type=pa.int32())
        cols["oid_c"] = pa.array(oc[rep], type=pa.int32())
        if carry_new:
            cols["is_new"] = batch["is_new"].combine_chunks().take(
                pa.array(rep, type=pa.int64())
            )
    elif with_attrs:
        idx = pa.array(rep, type=pa.int64())
        cols["surface"] = batch["surface"].combine_chunks().take(idx)
        cols["oid"] = batch["oid"].combine_chunks().take(idx)
        if carry_new:
            cols["is_new"] = batch["is_new"].combine_chunks().take(idx)
    return pa.table(cols)


def segment_pairs(
    starts: np.ndarray,
    sizes: np.ndarray,
    cap: int | None = MAX_ALLPAIRS,
    stats: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized within-segment pair indices for run-length segments.

    Segments up to `cap` emit all pairs via one triu broadcast per
    DISTINCT size; larger segments emit a star+chain spanning set
    (cap=None -> all pairs regardless of size). When `stats` is given,
    accumulates 'capped_segments' and 'elided_pairs' (= all-pairs
    count minus emitted) into it — SURVEY §7.5's "log what was
    dropped" hook for callers that report into state/counters.py.
    """
    a_parts: list[np.ndarray] = []
    b_parts: list[np.ndarray] = []
    for s in np.unique(sizes):
        if s < 2:
            continue
        gs = starts[sizes == s]
        if cap is None or s <= cap:
            mat = gs[:, None] + np.arange(s)[None, :]
            ai, bi = np.triu_indices(int(s), k=1)
            a_parts.append(mat[:, ai].ravel())
            b_parts.append(mat[:, bi].ravel())
        else:
            if stats is not None:
                s_i = int(s)
                stats["capped_segments"] = stats.get(
                    "capped_segments", 0
                ) + len(gs)
                stats["elided_pairs"] = stats.get("elided_pairs", 0) + (
                    s_i * (s_i - 1) // 2 - (2 * s_i - 3)
                ) * len(gs)
            for st in gs:
                a_parts.append(np.full(s - 1, st, dtype=np.int64))
                b_parts.append(np.arange(st + 1, st + s))
                a_parts.append(np.arange(st, st + s - 1))
                b_parts.append(np.arange(st + 1, st + s))
    if not a_parts:
        z = np.empty(0, dtype=np.int64)
        return z, z
    return np.concatenate(a_parts), np.concatenate(b_parts)


def _empty_pairs(with_codes: bool, with_attrs: bool) -> pa.Table:
    cols = {
        "a_mid": pa.array([], type=pa.int64()),
        "b_mid": pa.array([], type=pa.int64()),
        "key": pa.array([], type=pa.int64()),
    }
    if with_codes:
        for c in ("a_sc", "b_sc", "a_oc", "b_oc"):
            cols[c] = pa.array([], type=pa.int32())
    elif with_attrs:
        for c in ("a_surface", "b_surface", "a_oid", "b_oid"):
            cols[c] = pa.array([], type=pa.string())
    return pa.table(cols)


def _emit_pairs_bucket(t: pa.Table) -> pa.Table:
    """Vectorized candidate-pair generation for ALL keys in one bucket.

    One Python call per bucket (``num_buckets`` of the pair-gen
    shuffle, or one per ``held_pair_chunks`` chunk), C-speed
    segmentation inside — never one call per block key (millions at
    web scale). When the exploded rows carry surface/oid, pairs are
    emitted fully attributed (a_/b_ columns follow the canonical a<b
    swap).
    """
    names = t.schema.names
    with_codes = "surface_c" in names
    with_attrs = with_codes or "surface" in names
    if t.num_rows == 0:
        return _empty_pairs(with_codes, with_attrs)

    def col(c: str) -> np.ndarray:
        return t[c].to_numpy(zero_copy_only=False)

    all_keys, all_mids = col("key"), col("mention_id")
    order = np.lexsort((all_mids, all_keys))
    keys, mids = all_keys[order], all_mids[order]
    # repeated (key, mention_id) rows are one mention exploded twice
    # (salting pivots, unioned inputs): identical attributes, keep one
    new_row = np.empty(len(order), dtype=bool)
    new_row[0] = True
    new_row[1:] = (keys[1:] != keys[:-1]) | (mids[1:] != mids[:-1])
    order, keys, mids = order[new_row], keys[new_row], mids[new_row]
    n = len(order)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    new_run[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new_run)
    sizes = np.diff(np.append(starts, n))
    # primary segments (threshold-safe pairs) cap early to star+chain;
    # LSH segments keep the full pair set up to the higher cap
    is_primary = (keys[starts].astype(np.uint64) & _PRIMARY_BIT) != 0
    cap_stats: dict = {}
    ai_p, bi_p = segment_pairs(
        starts[is_primary],
        sizes[is_primary],
        cap=MAX_ALLPAIRS,
        stats=cap_stats,
    )
    ai_l, bi_l = segment_pairs(
        starts[~is_primary],
        sizes[~is_primary],
        cap=LSH_MAX_ALLPAIRS,
        stats=cap_stats,
    )
    if cap_stats:
        # log what was dropped (SURVEY §7.5): one non-blocking report
        # per bucket kernel call that actually hit a cap
        from ..state.counters import add_many as _counter_add_many

        _counter_add_many(
            {
                "blocking_segments_capped": cap_stats.get(
                    "capped_segments", 0
                ),
                "blocking_pairs_elided": cap_stats.get("elided_pairs", 0),
            }
        )
    ai = np.concatenate([ai_p, ai_l])
    bi = np.concatenate([bi_p, bi_l])
    if len(ai) == 0:
        return _empty_pairs(with_codes, with_attrs)
    a, b = mids[ai], mids[bi]
    swap = a > b
    cols = {
        "a_mid": pa.array(np.where(swap, b, a), type=pa.int64()),
        "b_mid": pa.array(np.where(swap, a, b), type=pa.int64()),
        "key": pa.array(keys[ai], type=pa.int64()),
    }
    if with_codes:
        sc = col("surface_c")[order]
        oc = col("oid_c")[order]
        sa, sb = sc[ai], sc[bi]
        oa, ob = oc[ai], oc[bi]
        cols["a_sc"] = pa.array(np.where(swap, sb, sa), type=pa.int32())
        cols["b_sc"] = pa.array(np.where(swap, sa, sb), type=pa.int32())
        cols["a_oc"] = pa.array(np.where(swap, ob, oa), type=pa.int32())
        cols["b_oc"] = pa.array(np.where(swap, oa, ob), type=pa.int32())
    elif with_attrs:
        surf = col("surface")[order]
        oid = col("oid")[order]
        sa, sb = surf[ai], surf[bi]
        oa, ob = oid[ai], oid[bi]
        cols["a_surface"] = pa.array(
            np.where(swap, sb, sa), type=pa.string()
        )
        cols["b_surface"] = pa.array(
            np.where(swap, sa, sb), type=pa.string()
        )
        cols["a_oid"] = pa.array(np.where(swap, ob, oa), type=pa.string())
        cols["b_oid"] = pa.array(np.where(swap, oa, ob), type=pa.string())
    if with_attrs:
        if "is_new" in names:
            # incremental mode: pairs between two PRIOR mentions are
            # already represented in the prior edge set — drop them at
            # the source, so only new-touching work flows downstream
            newv = col("is_new")[order].astype(bool)
            keep = newv[ai] | newv[bi]
            cols = {
                k: (v.filter(pa.array(keep)) if hasattr(v, "filter") else v)
                for k, v in cols.items()
            }
    return pa.table(cols)


def _dedup_pairs_bucket(t: pa.Table) -> pa.Table:
    """Global exact pair dedup (in-bucket == global: identical pairs
    share a_mid, hence a bucket). One (a_mid, b_mid, key) row per pair,
    the one with the least key, so which originating key survives
    depends neither on the row order nor on the bucket count; rows come
    out sorted by (a_mid, b_mid)."""
    a, b, k = (
        t[c].to_numpy(zero_copy_only=False) for c in ("a_mid", "b_mid", "key")
    )
    order = np.lexsort((k, b, a))
    first = order[segments(a[order], b[order])[0]]
    return pa.table(
        {
            "a_mid": pa.array(a[first], type=pa.int64()),
            "b_mid": pa.array(b[first], type=pa.int64()),
            "key": pa.array(k[first], type=pa.int64()),
        }
    )


def dedup_pairs(
    pairs: "ray.data.Dataset", num_buckets: int = N_PAIR_BUCKETS
) -> "ray.data.Dataset":
    return bucketed_apply(pairs, "a_mid", _dedup_pairs_bucket, num_buckets)


# The skew census runs on a deterministic 1/2^HOT_SAMPLE_SHIFT row
# sample: salting is a load-balancing heuristic (pytest pins salted ≡
# unsalted clusters), so sampling error only shifts WHICH keys split —
# never what pairs mean. Sampling cuts the census pass ~10x; pass
# sample_shift=0 for exact counts.
HOT_SAMPLE_SHIFT = 4


def hot_keys(
    exploded: "ray.data.Dataset | pa.Table",
    threshold: int,
    sample_shift: int = HOT_SAMPLE_SHIFT,
) -> dict[int, int]:
    """Block keys whose group size exceeds `threshold` (skew census),
    with counts ESTIMATED from a deterministic mention_id-hash sample
    (scaled back up; exact when sample_shift=0).

    A held ``pa.Table`` (``held_pair_chunks``), or a materialized
    ``exploded`` within ``partitions.DRIVER_BYTES``, is counted on the
    driver in one ``value_counts`` (no Ray Data execution). Otherwise
    counts pre-aggregate inside map_batches (partial combine) so the
    groupby shuffles one row per (batch, key) — not one per mention.
    """
    mask = np.uint64((1 << sample_shift) - 1)

    def partial_counts(t: pa.Table) -> pa.Table:
        keys = t["key"]
        if sample_shift:
            mids = t["mention_id"].to_numpy(zero_copy_only=False)
            keep = (_splitmix64(mids.astype(np.uint64)) & mask) == 0
            keys = pa.array(
                keys.to_numpy(zero_copy_only=False)[keep], type=pa.int64()
            )
        vc = keys.value_counts()
        return pa.table(
            {"key": vc.field("values"), "partial": vc.field("counts")}
        )

    scaled_thr = max(threshold >> sample_shift, 1)
    held = (
        exploded
        if isinstance(exploded, pa.Table)
        else driver_table(exploded, ["key", "mention_id"])
    )
    if held is not None:
        counts = partial_counts(held)
        hot = counts.filter(pc.greater(counts["partial"], scaled_thr))
        return dict(
            zip(
                hot["key"].to_pylist(),
                (hot["partial"].to_numpy() << sample_shift).tolist(),
            )
        )
    counts = (
        exploded.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("key")
        .sum("partial")
    )
    hot = counts.map_batches(
        lambda t: t.filter(
            pa.compute.greater(t["sum(partial)"], scaled_thr)
        ),
        batch_format="pyarrow",
    ).to_pandas()
    if hot.empty:
        return {}
    return dict(
        zip(hot["key"], hot["sum(partial)"].to_numpy() << sample_shift)
    )


def _salting_map(hot: dict[int, int], salt_threshold: int):
    """The map both pair-generation arms apply to exploded rows once the
    census found ``hot`` keys: it splits each hot key's rows into
    ``ceil(count / salt_threshold)`` salted sub-blocks and appends
    their pivot rows. None when no key is hot. Reports what is salted
    to the cap counters."""
    if not hot:
        return None
    # log what was salted (SURVEY §7.5) — driver-side, census facts
    from ..state.counters import add_many as _counter_add_many

    _counter_add_many(
        {
            "blocking_hot_keys_salted": len(hot),
            "blocking_hot_rows_salted": int(sum(hot.values())),
        }
    )
    # SORTED hot-key/count arrays: every per-batch lookup below is
    # a vectorized searchsorted, never a per-row dict/set probe
    # (measured: the per-row `b in hot_set` generator alone cost
    # ~8 s per 26M rows per pass at replicate 512)
    hk = np.array(sorted(hot), dtype=np.int64)
    hc = np.array([hot[k] for k in hk], dtype=np.int64)
    thr = salt_threshold

    def _hot_mask(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = np.clip(np.searchsorted(hk, keys), 0, len(hk) - 1)
        return hk[pos] == keys, hc[pos]

    def salt(t: pa.Table) -> pa.Table:
        keys = t["key"].to_numpy(zero_copy_only=False)
        is_hot, cnt = _hot_mask(keys)
        if not is_hot.any():
            return t
        mids = t["mention_id"].to_numpy(zero_copy_only=False)
        nsplit = -(-cnt // thr)  # ceil div, stays int64
        sub = (mids % np.maximum(nsplit, 1)).astype(np.uint64)
        with np.errstate(over="ignore"):
            ku = keys.astype(np.uint64)
            salted = (
                (
                    _splitmix64(ku ^ (sub + np.uint64(0xA5A5A5A5)))
                    & _MASK62
                )
                | (ku & _PRIMARY_BIT)  # preserve the cap-policy flag
            ).astype(np.int64)
        new_keys = np.where(is_hot, salted, keys)
        return t.set_column(
            t.schema.get_field_index("key"),
            "key",
            pa.array(new_keys, type=pa.int64()),
        )

    # pivot rows: min mention per (base, salted sub-block) PER
    # BATCH (partial mins emit a few extra pivots per sub-block —
    # harmless: pivots only need to reconnect the sub-blocks, and
    # pair dedup / CC idempotence absorbs repeats; the driver arm
    # maps the whole table once, so it emits exactly one). They ride the
    # SAME pair-gen shuffle as the salted rows (keyed by base), so
    # salting costs zero extra sort barriers — and both outputs
    # come from ONE fused pass over the exploded stream (the
    # earlier two-consumer form re-read + re-salted the full
    # stream for ~3% extra rows: measured ~37 s of wall at
    # replicate 512, almost all object-store IO).
    def salt_and_pivots(t: pa.Table) -> pa.Table:
        st = salt(t)
        base = st["base"].to_numpy(zero_copy_only=False)
        keep, _ = _hot_mask(base)
        if not keep.any():
            return st
        sub = st.filter(pa.array(keep))
        # min mention per (base, key): one lexsort + run starts —
        # C-speed, no pandas groupby/idxmin materialization
        b = sub["base"].to_numpy(zero_copy_only=False)
        k = sub["key"].to_numpy(zero_copy_only=False)
        m = sub["mention_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((m, k, b))
        starts, _ = segments(b[order], k[order])
        piv = sub.take(pa.array(order[starts], type=pa.int64()))
        # group pivots by BASE key (reconnects the sub-blocks)
        piv = piv.set_column(
            piv.schema.get_field_index("key"),
            "key",
            piv["base"],
        )
        return pa.concat_tables([st, piv])

    return salt_and_pivots


def candidate_pairs(
    mentions: "ray.data.Dataset",
    salt_threshold: int = DEFAULT_SALT_THRESHOLD,
    dedup: bool = True,
    with_attrs: bool = False,
    vocab: AttrVocab | None = None,
    num_buckets: int = N_PAIR_BUCKETS,
) -> "ray.data.Dataset":
    """mentions (with oid) -> candidate pairs (a_mid, b_mid, key).

    The bucketed groupby here is the pipeline's one wide shuffle. Hot
    keys are salted into sub-blocks first; sub-block pivots are linked
    through the carried base key, unioned into the SAME shuffle.

    ``dedup=True`` (default) appends the global exact pair dedup as
    its own shuffle; pass ``dedup=False`` when downstream either folds
    the dedup into a join bucket (attach_pair_attrs) or tolerates
    duplicates outright (connected components is idempotent to
    repeated edges and the scorer factorizes to unique surface pairs,
    so the linkage hot path skips the dedup barrier entirely).

    ``with_attrs=True`` carries the attributes through the shuffle and
    emits fully-attributed pairs — the single-sort hot path. Pass a
    ``vocab`` (build_attr_vocab) to carry them as int32 codes instead
    of strings: the sort then ships only fixed-width ints and the
    scorer decodes per unique code against the broadcast vocabulary.

    ``num_buckets`` sizes the pair-gen shuffle and the dedup shuffle;
    `linkage_pipeline` plans it per pass (stages/partitions.py). The
    pairs are the same at any count: a block key's rows share one
    bucket, and so do a pair's duplicates (keyed by a_mid).

    This is the dataset arm and always runs as Dataset ops;
    `linkage_pipeline` and `incremental_linkage` make the same pairs
    (``dedup=False``, int32 codes) on the driver with
    ``held_pair_chunks`` when their mentions are materialized within
    ``partitions.DRIVER_BYTES``.
    """
    exploded = mentions.map_batches(
        lambda t: explode_block_keys(t, with_attrs=with_attrs, vocab=vocab),
        batch_format="pyarrow",
    )
    return pairs_from_exploded(
        exploded,
        salt_threshold=salt_threshold,
        dedup=dedup,
        num_buckets=num_buckets,
    )


def pairs_from_exploded(
    exploded: "ray.data.Dataset",
    salt_threshold: int = DEFAULT_SALT_THRESHOLD,
    dedup: bool = True,
    num_buckets: int = N_PAIR_BUCKETS,
) -> "ray.data.Dataset":
    """Exploded (key, base, mention_id[, attrs]) rows -> candidate
    pairs. Split out of `candidate_pairs` so callers that PERSIST the
    exploded keys (incremental linkage checkpoints the prior corpus's
    exploded rows and reads them back instead of re-exploding) can
    enter the pair-gen shuffle directly."""
    exploded = exploded.materialize()
    salt = _salting_map(hot_keys(exploded, salt_threshold), salt_threshold)
    stream = (
        exploded
        if salt is None
        else exploded.map_batches(salt, batch_format="pyarrow")
    )
    # `base` is consumed only by the PRE-shuffle maps (salt /
    # pivot_rows); dropping it keeps 8 dead bytes per row out of the
    # pipeline's one wide sort (~20% of the int-code payload)
    pairs = bucketed_apply(
        stream.drop_columns(["base"]),
        "key",
        _emit_pairs_bucket,
        num_buckets,
    )
    return dedup_pairs(pairs, num_buckets) if dedup else pairs


def held_pair_chunks(
    mentions: pa.Table,
    vocab: AttrVocab,
    salt_threshold: int = DEFAULT_SALT_THRESHOLD,
):
    """Driver arm of ``candidate_pairs(mentions, dedup=False,
    with_attrs=True, vocab=vocab)`` over held mention columns
    (mention_id, surface, oid, fold_key[, is_new]): the same explode,
    census (``hot_keys`` on the table), salting map and pair kernel,
    with no Ray Data execution.

    Yields the pairs one chunk at a time, so a caller can reduce each
    chunk (to its edges) before the next is made: the number of pairs
    is not bounded by the held bytes. A chunk is one ``key_buckets``
    hash bucket of the salted rows, ``ceil(rows / PREP_BATCH)`` buckets
    in all, so no block key is split and the pairs are those of the
    dataset arm at any chunk count. A block key's rows emit at most
    ``(MAX_ALLPAIRS - 1) / 2`` pairs per row, so a chunk of
    ``PREP_BATCH`` rows makes at most ~2.1M pairs."""
    exploded = explode_block_keys(mentions, with_attrs=True, vocab=vocab)
    salt = _salting_map(hot_keys(exploded, salt_threshold), salt_threshold)
    if salt is not None:
        exploded = salt(exploded)
    exploded = exploded.drop_columns(["base"])
    k = max(1, math.ceil(exploded.num_rows / PREP_BATCH))
    bucket = key_buckets(exploded["key"], k)
    order = np.argsort(bucket, kind="stable")
    bounds = np.searchsorted(bucket[order], np.arange(k + 1))
    exploded = exploded.take(pa.array(order, type=pa.int64()))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        yield _emit_pairs_bucket(exploded.slice(lo, hi - lo))


def attach_pair_attrs(
    pairs: "ray.data.Dataset",
    mentions: "ray.data.Dataset",
    dedup: bool = False,
) -> "ray.data.Dataset":
    """(a_mid, b_mid, key) -> + surfaces/oids via two distributed
    bucketed hash joins on mention_id (stages/join.py).

    Fully distributed: the mention attribute table never funnels
    through the driver (it is re-shuffled once per side, each shuffle
    carrying only mention_id/surface/oid), so the attach holds at
    10^12-doc scale where a driver-collected broadcast map OOMs.

    ``dedup=True`` also performs the global exact pair dedup inside
    the first join's bucket (valid because a pair's bucket is
    determined by a_mid alone, so identical pairs always co-locate) —
    use with ``candidate_pairs(..., dedup=False)`` to save a shuffle.
    """
    from .join import bucket_join

    # the join bucket is a pandas frame; keep the least key per pair,
    # as _dedup_pairs_bucket does
    prepare = (
        (
            lambda df: df.sort_values(["a_mid", "b_mid", "key"])
            .drop_duplicates(["a_mid", "b_mid"])
        )
        if dedup
        else None
    )

    def side_attrs(prefix: str):
        return mentions.map_batches(
            lambda t, p=prefix: pa.table(
                {
                    "mention_id": t["mention_id"],
                    f"{p}_surface": t["surface"],
                    f"{p}_oid": t["oid"],
                }
            ),
            batch_format="pyarrow",
        )

    pair_schema = {
        "a_mid": pa.int64(),
        "b_mid": pa.int64(),
        "key": pa.int64(),
    }
    j1 = bucket_join(
        pairs,
        side_attrs("a"),
        left_on="a_mid",
        right_on="mention_id",
        left_schema=pair_schema,
        right_schema={
            "mention_id": pa.int64(),
            "a_surface": pa.string(),
            "a_oid": pa.string(),
        },
        how="left",
        left_prepare=prepare,
    )
    j2 = bucket_join(
        j1,
        side_attrs("b"),
        left_on="b_mid",
        right_on="mention_id",
        left_schema={
            **pair_schema,
            "a_surface": pa.string(),
            "a_oid": pa.string(),
        },
        right_schema={
            "mention_id": pa.int64(),
            "b_surface": pa.string(),
            "b_oid": pa.string(),
        },
        how="left",
    )
    return j2.map_batches(
        lambda t: pa.table(
            {
                "a_mid": t["a_mid"],
                "b_mid": t["b_mid"],
                "a_surface": t["a_surface"],
                "b_surface": t["b_surface"],
                "a_oid": t["a_oid"],
                "b_oid": t["b_oid"],
                "block_key": pa.array(
                    t["key"].to_numpy(zero_copy_only=False).astype("U"),
                    type=pa.string(),
                ),
            }
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------- block-size skew profile


def block_size_stats(
    sizes: "ray.data.Dataset", size_col: str = "n_docs"
) -> pa.Table:
    """Skew profile of a blocking-key size distribution -> one-row
    Arrow table: the observability a 100-TB blocking run needs BEFORE
    paying for its pairs (SURVEY §7.5 "log what was dropped" made
    queryable). Exact values, never samples:

      n_blocks, n_records, max_size,
      p50_size / p99_size  (exact lower quantiles, quantile_disc),
      gini                 (of block sizes — 0 uniform, ->1 skewed),
      total_pairs          (sum C(n,2): the comparison workload),
      top_block_pair_share (largest block's share of total_pairs —
                            the salting decision in one number)

    Scale shape: block sizes collapse to a SIZE HISTOGRAM via
    per-batch value_counts + one groupby(size) — the histogram is
    bounded by the number of DISTINCT sizes (<= max block size, in
    practice a few hundred rows whatever the corpus), and every stat
    is an exact function of that histogram on the driver. Gini uses
    the rank formula sum((2i - n - 1) x_i) / (n sum x) over ascending
    sizes, computed blockwise from (size, count) runs — permuting
    ties cannot change it, so the DuckDB row_number() oracle matches
    bit-for-bit at 6dp."""

    def partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t[size_col].combine_chunks())
        return pa.table(
            {
                "size": pc.cast(vc.field("values"), pa.int64()),
                "cnt": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    hist = (
        sizes.map_batches(partial, batch_format="pyarrow")
        .groupby("size")
        .sum("cnt")
        .take_all()
    )
    if not hist:
        return pa.table(
            {
                "n_blocks": pa.array([0], type=pa.int64()),
                "n_records": pa.array([0], type=pa.int64()),
                "max_size": pa.array([0], type=pa.int64()),
                "p50_size": pa.array([0], type=pa.int64()),
                "p99_size": pa.array([0], type=pa.int64()),
                "gini": pa.array([0.0], type=pa.float64()),
                "total_pairs": pa.array([0], type=pa.int64()),
                "top_block_pair_share": pa.array(
                    [0.0], type=pa.float64()
                ),
            }
        )
    hist.sort(key=lambda r: r["size"])
    s = np.array([r["size"] for r in hist], dtype=np.int64)
    c = np.array([r["sum(cnt)"] for r in hist], dtype=np.int64)
    n_blocks = int(c.sum())
    n_records = int((s * c).sum())
    ends = np.cumsum(c)  # rank of the last block of each size run

    def q_disc(q: float) -> int:
        # exact lower quantile: the ceil(q * n)-th smallest (1-based),
        # matching DuckDB quantile_disc
        target = max(1, int(np.ceil(q * n_blocks)))
        return int(s[np.searchsorted(ends, target)])

    # gini via rank runs: sizes with count c occupy ranks (r, r+c],
    # contributing size * sum_{i=r+1}^{r+c} (2i - n - 1)
    starts = ends - c
    coeff = (ends + starts + 1) - (n_blocks + 1)  # mean of (2i-n-1)*... per run: c*(starts+ends+1-n-1)
    num = float((s.astype(np.float64) * c * coeff).sum())
    gini = num / (n_blocks * float((s * c).sum()))
    pairs_per = s.astype(np.float64) * (s - 1) / 2.0
    total_pairs = float((pairs_per * c).sum())
    top_share = (
        pairs_per[-1] / total_pairs if total_pairs > 0 else 0.0
    )
    return pa.table(
        {
            "n_blocks": pa.array([n_blocks], type=pa.int64()),
            "n_records": pa.array([n_records], type=pa.int64()),
            "max_size": pa.array([int(s[-1])], type=pa.int64()),
            "p50_size": pa.array([q_disc(0.5)], type=pa.int64()),
            "p99_size": pa.array([q_disc(0.99)], type=pa.int64()),
            "gini": pa.array([round(gini, 6)], type=pa.float64()),
            "total_pairs": pa.array(
                [int(total_pairs)], type=pa.int64()
            ),
            "top_block_pair_share": pa.array(
                [round(top_share, 6)], type=pa.float64()
            ),
        }
    )
