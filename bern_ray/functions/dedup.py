"""Deduplication operators over the `documents` table.

Training-data-pipeline dedup family (task brief), all Ray-Data-first:

- exact          : content-hash -> groupby(hash) -> keep min doc_id
- minhash-LSH    : shingle -> minhash -> band keys -> groupby(band)
                   -> candidate pairs -> EXACT token-Jaccard verify
- simhash        : 64-bit simhash -> 4x16-bit band blocking (pigeonhole
                   guarantees recall for hamming <= 3) -> hamming verify
- ngram-jaccard  : the minhash path with the verify threshold exposed
- embedding      : brute-force cosine near-dup over the `embeddings`
                   table against a broadcast matrix (scale path: the
                   LSH-bucketed variant in functions/ann.py)

Pair outputs use (a < b) ordering and are exact-deduplicated, so the
LSH candidate multiplicity never leaks into results. Shuffle costs:
one groupby per operator on a pre-reduced key set (partial combines
inside map_batches), per SURVEY.md §7.4.

Bucket counts. The shingle-set operators (minhash, the setsim family,
weighted Jaccard, ICWS) materialize a per-doc table first, so each
plans its bucket count from that table's row count
(``_planned_buckets``: stages/partitions.py ``plan_buckets`` capped at
``_DEDUP_BUCKETS`` for the band / posting shuffle, and again at the
join default 64 for the two verify joins). 2,000 docs at 2 CPUs get 14
buckets where a fixed count made 128 and 64 kernel calls; 40,000 docs
at 32 CPUs keep 128 and 64. Every kernel works per band, token or
doc_id, whose rows share one bucket at any count, so no output
depends on it.

Driver arms. ``exact_dedup``, ``minhash_neardup`` and
``setsim_neardup`` first ask stages/partitions.py ``driver_table`` for
their materialized per-doc table (the fingerprints, the shingle sets,
and for minhash then the band rows). A held table (within
``DRIVER_BYTES``) runs the same kernels once on the driver: one Arrow
group-by for exact, the band / posting kernel over the whole table
and ``_verify_held`` for the near-dup pair, with no shuffle. A table
over the bound takes the shuffles above, so no table larger than the
bound ever reaches the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..core.minhash import (
    _splitmix64,
    minhash_signatures,
    simhash,
    token_shingles,
)
from ..stages.bucketed import PREP_BATCH, bucketed_apply, segments
from ..stages.join import DEFAULT_NUM_BUCKETS
from ..stages.partitions import driver_table, plan_buckets, session_cpus
from .textstats import fingerprint_batch

MINHASH_PERMS = 128
MINHASH_BANDS = 32
MINHASH_ROWS = 4


def exact_dedup(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """-> (content_md5, rep_doc_id, n_dups); rep = min doc_id. The
    (doc_id, content_md5) table is materialized; when it is held
    (``driver_table``, ~40 B per doc) one Arrow group-by on the driver
    reduces it, sorted by hash like the groupby it replaces."""
    hashed = docs.map_batches(
        fingerprint_batch, batch_format="pyarrow"
    ).materialize()
    held = driver_table(hashed, ["doc_id", "content_md5"])
    if held is None:
        return hashed.groupby("content_md5").aggregate(
            ray.data.aggregate.Min("doc_id", alias_name="rep_doc_id"),
            ray.data.aggregate.Count(alias_name="n_dups"),
        )
    agg = held.group_by("content_md5").aggregate(
        [
            ("doc_id", "min"),
            ("doc_id", "count", pc.CountOptions(mode="all")),
        ]
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "content_md5": agg["content_md5"],
                "rep_doc_id": agg["doc_id_min"],
                "n_dups": agg["doc_id_count"],
            }
        ).sort_by("content_md5")
    )


def _shingle_sets(texts: list[str], k: int) -> list[np.ndarray]:
    """Sorted unique k-token shingle-hash sets for exact verification.

    Docs with fewer than k tokens get an empty set (no near-dup pairs),
    matching the SQL oracle's guard. 64-bit hashes make hash-set
    Jaccard equal string-set Jaccard up to negligible collisions.
    """
    import re

    tok_re = re.compile("[0-9a-zA-Z]+")
    n_toks = [len(tok_re.findall(t.lower())) if t else 0 for t in texts]
    flat, starts = token_shingles(texts, k=k)
    out = []
    for i in range(len(texts)):
        if n_toks[i] < k:
            out.append(np.empty(0, dtype=np.int64))
        else:
            seg = flat[starts[i] : starts[i + 1]]
            out.append(np.unique(seg).view(np.int64))
    return out


# one salt per band index b: band key = (band hash h) ^ salt[b]
_BAND_SALT = _splitmix64(np.arange(MINHASH_BANDS, dtype=np.uint64))


def _band_rows(doc_ids: np.ndarray, sig: np.ndarray) -> pa.Table:
    """(band, doc_id, sig64) rows, MINHASH_BANDS per doc, from an
    (n, >= 128) signature matrix — token sets are NOT shipped through
    the shuffle (carrying them per band row multiplied shuffle volume
    by the band count).

    ``band`` is one int64 key per (band index b, band hash h), where h
    is a splitmix chain over the band's MINHASH_ROWS values: the key is
    h ^ salt[b]. It is not a bijection of (b, h), but it adds no
    collision likelier than one of h itself: within a band it is a
    bijection of h, so two docs share a key there exactly when their h
    collide; across bands b != b' a shared key needs h ^ h' to equal
    the one constant salt[b] ^ salt[b'], which two independent 64-bit
    hashes do with probability 2^-64, the chance that h = h'.

    ``sig64`` is one 64-bit fold of the FULL signature: exact-duplicate
    contents agree on it, so the oversized-band path can collapse
    duplicate classes without ever seeing the text."""
    n = len(doc_ids)
    chunks = sig[:, : MINHASH_BANDS * MINHASH_ROWS].reshape(
        n, MINHASH_BANDS, MINHASH_ROWS
    )
    h = np.zeros((n, MINHASH_BANDS), dtype=np.uint64)
    for r in range(MINHASH_ROWS):
        h = _splitmix64(h ^ chunks[:, :, r])
    # order-sensitive fold of the whole signature row (splitmix chain)
    acc = np.zeros(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in range(sig.shape[1]):
            z = acc ^ sig[:, c]
            z = (z + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(
                0xBF58476D1CE4E5B9
            )
            acc = z ^ (z >> np.uint64(29))
    rep = np.repeat(np.arange(n), MINHASH_BANDS)
    return pa.table(
        {
            "band": pa.array((h ^ _BAND_SALT).view(np.int64).ravel()),
            "doc_id": pa.array(doc_ids[rep], type=pa.int64()),
            "sig64": pa.array(acc.view(np.int64)[rep]),
        }
    )


def _minhash_band_rows(t: pa.Table, k: int) -> pa.Table:
    """_band_rows of the batch's k-shingle minhash signatures."""
    flat, starts = token_shingles(t["text"].to_pylist(), k=k)
    sig = minhash_signatures(flat, starts, num_perm=MINHASH_PERMS)
    return _band_rows(t["doc_id"].to_numpy(zero_copy_only=False), sig)


_DEDUP_BUCKETS = 128


def _planned_buckets(*tables: "ray.data.MaterializedDataset") -> int:
    """One operator's bucket count, planned from its materialized
    per-doc table(s): ``count()`` of a materialized dataset reads block
    metadata, never the data."""
    rows = sum(t.count() for t in tables)
    return plan_buckets(rows, session_cpus(), _DEDUP_BUCKETS)


_EMPTY_PAIRS = pa.table(
    {
        "doc_id_a": pa.array([], type=pa.int64()),
        "doc_id_b": pa.array([], type=pa.int64()),
    }
)


def _sorted_unique(t: pa.Table, keys: list[str]) -> pa.Table:
    """``t`` stably sorted by ``keys``, keeping the first row of each
    run of equal keys (pandas' ``drop_duplicates(keys)`` followed by a
    stable ``sort_values(keys)``). Strings sort by code point."""
    t = t.take(pc.sort_indices(t, [(k, "ascending") for k in keys]))
    starts, _ = segments(
        *(t[k].to_numpy(zero_copy_only=False) for k in keys)
    )
    return t.take(starts)


# all-pairs guard: bands at or under this size emit the FULL pair set
# (the DuckDB all-pairs oracle regime); larger bands switch to the
# duplicate-class collapse + spanning emission below — O(n) per band
# instead of O(n^2) on a boilerplate band
DEFAULT_BAND_CAP = 512


def _oversized_band_pairs(
    ids: np.ndarray, sigs: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bounded pair emission for ONE band segment larger than `cap`.

    1. Collapse exact-duplicate contents (identical full-signature
       fold sig64): each class emits a STAR to its min doc_id — those
       pairs verify at jaccard 1.0 by construction, so the component
       stays intact with class-size-1 edges, never class-size^2.
    2. The class REPRESENTATIVES (unique contents) emit all-pairs if
       they fit under the cap, else the star+chain spanning set from
       stages/blocking.py segment_pairs.

    Above the cap the pair INVENTORY is a spanning subset (documented
    recall trade, same shape as linkage blocking's MAX_ALLPAIRS): its
    verified CC closure equals the full set's for duplicate-class
    bands (pytest-pinned), while cross-class chain edges that fail
    verification can split what all-pairs would have joined — the
    standard LSH-cap trade, chosen over 10^12-pair emission.
    """
    from ..stages.blocking import segment_pairs

    order = np.lexsort((ids, sigs))
    ids_s, sigs_s = ids[order], sigs[order]
    new_cls = np.empty(len(ids_s), dtype=bool)
    new_cls[0] = True
    new_cls[1:] = sigs_s[1:] != sigs_s[:-1]
    cls_starts = np.flatnonzero(new_cls)
    cls_sizes = np.diff(np.append(cls_starts, len(ids_s)))
    # star within each duplicate class: rep (min doc_id = first in the
    # lexsort) -> every other member
    rep_idx = np.repeat(cls_starts, cls_sizes)
    member = np.arange(len(ids_s))
    in_star = member != rep_idx
    a_parts = [ids_s[rep_idx[in_star]]]
    b_parts = [ids_s[member[in_star]]]
    # representatives = unique contents; pair them (all-pairs under
    # the cap, spanning star+chain above it)
    reps = np.sort(ids_s[cls_starts])
    ai, bi = segment_pairs(
        np.array([0]), np.array([len(reps)]), cap=cap
    )
    a_parts.append(reps[ai])
    b_parts.append(reps[bi])
    a = np.concatenate(a_parts)
    b = np.concatenate(b_parts)
    swap = a > b
    return np.where(swap, b, a), np.where(swap, a, b)


def _band_pairs_bucket(band_cap: int | None = None):
    """Pair generation for every band group of one bucket: vectorized
    all-pairs for bands up to ``band_cap`` (the oracle regime); the
    duplicate-class collapse above it (_oversized_band_pairs) — a
    Python loop per OVERSIZED band only, rare by definition."""

    def fn(t: pa.Table) -> pa.Table:
        from ..stages.blocking import segment_pairs

        g = _sorted_unique(t, ["band", "doc_id"])
        if g.num_rows == 0:
            return _EMPTY_PAIRS
        starts, sizes = segments(g["band"].to_numpy(zero_copy_only=False))
        ids = g["doc_id"].to_numpy()
        if band_cap is None:
            small = np.ones(len(sizes), dtype=bool)
        else:
            small = sizes <= band_cap
        ai, bi = segment_pairs(starts[small], sizes[small], cap=None)
        a_parts = [ids[ai]]
        b_parts = [ids[bi]]
        if not small.all():
            sigs = g["sig64"].to_numpy()
            n_capped = 0
            n_elided = 0
            for st, sz in zip(starts[~small], sizes[~small]):
                a, b = _oversized_band_pairs(
                    ids[st : st + sz], sigs[st : st + sz], band_cap
                )
                n_capped += 1
                n_elided += int(sz) * (int(sz) - 1) // 2 - len(a)
                a_parts.append(a)
                b_parts.append(b)
            # log what was dropped (SURVEY §7.5): one non-blocking
            # report per bucket kernel call that actually capped
            from ..state.counters import add_many as _counter_add_many

            _counter_add_many(
                {
                    "minhash_bands_capped": n_capped,
                    "minhash_pairs_elided": n_elided,
                }
            )
        return pa.table(
            {
                "doc_id_a": pa.array(
                    np.concatenate(a_parts), type=pa.int64()
                ),
                "doc_id_b": pa.array(
                    np.concatenate(b_parts), type=pa.int64()
                ),
            }
        )

    return fn


def _shingle_list_rows(t: pa.Table, k: int) -> pa.Table:
    """(doc_id, tok: list<int64>) — each doc's sorted-unique shingle
    set (uint64 sort order reinterpreted as int64 bits; the ORDER is a
    consistent global total order, which is all the prefix filter and
    the set intersections need)."""
    texts = t["text"].to_pylist()
    sets = _shingle_sets(texts, k)
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "tok": pa.array(
                [s.tolist() for s in sets], type=pa.list_(pa.int64())
            ),
        }
    )


def minhash_neardup(
    docs: "ray.data.Dataset",
    threshold: float = 0.9,
    shingle_k: int = 3,
    band_cap: int | None = None,
) -> "ray.data.Dataset":
    """LSH candidates verified by EXACT shingle-set Jaccard >= threshold.

    Similarity space = distinct 3-token shingles (sequences, not token
    sets — token sets are degenerate on small-vocabulary corpora).
    With 32 bands x 4 rows, detection probability at j=0.9 is
    1-(1-0.9^4)^32 ≈ 1-4e-16 at the verify threshold — and the
    DEFAULT ``band_cap=None`` emits ALL in-band pairs, so the default
    output is exactly the DuckDB all-pairs oracle regime.

    Setting ``band_cap`` (opt-in, for scale runs — bench.py passes
    ``DEFAULT_BAND_CAP``) bounds in-band pair emission: bands up to
    the cap still emit all pairs; LARGER bands collapse
    exact-duplicate contents to a star + a spanning set over unique
    contents (_oversized_band_pairs), so a 10^6-member boilerplate
    band costs O(n) pairs, not 10^12. That is a documented RECALL
    TRADE: a chain edge between non-identical contents that fails
    Jaccard verification can split a cluster the all-pairs regime
    would join. Capped runs report the elision through the
    ``dropped_pairs`` counter (cap_metrics()).

    Execution shape: (1) one pass emits (band, doc_id) rows; (2) one
    bucketed groupby generates candidate pairs vectorized; (3) exact
    verification attaches both docs' shingle sets with two DISTRIBUTED
    bucketed hash joins on doc_id (stages/join.py), the pair dedup
    folded into the first. The shingle Dataset is pinned once (object
    store, spillable) because both joins consume it, and its row count
    (block metadata) plans the bucket count of all three shuffles
    (_planned_buckets).

    Driver arm: when the shingle table and then the materialized band
    rows are both held (``driver_table``, within DRIVER_BYTES), steps
    (2) and (3) run on the driver instead — the same band kernel over
    the whole band table, then _verify_held — with no shuffle. Band
    rows over the bound go to the shuffle above, so only tables of at
    most DRIVER_BYTES ever reach the driver.
    """
    shingles = docs.map_batches(
        lambda t: _shingle_list_rows(t, shingle_k), batch_format="pyarrow"
    ).materialize()
    band_rows = docs.map_batches(
        lambda t: _minhash_band_rows(t, shingle_k), batch_format="pyarrow"
    )
    held = driver_table(shingles, ["doc_id", "tok"])
    if held is not None:
        band_rows = band_rows.materialize()
        bands = driver_table(band_rows, ["band", "doc_id", "sig64"])
        if bands is not None:
            pairs = _band_pairs_bucket(band_cap)(bands)
            return _verify_held(pairs, held, threshold, "jaccard")

    num_buckets = _planned_buckets(shingles)
    pairs = bucketed_apply(
        band_rows, "band", _band_pairs_bucket(band_cap), num_buckets
    )

    return verify_jaccard_pairs(pairs, shingles, threshold, num_buckets)


# set-similarity measures over shingle sets, each with the constants
# the prefix filter needs (Xiao et al. PPJoin generalization):
#   alpha_coef c: J(A,B) >= t  implies  |A∩B| >= ceil(c * |A|)
#   (same c bounds min/max size ratio: pairs with min < c*max can't
#   qualify, pruned before the verify join)
#   score(inter, na, nb): the exact similarity for final verification
_SETSIM_MEASURES = {
    "jaccard": {
        # |A∩B| >= t|A∪B| >= t|A|
        "alpha_coef": lambda t: t,
        "score": lambda inter, na, nb: np.divide(
            inter,
            na + nb - inter,
            out=np.zeros_like(inter, dtype=float),
            where=(na + nb - inter) > 0,
        ),
    },
    "cosine": {
        # |A∩B| >= t*sqrt(|A||B|) >= t*sqrt(|A||A∩B|) => |A∩B| >= t^2|A|
        "alpha_coef": lambda t: t * t,
        "score": lambda inter, na, nb: np.divide(
            inter,
            np.sqrt(na * nb),
            out=np.zeros_like(inter, dtype=float),
            where=(na * nb) > 0,
        ),
    },
    "dice": {
        # 2|A∩B| >= t(|A|+|B|) >= t(|A|+|A∩B|) => |A∩B| >= t/(2-t)|A|
        "alpha_coef": lambda t: t / (2.0 - t),
        "score": lambda inter, na, nb: np.divide(
            2.0 * inter,
            na + nb,
            out=np.zeros_like(inter, dtype=float),
            where=(na + nb) > 0,
        ),
    },
    # ABSOLUTE overlap |A∩B| >= T (SSJoin base predicate): threshold
    # is the integer T itself, not a coefficient — alpha_coef is a
    # placeholder (setsim_overlap_join uses the absolute prefix
    # p = n - T + 1 instead); the overlap COEFFICIENT inter/min(n)
    # admits no sound prefix/size pruning (min-normalization permits
    # arbitrarily small partners), which is why the absolute form is
    # the one the literature prunes.
    "overlap": {
        "alpha_coef": lambda t: 0.0,
        "score": lambda inter, na, nb: inter,
    },
    # max-containment |A∩B|/min(|A|,|B|): like the overlap
    # coefficient it admits NO sound prefix/size pruning on its own
    # (a tiny contained set defeats any prefix), so it is offered
    # only composed with the absolute-overlap base predicate
    # (setsim_containment_join), which supplies the pruning.
    "containment": {
        "alpha_coef": lambda t: 0.0,
        "score": lambda inter, na, nb: np.divide(
            inter,
            np.minimum(na, nb),
            out=np.zeros_like(inter, dtype=float),
            where=np.minimum(na, nb) > 0,
        ),
    },
}


def verify_jaccard_pairs(
    pairs: "ray.data.Dataset",
    shingles: "ray.data.Dataset",
    threshold: float,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
) -> "ray.data.Dataset":
    """Jaccard specialization of verify_setsim_pairs (column name
    `jaccard` — the minhash family's output contract)."""
    return verify_setsim_pairs(
        pairs,
        shingles,
        threshold,
        sim="jaccard",
        score_col="jaccard",
        num_buckets=num_buckets,
    )


def _set_overlaps(
    ta: pa.ChunkedArray, tb: pa.ChunkedArray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(|A∩B|, |A|, |B|) per row of two list<int64> columns of unique
    sets, in one flat pass: every value is tagged with its row, both
    sides are sorted by (value, row) together, and a common element is
    an adjacent equal (value, row) pair. A null list counts as the
    empty set. The (value, row) order is one value argsort plus one
    int sort of (value rank, row), half the cost of a two-key
    lexsort."""
    n = len(ta)
    rows, vals, sizes = [], [], []
    for col in (ta, tb):
        col = col.combine_chunks()
        size = pc.fill_null(pc.list_value_length(col), 0)
        size = size.to_numpy(zero_copy_only=False).astype(np.int64)
        sizes.append(size)
        rows.append(np.repeat(np.arange(n, dtype=np.int64), size))
        vals.append(col.flatten().to_numpy(zero_copy_only=False))
    val = np.concatenate(vals)
    order = np.argsort(val)
    val = val[order]
    new = np.ones(len(val), dtype=bool)
    new[1:] = val[1:] != val[:-1]
    # rank < len(val), so rank * n + row stays far below 2^63
    key = np.sort((np.cumsum(new) - 1) * n + np.concatenate(rows)[order])
    common = key[1:] == key[:-1]
    inter = np.bincount(key[1:][common] % n, minlength=n)
    return inter, sizes[0], sizes[1]


def _verify_batch(
    t: pa.Table,
    threshold: float,
    sim: str,
    score_col: str,
    min_overlap: int = 0,
) -> pa.Table:
    """The scoring kernel of both verify arms: (doc_id_a, doc_id_b,
    tok_a, tok_b) rows -> (doc_id_a, doc_id_b, score_col) for the rows
    whose ``sim`` score reaches ``threshold`` and whose overlap reaches
    ``min_overlap``. A null set (a doc the left join missed) counts as
    empty."""
    a = t["doc_id_a"].to_numpy(zero_copy_only=False)
    b = t["doc_id_b"].to_numpy(zero_copy_only=False)
    inter, na, nb = _set_overlaps(t["tok_a"], t["tok_b"])
    score = _SETSIM_MEASURES[sim]["score"](inter.astype(float), na, nb)
    keep = (score >= threshold) & (inter >= min_overlap)
    out_score = (
        pa.array(score[keep].astype(np.int64), type=pa.int64())
        if sim == "overlap"
        else pa.array(np.round(score[keep], 6))
    )
    return pa.table(
        {
            "doc_id_a": pa.array(a[keep], type=pa.int64()),
            "doc_id_b": pa.array(b[keep], type=pa.int64()),
            score_col: out_score,
        }
    )


# candidate pairs per _verify_batch call on the driver. The attached
# sets cost pairs x set size, and the candidates are not bounded by the
# held table's bytes: one call over the 1.96M unique setsim pairs of
# 40,000 docs passed 14 GB and was killed. Calls of 1-4k pairs were
# also the fastest per pair there (the sorts stay in cache): 2.9 s per
# 262k pairs, against 5.7 s at 65k pairs per call.
_VERIFY_ROWS = 1 << 12


def _verify_held(
    pairs: pa.Table, held: pa.Table, threshold: float, sim: str
) -> "ray.data.Dataset":
    """verify_setsim_pairs on the driver, for a held (doc_id, tok)
    shingle table (``driver_table``): the candidate pairs are
    deduplicated, each side's set is attached by ``searchsorted`` on
    the table sorted by doc_id (a doc it lacks gets a null set, the
    left join's miss), and _verify_batch scores them into column
    ``sim``, _VERIFY_ROWS pairs per call."""
    pairs = _sorted_unique(pairs, ["doc_id_a", "doc_id_b"])
    held = held.sort_by("doc_id")
    ids = held["doc_id"].to_numpy()
    out = []
    for lo in range(0, max(pairs.num_rows, 1), _VERIFY_ROWS):
        chunk = pairs.slice(lo, _VERIFY_ROWS)
        cols = {"doc_id_a": chunk["doc_id_a"], "doc_id_b": chunk["doc_id_b"]}
        for side in ("a", "b"):
            want = chunk[f"doc_id_{side}"].to_numpy()
            at = np.searchsorted(ids, want)
            hit = at < len(ids)
            hit[hit] = ids[at[hit]] == want[hit]
            cols[f"tok_{side}"] = held["tok"].take(
                pa.array(np.where(hit, at, 0), mask=~hit)
            )
        out.append(_verify_batch(pa.table(cols), threshold, sim, sim))
    return ray.data.from_arrow(pa.concat_tables(out))


def verify_setsim_pairs(
    pairs: "ray.data.Dataset",
    shingles: "ray.data.Dataset",
    threshold: float,
    sim: str = "jaccard",
    score_col: str | None = None,
    shingles_b: "ray.data.Dataset | None" = None,
    min_overlap: int = 0,
    num_buckets: int = DEFAULT_NUM_BUCKETS,
) -> "ray.data.Dataset":
    """Exact set-similarity verification of candidate (doc_id_a,
    doc_id_b) pairs: both docs' shingle sets attach via two
    DISTRIBUTED bucketed hash joins on doc_id (global pair dedup
    folded into join1's bucket — a pair's bucket is determined by
    doc_id_a alone, saving a standalone sort barrier); the dataset
    arm of the verify, taken by minhash_neardup and setsim_neardup
    when their tables are over DRIVER_BYTES (_verify_held below it)
    and always by the rest of the setsim family; `sim` picks the
    measure (jaccard/cosine/dice) from _SETSIM_MEASURES. For R-S
    joins `shingles_b` supplies the b-side's sets (defaults to the
    self-join case: both sides read `shingles`). A pair is kept when
    score >= `threshold` and |A∩B| >= `min_overlap`. Both joins take
    the caller's planned ``num_buckets``, capped at the join default;
    both arms score with _verify_batch."""
    from ..stages.join import bucket_join

    num_buckets = min(num_buckets, DEFAULT_NUM_BUCKETS)
    score_col = score_col or sim

    def side(name: str, src=None):
        return (src if src is not None else shingles).map_batches(
            lambda t, n=name: pa.table(
                {"doc_id": t["doc_id"], n: t["tok"]}
            ),
            batch_format="pyarrow",
        )

    tok_t = pa.list_(pa.int64())
    pair_schema = {"doc_id_a": pa.int64(), "doc_id_b": pa.int64()}
    j1 = bucket_join(
        pairs,
        side("tok_a"),
        left_on="doc_id_a",
        right_on="doc_id",
        left_schema=pair_schema,
        right_schema={"doc_id": pa.int64(), "tok_a": tok_t},
        how="left",
        num_buckets=num_buckets,
        left_prepare=lambda df: df.drop_duplicates(
            ["doc_id_a", "doc_id_b"]
        ),
    )
    j2 = bucket_join(
        j1,
        side("tok_b", shingles_b),
        left_on="doc_id_b",
        right_on="doc_id",
        left_schema={**pair_schema, "tok_a": tok_t},
        right_schema={"doc_id": pa.int64(), "tok_b": tok_t},
        how="left",
        num_buckets=num_buckets,
    )

    return j2.map_batches(
        lambda t: _verify_batch(t, threshold, sim, score_col, min_overlap),
        batch_format="pyarrow",
    )


def _prefix_rows(
    t: pa.Table, coef: float, with_pos: bool = False
) -> pa.Table:
    """Prefix-filter emission for one (doc_id, tok-list) batch.

    `coef` is the measure's overlap coefficient c (threshold t for
    Jaccard, t^2 for cosine, t/(2-t) for dice — _SETSIM_MEASURES): a
    qualifying pair satisfies |A∩B| >= ceil(c*n) for each side, so
    under a global token order only a doc's first
    p = n - ceil(c*n) + 1 tokens can witness one (Chaudhuri et al.
    SSJoin / Bayardo et al. All-Pairs prefix lemma: the
    globally-smallest common element of a qualifying pair lies in
    BOTH prefixes). Emits (tok, doc_id, nt=set size) — nt rides along
    so pair generation can apply the size-ratio filter
    min/max >= c before the verify join. The 1e-9 guard keeps float
    ceil from overshooting (which would shorten the prefix and lose
    recall); undershooting only lengthens it, which is safe.
    """
    col = t["tok"].combine_chunks()
    offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    values = col.values.to_numpy(zero_copy_only=False)
    doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
    n = np.diff(offsets)
    alpha = np.ceil(coef * n - 1e-9).astype(np.int64)
    p = np.where(n > 0, n - alpha + 1, 0)
    p = np.clip(p, 0, n)
    total = int(p.sum())
    seg_starts = np.zeros(len(p), dtype=np.int64)
    np.cumsum(p[:-1], out=seg_starts[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, p)
    take = np.repeat(offsets[:-1], p) + within
    cols = {
        "tok": pa.array(values[take], type=pa.int64()),
        "doc_id": pa.array(np.repeat(doc_ids, p), type=pa.int64()),
        "nt": pa.array(np.repeat(n, p), type=pa.int64()),
    }
    if with_pos:
        # 0-based index of the token within the doc's sorted set —
        # the PPJoin positional filter's input
        cols["pos"] = pa.array(within, type=pa.int64())
    return pa.table(cols)


def _posting_pairs_bucket(
    coef: float,
    posting_cap: int | None,
    positional: bool = False,
):
    """Candidate pairs for every prefix-token posting list of one
    bucket: vectorized all-pairs per token segment (the exact-oracle
    regime at cap=None), with the size-ratio filter
    min(|A|,|B|)/max(|A|,|B|) >= c applied before emission. A
    `posting_cap` (opt-in, scale runs) switches oversized posting
    lists to segment_pairs' star+chain spanning set and reports the
    elision through the counters sidecar.

    ``positional`` adds PPJoin's positional filter (Xiao et al.
    WWW 2008): an emission at a token at positions (pa, pb) of the
    two sorted sets bounds the overlap by min(na - pa, nb - pb), so
    emissions whose bound is below the required ceil(c * max(na, nb))
    are dropped. OUTPUT-PRESERVING: a qualifying pair's globally
    FIRST common token has no earlier common tokens, there the bound
    >= the true overlap >= required, so that emission always
    survives (later-token emissions are redundant duplicates). The
    pruned-emission count is reported via counters."""

    def fn(t: pa.Table) -> pa.Table:
        from ..stages.blocking import segment_pairs

        g = _sorted_unique(t, ["tok", "doc_id"])
        if g.num_rows < 2:
            return _EMPTY_PAIRS
        starts, sizes = segments(g["tok"].to_numpy())
        stats: dict = {}
        ai, bi = segment_pairs(
            starts, sizes, cap=posting_cap, stats=stats
        )
        if stats.get("capped_segments"):
            from ..state.counters import add_many as _counter_add_many

            _counter_add_many(
                {
                    "setsim_postings_capped": stats["capped_segments"],
                    "setsim_pairs_elided": stats["elided_pairs"],
                }
            )
        if len(ai) == 0:
            return _EMPTY_PAIRS
        ids = g["doc_id"].to_numpy()
        nt = g["nt"].to_numpy()
        na, nb = nt[ai], nt[bi]
        keep = np.minimum(na, nb) >= coef * np.maximum(na, nb) - 1e-9
        if positional and "pos" in g.column_names:
            pos = g["pos"].to_numpy()
            ub = np.minimum(na - pos[ai], nb - pos[bi])
            pos_keep = ub >= coef * np.maximum(na, nb) - 1e-9
            n_pruned = int((keep & ~pos_keep).sum())
            if n_pruned:
                from ..state.counters import add_many as _add

                _add({"setsim_pos_pruned": n_pruned})
            keep &= pos_keep
        return pa.table(
            {
                "doc_id_a": pa.array(ids[ai][keep], type=pa.int64()),
                "doc_id_b": pa.array(ids[bi][keep], type=pa.int64()),
            }
        )

    return fn


def setsim_neardup(
    docs: "ray.data.Dataset",
    threshold: float = 0.85,
    shingle_k: int = 3,
    posting_cap: int | None = None,
    sim: str = "jaccard",
    positional: bool = True,
) -> "ray.data.Dataset":
    """EXACT set-similarity self-join via prefix filtering (SSJoin /
    All-Pairs family) — the zero-recall-loss counterpart to
    minhash_neardup: no LSH, so at cap=None the output is provably the
    full all-pairs similarity >= threshold set, not a 1-4e-16
    approximation of it. `sim` picks the measure — jaccard (default,
    score column `jaccard`), cosine or dice (_SETSIM_MEASURES) — each
    with its own prefix-length and size-ratio coefficient.

    Execution shape, one wide shuffle like minhash:
    (1) one pass builds each doc's sorted-unique shingle set
        (_shingle_list_rows; pinned once — the verify joins reuse it);
    (2) one pass emits only the PREFIX tokens, p = n - ceil(t*n) + 1
        per doc (_prefix_rows) — at t=0.85 that is ~15% of tokens, so
        the shuffle ships a small fraction of the index a full
        inverted index would;
    (3) one bucketed groupby turns each prefix-token posting list into
        candidate pairs, size-ratio-filtered before emission;
    (4) exact Jaccard verification via the shared distributed-join
        tail (verify_setsim_pairs).
    The pinned shingle table's row count (block metadata) plans the
    bucket count of steps (3) and (4) (_planned_buckets). When that
    table is held (``driver_table``, within DRIVER_BYTES), steps (2)
    to (4) run on the driver with the same kernels (_prefix_rows,
    _posting_pairs_bucket over the whole prefix table, _verify_held)
    and no shuffle.

    Scale: posting lists of stop-shingles are the skew risk —
    `posting_cap` (opt-in, like minhash's band_cap) bounds them with a
    documented recall trade reported via cap_metrics(). Default None
    preserves the exact regime the DuckDB oracle checks.
    """
    coef = _SETSIM_MEASURES[sim]["alpha_coef"](threshold)
    shingles = docs.map_batches(
        lambda t: _shingle_list_rows(t, shingle_k), batch_format="pyarrow"
    ).materialize()
    posting_pairs = _posting_pairs_bucket(coef, posting_cap, positional)
    held = driver_table(shingles, ["doc_id", "tok"])
    if held is not None:
        pairs = posting_pairs(_prefix_rows(held, coef, with_pos=positional))
        return _verify_held(pairs, held, threshold, sim)

    num_buckets = _planned_buckets(shingles)
    prefix = shingles.map_batches(
        lambda t: _prefix_rows(t, coef, with_pos=positional),
        batch_format="pyarrow",
    )
    pairs = bucketed_apply(prefix, "tok", posting_pairs, num_buckets)
    return verify_setsim_pairs(
        pairs, shingles, threshold, sim=sim, num_buckets=num_buckets
    )


def _posting_pairs_rs_bucket(coef: float, posting_cap: int | None):
    """R-S candidate pairs for one bucket: per prefix-token segment,
    the CROSS PRODUCT of the R-side and S-side posting lists —
    vectorized with the flat //-and-% indexing trick (no per-segment
    Python beyond the boundary arithmetic). Size-ratio filter
    min/max >= c before emission; `posting_cap` bounds a segment's
    emission to the first cap pairs in (r, s) order with the elision
    reported through the counters sidecar (an R-S join has no CC
    downstream, so the capped subset is a plain truncation — recall
    trade documented, opt-in)."""

    def fn(t: pa.Table) -> pa.Table:
        g = _sorted_unique(t, ["tok", "side", "doc_id"])
        m = g.num_rows
        if m < 2:
            return _EMPTY_PAIRS
        sides = g["side"].to_numpy()
        ids = g["doc_id"].to_numpy()
        nt = g["nt"].to_numpy()
        starts, _ = segments(g["tok"].to_numpy())
        ends = np.append(starts[1:], m)
        # side boundary inside each [start, end) segment (sides sorted
        # 0 then 1): index of the first side-1 row
        cum1 = np.cumsum(sides)
        n1_before = np.concatenate([[0], cum1])[starts]
        n1_in = np.concatenate([[0], cum1])[ends] - n1_before
        n0_in = (ends - starts) - n1_in
        n_pairs = n0_in * n1_in
        if posting_cap is not None:
            capped = n_pairs > posting_cap
            if capped.any():
                from ..state.counters import add_many as _add_many

                _add_many(
                    {
                        "setsim_rs_postings_capped": int(capped.sum()),
                        "setsim_rs_pairs_elided": int(
                            (n_pairs[capped] - posting_cap).sum()
                        ),
                    }
                )
                n_pairs = np.minimum(n_pairs, posting_cap)
        total = int(n_pairs.sum())
        if total == 0:
            return _EMPTY_PAIRS
        out_starts = np.zeros(len(n_pairs), dtype=np.int64)
        np.cumsum(n_pairs[:-1], out=out_starts[1:])
        within = np.arange(total, dtype=np.int64) - np.repeat(
            out_starts, n_pairs
        )
        ns_rep = np.repeat(np.maximum(n1_in, 1), n_pairs)
        r_idx = np.repeat(starts, n_pairs) + within // ns_rep
        s_idx = (
            np.repeat(starts + n0_in, n_pairs) + within % ns_rep
        )
        na, nb = nt[r_idx], nt[s_idx]
        keep = np.minimum(na, nb) >= coef * np.maximum(na, nb) - 1e-9
        return pa.table(
            {
                "doc_id_a": pa.array(ids[r_idx][keep], type=pa.int64()),
                "doc_id_b": pa.array(ids[s_idx][keep], type=pa.int64()),
            }
        )

    return fn


def setsim_join(
    r_docs: "ray.data.Dataset",
    s_docs: "ray.data.Dataset",
    threshold: float = 0.7,
    shingle_k: int = 3,
    posting_cap: int | None = None,
    sim: str = "jaccard",
) -> "ray.data.Dataset":
    """EXACT cross-corpus (R-S) set-similarity JOIN via prefix
    filtering: every (r, s) pair with sim(shingles(r), shingles(s))
    >= threshold — the decontamination-shaped question "which docs in
    corpus S near-duplicate corpus R", with provable completeness at
    posting_cap=None (no LSH). Output: (doc_id_a from R, doc_id_b
    from S, score) — no a<b ordering; exact pair dedup happens in the
    verify join's bucket.

    Same one-wide-shuffle shape as setsim_neardup: both sides' prefix
    tokens ride ONE bucketed groupby tagged by side; each posting
    list emits only R×S cross pairs (the flat //-% trick — no
    Python loop); verification attaches R's sets and S's sets via the
    shared distributed-join tail (verify_setsim_pairs with
    shingles_b). The prefix lemma is side-symmetric, so each side
    uses its own p = n - ceil(c*n) + 1 prefix.
    """
    coef = _SETSIM_MEASURES[sim]["alpha_coef"](threshold)
    sh_r = r_docs.map_batches(
        lambda t: _shingle_list_rows(t, shingle_k), batch_format="pyarrow"
    ).materialize()
    sh_s = s_docs.map_batches(
        lambda t: _shingle_list_rows(t, shingle_k), batch_format="pyarrow"
    ).materialize()

    def tag(side_val: int):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "side",
                pa.array(
                    np.full(len(t), side_val, dtype=np.int64),
                    type=pa.int64(),
                ),
            )

        return fn

    pre = (
        sh_r.map_batches(
            lambda t: _prefix_rows(t, coef), batch_format="pyarrow"
        )
        .map_batches(tag(0), batch_format="pyarrow")
        .union(
            sh_s.map_batches(
                lambda t: _prefix_rows(t, coef), batch_format="pyarrow"
            ).map_batches(tag(1), batch_format="pyarrow")
        )
    )
    num_buckets = _planned_buckets(sh_r, sh_s)
    pairs = bucketed_apply(
        pre, "tok", _posting_pairs_rs_bucket(coef, posting_cap), num_buckets
    )
    return verify_setsim_pairs(
        pairs,
        sh_r,
        threshold,
        sim=sim,
        score_col="jaccard" if sim == "jaccard" else sim,
        shingles_b=sh_s,
        num_buckets=num_buckets,
    )


def _simhash_rows(t: pa.Table) -> pa.Table:
    texts = t["text"].to_pylist()
    flat, starts = token_shingles(texts, k=2)
    sh = simhash(flat, starts)
    doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
    n = len(texts)
    # 4 x 16-bit bands: hamming<=3 implies at least one identical band
    rows = {"band": [], "doc_id": [], "sim": []}
    for b in range(4):
        band_val = (sh >> np.uint64(16 * b)) & np.uint64(0xFFFF)
        rows["band"].extend(
            [f"{b}:{int(v):04x}" for v in band_val]
        )
        rows["doc_id"].extend(doc_ids.tolist())
        rows["sim"].extend(sh.astype(np.int64).tolist())
    return pa.table(
        {
            "band": pa.array(rows["band"], type=pa.string()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "sim": pa.array(rows["sim"], type=pa.int64()),
        }
    )


def _simhash_pairs_bucket(max_hamming: int):
    def fn(t: pa.Table) -> pa.Table:
        from ..stages.blocking import segment_pairs

        g = _sorted_unique(t, ["band", "doc_id"])
        empty = pa.table(
            {
                "doc_id_a": pa.array([], type=pa.int64()),
                "doc_id_b": pa.array([], type=pa.int64()),
                "hamming": pa.array([], type=pa.int64()),
            }
        )
        if g.num_rows < 2:
            return empty
        starts, sizes = segments(g["band"].to_numpy(zero_copy_only=False))
        ai, bi = segment_pairs(starts, sizes, cap=None)
        if len(ai) == 0:
            return empty
        ids = g["doc_id"].to_numpy()
        sims = g["sim"].to_numpy().astype(np.int64).view(np.uint64)
        x = np.bitwise_xor(sims[ai], sims[bi])
        ham = np.zeros(len(x), dtype=np.int64)
        for _ in range(64):
            ham += (x & np.uint64(1)).astype(np.int64)
            x = x >> np.uint64(1)
        keep = ham <= max_hamming
        return pa.table(
            {
                "doc_id_a": pa.array(ids[ai][keep], type=pa.int64()),
                "doc_id_b": pa.array(ids[bi][keep], type=pa.int64()),
                "hamming": pa.array(ham[keep], type=pa.int64()),
            }
        )

    return fn


def simhash_neardup(
    docs: "ray.data.Dataset", max_hamming: int = 3
) -> "ray.data.Dataset":
    rows = docs.map_batches(_simhash_rows, batch_format="pyarrow")
    pairs = bucketed_apply(
        rows, "band", _simhash_pairs_bucket(max_hamming), _DEDUP_BUCKETS
    )
    uniq = pairs.groupby(["doc_id_a", "doc_id_b"]).min("hamming")
    return uniq.map_batches(
        lambda t: pa.table(
            {
                "doc_id_a": t["doc_id_a"],
                "doc_id_b": t["doc_id_b"],
                "hamming": t["min(hamming)"],
            }
        ),
        batch_format="pyarrow",
    )


# --- SQL-mirrorable simhash ------------------------------------------
# The production simhash (above) hashes shingles with crc32+splitmix64,
# which no SQL engine reproduces. This variant uses a 31-bit polynomial
# rolling hash over the shingle STRING (base 131 mod 2^31-1, ASCII
# codepoints) — computable identically in DuckDB via
# list_reduce/list_transform — so the whole near-dup result set gets a
# value-level oracle. Banding: 4 bands (8+8+8+7 bits); by pigeonhole
# any pair with hamming <= 3 shares at least one intact band, so the
# blocked result equals the oracle's brute-force hamming filter.

_POLY_MOD = 2147483647
_SIMHASH31_BITS = 31
_SIM31_BANDS = ((0, 8), (8, 16), (16, 24), (24, 31))


def _poly31(s: str) -> int:
    acc = 0
    for ch in s:
        acc = (acc * 131 + ord(ch)) % _POLY_MOD
    return acc


def _simhash31(texts: list[str]) -> np.ndarray:
    """31-bit simhash per text over distinct 2-token shingle strings."""
    import re

    tok_re = re.compile("[0-9a-z]+")
    out = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        toks = tok_re.findall(t.lower()) if t else []
        if len(toks) < 2:
            continue
        hs = {_poly31(f"{a} {b}") for a, b in zip(toks, toks[1:])}
        n = len(hs)
        arr = np.fromiter(hs, dtype=np.int64, count=n)
        sim = 0
        for bit in range(_SIMHASH31_BITS):
            ones = int(((arr >> bit) & 1).sum())
            if 2 * ones > n:
                sim |= 1 << bit
        out[i] = sim
    return out


def _simhash31_rows(t: pa.Table) -> pa.Table:
    texts = t["text"].to_pylist()
    sims = _simhash31(texts)
    doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
    rows = {"band": [], "doc_id": [], "sim": []}
    for bi, (lo, hi) in enumerate(_SIM31_BANDS):
        band_val = (sims >> lo) & ((1 << (hi - lo)) - 1)
        rows["band"].extend([f"{bi}:{int(v):02x}" for v in band_val])
        rows["doc_id"].extend(doc_ids.tolist())
        rows["sim"].extend(sims.tolist())
    return pa.table(
        {
            "band": pa.array(rows["band"], type=pa.string()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "sim": pa.array(rows["sim"], type=pa.int64()),
        }
    )


def simhash_mirror_neardup(
    docs: "ray.data.Dataset", max_hamming: int = 3
) -> "ray.data.Dataset":
    """Banded simhash near-dup with a DuckDB value oracle
    (pipelines/relational.py SQL_SIMHASH_NEARDUP)."""
    rows = docs.map_batches(_simhash31_rows, batch_format="pyarrow")
    pairs = bucketed_apply(
        rows, "band", _simhash_pairs_bucket(max_hamming), _DEDUP_BUCKETS
    )
    uniq = pairs.groupby(["doc_id_a", "doc_id_b"]).min("hamming")
    return uniq.map_batches(
        lambda t: pa.table(
            {
                "doc_id_a": t["doc_id_a"],
                "doc_id_b": t["doc_id_b"],
                "hamming": t["min(hamming)"],
            }
        ),
        batch_format="pyarrow",
    )


MAX_BRUTEFORCE_ROWS = 200_000


def embedding_neardup(
    embs: "ray.data.Dataset",
    threshold: float = 0.95,
    max_bruteforce_rows: int = MAX_BRUTEFORCE_ROWS,
    n_cells: int = 64,
    n_probe: int = 2,
) -> "ray.data.Dataset":
    """Embedding cosine near-dup with a scale-dispatched strategy.

    Up to ``max_bruteforce_rows`` vectors: exact brute force (each
    batch against the broadcast full matrix — the oracle-checked
    path, O(n^2) flops but one vectorized matmul). Above it: the
    IVF-bucketed path (`_embedding_neardup_ivf`) — each vector is
    replicated to its ``n_probe`` nearest coarse cells, all-pairs
    exact verify runs WITHIN each cell, and a pair-keyed dedup merges
    multi-cell hits. No whole-table driver materialization; the cell
    id is the partition key. Near-dup recall at cos >= 0.95 is ~1
    (twin vectors share nearest cells); raise ``n_probe`` toward
    ``n_cells`` for a recall guarantee (probe == cells is exhaustive).
    """
    if embs.count() > max_bruteforce_rows:
        return _embedding_neardup_ivf(
            embs, threshold, n_cells=n_cells, n_probe=n_probe
        )
    all_tbl = pa.concat_tables(
        b for b in embs.iter_batches(batch_format="pyarrow", batch_size=65536)
    )
    ids = all_tbl["vec_id"].to_numpy(zero_copy_only=False)
    M = np.stack(
        all_tbl["embedding"].to_numpy(zero_copy_only=False)
    ).astype(np.float64)
    M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
    ref = ray.put((ids, M))

    def fn(t: pa.Table) -> pa.Table:
        bids_all, bM_all = ray.get(ref)
        bid = t["vec_id"].to_numpy(zero_copy_only=False)
        E = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        E /= np.maximum(np.linalg.norm(E, axis=1, keepdims=True), 1e-12)
        S = E @ bM_all.T
        ii, jj = np.nonzero(S >= threshold)
        a = bid[ii]
        b = bids_all[jj]
        keep = a < b
        return pa.table(
            {
                "vec_id_a": pa.array(a[keep], type=pa.int64()),
                "vec_id_b": pa.array(b[keep], type=pa.int64()),
                "cos_sim": pa.array(
                    np.round(S[ii, jj][keep], 6), type=pa.float64()
                ),
            }
        )

    return embs.map_batches(fn, batch_format="pyarrow", batch_size=4096)


def _embedding_neardup_ivf(
    embs: "ray.data.Dataset",
    threshold: float,
    n_cells: int = 64,
    n_probe: int = 2,
    seed: int = 42,
) -> "ray.data.Dataset":
    """IVF-bucketed near-dup (the 10^12-row shape, reusing the coarse
    quantizer from functions/ann.py): train O(sample) centroids once,
    replicate each vector to its n_probe nearest cells (so two vectors
    pair up iff they share ANY probed cell), verify all pairs exactly
    inside each cell with one matmul, then dedup multi-cell hits with
    a pair-keyed groupby. Pinned against brute force on a separable
    corpus by tests/test_dedup.py."""
    from .ann import _mat, _norm, train_ivf_centroids
    from ..stages.broadcast import get_broadcast, put_broadcast

    C = train_ivf_centroids(embs, n_cells=n_cells, seed=seed)
    cref = put_broadcast(C)
    p = min(n_probe, len(C))

    def assign(t: pa.Table) -> pa.Table:
        cents = get_broadcast(cref)
        ids, M = _mat(t)
        Mn = _norm(M)
        sims = Mn @ cents.T
        top = np.argpartition(-sims, p - 1, axis=1)[:, :p]
        rep = np.repeat(np.arange(len(ids)), p)
        return pa.table(
            {
                "cell": pa.array(
                    top.ravel().astype(np.int64), type=pa.int64()
                ),
                "vec_id": pa.array(ids[rep], type=pa.int64()),
                "embedding": t["embedding"].combine_chunks().take(
                    pa.array(rep, type=pa.int64())
                ),
            }
        )

    def verify_cell(t: pa.Table) -> pa.Table:
        ids, M = _mat(t)
        Mn = _norm(M)
        S = Mn @ Mn.T
        ii, jj = np.nonzero(np.triu(S >= threshold, k=1))
        a, b = ids[ii], ids[jj]
        swap = a > b
        return pa.table(
            {
                "vec_id_a": pa.array(np.where(swap, b, a), type=pa.int64()),
                "vec_id_b": pa.array(np.where(swap, a, b), type=pa.int64()),
                "cos_sim": pa.array(
                    np.round(S[ii, jj], 6), type=pa.float64()
                ),
            }
        )

    pairs = (
        embs.map_batches(assign, batch_format="pyarrow", batch_size=8192)
        .groupby("cell")
        .map_groups(verify_cell, batch_format="pyarrow")
    )
    # multi-probe emits a pair once per SHARED cell — dedup on the key
    return (
        pairs.groupby(["vec_id_a", "vec_id_b"])
        .max("cos_sim")
        .map_batches(
            lambda t: pa.table(
                {
                    "vec_id_a": t["vec_id_a"],
                    "vec_id_b": t["vec_id_b"],
                    "cos_sim": t["max(cos_sim)"],
                }
            ),
            batch_format="pyarrow",
        )
    )


# ------------------------------------------------- near-dup clusters


def dedup_clusters(
    docs: "ray.data.Dataset",
    threshold: float = 0.9,
    band_cap: int | None = None,
) -> "ray.data.Dataset":
    """Near-duplicate CLUSTERS: minhash pairs -> distributed CC ->
    per-doc label attach. The canonical-selection step every dedup
    pipeline runs after pair finding (keep one representative per
    component, not per pair).

    The default ``band_cap=None`` keeps the pair inventory exactly the
    all-pairs oracle regime (the recursive-CTE SQL oracle agrees
    value-for-value). Setting a cap (scale opt-in) inherits
    minhash_neardup's documented recall trade — capped clusters can be
    FINER than the oracle's when a spanning chain edge fails
    verification.

    Output: (doc_id, cluster_id, is_canonical) for EVERY input doc —
    cluster_id = min doc_id of the doc's near-dup component (singleton
    docs label themselves), is_canonical = (doc_id == cluster_id), so
    `filter(is_canonical)` IS the deduped corpus.

    Scale shape: pairs come from the distributed minhash path; CC is
    `components_labels` (driver kernel under DRIVER_EDGE_LIMIT, else
    partition-wise contraction — labels never funnel through the
    driver on the scale path); the attach is a left `bucket_join` on
    doc_id, so no stage materializes the corpus. Determinism: CC roots
    are the component-min node id (stages/cc.py _cc_arrays), which is
    what lets a recursive-CTE SQL oracle agree value-for-value.
    """
    from ..stages.cc import components_labels
    from ..stages.join import bucket_join

    pairs = minhash_neardup(docs, threshold=threshold, band_cap=band_cap)
    edges = pairs.map_batches(
        lambda t: pa.table(
            {"src": t["doc_id_a"], "dst": t["doc_id_b"]}
        ),
        batch_format="pyarrow",
    )
    labels = components_labels(edges)
    ids = docs.map_batches(
        lambda t: t.select(["doc_id"]), batch_format="pyarrow"
    )
    joined = bucket_join(
        ids,
        labels,
        left_on="doc_id",
        right_on="node",
        left_schema={"doc_id": pa.int64()},
        right_schema={"node": pa.int64(), "label": pa.int64()},
        how="left",
    )

    def finish(t: pa.Table) -> pa.Table:
        cid = pc.coalesce(t["label"], t["doc_id"])
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "cluster_id": pc.cast(cid, pa.int64()),
                "is_canonical": pc.equal(cid, t["doc_id"]),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


# -------------------------------------------- substring-level dedup


def _window_rows(t: pa.Table, k: int) -> pa.Table:
    """Explode a doc batch to one row per k-token window:
    (h: int64 rolling digest, doc_id, idx: window start token index).

    Tokenization is the frozen TOKEN_RE byte-LUT kernel
    (textstats._explode_tokens), so the SQL oracle's
    regexp_extract_all(lower(text), '[0-9a-zA-Z]+') sees the same
    token sequence. The window digest is an order-sensitive
    polynomial over full-token FNV hashes — distinct windows collide
    with probability ~n^2/2^64 (same documented regime as
    passage_dedup's md5 keying); a collision can only mark a window
    duplicated, never lose one."""
    from .textstats import _explode_tokens, _token_h64

    parent, toks = _explode_tokens(t["text"])
    n = len(parent)
    empty = pa.table(
        {
            "h": pa.array([], type=pa.int64()),
            "doc_id": pa.array([], type=pa.int64()),
            "idx": pa.array([], type=pa.int64()),
        }
    )
    if n < k:
        return empty
    th = _token_h64(toks).astype(np.uint64)
    m = n - k + 1
    mix = np.uint64(0x9E3779B97F4A7C15)
    hw = np.zeros(m, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            hw = hw * mix + th[j : m + j]
    # a window is real only if all k tokens share one document
    sel = np.flatnonzero(parent[:m] == parent[k - 1 :])
    if len(sel) == 0:
        return empty
    starts = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]])
    sizes = np.diff(np.append(starts, n))
    idx_in_doc = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
    return pa.table(
        {
            "h": pa.array(hw[sel].view(np.int64), type=pa.int64()),
            "doc_id": pc.take(
                t["doc_id"], pa.array(parent[sel], type=pa.int64())
            ),
            "idx": pa.array(idx_in_doc[sel], type=pa.int64()),
        }
    )


def _bloom_pos64(h: np.ndarray, m_bits: int) -> np.ndarray:
    """(4, n) Bloom bit positions for int64 digests: Kirsch-
    Mitzenmacher double hashing over two splitmix64-mixed halves —
    fully vectorized, no per-key Python."""
    x = h.astype(np.uint64)
    with np.errstate(over="ignore"):
        h1 = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h1 ^= h1 >> np.uint64(27)
        h2 = (
            (x * np.uint64(0x94D049BB133111EB)) ^ (x >> np.uint64(31))
        ) | np.uint64(1)
        ii = np.arange(4, dtype=np.uint64)
        pos = (h1[None, :] + ii[:, None] * h2[None, :]) % np.uint64(
            m_bits
        )
    return pos.astype(np.int64)


def _window_twice_bloom(
    docs: "ray.data.Dataset", k: int, m_bits: int
) -> np.ndarray:
    """'Seen >= 2 times' Bloom bitmap over the corpus's window
    digests, built in one extra pass over docs.

    Each batch folds its windows into a LOCAL (once, twice) bitmap
    pair — per-bit saturating counters capped at 2 — and the driver
    folds partials with the saturating-add merge
    ``twice' = twice1 | twice2 | (once1 & once2)``, which is
    associative/commutative, so batch order and re-execution cannot
    corrupt it. Driver state is 2 x m_bits/8 bytes, never keys."""

    def partial(t: pa.Table) -> pa.Table:
        hw = _window_rows(t, k)["h"].to_numpy(zero_copy_only=False)
        once = np.zeros(m_bits // 8, dtype=np.uint8)
        twice = np.zeros(m_bits // 8, dtype=np.uint8)
        if len(hw):
            u, cnt = np.unique(hw, return_counts=True)
            pos = _bloom_pos64(u, m_bits)
            bits = np.uint8(1) << (pos % 8).astype(np.uint8)
            np.bitwise_or.at(once, (pos // 8).ravel(), bits.ravel())
            dup = cnt >= 2
            if dup.any():
                np.bitwise_or.at(
                    twice,
                    (pos[:, dup] // 8).ravel(),
                    bits[:, dup].ravel(),
                )
        return pa.table(
            {
                "once": pa.array([once.tobytes()], type=pa.binary()),
                "twice": pa.array([twice.tobytes()], type=pa.binary()),
            }
        )

    once = np.zeros(m_bits // 8, dtype=np.uint8)
    twice = np.zeros(m_bits // 8, dtype=np.uint8)
    for b in docs.map_batches(
        partial, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        for o_raw, t_raw in zip(
            b["once"].to_pylist(), b["twice"].to_pylist()
        ):
            o2 = np.frombuffer(o_raw, dtype=np.uint8)
            twice |= np.frombuffer(t_raw, dtype=np.uint8) | (once & o2)
            once |= o2
    return twice


def duplicated_spans(
    docs: "ray.data.Dataset",
    k: int = 8,
    num_buckets: int = 64,
    prefilter_bits: int | None = None,
) -> "ray.data.Dataset":
    """Substring-level dedup (the suffix-array technique of Lee et al.
    2022, "Deduplicating Training Data Makes Language Models Better",
    rendered shuffle-shaped): find every MAXIMAL token span that is
    part of some k-token window occurring >= 2 times anywhere in the
    corpus (across or within documents).

    Output: (doc_id, start_tok, end_tok, n_windows) — one row per
    maximal duplicated island, token indices 0-based inclusive, so a
    cleaning pass drops tokens start_tok..end_tok.

    Scale shape (100 TB): the window inventory is one row per token —
    the same O(corpus) bound a distributed suffix array pays — and it
    never materializes anywhere: two bucketed shuffles, (1) on the
    64-bit window digest (segments of size >= 2 inside a bucket are
    the duplicated windows — equal digests always co-bucket, so the
    decision is global), (2) on doc_id (vectorized gaps-and-islands
    merge of consecutive window indices). Per-task memory is bounded
    by bucket count, never key cardinality (stages/bucketed.py).

    ``prefilter_bits`` (opt-in scale lever): size in bits of a
    two-level Bloom pre-pass (_window_twice_bloom) that prunes
    windows whose digest was provably seen once — typically the vast
    hapax majority — BEFORE the wide shuffle, at the cost of one
    extra pass over docs. Correctness-safe by construction: Bloom
    false positives only let extra windows THROUGH to stage (1),
    whose exact digest-count is still the duplicated/not decision —
    output is bit-identical with the prefilter on or off
    (pytest-pinned). At bitmap saturation it degrades to no pruning,
    never to wrong answers. Pruned-window counts are reported
    through the metrics sidecar (``substring_windows_pruned``,
    SURVEY §7.5).

    No reference analog (LLM-pipeline family); the within-group
    running-index machinery mirrors convert.py:428-461's
    n-th-occurrence counter.
    """
    from ..stages.bucketed import bucketed_apply, segments

    bloom_ref = None
    if prefilter_bits:
        bloom_ref = ray.put(
            _window_twice_bloom(docs, k, prefilter_bits)
        )

    def emit(t: pa.Table) -> pa.Table:
        w = _window_rows(t, k)
        if bloom_ref is not None and w.num_rows:
            bm = ray.get(bloom_ref)
            h = w["h"].to_numpy(zero_copy_only=False)
            pos = _bloom_pos64(h, prefilter_bits)
            hit = (
                (bm[pos // 8] >> (pos % 8).astype(np.uint8)) & 1
            ).astype(bool).all(axis=0)
            n_pruned = int(len(h) - hit.sum())
            if n_pruned:
                from ..state.counters import add_many as _add_many

                _add_many({"substring_windows_pruned": n_pruned})
                w = w.filter(pa.array(hit))
        return w

    inv = docs.map_batches(emit, batch_format="pyarrow")

    def dup_windows(bt: pa.Table) -> pa.Table:
        h = bt["h"].to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        _, sizes = segments(h[order])
        kept = order[np.repeat(sizes >= 2, sizes)]
        ki = pa.array(kept, type=pa.int64())
        return pa.table(
            {
                "doc_id": pc.take(bt["doc_id"], ki),
                "idx": pc.take(bt["idx"], ki),
            }
        )

    def islands(bt: pa.Table) -> pa.Table:
        d = bt["doc_id"].to_numpy(zero_copy_only=False)
        i = bt["idx"].to_numpy(zero_copy_only=False)
        order = np.lexsort((i, d))
        d, i = d[order], i[order]
        brk = np.r_[True, (d[1:] != d[:-1]) | (i[1:] - i[:-1] > 1)]
        starts = np.flatnonzero(brk)
        sizes = np.diff(np.append(starts, len(d)))
        return pa.table(
            {
                "doc_id": pa.array(d[starts], type=pa.int64()),
                "start_tok": pa.array(i[starts], type=pa.int64()),
                "end_tok": pa.array(
                    i[starts + sizes - 1] + k - 1, type=pa.int64()
                ),
                "n_windows": pa.array(sizes, type=pa.int64()),
            }
        )

    dups = bucketed_apply(inv, "h", dup_windows, num_buckets)
    return bucketed_apply(dups, "doc_id", islands, num_buckets)


def duplicated_spans_sql(k: int = 8) -> str:
    """DuckDB oracle: grams by text equality (the digest regime above
    agrees except on ~n^2/2^64 collisions), islands via the classic
    idx - row_number() gaps-and-islands grouping."""
    return f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[0-9a-zA-Z]+') AS ts
  FROM documents
),
g AS (
  SELECT doc_id, i - 1 AS idx,
         array_to_string(ts[i:i + {k} - 1], ' ') AS gram
  FROM toks, UNNEST(generate_series(1, len(ts) - {k} + 1)) AS s(i)
),
dup AS (SELECT gram FROM g GROUP BY gram HAVING count(*) >= 2),
dw AS (
  SELECT doc_id, idx,
         idx - row_number() OVER (PARTITION BY doc_id ORDER BY idx)
           AS grp
  FROM g JOIN dup USING (gram)
)
SELECT doc_id,
       min(idx)::BIGINT AS start_tok,
       (max(idx) + {k} - 1)::BIGINT AS end_tok,
       count(*)::BIGINT AS n_windows
FROM dw GROUP BY doc_id, grp
"""


def remove_duplicated_spans(
    docs: "ray.data.Dataset", k: int = 8, num_buckets: int = 64
) -> "ray.data.Dataset":
    """The actionable half of substring dedup: apply
    `duplicated_spans` islands to the corpus and emit the CLEANED
    text — (doc_id, n_tokens, n_kept, clean_text) for every doc,
    clean_text = the doc's kept tokens (lowered TOKEN_RE token space)
    joined by single spaces, '' when everything was duplicated.

    Scale shape: islands (tiny — one row per maximal duplicated run)
    are tag-unioned with the docs and shuffled ONCE on doc_id via
    bucketed_apply; the bucket kernel tokenizes its docs with the
    byte-LUT kernel, builds the drop mask for all islands at once with
    one diff+cumsum over global token coordinates, and re-joins kept
    tokens per doc with pc.binary_join over a ListArray — no per-doc
    Python, no driver hop.
    """
    from ..stages.bucketed import bucketed_apply
    from .textstats import _explode_tokens

    islands = duplicated_spans(docs, k, num_buckets)

    def tag_docs(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "text": t["text"],
                "start_tok": pa.nulls(n, pa.int64()),
                "end_tok": pa.nulls(n, pa.int64()),
                "_side": pa.array(np.zeros(n, dtype=np.int8)),
            }
        )

    def tag_islands(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "text": pa.nulls(n, pa.string()),
                "start_tok": t["start_tok"],
                "end_tok": t["end_tok"],
                "_side": pa.array(np.ones(n, dtype=np.int8)),
            }
        )

    unioned = docs.map_batches(tag_docs, batch_format="pyarrow").union(
        islands.map_batches(tag_islands, batch_format="pyarrow")
    )

    def clean_kernel(bt: pa.Table) -> pa.Table:
        side = bt["_side"].to_numpy(zero_copy_only=False)
        dmask = side == 0
        dt = bt.filter(pa.array(dmask))
        it = bt.filter(pa.array(~dmask))
        ndocs = dt.num_rows
        if ndocs == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "n_tokens": pa.array([], type=pa.int64()),
                    "n_kept": pa.array([], type=pa.int64()),
                    "clean_text": pa.array([], type=pa.string()),
                }
            )
        parent, toks = _explode_tokens(dt["text"])
        n = len(parent)
        counts = np.bincount(parent, minlength=ndocs)
        doc_starts = np.r_[0, np.cumsum(counts)]
        keep = np.ones(n, dtype=bool)
        if it.num_rows and n:
            ids = dt["doc_id"].to_numpy(zero_copy_only=False)
            order = np.argsort(ids, kind="stable")
            rowpos = order[
                np.searchsorted(
                    ids[order],
                    it["doc_id"].to_numpy(zero_copy_only=False),
                )
            ]
            gs = doc_starts[rowpos] + it["start_tok"].to_numpy(
                zero_copy_only=False
            )
            ge = doc_starts[rowpos] + it["end_tok"].to_numpy(
                zero_copy_only=False
            )
            diff = np.zeros(n + 1, dtype=np.int64)
            np.add.at(diff, gs, 1)
            np.add.at(diff, ge + 1, -1)
            keep = np.cumsum(diff[:n]) == 0
        kept_counts = (
            np.bincount(parent[keep], minlength=ndocs)
            if n
            else np.zeros(ndocs, dtype=np.int64)
        )
        offsets = np.r_[0, np.cumsum(kept_counts)].astype(np.int32)
        kept_toks = (
            toks.filter(pa.array(keep))
            if n
            else pa.array([], type=pa.string())
        )
        clean = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets), kept_toks), " "
        )
        return pa.table(
            {
                "doc_id": dt["doc_id"],
                "n_tokens": pa.array(counts, type=pa.int64()),
                "n_kept": pa.array(kept_counts, type=pa.int64()),
                "clean_text": clean,
            }
        )

    return bucketed_apply(unioned, "doc_id", clean_kernel, num_buckets)


def remove_duplicated_spans_sql(k: int = 8) -> str:
    """DuckDB oracle: kept tokens = tokens covered by no island,
    re-joined in index order; every doc emits a row ('' when all
    tokens were duplicated or the doc had no tokens)."""
    return f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[0-9a-zA-Z]+') AS ts
  FROM documents
),
tok_rows AS (
  SELECT doc_id, i - 1 AS idx, ts[i] AS tok
  FROM toks, UNNEST(generate_series(1, len(ts))) AS s(i)
),
g AS (
  SELECT doc_id, i - 1 AS idx,
         array_to_string(ts[i:i + {k} - 1], ' ') AS gram
  FROM toks, UNNEST(generate_series(1, len(ts) - {k} + 1)) AS s(i)
),
dup AS (SELECT gram FROM g GROUP BY gram HAVING count(*) >= 2),
dw AS (
  SELECT doc_id, idx,
         idx - row_number() OVER (PARTITION BY doc_id ORDER BY idx)
           AS grp
  FROM g JOIN dup USING (gram)
),
isl AS (
  SELECT doc_id, min(idx) AS s, max(idx) + {k} - 1 AS e
  FROM dw GROUP BY doc_id, grp
),
kept AS (
  SELECT t.doc_id, t.idx, t.tok FROM tok_rows t
  WHERE NOT EXISTS (
    SELECT 1 FROM isl
    WHERE isl.doc_id = t.doc_id AND t.idx BETWEEN isl.s AND isl.e
  )
)
SELECT d.doc_id,
       coalesce(tt.n, 0)::BIGINT AS n_tokens,
       coalesce(kk.n, 0)::BIGINT AS n_kept,
       coalesce(kk.txt, '') AS clean_text
FROM documents d
LEFT JOIN (
  SELECT doc_id, count(*) AS n FROM tok_rows GROUP BY doc_id
) tt USING (doc_id)
LEFT JOIN (
  SELECT doc_id, count(*) AS n,
         string_agg(tok, ' ' ORDER BY idx) AS txt
  FROM kept GROUP BY doc_id
) kk USING (doc_id)
"""


# ---------------------------------------- survivorship (golden record)

_GOLDEN_NUM_BUCKETS = 256


def golden_records(
    docs: "ray.data.Dataset",
    threshold: float = 0.9,
    band_cap: int | None = None,
) -> "ray.data.Dataset":
    """ER survivorship: near-dup clusters -> ONE fused golden record
    per cluster. The step after canonical selection in every entity-
    resolution pipeline (reference: BERN keeps one normalized id per
    mention cluster, normalize.py:168-289 — here generalized to
    attribute-level fusion over document records):

    - ``survivor_doc_id``: most-complete-record rule — the member
      with the LONGEST text (chars), ties to the smallest doc_id.
    - ``lang_mode``: most-frequent-value rule over the members'
      ``lang`` attribute, ties to the lexicographically smallest.
    - ``n_members`` / ``total_chars``: cluster roll-ups.

    Clusters come from :func:`dedup_clusters` (minhash pairs ->
    distributed CC), so the oracle regime is the same recursive-CTE
    transitive closure; singletons fuse to themselves.

    Scale shape: labels attach to attrs via the bucketed hash join on
    doc_id; the per-cluster reduction is a per-batch PARTIAL collapse
    keyed (cluster_id, lang) — each batch emits at most one row per
    (cluster, lang) it contains, with the survivor arg-max packed
    into one int64 key (len * 2^31 + (2^31-1 - doc_id), so numeric
    max = longest-then-smallest-id; doc_id and len must both be
    < 2^31) — then ONE groupby shuffle on a cluster-hash bucket whose
    in-bucket finisher is vectorized pandas (the tfidf top_per_doc
    idiom: no per-cluster Python call). Nothing cluster-inventory-
    sized touches the driver.
    """
    from ..stages.join import bucket_join

    labels = dedup_clusters(docs, threshold=threshold, band_cap=band_cap)

    def attrs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a_doc": t["doc_id"],
                "len": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
                "lang": t["lang"],
            }
        )

    joined = bucket_join(
        labels.map_batches(
            lambda t: t.select(["doc_id", "cluster_id"]),
            batch_format="pyarrow",
        ),
        docs.map_batches(attrs, batch_format="pyarrow"),
        left_on="doc_id",
        right_on="a_doc",
        left_schema={"doc_id": pa.int64(), "cluster_id": pa.int64()},
        right_schema={
            "a_doc": pa.int64(),
            "len": pa.int64(),
            "lang": pa.string(),
        },
    )

    def partial(t: pa.Table) -> pa.Table:
        cid = t["cluster_id"].to_numpy(zero_copy_only=False)
        doc = t["doc_id"].to_numpy(zero_copy_only=False)
        ln = t["len"].to_numpy(zero_copy_only=False)
        lang_arr = t["lang"]
        if isinstance(lang_arr, pa.ChunkedArray):
            lang_arr = lang_arr.combine_chunks()
        codes = lang_arr.dictionary_encode()
        li = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nl = len(codes.dictionary)
        key = cid * max(nl, 1) + li
        uk, inv, cnts = np.unique(
            key, return_inverse=True, return_counts=True
        )
        chars = np.bincount(inv, weights=ln).astype(np.int64)
        bk = ln * (1 << 31) + ((1 << 31) - 1 - doc)
        best = np.full(len(uk), -1, dtype=np.int64)
        np.maximum.at(best, inv, bk)
        return pa.table(
            {
                "cluster_id": pa.array(uk // max(nl, 1), type=pa.int64()),
                "lang": codes.dictionary.take(
                    pa.array(uk % max(nl, 1), type=pa.int64())
                ),
                "members": pa.array(cnts, type=pa.int64()),
                "chars": pa.array(chars, type=pa.int64()),
                "bestkey": pa.array(best, type=pa.int64()),
            }
        )

    def fuse_bucket(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        agg = g.groupby("cluster_id", sort=True).agg(
            n_members=("members", "sum"),
            total_chars=("chars", "sum"),
            best=("bestkey", "max"),
        )
        lm = (
            g.groupby(["cluster_id", "lang"], sort=False)["members"]
            .sum()
            .reset_index()
            .sort_values(
                ["cluster_id", "members", "lang"],
                ascending=[True, False, True],
                kind="stable",
            )
            .groupby("cluster_id", sort=False)
            .head(1)
            .set_index("cluster_id")
        )
        surv = (1 << 31) - 1 - (
            agg["best"].to_numpy(dtype=np.int64) & ((1 << 31) - 1)
        )
        return pa.table(
            {
                "cluster_id": pa.array(
                    agg.index.to_numpy(dtype=np.int64)
                ),
                "survivor_doc_id": pa.array(surv, type=pa.int64()),
                "n_members": pa.array(
                    agg["n_members"].to_numpy(dtype=np.int64)
                ),
                "total_chars": pa.array(
                    agg["total_chars"].to_numpy(dtype=np.int64)
                ),
                "lang_mode": pa.array(
                    lm.loc[agg.index, "lang"].tolist(), type=pa.string()
                ),
            }
        )

    partials = joined.map_batches(
        partial, batch_format="pyarrow", batch_size=PREP_BATCH
    )
    return bucketed_apply(
        partials, "cluster_id", fuse_bucket, _GOLDEN_NUM_BUCKETS
    )


def cluster_cohesion(
    docs: "ray.data.Dataset",
    threshold: float = 0.9,
    band_cap: int | None = None,
    num_buckets: int = 256,
) -> "ray.data.Dataset":
    """Per-cluster cohesion of the near-dup clustering: for every
    non-singleton cluster, (cluster_id, n_edges, min_jaccard,
    mean_jaccard) over its VERIFIED intra-cluster edges — the
    diagnostic that separates tight duplicate groups from chain-merged
    ones (low min + high mean flags a transitive bridge worth a
    second look before collapsing the cluster).

    Composes the public pair and cluster APIs; a production run feeds
    checkpointed pairs instead of recomputing (the linkage pipeline's
    lineage does). Scale shape: the per-cluster aggregate is bucketed
    (cluster-id hash, one vectorized pandas groupby per bucket) —
    cluster cardinality is corpus-sized at 100 TB, so no native
    per-key groupby and nothing driver-sized.
    """
    from ..stages.join import bucket_join

    pairs = minhash_neardup(docs, threshold=threshold, band_cap=band_cap)
    labels = dedup_clusters(
        docs, threshold=threshold, band_cap=band_cap
    ).map_batches(
        lambda t: t.select(["doc_id", "cluster_id"]),
        batch_format="pyarrow",
    )
    edges = bucket_join(
        pairs,
        labels,
        left_on="doc_id_a",
        right_on="doc_id",
        left_schema={
            "doc_id_a": pa.int64(),
            "doc_id_b": pa.int64(),
            "jaccard": pa.float64(),
        },
        right_schema={"doc_id": pa.int64(), "cluster_id": pa.int64()},
    )

    def reduce_bucket(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        agg = g.groupby("cluster_id", sort=False)["jaccard"].agg(
            ["size", "min", "mean"]
        )
        return pa.table(
            {
                "cluster_id": pa.array(
                    agg.index.to_numpy(), type=pa.int64()
                ),
                "n_edges": pa.array(
                    agg["size"].to_numpy(dtype=np.int64)
                ),
                "min_jaccard": pa.array(agg["min"].to_numpy()),
                "mean_jaccard": pa.array(
                    np.round(agg["mean"].to_numpy(), 6)
                ),
            }
        )

    return bucketed_apply(
        edges.select_columns(["cluster_id", "jaccard"]),
        "cluster_id",
        reduce_bucket,
        num_buckets,
    )


def _prefix_rows_abs(t: pa.Table, min_overlap: int) -> pa.Table:
    """Absolute-overlap prefix emission: a pair with
    |A∩B| >= T shares a token within each side's first
    p = n - T + 1 tokens (Chaudhuri et al. SSJoin lemma with the
    absolute threshold), and a doc with n < T can never qualify —
    it emits nothing."""
    col = t["tok"].combine_chunks()
    offsets = col.offsets.to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    values = col.values.to_numpy(zero_copy_only=False)
    doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
    n = np.diff(offsets)
    p = np.clip(n - min_overlap + 1, 0, n)
    total = int(p.sum())
    seg_starts = np.zeros(len(p), dtype=np.int64)
    np.cumsum(p[:-1], out=seg_starts[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(
        seg_starts, p
    )
    take = np.repeat(offsets[:-1], p) + within
    return pa.table(
        {
            "tok": pa.array(values[take], type=pa.int64()),
            "doc_id": pa.array(
                np.repeat(doc_ids, p), type=pa.int64()
            ),
            "nt": pa.array(np.repeat(n, p), type=pa.int64()),
        }
    )


def _posting_pairs_abs_bucket(
    min_overlap: int, posting_cap: int | None
):
    """Candidate pairs per prefix-token posting list with the
    absolute-overlap size filter min(|A|, |B|) >= T (a side smaller
    than T cannot reach T shared tokens)."""

    def fn(t: pa.Table) -> pa.Table:
        from ..stages.blocking import segment_pairs

        g = _sorted_unique(t, ["tok", "doc_id"])
        if g.num_rows < 2:
            return _EMPTY_PAIRS
        starts, sizes = segments(g["tok"].to_numpy())
        stats: dict = {}
        ai, bi = segment_pairs(
            starts, sizes, cap=posting_cap, stats=stats
        )
        if stats.get("capped_segments"):
            from ..state.counters import add_many as _add_many

            _add_many(
                {
                    "setsim_postings_capped": stats[
                        "capped_segments"
                    ],
                    "setsim_pairs_elided": stats["elided_pairs"],
                }
            )
        if len(ai) == 0:
            return _EMPTY_PAIRS
        ids = g["doc_id"].to_numpy()
        nt = g["nt"].to_numpy()
        keep = np.minimum(nt[ai], nt[bi]) >= min_overlap
        return pa.table(
            {
                "doc_id_a": pa.array(ids[ai][keep], type=pa.int64()),
                "doc_id_b": pa.array(ids[bi][keep], type=pa.int64()),
            }
        )

    return fn


def setsim_overlap_join(
    docs: "ray.data.Dataset",
    min_overlap: int = 10,
    shingle_k: int = 3,
    posting_cap: int | None = None,
) -> "ray.data.Dataset":
    """EXACT absolute-overlap set-similarity self-join: all doc pairs
    sharing >= ``min_overlap`` distinct k-shingles — the SSJoin base
    predicate (Chaudhuri, Ganti & Kaushik ICDE 2006), completing the
    prefix-filter family (jaccard / cosine / dice normalize this
    count; the absolute form is what their filters reduce to). Prefix
    p = n - T + 1, size filter min(|A|,|B|) >= T, exact verification
    via the shared distributed-join tail. Output (doc_id_a, doc_id_b,
    overlap int64), a < b.

    The overlap COEFFICIENT |A∩B|/min(|A|,|B|) is deliberately NOT
    offered through the prefix machinery: min-normalization permits
    arbitrarily small partners, so no prefix shorter than the whole
    set is sound for it (see _SETSIM_MEASURES note)."""
    shingles = docs.map_batches(
        lambda t: _shingle_list_rows(t, shingle_k),
        batch_format="pyarrow",
    ).materialize()
    num_buckets = _planned_buckets(shingles)
    prefix = shingles.map_batches(
        lambda t: _prefix_rows_abs(t, min_overlap),
        batch_format="pyarrow",
    )
    pairs = bucketed_apply(
        prefix,
        "tok",
        _posting_pairs_abs_bucket(min_overlap, posting_cap),
        num_buckets,
    )
    return verify_setsim_pairs(
        pairs,
        shingles,
        float(min_overlap),
        sim="overlap",
        score_col="overlap",
        num_buckets=num_buckets,
    )


def setsim_containment_join(
    docs: "ray.data.Dataset",
    threshold: float = 0.9,
    min_overlap: int = 10,
    shingle_k: int = 3,
    posting_cap: int | None = None,
) -> "ray.data.Dataset":
    """EXACT max-containment self-join composed with the SSJoin base
    predicate: all doc pairs with |A∩B| >= ``min_overlap`` AND
    |A∩B|/min(|A|,|B|) >= ``threshold`` — the near-SUBSET detector
    (quote inclusion, page-within-page) that jaccard misses when the
    containing side is much larger. Max-containment alone admits no
    sound prefix pruning (see _SETSIM_MEASURES note); the absolute
    floor supplies it: candidate generation is the overlap join's
    prefix p = n - T + 1 / size >= T, verification scores containment
    via the shared distributed tail. Both predicates are part of the
    operator contract, mirrored in the oracle."""
    shingles = docs.map_batches(
        lambda t: _shingle_list_rows(t, shingle_k),
        batch_format="pyarrow",
    ).materialize()
    num_buckets = _planned_buckets(shingles)
    prefix = shingles.map_batches(
        lambda t: _prefix_rows_abs(t, min_overlap),
        batch_format="pyarrow",
    )
    pairs = bucketed_apply(
        prefix,
        "tok",
        _posting_pairs_abs_bucket(min_overlap, posting_cap),
        num_buckets,
    )
    return verify_setsim_pairs(
        pairs,
        shingles,
        threshold,
        sim="containment",
        score_col="containment",
        min_overlap=min_overlap,
        num_buckets=num_buckets,
    )


# ------------------------------------- weighted (multiset) jaccard


def _tf_expanded_rows(t: pa.Table) -> pa.Table:
    """(doc_id, tok: list<int64>) — each doc's token MULTISET as a
    sorted-unique element set via positional expansion: the j-th
    occurrence of token w becomes element splitmix64(h64(w) + j*C).

    The identity this rides on: for integer weights (term counts),
    weighted Jaccard sum(min(tf_a, tf_b)) / sum(max(tf_a, tf_b)) is
    EXACTLY the set Jaccard of the expanded (token, occurrence-index)
    sets — min(ca, cb) occurrence elements are shared, max(ca, cb)
    appear in the union. So the whole exact prefix-filter machinery
    (prefix lemma, size-ratio, positional filter, verify joins)
    applies unchanged to the multiset measure.

    Kernel: one Arrow-buffer tokenize (_explode_tokens), one
    vectorized 63-bit token hash (_token_h64), one lexsort cumcount
    for occurrence indices, one splitmix64 combine — no per-row
    Python. splitmix64 is a bijection, so expansion elements of one
    doc are distinct whenever (hash + j*C) are; collision regime is
    the setsim family's documented ~n^2/2^63 (plus _token_h64's
    32-byte-prefix caveat for extreme words)."""
    from ..core.minhash import _splitmix64
    from .textstats import _explode_tokens, _token_h64

    texts = t["text"]
    doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
    parents, toks = _explode_tokens(texts)
    n_docs = len(doc_ids)
    if len(parents) == 0:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "tok": pa.array(
                    [[] for _ in range(n_docs)],
                    type=pa.list_(pa.int64()),
                ),
            }
        )
    h = _token_h64(toks).astype(np.uint64)
    # occurrence index j of each (doc, token-hash) pair: lexsort then
    # cumcount within runs, scattered back to original positions
    order = np.lexsort((h, parents))
    ph = parents[order]
    hh = h[order]
    new_run = np.empty(len(order), dtype=bool)
    new_run[0] = True
    new_run[1:] = (ph[1:] != ph[:-1]) | (hh[1:] != hh[:-1])
    run_id = np.cumsum(new_run) - 1
    run_starts = np.flatnonzero(new_run)
    occ_sorted = np.arange(len(order)) - run_starts[run_id]
    occ = np.empty(len(order), dtype=np.int64)
    occ[order] = occ_sorted
    C = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        elems = _splitmix64(h + occ.astype(np.uint64) * C).view(
            np.int64
        )
    # per-doc sorted element lists (expansion elements are unique per
    # doc up to splitmix-input collisions; np.unique also sorts)
    counts = np.bincount(parents, minlength=n_docs)
    starts = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    by_doc = np.lexsort((elems, parents))
    flat = elems[by_doc]
    lists = [
        np.unique(flat[starts[i] : starts[i + 1]]).tolist()
        for i in range(n_docs)
    ]
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "tok": pa.array(lists, type=pa.list_(pa.int64())),
        }
    )


def weighted_jaccard_neardup(
    docs: "ray.data.Dataset",
    threshold: float = 0.8,
    posting_cap: int | None = None,
    positional: bool = True,
) -> "ray.data.Dataset":
    """EXACT weighted-Jaccard near-dup self-join over token term
    frequencies: sum(min(tf_a, tf_b)) / sum(max(tf_a, tf_b)) >=
    threshold — the multiset refinement of ngram/set Jaccard that
    counts REPEATED boilerplate (a doc that repeats a paragraph twice
    is no longer identical to one containing it once), the measure
    weighted-minhash schemes (Ioffe 2010 ICWS) approximate. Computed
    exactly here via positional expansion (_tf_expanded_rows), which
    reduces it to set Jaccard and reuses the whole SSJoin machinery:
    prefix emission, size-ratio + positional filters, posting_cap
    skew guard, and the distributed verify joins — identical scale
    shape to setsim_neardup. Output (doc_id_a, doc_id_b, wjaccard),
    a < b, rounded 6dp; DuckDB oracle = tf CTE + least/greatest sums
    with sum(max) = n_a + n_b - sum(min)."""
    coef = _SETSIM_MEASURES["jaccard"]["alpha_coef"](threshold)
    elems = docs.map_batches(
        _tf_expanded_rows, batch_format="pyarrow"
    ).materialize()
    num_buckets = _planned_buckets(elems)
    prefix = elems.map_batches(
        lambda t: _prefix_rows(t, coef, with_pos=positional),
        batch_format="pyarrow",
    )
    pairs = bucketed_apply(
        prefix,
        "tok",
        _posting_pairs_bucket(coef, posting_cap, positional),
        num_buckets,
    )
    return verify_setsim_pairs(
        pairs,
        elems,
        threshold,
        sim="jaccard",
        score_col="wjaccard",
        num_buckets=num_buckets,
    )


# ------------------------------------------ ICWS weighted minhash


def _doc_tf_arrays(
    t: pa.Table,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tok_h uint64 flat, tf float64 flat, starts int64) — each
    doc's distinct token hashes with their term frequencies, the
    weighted-set form icws_signatures consumes. Same vectorized
    tokenize + lexsort run-length kernel as _tf_expanded_rows."""
    from .textstats import _explode_tokens, _token_h64

    doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
    n_docs = len(doc_ids)
    parents, toks = _explode_tokens(t["text"])
    if len(parents) == 0:
        return (
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=np.float64),
            np.zeros(n_docs + 1, dtype=np.int64),
        )
    h = _token_h64(toks).astype(np.uint64)
    order = np.lexsort((h, parents))
    ph = parents[order]
    hh = h[order]
    new_run = np.empty(len(order), dtype=bool)
    new_run[0] = True
    new_run[1:] = (ph[1:] != ph[:-1]) | (hh[1:] != hh[:-1])
    run_starts = np.flatnonzero(new_run)
    run_counts = np.diff(np.append(run_starts, len(order)))
    run_doc = ph[run_starts]
    docs_counts = np.bincount(run_doc, minlength=n_docs)
    starts = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(docs_counts, out=starts[1:])
    return (
        hh[run_starts],
        run_counts.astype(np.float64),
        starts,
    )


def _icws_band_rows(t: pa.Table) -> pa.Table:
    """_band_rows of the batch's ICWS weighted-minhash signatures —
    the weighted twin of _minhash_band_rows, same band geometry
    (32 x 4 over 128 samples), so the oversized-band collapse applies
    unchanged (weighted-identical docs agree on the full signature)."""
    from ..core.minhash import icws_signatures

    tok_h, tf, starts = _doc_tf_arrays(t)
    sig = icws_signatures(tok_h, tf, starts, num_samples=MINHASH_PERMS)
    return _band_rows(t["doc_id"].to_numpy(zero_copy_only=False), sig)


def icws_neardup(
    docs: "ray.data.Dataset",
    threshold: float = 0.8,
    band_cap: int | None = None,
) -> "ray.data.Dataset":
    """ICWS weighted-minhash LSH candidates verified by EXACT
    weighted Jaccard — the APPROXIMATE/scale twin of
    weighted_jaccard_neardup, mirroring the minhash_neardup <->
    setsim_neardup symmetry: Ioffe's sampler collides per sample with
    probability exactly sum(min tf)/sum(max tf), so the 32x4 banding
    detection math carries over verbatim (at wj=0.8:
    1-(1-0.8^4)^32 ≈ 1-5e-8 — the ngram_jaccard oracle regime).
    Verification reuses the positional-expansion element sets, so
    accepted pairs carry the exact score; band_cap semantics
    (default None = all in-band pairs, the oracle regime) are
    minhash_neardup's."""
    elems = docs.map_batches(
        _tf_expanded_rows, batch_format="pyarrow"
    ).materialize()

    num_buckets = _planned_buckets(elems)
    band_rows = docs.map_batches(_icws_band_rows, batch_format="pyarrow")
    pairs = bucketed_apply(
        band_rows, "band", _band_pairs_bucket(band_cap), num_buckets
    )
    return verify_setsim_pairs(
        pairs,
        elems,
        threshold,
        sim="jaccard",
        score_col="wjaccard",
        num_buckets=num_buckets,
    )
