"""Meta-blocking over token blocking: block purging, then weighting and
pruning of the blocking graph (Papadakis et al., "Meta-Blocking:
Taking Entity Resolution to the Next Level", TKDE 2014).

Token blocking (every record keyed by every distinct token of a
blocking field) is the redundancy-positive scheme the ER literature
builds meta-blocking on: oversized blocks are PURGED (a token shared by
half the corpus carries no signal and would cost C(n,2) comparisons),
and the surviving candidate pairs are weighted — CBS, the number of
blocks two records share — and PRUNED by edge weight (WEP, CEP) or per
node (WNP, CNP). This is the literature step beyond the reference's
single-key blocking dictionaries (normalize.py:168-289: one fold key
per mention, no redundancy, no pruning) and composes with the same
downstream scorer/CC stages.

All seven operators are one pipeline, every shuffle a 256-bucket
``bucketed_apply`` (stages/bucketed.py): ``_assignments`` (distinct
(id, token) rows, optionally block-filtered) -> ``_block_pass`` (one
token shuffle: purge, weigh each block — 1 for CBS, idf^2 for TF-IDF
cosine — and emit pair partials, plus per-record partials and tallies
on request) -> ``_combine`` (one key shuffle; ``segmented_reduce``
sums in (key, value) order, so float sums do not depend on the order
rows arrive in) -> ``_node_prune`` (CNP, WNP) or ``_attach`` (endpoint
values for the weighting schemes and the TF-IDF norms).

Scale shape (the 100-TB story):
- the token shuffle is keyed on the token bytes' hash (collisions only
  co-locate: the in-bucket segmentation groups on the REAL token);
- block purging bounds per-block pair emission to C(purge_cap, 2) —
  the cap is the skew defense, and purged blocks/pairs are reported
  through ``state/counters`` (SURVEY §7.5: log what was dropped);
- pair partials are combined per token bucket BEFORE the pair shuffle,
  which moves one row per distinct (bucket, pair) keyed on a packed
  int64 ``(a << 31) | b`` — never a string; the combine is bucketed,
  not a native per-key groupby (871k distinct pairs through Ray's
  groupby().sum() cost ~21 s at sf0.01, the bucketed reduce < 1 s);
- nothing is driver-sized: the output is the pruned pair list and the
  only values pulled back are scalar tallies.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..stages.blocking import segment_pairs
from ..stages.bucketed import (
    bucketed_apply,
    segment_starts_repeat,
    segmented_reduce,
    segments,
)
from ..stages.join import bucket_join
from ..state import counters
from .textstats import _explode_tokens

_NUM_BUCKETS = 256
# packed pair key = (a << 31) | b: both ids must fit in 31 bits so
# the pack stays positive int64 (web-scale corpora with wider ids
# re-key to dense int before linkage, as the linkage pipeline does).
_ID_BITS = 31
_ID_MAX = (1 << _ID_BITS) - 1

# _block_pass row kinds: pair partial (key = packed pair), record
# partial (key = id), and per-bucket tallies of the blocks that yield
# comparisons and of the assignments that survive purging (key 0)
_PAIR, _RECORD, _BLOCKS, _KEPT = range(4)
_CBS_COUNTERS = ("metablock_purged_blocks", "metablock_purged_pairs")
_TFIDF_COUNTERS = ("tfidf_cos_purged_tokens", "tfidf_cos_purged_pairs")


def _token_blocks(t: pa.Table):
    """Sort a token bucket by (token bytes, id) -> (sorted table,
    starts, sizes), one segment per token block. A token's rows all
    share one bucket, so a segment IS the global block."""
    tok = pc.rank(t["token"], tiebreaker="dense").to_numpy()
    order = np.lexsort((t["id"].to_numpy(), tok))
    starts, sizes = segments(tok[order])
    return t.take(order), starts, sizes


def _assignments(
    records: "ray.data.Dataset",
    id_col: str,
    text_col: str,
    block_filter: tuple[int, int] | None,
) -> "ray.data.Dataset":
    """-> Dataset (id, token): the distinct block assignments. A record
    lives in exactly one batch, so per-batch distinct is global.

    ``block_filter=(num, den)``: BLOCK FILTERING (Papadakis et al.,
    EDBT 2016) — each record keeps only its ceil(num/den * nb) SMALLEST
    blocks (ties broken by token bytes), so a mid-frequency token block
    shrinks to the records for which it is among their most selective
    keys. The keep rule is integer-exact: rn <= ceil(num*nb/den) <=>
    rn*den <= num*nb + den - 1 — no float boundary, so the SQL mirror
    (same integer arithmetic) cannot disagree. Dropped assignments are
    reported via the counters sidecar."""

    def tok_rows(t: pa.Table) -> pa.Table:
        idx, toks = _explode_tokens(t[text_col])
        ids = t[id_col].to_numpy()[idx].astype(np.int64)
        return (
            pa.table({"id": ids, "token": toks})
            .group_by(["id", "token"])
            .aggregate([])
        )

    assign = records.map_batches(tok_rows, batch_format="pyarrow")
    if block_filter is None:
        return assign
    num, den = block_filter

    def sized(t: pa.Table) -> pa.Table:
        s, _, sizes = _token_blocks(t)
        return s.append_column("sz", pa.array(np.repeat(sizes, sizes)))

    def keep_smallest(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy()
        tok = pc.rank(t["token"], tiebreaker="dense").to_numpy()
        order = np.lexsort((tok, t["sz"].to_numpy(), ids))
        starts, nb = segments(ids[order])
        rank = np.arange(len(order)) - segment_starts_repeat(starts, nb)
        keep = (rank + 1) * den <= num * np.repeat(nb, nb) + den - 1
        counters.add_many({"metablock_filtered_assignments": (~keep).sum()})
        return t.take(order[keep]).select(["id", "token"])

    sized_ds = bucketed_apply(assign, "token", sized, _NUM_BUCKETS)
    return bucketed_apply(sized_ds, "id", keep_smallest, _NUM_BUCKETS)


def _block_pass(
    records: "ray.data.Dataset",
    id_col: str,
    text_col: str,
    block_filter: tuple[int, int] | None,
    purge_threshold_x2: int,
    *,
    n_records: int | None = None,
    extras: bool = False,
) -> "ray.data.Dataset":
    """One token shuffle over ``_assignments`` -> (kind, key, w) rows.

    Per token block: purge when 2*size > ``purge_threshold_x2`` (the x2
    integer compare keeps a fractional cap such as half the corpus
    exact), weigh the survivors — 1 for CBS, idf^2 = ln(N/df)^2 for
    TF-IDF when ``n_records`` = N is given — and emit every pair of a
    block of size >= 2 as a _PAIR partial, summed per packed pair within
    the bucket. With ``extras``, also each record's summed block
    weights (_RECORD; CBS counts only blocks that yield a comparison)
    and the _BLOCKS / _KEPT tallies, materialized for several readers."""
    log_n = None if n_records is None else float(np.log(float(n_records)))
    purge_counters = _CBS_COUNTERS if n_records is None else _TFIDF_COUNTERS

    def kernel(t: pa.Table) -> pa.Table:
        s, starts, sizes = _token_blocks(t)
        ids = s["id"].to_numpy()
        if ids.size and int(ids.max()) > _ID_MAX:
            raise ValueError(
                "meta-blocking ids must fit in 31 bits for the packed "
                "pair key; re-key to dense int64 first"
            )
        purged = 2 * sizes > purge_threshold_x2
        ps = sizes[purged]
        counters.add_many(
            dict(zip(purge_counters, (ps.size, (ps * (ps - 1) // 2).sum())))
        )
        keep = (sizes >= 2) & ~purged
        bw = keep.astype(np.int64)
        if log_n is not None:
            idf = log_n - np.log(sizes.astype(np.float64))
            bw = np.where(purged, 0.0, idf * idf)
        ai, bi = segment_pairs(starts[keep], sizes[keep], cap=None)
        block = np.repeat(np.arange(sizes.size), sizes)
        # within a token block ids are sorted and distinct -> a < b
        pair = (ids[ai] << _ID_BITS) | ids[bi]
        parts = [(_PAIR,) + segmented_reduce(pair, bw[block[ai]], np.add)]
        if extras:
            row_w = bw[block]
            m = row_w > 0
            key0 = np.zeros(1, dtype=np.int64)
            parts += [
                (_RECORD,) + segmented_reduce(ids[m], row_w[m], np.add),
                (_BLOCKS, key0, np.array([(bw > 0).sum()])),
                (_KEPT, key0, np.array([sizes[~purged].sum()])),
            ]
        kinds, keys, ws = zip(*parts)
        return pa.table(
            {
                "kind": np.repeat(np.int8(kinds), [len(k) for k in keys]),
                "key": np.concatenate(keys),
                "w": np.concatenate(ws).astype(bw.dtype),
            }
        )

    assign = _assignments(records, id_col, text_col, block_filter)
    out = bucketed_apply(assign, "token", kernel, _NUM_BUCKETS)
    return out.materialize() if extras else out


def _part(out: "ray.data.Dataset", kind: int) -> "ray.data.Dataset":
    """The (key, w) rows of one kind of a ``_block_pass`` output."""
    return out.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], kind)).drop_columns(["kind"]),
        batch_format="pyarrow",
    )


def _combine(
    ds: "ray.data.Dataset",
    ufunc=np.add,
    min_w: int | None = None,
    name: str | None = None,
) -> "ray.data.Dataset":
    """One key shuffle: reduce every key's (key, w) partials with
    ``ufunc``, keep w >= ``min_w``. With ``name``, the key is a packed
    pair -> (a, b, name); else -> (id, w)."""

    def fn(t: pa.Table) -> pa.Table:
        key, w = segmented_reduce(
            t["key"].to_numpy(), t["w"].to_numpy(), ufunc
        )
        if min_w is not None:
            m = w >= min_w
            key, w = key[m], w[m]
        if name is None:
            return pa.table({"id": key, "w": w})
        return pa.table({"a": key >> _ID_BITS, "b": key & _ID_MAX, name: w})

    return bucketed_apply(ds, "key", fn, _NUM_BUCKETS)


def meta_block_pairs(
    records: "ray.data.Dataset",
    id_col: str,
    text_col: str,
    *,
    purge_threshold_x2: int,
    min_common: int = 3,
    block_filter: tuple[int, int] | None = None,
) -> "ray.data.Dataset":
    """-> Dataset (a, b, common_blocks), a < b: the CBS-pruned
    candidate pairs of token blocking over ``text_col`` after purging
    blocks with 2*size > ``purge_threshold_x2`` (pass 2*cap, or the
    corpus row count for a half-the-corpus cap), keeping pairs with
    weight >= ``min_common``.

    ``block_filter=(num, den)`` (opt-in) runs BLOCK FILTERING first
    (``_assignments``) — purging then applies to the FILTERED block
    sizes, at the cost of two extra shuffles. On zipf-vocabulary
    corpora (real text) this is the step that keeps mid-frequency token
    blocks from surviving purging with C(n,2) cost (the planted-zipf
    pytest measures a >5x comparison-count reduction at unchanged
    recall of the planted dup pairs). CAVEAT measured on this repo's
    NEAR-UNIFORM synthetic tables: when every key is equally frequent
    filtering cannot shrink the kept blocks, and it can even RE-ADMIT a
    would-be-purged block by shrinking it under the purge bar (the part
    table's 'brand' block at ratio 4/5) — filtering is a knob to
    measure per corpus, not a free win.

    ``id_col`` must be int64 ids < 2^31 (packed pair key).
    """
    out = _block_pass(
        records, id_col, text_col, block_filter, purge_threshold_x2
    )
    return _combine(_part(out, _PAIR), np.add, min_common, "common_blocks")


def _node_prune(pairs: "ray.data.Dataset", keep) -> "ray.data.Dataset":
    """Either-endpoint node pruning over a CBS pair list: every record
    ranks its adjacent edges (weight desc, neighbor id asc as the
    deterministic tie-break) and ``keep(w, rank, degree, weight_sum)``
    (per directed edge) picks the ones it retains; a pair survives if
    EITHER endpoint retains it (the literature's redundancy-positive
    retention). A node's neighbor list sorts within one node bucket —
    one lexsort per bucket, never a per-node loop; skewed hubs cost
    O(degree log degree), bounded upstream by block purging."""

    def both_dirs(t: pa.Table) -> pa.Table:
        a, b, w = (t[c].to_numpy() for c in ("a", "b", "common_blocks"))
        return pa.table(
            {
                "node": np.concatenate([a, b]),
                "nbr": np.concatenate([b, a]),
                "w": np.concatenate([w, w]),
            }
        )

    def prune(t: pa.Table) -> pa.Table:
        node, nbr, w = (t[c].to_numpy() for c in ("node", "nbr", "w"))
        order = np.lexsort((nbr, -w, node))
        node, nbr, w = node[order], nbr[order], w[order]
        starts, deg = segments(node)
        rank = np.arange(node.size) - segment_starts_repeat(starts, deg)
        sums = np.add.reduceat(w, starts) if starts.size else starts
        m = keep(w, rank, np.repeat(deg, deg), np.repeat(sums, deg))
        lo = np.minimum(node, nbr)[m]
        hi = np.maximum(node, nbr)[m]
        return pa.table({"key": (lo << _ID_BITS) | hi, "w": w[m]})

    directed = pairs.map_batches(both_dirs, batch_format="pyarrow")
    kept = bucketed_apply(directed, "node", prune, _NUM_BUCKETS)
    # a pair retained from both sides carries the same weight twice
    return _combine(kept, np.maximum, None, "common_blocks")


def meta_block_topk(
    records: "ray.data.Dataset",
    id_col: str,
    text_col: str,
    *,
    purge_threshold_x2: int,
    min_common: int = 2,
    k: int = 5,
    block_filter: tuple[int, int] | None = None,
) -> "ray.data.Dataset":
    """Cardinality node pruning (CNP) over the CBS blocking graph:
    each record retains its ``k`` strongest neighbors and a comparison
    survives if EITHER endpoint retains it (``_node_prune``). The WEP
    weight floor (``min_common``) runs first, so CNP prunes the
    already-thinned graph.

    -> Dataset (a, b, common_blocks), a < b, the CNP-retained pairs.
    """
    pairs = meta_block_pairs(
        records,
        id_col,
        text_col,
        purge_threshold_x2=purge_threshold_x2,
        min_common=min_common,
        block_filter=block_filter,
    )
    return _node_prune(pairs, lambda w, rank, deg, sums: rank < k)


def meta_block_wnp(
    records: "ray.data.Dataset",
    id_col: str,
    text_col: str,
    *,
    purge_threshold_x2: int,
    min_common: int = 2,
    block_filter: tuple[int, int] | None = None,
) -> "ray.data.Dataset":
    """Weighted node pruning (WNP) over the CBS blocking graph: each
    node's local threshold is the MEAN weight of its adjacent edges,
    and a comparison survives if its weight reaches the threshold of
    EITHER endpoint (``_node_prune``; the weight-based sibling of
    CNP/``meta_block_topk``). The WEP weight floor (``min_common``)
    runs first. The mean compare is INTEGER-exact (w * degree >=
    sum_w; w and degree are bounded by block sizes well under 2^31),
    so there is no float boundary to disagree with an avg()-based SQL
    oracle.

    -> Dataset (a, b, common_blocks), a < b, the WNP-retained pairs.
    """
    pairs = meta_block_pairs(
        records,
        id_col,
        text_col,
        purge_threshold_x2=purge_threshold_x2,
        min_common=min_common,
        block_filter=block_filter,
    )
    return _node_prune(pairs, lambda w, rank, deg, sums: w * deg >= sums)


def meta_block_wep(
    records: "ray.data.Dataset",
    id_col: str,
    text_col: str,
    *,
    purge_threshold_x2: int,
    block_filter: tuple[int, int] | None = None,
) -> "ray.data.Dataset":
    """Weighted edge pruning (WEP) over the CBS blocking graph: one
    GLOBAL threshold — the mean edge weight of the whole graph — and
    every comparison at or above it survives (completes the WEP/WNP/CNP
    pruning trio with ``meta_block_wnp`` / ``meta_block_topk``).

    -> Dataset (a, b, common_blocks), a < b, the WEP-retained pairs.

    The pair list is materialized once (it is consumed twice: a scalar
    sum/count aggregate, then the filter); only TWO scalars reach the
    driver and the compare is integer-exact (w * n_pairs >= sum_w), so
    an avg()-based SQL oracle cannot float-disagree.
    """
    pairs = meta_block_pairs(
        records,
        id_col,
        text_col,
        purge_threshold_x2=purge_threshold_x2,
        min_common=1,
        block_filter=block_filter,
    ).materialize()
    n_pairs = int(pairs.count())
    if not n_pairs:
        return pairs
    sum_w = int(pairs.sum("common_blocks"))

    def keep(t: pa.Table) -> pa.Table:
        w = t["common_blocks"].to_numpy()
        return t.filter(pa.array(w * n_pairs >= sum_w))

    return pairs.map_batches(keep, batch_format="pyarrow")


def meta_block_cep(
    records: "ray.data.Dataset",
    id_col: str,
    text_col: str,
    *,
    purge_threshold_x2: int,
    block_filter: tuple[int, int] | None = None,
) -> "ray.data.Dataset":
    """Cardinality EDGE pruning (CEP) over the CBS blocking graph:
    retain the K globally highest-weight comparisons, K = half the
    number of post-purge block assignments (the global-budget sibling
    of CNP's per-node k). Deterministic tie-break (weight desc, a asc,
    b asc) so the SQL row_number() mirror agrees row-for-row.

    -> Dataset (a, b, common_blocks): the K retained pairs.

    K is the _KEPT tally of the same token pass that emits the pairs;
    the top-K is one distributed sort + limit (Ray's range-partitioned
    sort — never a driver-side heap).
    """
    out = _block_pass(
        records, id_col, text_col, block_filter, purge_threshold_x2,
        extras=True,
    )
    k = int(_part(out, _KEPT).sum("w") or 0) // 2
    pairs = _combine(_part(out, _PAIR), np.add, 1, "common_blocks")
    return pairs.sort(
        ["common_blocks", "a", "b"], descending=[True, False, False]
    ).limit(k)


def _attach(
    out: "ray.data.Dataset",
    min_w: int | None,
    w_name: str,
    names: tuple[str, str],
    typ: pa.DataType,
) -> "ray.data.Dataset":
    """The pairs of an ``extras`` ``_block_pass`` output, (a, b,
    ``w_name``), with each endpoint's summed _RECORD weight attached —
    as ``names[0]`` for a, ``names[1]`` for b — by two distributed
    bucketed hash joins."""
    pairs = _combine(_part(out, _PAIR), np.add, min_w, w_name)
    nodes = _combine(_part(out, _RECORD)).materialize()
    left = {"a": pa.int64(), "b": pa.int64(), w_name: typ}
    for end, name in zip("ab", names):
        side = nodes.map_batches(
            lambda t, c=name: pa.table({"id": t["id"], c: t["w"]}),
            batch_format="pyarrow",
        )
        pairs = bucket_join(
            pairs,
            side,
            left_on=end,
            right_on="id",
            left_schema=left,
            right_schema={"id": pa.int64(), name: typ},
        )
        # a fresh dict: bucket_join reads its schema lazily
        left = {**left, name: typ}
    return pairs


def meta_block_weights(
    records: "ray.data.Dataset",
    id_col: str,
    text_col: str,
    *,
    purge_threshold_x2: int,
    min_common: int = 1,
    block_filter: tuple[int, int] | None = None,
) -> "ray.data.Dataset":
    """Blocking-graph EDGE WEIGHTING SCHEMES beyond raw CBS (TKDE 2014
    §4.1): for every CBS candidate pair, attach the per-node block
    cardinalities and the two normalized weights the pruning literature
    actually ranks by —

        js   = cbs / (|Bi| + |Bj| - cbs)        (Jaccard scheme)
        ecbs = cbs * log10(B/|Bi|) * log10(B/|Bj|)   (Enhanced CBS)

    where |Bi| = number of KEPT blocks containing record i and B =
    total kept blocks (kept = post-purge, size >= 2 — the blocks that
    generate at least one comparison; hapax tokens, the bulk of a
    webtext vocabulary, are excluded from every cardinality by the same
    rule on both the Ray and SQL sides). JS down-weights hub records
    that co-occur with everything; ECBS is CBS with an IDF-style
    correction. Both are pure ratios/products of exact integers, so
    round(w, 6) matches a DuckDB double oracle.

    -> Dataset (a, b, cbs, bi, bj, js, ecbs), a < b.

    |Bi| and B come from the same token pass as the pairs (its _RECORD
    rows and _BLOCKS tally); B rides to the finisher as a scalar.
    """
    out = _block_pass(
        records, id_col, text_col, block_filter, purge_threshold_x2,
        extras=True,
    )
    total_blocks = int(_part(out, _BLOCKS).sum("w") or 0)
    joined = _attach(out, min_common, "cbs", ("bi", "bj"), pa.int64())

    def weigh(t: pa.Table) -> pa.Table:
        cbs, bi, bj = (
            t[c].to_numpy().astype(np.float64) for c in ("cbs", "bi", "bj")
        )
        js = cbs / (bi + bj - cbs)
        ecbs = cbs * np.log10(total_blocks / bi) * np.log10(total_blocks / bj)
        t = t.append_column("js", pa.array(np.round(js, 6)))
        return t.append_column("ecbs", pa.array(np.round(ecbs, 6)))

    return joined.map_batches(weigh, batch_format="pyarrow")


def tfidf_cosine_pairs(
    records: "ray.data.Dataset",
    id_col: str,
    text_col: str,
    *,
    n_records: int,
    threshold: float,
) -> "ray.data.Dataset":
    """TF-IDF COSINE similarity self-join (WHIRL, Cohen SIGMOD 1998):
    every record is an idf-weighted set vector over its distinct tokens
    and pairs with cosine >= ``threshold`` are emitted — the
    soft-matching comparison measure classic ER stacks rank string
    pairs by, complementing the char-level kernels (Jaro-Winkler /
    Levenshtein) and the unweighted set measures (jaccard/cosine/dice
    in setsim_neardup) already in-repo.

        idf_t     = ln(N / df_t)           (set semantics, tf = 1)
        cos(i,j)  = sum_{t in Ti∩Tj} idf_t^2 / (||vi|| * ||vj||)

    Near-stopword tokens with 2*df > N (more than half the corpus) are
    dropped from every vector on BOTH the Ray and SQL sides — their idf
    is < ln 2 and they are exactly the blocks that would cost C(n,2)
    pair emission (the meta-blocking purge rule, here doubling as the
    skew defense).

    -> Dataset (a, b, cosine), a < b, cosine rounded to 6.

    This is CBS with idf^2 block weights: the dot products are the
    summed pair partials and the squared norms the summed _RECORD rows
    of one token pass (hapax tokens included), both summed in sorted
    order so the result does not depend on block layout.
    """
    out = _block_pass(
        records, id_col, text_col, None, n_records, n_records=n_records,
        extras=True,
    )
    joined = _attach(out, None, "dot", ("n2a", "n2b"), pa.float64())

    def finish(t: pa.Table) -> pa.Table:
        dot, n2a, n2b = (t[c].to_numpy() for c in ("dot", "n2a", "n2b"))
        cos = dot / np.sqrt(n2a * n2b)
        m = cos >= threshold
        t = t.select(["a", "b"]).filter(pa.array(m))
        return t.append_column("cosine", pa.array(np.round(cos[m], 6)))

    return joined.map_batches(finish, batch_format="pyarrow")
