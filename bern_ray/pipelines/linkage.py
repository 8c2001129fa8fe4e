"""Flagship end-to-end entity-resolution pipeline (north_star).

pages (url, warc_ts, html, text, lang)
  -> extract   : task map_batches fused with the pages read -> mentions
  -> normalize : same task map, dict fallback chain
  -> block     : explode keys -> groupby(block_key) -> candidate pairs
                 (the ONE wide shuffle; salted + capped, SURVEY.md §7.4)
  -> score     : task map_batches, vectorized JW/Lev/cosine ensemble
                 (or a trained pair model) -> edges above threshold;
                 the kernels run only on pairs whose ensemble bound
                 (oid / fold agreement) can reach it
  -> cluster   : connected components (union-find stream / distributed
                 label propagation) -> cluster_id per mention

The stateful stages (extractor, normalizer, scorer, pair model) are
built once per worker process by `_process_instance` and reused by
every task that process runs; no stage starts an actor pool, which
would add its start-up (~1.7 s per execution) and block fusion with
the read.

Output schema (expected_clusters shape, FIXTURES.md §4):
  url, mention_id, etype, start, end, surface, oid, ids(list<string>),
  cluster_id

Every stage is expressible through `checkpointed(...)` for
resume-by-existence (state/checkpoint.py). No stage materializes the
full dataset on the driver except the CC label map (documented in
stages/cc.py with the distributed alternative).
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..sources.pages import read_pages
from ..stages.blocking import (
    DEFAULT_SALT_THRESHOLD,
    N_PAIR_BUCKETS,
    attach_pair_attrs,
    build_attr_vocab,
    candidate_pairs,
)
from ..stages.bucketed import bucketed_apply, segments
from ..stages.extract import MentionExtractor
from ..stages.normalize import MentionNormalizer
from ..stages.partitions import plan_buckets, session_cpus, source_rows
from ..stages.scoring import PairScorer, edges_only
from ..state.checkpoint import checkpointed, source_digest

_PKG = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the code the checkpointed linkage stages run: their content keys carry
# its digest, so editing any of it invalidates stored stages
LINKAGE_SOURCES = tuple(
    os.path.join(_PKG, p)
    for p in ("stages", "core", "sources", "pipelines/linkage.py")
)


# this process's stage instances: class -> (key, instance)
_INSTANCES: dict = {}


def _process_instance(cls, key, **kwargs):
    """This worker process's instance of ``cls`` for ``key``, built on
    first use. A new key replaces the old instance, so a process holds
    at most one per class, not one per pass."""
    held = _INSTANCES.get(cls)
    if held is None or held[0] != key:
        _INSTANCES.pop(cls, None)
        held = _INSTANCES[cls] = (key, cls(**kwargs))
    return held[1]


def _task_map(ds, cls, key, kwargs, batch_size):
    """``map_batches`` as a plain task map over ``cls`` built once per
    worker process. No ``concurrency``: a sized task pool stops Ray
    Data fusing the map with its upstream task map."""

    def run(batch: pa.Table) -> pa.Table:
        return _process_instance(cls, key, **kwargs)(batch)

    return ds.map_batches(run, batch_format="pyarrow", batch_size=batch_size)


class FusedExtractNormalize:
    """Extraction + normalization in one stage object (fused): one
    map, no object-store hop between the two."""

    def __init__(self, tables_ref=None, extract_from_html: bool = False):
        self.extract = MentionExtractor(extract_from_html=extract_from_html)
        self.normalize = MentionNormalizer(tables_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.normalize(self.extract(batch))


def extract_normalize_mentions(
    pages: "ray.data.Dataset",
    concurrency: int | tuple = (1, 16),
    batch_size: int | None = None,
    from_html: bool = False,
) -> "ray.data.Dataset":
    """A task map fused with the pages read; each worker process builds
    the extractor and the lookup tables once (70 ms measured) and
    reuses them. ``concurrency`` is unused; it stays in the signature
    because callers (perfbench/layers.py among them) pass it.

    A stage that cannot be built fails the dataset at once (the class
    rides into the task as an object, so a worker that cannot import
    it fails the task). A long run resumes from its stage checkpoints
    (``--checkpoint``) instead of retrying."""
    return _task_map(
        pages,
        FusedExtractNormalize,
        from_html,
        {"extract_from_html": from_html},
        batch_size,
    )


def extract_mentions(
    pages: "ray.data.Dataset",
    batch_size: int | None = None,
    from_html: bool = False,
) -> "ray.data.Dataset":
    """batch_size=None processes one upstream block per call — no
    batch coalescing, so task count == block count and the stage can
    scale out (a numeric batch_size larger than the block size bundles
    many blocks into few tasks and serializes the stage)."""
    return _task_map(
        pages,
        MentionExtractor,
        from_html,
        {"extract_from_html": from_html},
        batch_size,
    )


def normalize_mentions(
    mentions: "ray.data.Dataset",
    batch_size: int | None = None,
) -> "ray.data.Dataset":
    # per-process table build, same rationale as extract_normalize_mentions
    return _task_map(mentions, MentionNormalizer, None, {}, batch_size)


def _key_to_block_key(t: pa.Table) -> pa.Table:
    """int64 block key -> reporting string column (scorer schema)."""
    return pa.table(
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
    )


def score_pairs(
    pairs: "ray.data.Dataset",
    normalized: "ray.data.Dataset" = None,
    concurrency: int | tuple = (1, 16),
    batch_size: int | None = None,
    dedup_in_attach: bool = False,
    vocab=None,
    emit: str = "decoded",
    pair_model_loader=None,
) -> "ray.data.Dataset":
    """Run the pair scorer over attributed pairs.

    With ``normalized`` given and int-only pairs, attributes are
    attached first via the distributed bucketed join. With
    ``normalized=None`` the pairs must already carry attrs
    (candidate_pairs(with_attrs=True) — the single-sort hot path);
    pass the same ``vocab`` used by candidate_pairs when the attrs
    ride as int32 codes, and the scorer decodes them against the
    vocab it fetched once per worker process.

    ``pair_model_loader`` loads a TRAINED pair model (e.g.
    scoring.load_pair_model(npz_path)) that replaces the frozen
    ensemble with batched model inference. The scorer, and with it
    the model, is built once per worker process and call of this
    function. ``concurrency`` is unused; it stays in the signature
    because callers (perfbench/layers.py among them) pass it.

    ``emit`` is PairScorer's: "decoded" (every pair with its string
    attrs), "edges" (every pair, four columns) or "edges_only" (the
    edge rows of "edges"; the frozen ensemble then runs its kernels
    only on pairs whose oid / fold agreement lets the score reach the
    threshold)."""
    if normalized is None and vocab is None:
        pairs = pairs.map_batches(_key_to_block_key, batch_format="pyarrow")
    elif normalized is not None and "a_surface" not in pairs.schema().names:
        pairs = attach_pair_attrs(pairs, normalized, dedup=dedup_in_attach)
    # emit="edges" / "edges_only": lean output (stages/scoring.py),
    # skips the measured-92% per-row decode for consumers that feed CC.
    # Each task unpickles a fresh vocab and loader, so the instance key
    # is a token drawn here, once per call.
    return _task_map(
        pairs,
        PairScorer,
        uuid.uuid4().hex,
        {"vocab": vocab, "emit": emit, "pair_model_loader": pair_model_loader},
        batch_size,
    )


def _min_per_root(t: pa.Table, col: str) -> pa.ChunkedArray:
    """Per row: the least non-null ``col`` among the rows sharing its
    root (null when all are null). One sort by (root, col) with nulls
    last, the first value of each root segment, scattered back to row
    order. Arrow orders strings by UTF-8 bytes, which is code-point
    order."""
    order = pc.sort_indices(
        t,
        sort_keys=[("root", "ascending"), (col, "ascending")],
        null_placement="at_end",
    ).to_numpy()
    starts, sizes = segments(t["root"].to_numpy()[order])
    seg = np.empty(len(order), dtype=np.int64)
    seg[order] = np.repeat(np.arange(len(starts)), sizes)
    return t[col].take(order[starts]).take(seg)


def _assign_clusters_bucket(t: pa.Table) -> pa.Table:
    """Vectorized cluster-id assignment for ALL components hashed into
    one bucket (components are numerous and tiny — one Python call per
    component would dominate; this is one sort per min column).

    cluster_id = min resolved oid in the component, else the shared
    fold key (CUI-less cluster) — deterministic, order-insensitive.
    Rows keep their order; the mention columns pass through as
    ``bucket_join`` typed them (``_MENTION_SCHEMA``).
    """
    min_oid = _min_per_root(t, "oid")
    cid = pc.if_else(
        pc.is_valid(min_oid),
        pc.binary_join_element_wise("BERN:", min_oid, ""),
        pc.binary_join_element_wise(
            "SURF:", _min_per_root(t, "fold_key"), ""
        ),
    )
    return t.select(list(_MENTION_SCHEMA)).append_column("cluster_id", cid)


_MENTION_SCHEMA = {
    "url": pa.string(),
    "mention_id": pa.int64(),
    "etype": pa.string(),
    "start": pa.int64(),
    "end": pa.int64(),
    "surface": pa.string(),
    "oid": pa.string(),
    "ids": pa.list_(pa.string()),
    "fold_key": pa.string(),
}


CLUSTER_BUCKETS = 256


def cluster_mentions(
    normalized: "ray.data.Dataset",
    edges: "ray.data.Dataset",
    cc_mode: str = "auto",
    num_buckets: int = CLUSTER_BUCKETS,
) -> "ray.data.Dataset":
    """Attach cluster_id via CC labels + per-component id assignment.

    Labels stay a Dataset end-to-end: a bucketed hash join on
    mention_id=node attaches them (stages/join.py), so nothing funnels
    through the driver in 'lp' mode — singleton mentions (no edge, no
    label row) null-fill and root to themselves.

    ``num_buckets`` sizes the cluster assignment; the label join and
    contraction CC take it too, capped at their own defaults (64). The
    clusters are the same at any count: ids are per root, and a root's
    rows share one bucket.
    """
    from ..stages.cc import CONTRACT_BUCKETS, components_labels
    from ..stages.join import DEFAULT_NUM_BUCKETS, bucket_join

    labels = components_labels(
        edges, mode=cc_mode, num_buckets=min(num_buckets, CONTRACT_BUCKETS)
    )
    joined = bucket_join(
        normalized,
        labels,
        left_on="mention_id",
        right_on="node",
        left_schema=_MENTION_SCHEMA,
        right_schema={"node": pa.int64(), "label": pa.int64()},
        how="left",
        num_buckets=min(num_buckets, DEFAULT_NUM_BUCKETS),
    )

    def add_root(t: pa.Table) -> pa.Table:
        root_arr = pc.coalesce(
            t["label"].combine_chunks(), t["mention_id"].combine_chunks()
        )
        return t.drop_columns(["label"]).append_column(
            "root", root_arr.cast(pa.int64())
        )

    with_root = joined.map_batches(add_root, batch_format="pyarrow")
    return bucketed_apply(
        with_root, "root", _assign_clusters_bucket, num_buckets
    )


def incremental_linkage(
    prior_normalized: "ray.data.Dataset",
    prior_scored: "ray.data.Dataset",
    new_pages: "ray.data.Dataset",
    salt_threshold: int = DEFAULT_SALT_THRESHOLD,
    concurrency: int | tuple = (1, 8),
    checkpoint_root: str | None = None,
) -> "ray.data.Dataset":
    """Merge a NEW batch of pages into an existing linkage state.

    Incremental semantics: only the new pages are extracted and
    normalized, and only pairs touching a NEW mention are generated
    and scored (prior-prior pairs are already represented by
    ``prior_scored``; the blocking stage drops them inside pair
    emission via the is_new flag). Connected components then runs over
    prior edges ∪ new edges, so the output clusters are IDENTICAL to
    a from-scratch run over the full corpus (pytest-pinned) — the
    cluster ids are content-derived, not run-derived.

    What re-flows at scale: the prior mentions' blocking keys must
    re-enter the one pair-gen shuffle. With a ``checkpoint_root`` the
    PRIOR EXPLODED KEYS are persisted (state/checkpoint.py) on first
    use and read back on every later increment — the prior corpus is
    never re-shingled/re-minhashed (pytest-pinned via the untouched
    checkpoint manifest). Extraction, normalization and scoring — the
    expensive stages — run on new data only, and the scorer emits
    only the new edges (``emit="edges_only"``). The checkpointed path
    carries string attrs (codes would go stale as the vocab grows
    across increments); the in-memory path dictionary-encodes.
    ``concurrency`` is unused; callers still pass it.
    """
    from ..stages.blocking import explode_block_keys, pairs_from_exploded

    def flag(val: bool):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "is_new",
                pa.array(np.full(t.num_rows, val), type=pa.bool_()),
            )

        return fn

    new_norm = extract_normalize_mentions(new_pages)
    prior_tagged = prior_normalized.map_batches(
        flag(False), batch_format="pyarrow"
    )
    new_tagged = new_norm.map_batches(flag(True), batch_format="pyarrow")
    tagged = prior_tagged.union(new_tagged).materialize()
    if checkpoint_root is not None:
        prior_exploded = checkpointed(
            "exploded_prior",
            lambda: prior_tagged.map_batches(
                lambda t: explode_block_keys(t, with_attrs=True),
                batch_format="pyarrow",
            ),
            checkpoint_root,
            lineage=["prior_normalized"],
            config={
                "stage": "exploded_prior",
                "code": source_digest(*LINKAGE_SOURCES),
            },
        )
        new_exploded = new_tagged.map_batches(
            lambda t: explode_block_keys(t, with_attrs=True),
            batch_format="pyarrow",
        )
        pairs = pairs_from_exploded(
            prior_exploded.union(new_exploded),
            salt_threshold=salt_threshold,
            dedup=False,
        )
        new_scored = score_pairs(pairs, None, emit="edges_only")
    else:
        vocab = build_attr_vocab(tagged)
        pairs = candidate_pairs(
            tagged,
            salt_threshold=salt_threshold,
            dedup=False,
            with_attrs=True,
            vocab=vocab,
        )
        new_scored = score_pairs(
            pairs, None, vocab=vocab, emit="edges_only"
        )
    edges = prior_scored.map_batches(
        edges_only, batch_format="pyarrow"
    ).union(new_scored.map_batches(edges_only, batch_format="pyarrow"))
    return cluster_mentions(tagged, edges)


def check_pool_fits(concurrency: int | tuple, cpus: int) -> None:
    """Refuse a session with fewer CPUs than the minimum parallelism
    ``concurrency`` asks for plus one slot for reads. No linkage stage
    starts an actor pool, so this only keeps a caller's stated minimum
    honest (an actor pool holding every CPU stalled the pass without
    an error)."""
    pool_min = concurrency if isinstance(concurrency, int) else concurrency[0]
    if cpus < pool_min + 1:
        raise ValueError(
            f"linkage needs at least {pool_min + 1} CPUs (minimum "
            f"parallelism {pool_min} + 1 for reads), the Ray session "
            f"has {cpus}"
        )


def pass_buckets(sf_dir: str) -> int:
    """Bucket count of the shuffles on a linkage pass over ``sf_dir``:
    two per planned pages source block, from the same metadata row
    count and session CPUs as ``read_pages``, capped at the largest
    site constant (stages/partitions.py ``plan_buckets``)."""
    return plan_buckets(
        source_rows(f"{sf_dir}/documents.parquet"),
        session_cpus(),
        N_PAIR_BUCKETS,
    )


def linkage_pipeline(
    sf_dir: str,
    checkpoint_root: str | None = None,
    salt_threshold: int = DEFAULT_SALT_THRESHOLD,
    cc_mode: str = "auto",
    from_html: bool = False,
    concurrency: int | tuple | None = None,
    scored_emit: str = "decoded",
    pair_model_path: str | None = None,
) -> "ray.data.Dataset":
    """pages(sf_dir) -> clusters Dataset.

    ``pair_model_path`` swaps the frozen scoring ensemble for a
    TRAINED logistic pair model loaded from an .npz checkpoint once
    per worker process (stages/scoring.py LogisticPairModel) — the
    evidenced model seam; clusters are pytest-pinned identical to the
    ensemble's on the fixture corpus.

    ``scored_emit="edges"`` makes the scorer emit every scored pair in
    four columns (a_mid, b_mid, score, is_edge) — the clustering path
    needs nothing else, and the decoded-string output costs a measured
    11x per batch (stages/scoring.py). It applies to checkpointed runs,
    where the scored_pairs checkpoint may itself be a consumed artifact
    (keep the default "decoded" then). Without a checkpoint_root
    nothing but the edge filter reads the scored pairs, so the scorer
    emits ``"edges_only"``: the edge rows alone, with the similarity
    kernels run only on pairs whose ensemble bound reaches the
    threshold.

    Every stage is a task map; ``concurrency`` sizes none of them. When
    a caller passes it, ``check_pool_fits`` still holds the session to
    its minimum; the default (None) checks nothing, so a 1-CPU session
    can run the pass.

    The bucketed shuffles on the pass (pair generation, the label
    join, contraction CC, cluster assignment) take the count
    ``pass_buckets`` plans once from the input size; only the two-join
    attach, taken above MAX_VOCAB surfaces, keeps its default. The
    count changes no output, so it is not part of any checkpoint key.

    `normalized` and `scored_pairs` are each consumed by MULTIPLE
    downstream stages (hot-key count + pair-gen + cluster attach;
    edge filter + metrics), so they are pinned — to Parquet when a
    checkpoint_root is given (the scale path: resumable, spillable),
    else to the object store with ``materialize()`` (mentions/pairs
    are orders of magnitude smaller than the pages input). Without
    pinning, Ray's lazy re-execution would re-run extraction once per
    consumer.
    """
    if concurrency is not None:
        check_pool_fits(concurrency, session_cpus())
    buckets = pass_buckets(sf_dir)
    if checkpoint_root is None:
        scored_emit = "edges_only"
    pair_model_loader = None
    if pair_model_path is not None:
        from ..stages.scoring import load_pair_model

        pair_model_loader = load_pair_model(pair_model_path)
    cfg = {
        "sf_dir": sf_dir,
        "from_html": from_html,
        "code": source_digest(*LINKAGE_SOURCES),
    }
    # the pair model changes SCORING (and hence clusters) but not
    # extraction — scope it to the scored/clusters content keys so
    # flipping the model never invalidates the normalized checkpoint
    score_cfg = (
        {"pair_model": pair_model_path}
        if pair_model_path is not None
        else {}
    )
    normalized = checkpointed(
        "normalized",
        lambda: extract_normalize_mentions(
            read_pages(sf_dir), from_html=from_html
        ),
        checkpoint_root,
        lineage=["pages"],
        config=cfg,
    )
    if checkpoint_root is None:
        normalized = normalized.materialize()
    # single-sort hot path: attrs ride the pair-gen shuffle as int32
    # codes against a broadcast vocabulary (the sort ships only
    # fixed-width ints), no global pair dedup (CC is idempotent to
    # duplicate edges; the scorer factorizes to unique code pairs, so
    # repeats are near-free). Above MAX_VOCAB distinct surfaces the
    # vocab builder declines and the pipeline auto-falls back to the
    # two-join attach — attrs then never enter the pair sort at all.
    def _score():
        vocab = build_attr_vocab(normalized)
        if vocab is not None:
            return score_pairs(
                candidate_pairs(
                    normalized,
                    salt_threshold=salt_threshold,
                    dedup=False,
                    with_attrs=True,
                    vocab=vocab,
                    num_buckets=buckets,
                ),
                None,
                vocab=vocab,
                emit=scored_emit,
                pair_model_loader=pair_model_loader,
            )
        return score_pairs(
            candidate_pairs(
                normalized,
                salt_threshold=salt_threshold,
                dedup=False,
                with_attrs=False,
                num_buckets=buckets,
            ),
            normalized,
            dedup_in_attach=True,
            emit=scored_emit,
            pair_model_loader=pair_model_loader,
        )

    scored = checkpointed(
        "scored_pairs",
        _score,
        checkpoint_root,
        lineage=["normalized"],
        # scored_emit changes the artifact SCHEMA (four-column vs decoded)
        # — it must be part of the content key so flipping the flag
        # between runs invalidates the checkpoint instead of silently
        # reusing a wrong-schema parquet
        config={
            **cfg,
            **score_cfg,
            "salt_threshold": salt_threshold,
            "scored_emit": scored_emit,
        },
    )
    if checkpoint_root is None:
        scored = scored.materialize()
    edges = scored.map_batches(edges_only, batch_format="pyarrow")
    clusters = checkpointed(
        "clusters",
        lambda: cluster_mentions(
            normalized, edges, cc_mode=cc_mode, num_buckets=buckets
        ),
        checkpoint_root,
        lineage=["normalized", "scored_pairs"],
        config={
            **cfg,
            **score_cfg,
            "salt_threshold": salt_threshold,
            "cc": cc_mode,
        },
    )
    return clusters


_GOLDEN_BUCKETS = 256


def golden_entities(clusters: "ray.data.Dataset") -> "ray.data.Dataset":
    """ER survivorship for the flagship pipeline: one fused GOLDEN
    ENTITY row per cluster — the merge step that completes
    block -> score -> cluster -> MERGE (the reference's final
    normalized-ID emission, normalize.py:263-289, generalized to a
    canonical record). Output per cluster_id:

      - etype             (min — clusters are single-typed upstream)
      - canonical_surface (most-frequent mention surface; ties to the
                           lexicographically smallest — the
                           majority-vote rule golden_records uses)
      - n_mentions        (cluster support)
      - n_urls            (distinct source pages — cross-document
                           evidence, not within-page repetition)

    Scale shape: ONE bucketed shuffle on a 256-way cluster-id hash
    (clusters are entity-sized, so per-bucket pandas groupbys are
    thousands of tiny groups handled vectorized: one value_counts for
    the surface vote, one nunique for urls). No driver hop; output is
    O(#clusters)."""
    def fuse(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        # majority surface with lexicographic tie-break: sort by
        # (cluster, surface), count, then stable-sort by -count
        vc = (
            g.groupby(["cluster_id", "surface"], sort=True)
            .size()
            .reset_index(name="n")
            .sort_values(
                ["cluster_id", "n", "surface"],
                ascending=[True, False, True],
                kind="mergesort",
            )
        )
        top = vc.drop_duplicates("cluster_id", keep="first")
        agg = g.groupby("cluster_id", sort=True).agg(
            etype=("etype", "min"),
            n_mentions=("surface", "size"),
            n_urls=("url", "nunique"),
        )
        agg = agg.join(
            top.set_index("cluster_id")["surface"].rename(
                "canonical_surface"
            )
        ).reset_index()
        return pa.table(
            {
                "cluster_id": pa.array(agg["cluster_id"], pa.string()),
                "etype": pa.array(agg["etype"], pa.string()),
                "canonical_surface": pa.array(
                    agg["canonical_surface"], pa.string()
                ),
                "n_mentions": pa.array(
                    agg["n_mentions"].astype("int64"), pa.int64()
                ),
                "n_urls": pa.array(
                    agg["n_urls"].astype("int64"), pa.int64()
                ),
            }
        )

    return bucketed_apply(
        clusters.select_columns(["cluster_id", "etype", "surface", "url"]),
        "cluster_id",
        fuse,
        _GOLDEN_BUCKETS,
    )
