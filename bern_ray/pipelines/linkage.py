"""Flagship end-to-end entity-resolution pipeline (north_star).

pages (url, warc_ts, html, text, lang)
  -> extract   : actor-pool map_batches -> mentions (flat table)
  -> normalize : actor-pool map_batches, broadcast dict fallback chain
  -> block     : explode keys -> groupby(block_key) -> candidate pairs
                 (the ONE wide shuffle; salted + capped, SURVEY.md §7.4)
  -> score     : actor-pool map_batches, vectorized JW/Lev/cosine
                 ensemble -> edges above threshold
  -> cluster   : connected components (union-find stream / distributed
                 label propagation) -> cluster_id per mention

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

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..sources.pages import read_pages
from ..stages.blocking import (
    DEFAULT_SALT_THRESHOLD,
    attach_pair_attrs,
    build_attr_vocab,
    candidate_pairs,
)
from ..stages.bucketed import bucketed_apply
from ..stages.extract import MentionExtractor
from ..stages.normalize import MentionNormalizer
from ..stages.partitions import session_cpus
from ..stages.scoring import PairScorer, edges_only
from ..state.checkpoint import checkpointed, source_digest

_PKG = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the code the checkpointed linkage stages run: their content keys carry
# its digest, so editing any of it invalidates stored stages
LINKAGE_SOURCES = tuple(
    os.path.join(_PKG, p)
    for p in ("stages", "core", "sources", "pipelines/linkage.py")
)


class FusedExtractNormalize:
    """One actor = extraction + normalization (fused).

    Fusing the two stateful stages into one pool removes an
    object-store hop and, critically, halves the number of actor pools
    so low-CPU configurations keep a free slot for read tasks (two
    pools' minimum actors can otherwise reserve every CPU and starve
    the pipeline).
    """

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
    """The lookup tables build in each actor's __init__ (70 ms
    measured) rather than via a ray.put broadcast: constructor args
    holding object refs break actor RESTART if the ref is lost (ray
    issue #53727), and per-actor build is cheaper than that risk for
    dictionaries this small. A deployment with multi-GB dictionaries
    passes tables_ref explicitly and owns the ref's lifetime.

    The extraction and normalization pools never restart an actor
    (``max_restarts=0``; Ray Data's default of -1 re-creates an actor
    that cannot start without end): a dead actor fails the dataset, and
    a long run resumes from its stage checkpoints (``--checkpoint``)
    instead. The scorer pool keeps the default: a remote arg of its own
    stops Ray Data fusing the pair-generation map into it, which left
    +122 MB of live processes at the end of a perfbench ``er_distinct``
    run (Ray at 2 CPUs on a 4-vCPU host)."""
    return pages.map_batches(
        FusedExtractNormalize,
        fn_constructor_kwargs={"extract_from_html": from_html},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        max_restarts=0,
    )


def extract_mentions(
    pages: "ray.data.Dataset",
    concurrency: int | tuple = (1, 16),
    batch_size: int | None = None,
    from_html: bool = False,
) -> "ray.data.Dataset":
    """batch_size=None processes one upstream block per actor call —
    no batch coalescing, so task count == block count and the pool can
    scale out (a numeric batch_size larger than the block size bundles
    many blocks into few tasks and serializes the stage)."""
    return pages.map_batches(
        MentionExtractor,
        fn_constructor_kwargs={"extract_from_html": from_html},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        max_restarts=0,
    )


def normalize_mentions(
    mentions: "ray.data.Dataset",
    concurrency: int | tuple = (1, 16),
    batch_size: int | None = None,
) -> "ray.data.Dataset":
    # per-actor table build, same rationale as extract_normalize_mentions
    return mentions.map_batches(
        MentionNormalizer,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        max_restarts=0,
    )


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
    model_loader=None,
    num_gpus: float = 0,
    vocab=None,
    emit: str = "decoded",
    pair_model_loader=None,
) -> "ray.data.Dataset":
    """Run the scorer actor pool over attributed pairs.

    With ``normalized`` given and int-only pairs, attributes are
    attached first via the distributed bucketed join. With
    ``normalized=None`` the pairs must already carry attrs
    (candidate_pairs(with_attrs=True) — the single-sort hot path);
    pass the same ``vocab`` used by candidate_pairs when the attrs
    ride as int32 codes, and the scorer decodes them per-actor.

    ``model_loader`` / ``num_gpus`` form the GPU seam: the loader
    runs once per actor in ``__init__`` (see stages/scoring.py) and
    ``num_gpus`` reserves accelerator slots per scorer actor.
    ``pair_model_loader`` loads a TRAINED pair model (e.g.
    scoring.load_pair_model(npz_path)) once per actor — it replaces
    the frozen ensemble with batched model inference."""
    if normalized is None and vocab is None:
        pairs = pairs.map_batches(_key_to_block_key, batch_format="pyarrow")
    elif normalized is not None and "a_surface" not in pairs.schema().names:
        pairs = attach_pair_attrs(pairs, normalized, dedup=dedup_in_attach)
    ctor = {}
    if model_loader is not None:
        ctor["model_loader"] = model_loader
    if pair_model_loader is not None:
        ctor["pair_model_loader"] = pair_model_loader
    if vocab is not None:
        ctor["vocab"] = vocab
    if emit != "decoded":
        # lean edge-only output (stages/scoring.py): skips the
        # measured-92% per-row decode for consumers that feed CC
        ctor["emit"] = emit
    kwargs = {}
    if ctor:
        kwargs["fn_constructor_kwargs"] = ctor
    if num_gpus:
        kwargs["num_gpus"] = num_gpus
    return pairs.map_batches(
        PairScorer,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        **kwargs,
    )


def _assign_clusters_bucket(t: pa.Table) -> pa.Table:
    """Vectorized cluster-id assignment for ALL components hashed into
    one bucket (components are numerous and tiny — one Python call per
    component would dominate; this is one pandas groupby-transform).

    cluster_id = min resolved oid in the component, else the shared
    fold key (CUI-less cluster) — deterministic, order-insensitive.
    Returns an explicit Arrow table (list<string> ids) so the output
    block is parquet-writable regardless of pandas object dtypes.
    """
    g = t.to_pandas()
    grp = g.groupby("root", sort=False)
    min_oid = grp["oid"].transform("min")  # NaN-safe: skips missing
    min_fold = grp["fold_key"].transform("min")
    cid = np.where(
        min_oid.notna(), "BERN:" + min_oid.fillna(""), "SURF:" + min_fold
    )
    n = len(g)
    return pa.table(
        {
            "url": pa.array(g["url"].tolist(), type=pa.string()),
            "mention_id": pa.array(
                g["mention_id"].tolist(), type=pa.int64()
            ),
            "etype": pa.array(g["etype"].tolist(), type=pa.string()),
            "start": pa.array(g["start"].tolist(), type=pa.int64()),
            "end": pa.array(g["end"].tolist(), type=pa.int64()),
            "surface": pa.array(g["surface"].tolist(), type=pa.string()),
            "oid": pa.array(
                [x if isinstance(x, str) else None for x in g["oid"]],
                type=pa.string(),
            ),
            "ids": pa.array(
                [list(x) for x in g["ids"]], type=pa.list_(pa.string())
            ),
            "fold_key": pa.array(g["fold_key"].tolist(), type=pa.string()),
            "cluster_id": pa.array(cid.tolist(), type=pa.string()),
        }
    )


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


def cluster_mentions(
    normalized: "ray.data.Dataset",
    edges: "ray.data.Dataset",
    cc_mode: str = "auto",
) -> "ray.data.Dataset":
    """Attach cluster_id via CC labels + per-component id assignment.

    Labels stay a Dataset end-to-end: a bucketed hash join on
    mention_id=node attaches them (stages/join.py), so nothing funnels
    through the driver in 'lp' mode — singleton mentions (no edge, no
    label row) null-fill and root to themselves.
    """
    from ..stages.cc import components_labels
    from ..stages.join import bucket_join

    labels = components_labels(edges, mode=cc_mode)
    joined = bucket_join(
        normalized,
        labels,
        left_on="mention_id",
        right_on="node",
        left_schema=_MENTION_SCHEMA,
        right_schema={"node": pa.int64(), "label": pa.int64()},
        how="left",
    )

    def add_root(t: pa.Table) -> pa.Table:
        root_arr = pc.coalesce(
            t["label"].combine_chunks(), t["mention_id"].combine_chunks()
        )
        return t.drop_columns(["label"]).append_column(
            "root", root_arr.cast(pa.int64())
        )

    with_root = joined.map_batches(add_root, batch_format="pyarrow")
    return bucketed_apply(with_root, "root", _assign_clusters_bucket, 256)


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
    expensive stages — run on new data only. The checkpointed path
    carries string attrs (codes would go stale as the vocab grows
    across increments); the in-memory path dictionary-encodes.
    """
    from ..stages.blocking import explode_block_keys, pairs_from_exploded

    def flag(val: bool):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "is_new",
                pa.array(np.full(t.num_rows, val), type=pa.bool_()),
            )

        return fn

    new_norm = extract_normalize_mentions(
        new_pages, concurrency=concurrency
    )
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
        new_scored = score_pairs(pairs, None, concurrency=concurrency)
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
            pairs, None, concurrency=concurrency, vocab=vocab
        )
    edges = prior_scored.map_batches(
        edges_only, batch_format="pyarrow"
    ).union(new_scored.map_batches(edges_only, batch_format="pyarrow"))
    return cluster_mentions(tagged, edges)


def check_pool_fits(concurrency: int | tuple, cpus: int) -> None:
    """An actor pool whose minimum holds every CPU leaves no slot for
    the read and shuffle tasks that feed it, and the pipeline stalls
    without an error. Refuse such a session up front."""
    pool_min = concurrency if isinstance(concurrency, int) else concurrency[0]
    if cpus < pool_min + 1:
        raise ValueError(
            f"linkage needs at least {pool_min + 1} CPUs (actor pool "
            f"minimum {pool_min} + 1 for reads), the Ray session has {cpus}"
        )


def linkage_pipeline(
    sf_dir: str,
    checkpoint_root: str | None = None,
    salt_threshold: int = DEFAULT_SALT_THRESHOLD,
    cc_mode: str = "auto",
    from_html: bool = False,
    concurrency: int | tuple = (1, 8),
    scored_emit: str = "decoded",
    pair_model_path: str | None = None,
) -> "ray.data.Dataset":
    """pages(sf_dir) -> clusters Dataset.

    ``pair_model_path`` swaps the frozen scoring ensemble for a
    TRAINED logistic pair model loaded from an .npz checkpoint once
    per scorer actor (stages/scoring.py LogisticPairModel) — the
    evidenced model seam; clusters are pytest-pinned identical to the
    ensemble's on the fixture corpus.

    ``scored_emit="edges"`` makes the scorer emit only
    (a_mid, b_mid, score, is_edge) — the clustering path needs nothing
    else, and the decoded-string output costs a measured 11x per batch
    (stages/scoring.py). Keep the default "decoded" when the
    scored_pairs checkpoint is itself a consumed artifact.

    `normalized` and `scored_pairs` are each consumed by MULTIPLE
    downstream stages (hot-key count + pair-gen + cluster attach;
    edge filter + metrics), so they are pinned — to Parquet when a
    checkpoint_root is given (the scale path: resumable, spillable),
    else to the object store with ``materialize()`` (mentions/pairs
    are orders of magnitude smaller than the pages input). Without
    pinning, Ray's lazy re-execution would re-run extraction once per
    consumer.
    """
    check_pool_fits(concurrency, session_cpus())
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
            read_pages(sf_dir), concurrency=concurrency, from_html=from_html
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
                ),
                None,
                concurrency=concurrency,
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
            ),
            normalized,
            concurrency=concurrency,
            dedup_in_attach=True,
            emit=scored_emit,
            pair_model_loader=pair_model_loader,
        )

    scored = checkpointed(
        "scored_pairs",
        _score,
        checkpoint_root,
        lineage=["normalized"],
        # scored_emit changes the artifact SCHEMA (edge-only vs decoded)
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
        lambda: cluster_mentions(normalized, edges, cc_mode=cc_mode),
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
