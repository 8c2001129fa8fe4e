"""Traced passes: the workload passes split at their public calls.

Each call's output is materialized before the next call starts, so a
span covers one layer's work. Counts come from the materialized outputs
and from ``state.counters``; Ray's per-operator figures go to the tracer.
"""

from __future__ import annotations

import os

# every actor pool at one actor, as the benchmark runs the pipeline
CONCURRENCY = (1, 1)


def traced_linkage(tracer, data_dir: str) -> dict:
    """``linkage_pipeline`` taken apart: pages, extraction, the four
    blocking steps, scoring, connected components and cluster ids."""
    from bern_ray.pipelines.linkage import (
        cluster_mentions,
        extract_normalize_mentions,
        score_pairs,
    )
    from bern_ray.sources.pages import read_pages
    from bern_ray.stages.blocking import (
        DEFAULT_SALT_THRESHOLD,
        build_attr_vocab,
        explode_block_keys,
        hot_keys,
        pairs_from_exploded,
    )
    from bern_ray.stages.cc import components_labels
    from bern_ray.stages.scoring import edges_only
    from bern_ray.state import counters

    counters.reset()
    with tracer.span("linkage"):
        with tracer.span("sources.pages"):
            pages = read_pages(data_dir).materialize()
        tracer.record_stats("sources.pages", pages)
        with tracer.span("extract_normalize_mentions"):
            norm = extract_normalize_mentions(
                pages, concurrency=CONCURRENCY
            ).materialize()
        tracer.record_stats("extract_normalize_mentions", norm)
        with tracer.span("blocking.build_attr_vocab"):
            vocab = build_attr_vocab(norm)
        with tracer.span("blocking.explode_block_keys"):
            # the map candidate_pairs applies before pairs_from_exploded
            exploded = norm.map_batches(
                lambda t: explode_block_keys(t, with_attrs=True, vocab=vocab),
                batch_format="pyarrow",
            ).materialize()
        tracer.record_stats("blocking.explode_block_keys", exploded)
        with tracer.span("blocking.hot_keys"):
            hot = hot_keys(exploded, DEFAULT_SALT_THRESHOLD)
        with tracer.span("blocking.pairs_from_exploded"):
            pairs = pairs_from_exploded(
                exploded, DEFAULT_SALT_THRESHOLD, dedup=False
            ).materialize()
        tracer.record_stats("blocking.pairs_from_exploded", pairs)
        with tracer.span("score_pairs"):
            scored = score_pairs(
                pairs, None, concurrency=CONCURRENCY, vocab=vocab
            ).materialize()
        tracer.record_stats("score_pairs", scored)
        with tracer.span("edges_only"):
            edges = scored.map_batches(
                edges_only, batch_format="pyarrow"
            ).materialize()
        with tracer.span("components_labels"):
            labels = components_labels(edges).materialize()
        with tracer.span("cluster_mentions"):
            clusters = cluster_mentions(norm, edges).materialize()
        tracer.record_stats("cluster_mentions", clusters)

    snap = counters.snapshot()
    n_pairs = scored.count()
    n_edges = edges.count()
    unique_pairs = len(
        pairs.select_columns(["a_sc", "b_sc"]).to_pandas().drop_duplicates()
    )
    sizes = labels.to_pandas().groupby("label").size()
    cluster_ids = clusters.select_columns(["cluster_id"]).to_pandas()
    n_mentions = norm.count()
    return {
        "linkage.wall_s": tracer.wall("linkage"),
        "pages.wall_s": tracer.wall("sources.pages"),
        "pages.rows": pages.count(),
        "extract.wall_s": tracer.wall("extract_normalize_mentions"),
        "extract.mentions": n_mentions,
        "extract.mentions_per_s": (
            n_mentions / tracer.wall("extract_normalize_mentions")
        ),
        "blocking.vocab_s": tracer.wall("blocking.build_attr_vocab"),
        "blocking.explode_s": tracer.wall("blocking.explode_block_keys"),
        "blocking.census_s": tracer.wall("blocking.hot_keys"),
        "blocking.pairgen_s": tracer.wall("blocking.pairs_from_exploded"),
        "blocking.exploded_rows": exploded.count(),
        "blocking.pairs": pairs.count(),
        "blocking.hot_keys": len(hot),
        "blocking.rows_salted": snap.get("blocking_hot_rows_salted", 0),
        "blocking.segments_capped": snap.get("blocking_segments_capped", 0),
        "blocking.pairs_elided": snap.get("blocking_pairs_elided", 0),
        "score.wall_s": tracer.wall("score_pairs"),
        "score.pairs": n_pairs,
        "score.unique_pairs": unique_pairs,
        "score.edges": n_edges,
        "score.unique_ratio": unique_pairs / max(n_pairs, 1),
        "score.edge_yield": n_edges / max(n_pairs, 1),
        "cc.wall_s": tracer.wall("edges_only")
        + tracer.wall("components_labels"),
        "cc.edges": n_edges,
        "cc.components": len(sizes),
        "cc.max_component": int(sizes.max()) if len(sizes) else 0,
        "cluster.wall_s": tracer.wall("cluster_mentions"),
        "cluster.rows": len(cluster_ids),
        "cluster.clusters": int(cluster_ids["cluster_id"].nunique()),
    }


def traced_dedup(tracer, data_dir: str) -> dict:
    """The near-dup pass, one span per operator."""
    from bern_ray.functions.dedup import (
        DEFAULT_BAND_CAP,
        exact_dedup,
        minhash_neardup,
        setsim_neardup,
    )
    from bern_ray.sources.pq import read_parquet_clean

    docs = read_parquet_clean(os.path.join(data_dir, "documents.parquet"))
    with tracer.span("dedup"):
        with tracer.span("dedup.exact_dedup"):
            exact = exact_dedup(docs).materialize()
        tracer.record_stats("dedup.exact_dedup", exact)
        with tracer.span("dedup.minhash_neardup"):
            minhash = minhash_neardup(
                docs, band_cap=DEFAULT_BAND_CAP
            ).materialize()
        tracer.record_stats("dedup.minhash_neardup", minhash)
        with tracer.span("dedup.setsim_neardup"):
            setsim = setsim_neardup(
                docs, 0.85, posting_cap=DEFAULT_BAND_CAP
            ).materialize()
        tracer.record_stats("dedup.setsim_neardup", setsim)
    return {
        "dedup.wall_s": tracer.wall("dedup"),
        "dedup.exact_s": tracer.wall("dedup.exact_dedup"),
        "dedup.minhash_s": tracer.wall("dedup.minhash_neardup"),
        "dedup.setsim_s": tracer.wall("dedup.setsim_neardup"),
        "dedup.exact_groups": exact.count(),
        "dedup.minhash_pairs": minhash.count(),
        "dedup.setsim_pairs": setsim.count(),
    }
