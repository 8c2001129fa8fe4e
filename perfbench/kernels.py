"""Kernel layer: items per second of the hot numpy kernels, without Ray.

Every kernel runs on fixed arrays drawn from the workload's own input:
pages built eagerly by ``sources.pages.pages_table``, the mentions the
extractor and normalizer find in them, the block keys those mentions
explode to, and the candidate surface pairs those keys give. Each kernel
gets one warm-up call, then is called repeatedly; the rate uses the
median call time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# pages fed to the extraction kernel and, through it, to the others
KERNEL_PAGES = 600
MIN_SECONDS = 0.6
MIN_CALLS = 7


def _rate(fn, items: int) -> float:
    fn()
    times: list[float] = []
    deadline = time.perf_counter() + MIN_SECONDS
    while len(times) < MIN_CALLS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return items / statistics.median(times)


def kernel_rates(data_dir: str) -> dict[str, float]:
    from bern_ray.core.minhash import char_shingles, minhash_signatures
    from bern_ray.core.similarity import jaro_winkler, levenshtein_sim
    from bern_ray.sources.pages import pages_table
    from bern_ray.stages.blocking import (
        LSH_PERMS,
        MAX_ALLPAIRS,
        explode_block_keys,
        segment_pairs,
    )
    from bern_ray.stages.extract import MentionExtractor
    from bern_ray.stages.normalize import MentionNormalizer

    pages = pages_table(data_dir).slice(0, KERNEL_PAGES)
    extractor, normalizer = MentionExtractor(), MentionNormalizer()
    out = {
        "kernel.extract_normalize.pages_per_s": _rate(
            lambda: normalizer(extractor(pages)), pages.num_rows
        )
    }
    mentions = normalizer(extractor(pages))
    out["kernel.explode.rows_per_s"] = _rate(
        lambda: explode_block_keys(mentions), mentions.num_rows
    )

    exploded = explode_block_keys(mentions)
    keys = exploded["key"].to_numpy()
    order = np.lexsort((exploded["mention_id"].to_numpy(), keys))
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sizes = np.diff(np.r_[starts, len(keys)])
    ai, bi = segment_pairs(starts, sizes, cap=MAX_ALLPAIRS)
    out["kernel.segment_pairs.pairs_per_s"] = _rate(
        lambda: segment_pairs(starts, sizes, cap=MAX_ALLPAIRS), len(ai)
    )

    # the scorer runs its kernels once per unique surface pair
    surface_of = dict(zip(mentions["mention_id"].to_pylist(),
                          mentions["surface"].to_pylist()))
    mids = exploded["mention_id"].to_numpy()[order]
    uniq = sorted({(surface_of[a], surface_of[b])
                   for a, b in zip(mids[ai].tolist(), mids[bi].tolist())})
    sa = [a for a, _ in uniq]
    sb = [b for _, b in uniq]
    out["kernel.jaro_winkler.pairs_per_s"] = _rate(
        lambda: jaro_winkler(sa, sb), len(sa)
    )
    out["kernel.levenshtein.pairs_per_s"] = _rate(
        lambda: levenshtein_sim(sa, sb), len(sa)
    )

    folds = mentions["fold_key"].to_pylist()

    def minhash():
        flat, offsets = char_shingles(folds, k=3)
        minhash_signatures(flat, offsets, num_perm=LSH_PERMS)

    out["kernel.minhash.rows_per_s"] = _rate(minhash, len(folds))
    return out
