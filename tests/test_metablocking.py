"""Meta-blocking (token blocking + block purging + CBS pruning) vs a
brute-force reference, plus purge-counter observability and the
packed-id-width guard."""

from itertools import combinations

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from bern_ray.functions.metablocking import meta_block_pairs
from bern_ray.state import counters


def _brute(records, purge_threshold_x2, min_common):
    """records: list of (id, text). Token blocking with the same
    tokenizer regime ([0-9a-zA-Z]+ runs of the lowered text)."""
    import re

    toks = {
        i: set(re.findall(r"[0-9a-zA-Z]+", s.lower()))
        for i, s in records
    }
    blocks: dict[str, list[int]] = {}
    for i, ts in toks.items():
        for tk in ts:
            blocks.setdefault(tk, []).append(i)
    pair_w: dict[tuple[int, int], int] = {}
    for tk, ids in blocks.items():
        if 2 * len(ids) > purge_threshold_x2:
            continue
        for a, b in combinations(sorted(ids), 2):
            pair_w[(a, b)] = pair_w.get((a, b), 0) + 1
    return {
        (a, b): w
        for (a, b), w in pair_w.items()
        if w >= min_common
    }


def _run(records, purge_threshold_x2, min_common):
    t = pa.table(
        {
            "id": pa.array([i for i, _ in records], type=pa.int64()),
            "bt": pa.array([s for _, s in records], type=pa.string()),
        }
    )
    out = meta_block_pairs(
        ray.data.from_arrow(t).repartition(3),
        "id",
        "bt",
        purge_threshold_x2=purge_threshold_x2,
        min_common=min_common,
    ).to_pandas()
    return {
        (int(r.a), int(r.b)): int(r.common_blocks)
        for r in out.itertuples()
    }


def test_matches_bruteforce_random():
    rng = np.random.default_rng(11)
    vocab = [f"w{k}" for k in range(12)]
    records = [
        (i, " ".join(rng.choice(vocab, size=4, replace=False)))
        for i in range(80)
    ]
    for cap2, mc in [(160, 2), (160, 3), (40, 2)]:
        assert _run(records, cap2, mc) == _brute(records, cap2, mc)


def test_purged_block_excluded_and_counted():
    # 'common' appears in every record -> purged at a half-corpus
    # cap; pairs must then need 2 other shared tokens
    records = [
        (1, "common red widget"),
        (2, "common red widget"),
        (3, "common red bolt"),
        (4, "common blue bolt"),
    ]
    before = counters.snapshot().get("metablock_purged_blocks", 0)
    # keep blocks of size <= 3: 'common' (size 4) is the only purge
    got = _run(records, purge_threshold_x2=6, min_common=2)
    # only (1,2) share 2 surviving blocks {red, widget}
    assert got == {(1, 2): 2}
    assert _brute(records, 6, 2) == got
    snap = counters.snapshot()
    assert snap.get("metablock_purged_blocks", 0) >= before + 1
    assert snap.get("metablock_purged_pairs", 0) >= 6  # C(4,2)


def test_case_fold_and_distinct_tokens():
    # token blocking is on DISTINCT tokens of the folded text:
    # repeating a token must not inflate the CBS weight
    records = [
        (7, "Alpha alpha ALPHA beta"),
        (9, "alpha beta beta gamma"),
    ]
    got = _run(records, purge_threshold_x2=100, min_common=2)
    assert got == {(7, 9): 2}


def test_wide_ids_rejected():
    records = [(1 << 31, "alpha beta"), (2, "alpha beta")]
    with pytest.raises(Exception, match="31 bits"):
        _run(records, purge_threshold_x2=100, min_common=1)


# ---- CNP: per-node top-k retention over the CBS graph ----

from bern_ray.functions.metablocking import meta_block_topk


def _brute_topk(records, purge_threshold_x2, min_common, k):
    pairs = _brute(records, purge_threshold_x2, min_common)
    nbrs: dict[int, list[tuple[int, int]]] = {}
    for (a, b), w in pairs.items():
        nbrs.setdefault(a, []).append((w, b))
        nbrs.setdefault(b, []).append((w, a))
    keep = set()
    for node, lst in nbrs.items():
        lst.sort(key=lambda t: (-t[0], t[1]))
        for w, nbr in lst[:k]:
            keep.add((min(node, nbr), max(node, nbr)))
    return {p: pairs[p] for p in keep}


def _run_topk(records, purge_threshold_x2, min_common, k):
    t = pa.table(
        {
            "id": pa.array([i for i, _ in records], type=pa.int64()),
            "bt": pa.array([s for _, s in records], type=pa.string()),
        }
    )
    out = meta_block_topk(
        ray.data.from_arrow(t).repartition(3),
        "id",
        "bt",
        purge_threshold_x2=purge_threshold_x2,
        min_common=min_common,
        k=k,
    ).to_pandas()
    return {
        (int(r.a), int(r.b)): int(r.common_blocks)
        for r in out.itertuples()
    }


def test_topk_matches_bruteforce_random():
    rng = np.random.default_rng(23)
    vocab = [f"w{v}" for v in range(10)]
    records = [
        (i, " ".join(rng.choice(vocab, size=5, replace=False)))
        for i in range(60)
    ]
    for cap2, mc, k in [(120, 2, 3), (120, 1, 2), (60, 2, 1)]:
        assert _run_topk(records, cap2, mc, k) == _brute_topk(
            records, cap2, mc, k
        )


def test_topk_either_endpoint_retention():
    # hub h is strongly tied to x (3 common) and weakly to y (2);
    # with k=1 the hub keeps only x — but y keeps the hub, so the
    # (h, y) pair SURVIVES via y's side (redundancy-positive)
    records = [
        (1, "red green blue cyan"),       # h
        (2, "red green blue magenta"),    # x: 3 common with h
        (3, "red green yellow black"),    # y: 2 common with h
    ]
    got = _run_topk(records, 100, 2, 1)
    assert (1, 2) in got and got[(1, 2)] == 3
    assert (1, 3) in got  # retained by y even though h pruned it


# ---- scheme-quality metrics (pair completeness / reduction ratio) ----


def test_quality_metrics_bruteforce():
    """meta_blocking_quality composition in miniature: gold = identical
    blocking text, candidates = CNP output; PC/RR from counts."""
    records = [
        (1, "red widget promo brand4"),
        (2, "red widget promo brand4"),     # gold pair with 1
        (3, "red widget economy brand4"),
        (4, "blue bolt standard brand9"),
        (5, "blue bolt standard brand9"),   # gold pair with 4
        (6, "hot gear promo brand9"),
    ]
    cands = _run_topk(records, 100, 2, 3)
    gold = {(1, 2), (4, 5)}
    matched = gold & set(cands)
    n = len(records)
    pc_ = len(matched) / len(gold)
    rr = 1 - len(cands) / (n * (n - 1) // 2)
    # identical-text pairs share every token -> max CBS weight -> CNP
    # retains them: completeness 1.0 on this corpus
    assert pc_ == 1.0
    assert 0 < rr < 1
    assert cands == _brute_topk(records, 100, 2, 3)


# ---- WNP: per-node mean-weight retention over the CBS graph ----

from bern_ray.functions.metablocking import meta_block_wnp


def _brute_wnp(records, purge_threshold_x2, min_common):
    pairs = _brute(records, purge_threshold_x2, min_common)
    nbrs: dict[int, list[tuple[int, int]]] = {}
    for (a, b), w in pairs.items():
        nbrs.setdefault(a, []).append((w, b))
        nbrs.setdefault(b, []).append((w, a))
    keep = set()
    for node, lst in nbrs.items():
        mean = sum(w for w, _ in lst) / len(lst)
        for w, nbr in lst:
            if w >= mean:
                keep.add((min(node, nbr), max(node, nbr)))
    return {p: pairs[p] for p in keep}


def _run_wnp(records, purge_threshold_x2, min_common):
    t = pa.table(
        {
            "id": pa.array([i for i, _ in records], type=pa.int64()),
            "bt": pa.array([s for _, s in records], type=pa.string()),
        }
    )
    out = meta_block_wnp(
        ray.data.from_arrow(t).repartition(3),
        "id",
        "bt",
        purge_threshold_x2=purge_threshold_x2,
        min_common=min_common,
    ).to_pandas()
    return {
        (int(r.a), int(r.b)): int(r.common_blocks)
        for r in out.itertuples()
    }


def test_wnp_matches_bruteforce_random():
    rng = np.random.default_rng(29)
    vocab = [f"w{v}" for v in range(10)]
    records = [
        (i, " ".join(rng.choice(vocab, size=5, replace=False)))
        for i in range(60)
    ]
    for cap2, mc in [(120, 2), (120, 1), (60, 2)]:
        assert _run_wnp(records, cap2, mc) == _brute_wnp(
            records, cap2, mc
        )


def test_wnp_either_endpoint_retention():
    # hub h: edges of weight 3 (to x) and 2 (to y) -> mean 2.5, so h
    # prunes (h, y); but y's only edge IS the hub (mean 2), so the
    # pair survives via y's side (redundancy-positive)
    records = [
        (1, "red green blue cyan"),       # h
        (2, "red green blue magenta"),    # x: 3 common with h
        (3, "red green yellow black"),    # y: 2 common with h
    ]
    got = _run_wnp(records, 100, 2)
    # (2,3) also survives: they share {red, green} and y keeps both
    # its weight-2 edges (mean exactly 2)
    assert got == {(1, 2): 3, (1, 3): 2, (2, 3): 2}
    assert got == _brute_wnp(records, 100, 2)


# ---- WEP: global mean-weight edge pruning ----

from bern_ray.functions.metablocking import meta_block_wep


def _brute_wep(records, purge_threshold_x2):
    pairs = _brute(records, purge_threshold_x2, 1)
    if not pairs:
        return {}
    mean = sum(pairs.values()) / len(pairs)
    return {p: w for p, w in pairs.items() if w >= mean}


def test_wep_matches_bruteforce_random():
    rng = np.random.default_rng(31)
    vocab = [f"w{v}" for v in range(10)]
    records = [
        (i, " ".join(rng.choice(vocab, size=5, replace=False)))
        for i in range(60)
    ]
    for cap2 in [120, 60]:
        t = pa.table(
            {
                "id": pa.array([i for i, _ in records], type=pa.int64()),
                "bt": pa.array(
                    [s for _, s in records], type=pa.string()
                ),
            }
        )
        out = meta_block_wep(
            ray.data.from_arrow(t).repartition(3),
            "id",
            "bt",
            purge_threshold_x2=cap2,
        ).to_pandas()
        got = {
            (int(r.a), int(r.b)): int(r.common_blocks)
            for r in out.itertuples()
        }
        assert got == _brute_wep(records, cap2)


def _brute_filtered(records, purge_threshold_x2, min_common, num, den):
    """Brute reference with EDBT-2016 block filtering first: each
    record keeps its ceil(num/den*nb) smallest blocks, ties by token
    bytes; purging then uses FILTERED sizes."""
    import re

    toks = {
        i: sorted(set(re.findall(r"[0-9a-zA-Z]+", s.lower())))
        for i, s in records
    }
    sizes: dict[str, int] = {}
    for ts in toks.values():
        for tk in ts:
            sizes[tk] = sizes.get(tk, 0) + 1
    blocks: dict[str, list[int]] = {}
    for i, ts in toks.items():
        ranked = sorted(ts, key=lambda tk: (sizes[tk], tk))
        nb = len(ranked)
        kept = [
            tk
            for rn, tk in enumerate(ranked, 1)
            if rn * den <= num * nb + den - 1
        ]
        for tk in kept:
            blocks.setdefault(tk, []).append(i)
    pair_w: dict[tuple[int, int], int] = {}
    for tk, ids in blocks.items():
        if 2 * len(ids) > purge_threshold_x2:
            continue
        for a, b in combinations(sorted(ids), 2):
            pair_w[(a, b)] = pair_w.get((a, b), 0) + 1
    return {
        (a, b): w for (a, b), w in pair_w.items() if w >= min_common
    }


def _zipf_corpus(rng, n=400, planted=12):
    """Zipf-ish vocabulary: a few stop-tokens in most records, a long
    tail of rare tokens; `planted` duplicate pairs share their full
    token set (the rare tokens are what finds them)."""
    stop = [f"stop{j}" for j in range(4)]
    mid = [f"mid{j}" for j in range(12)]
    rows = []
    for i in range(n):
        toks = list(stop)  # every record carries the stop tokens
        toks += list(
            rng.choice(mid, size=3, replace=False)
        )
        toks += [f"rare{i}a", f"rare{i}b", f"rare{i}c"]
        rows.append((i, " ".join(toks)))
    for j in range(planted):
        src = rows[j][1]
        rows.append((1000 + j, src))  # exact token-set duplicate
    return rows


def test_block_filtering_matches_bruteforce(ray_session):
    rng = np.random.default_rng(11)
    records = _zipf_corpus(rng, n=120, planted=6)
    got = _run_filtered(records, len(records), 2, (1, 3))
    exp = _brute_filtered(records, len(records), 2, 1, 3)
    assert got == exp
    assert len(got) > 0


def _run_filtered(records, purge_threshold_x2, min_common, bf):
    t = pa.table(
        {
            "id": pa.array([i for i, _ in records], type=pa.int64()),
            "bt": pa.array([s for _, s in records], type=pa.string()),
        }
    )
    out = meta_block_pairs(
        ray.data.from_arrow(t).repartition(3),
        "id",
        "bt",
        purge_threshold_x2=purge_threshold_x2,
        min_common=min_common,
        block_filter=bf,
    ).to_pandas()
    return {
        (int(r.a), int(r.b)): int(r.common_blocks)
        for r in out.itertuples()
    }


def test_block_filtering_shrinks_zipf_comparisons(ray_session):
    """On a zipf corpus, filtering at 1/3 cuts the comparison count
    >5x while every planted duplicate pair survives (their rare
    tokens are exactly the blocks filtering keeps), and the dropped
    assignments are counted."""
    rng = np.random.default_rng(5)
    records = _zipf_corpus(rng, n=400, planted=12)
    thr = 2 * len(records)  # no purging: isolate the filtering effect
    counters.reset()
    unfiltered = _run(records, thr, 2)
    filtered = _run_filtered(records, thr, 2, (1, 3))
    assert len(filtered) * 5 < len(unfiltered)
    assert counters.snapshot().get(
        "metablock_filtered_assignments", 0
    ) > 0
    planted = {(j, 1000 + j) for j in range(12)}
    assert planted <= set(filtered)


def test_cep_matches_bruteforce_random(ray_session):
    """CEP == brute force: K = half the post-purge assignments,
    global top-K by (weight desc, a, b)."""
    from bern_ray.functions.metablocking import meta_block_cep

    rng = np.random.default_rng(23)
    vocab = [f"w{j}" for j in range(18)]
    records = [
        (i, " ".join(rng.choice(vocab, size=5, replace=False)))
        for i in range(60)
    ]
    thr = len(records)  # purge blocks larger than half the corpus
    exp_pairs = _brute(records, thr, 1)
    # retained assignments under the same purge rule
    import re

    toks = {
        i: set(re.findall(r"[0-9a-zA-Z]+", s.lower()))
        for i, s in records
    }
    bsz: dict[str, int] = {}
    for ts in toks.values():
        for tk in ts:
            bsz[tk] = bsz.get(tk, 0) + 1
    retained = sum(
        1
        for ts in toks.values()
        for tk in ts
        if 2 * bsz[tk] <= thr
    )
    k = retained // 2
    exp = sorted(
        exp_pairs.items(), key=lambda kv: (-kv[1], kv[0])
    )[:k]
    t = pa.table(
        {
            "id": pa.array([i for i, _ in records], type=pa.int64()),
            "bt": pa.array([s for _, s in records], type=pa.string()),
        }
    )
    out = meta_block_cep(
        ray.data.from_arrow(t).repartition(3),
        "id",
        "bt",
        purge_threshold_x2=thr,
    ).to_pandas()
    got = sorted(
        ((int(r.a), int(r.b)), int(r.common_blocks))
        for r in out.itertuples()
    )
    assert got == sorted(((a, b), w) for (a, b), w in exp)
    assert len(got) == k


def test_weights_match_bruteforce_random(ray_session):
    """meta_block_weights == brute force: JS and ECBS computed from
    the kept-block cardinalities (post-purge, size >= 2), same float
    arithmetic (np.log10 / division) as the operator."""
    import re

    from bern_ray.functions.metablocking import meta_block_weights

    rng = np.random.default_rng(41)
    vocab = [f"w{j}" for j in range(20)]
    records = [
        (i, " ".join(rng.choice(vocab, size=6, replace=False)))
        for i in range(70)
    ]
    thr = len(records)  # purge blocks larger than half the corpus
    toks = {
        i: set(re.findall(r"[0-9a-zA-Z]+", s.lower()))
        for i, s in records
    }
    blocks: dict[str, list[int]] = {}
    for i, ts in toks.items():
        for tk in ts:
            blocks.setdefault(tk, []).append(i)
    kept = {
        tk: ids
        for tk, ids in blocks.items()
        if len(ids) >= 2 and 2 * len(ids) <= thr
    }
    total_b = len(kept)
    nb = {
        i: sum(1 for ids in kept.values() if i in ids)
        for i, _ in records
    }
    exp_cbs = _brute(records, thr, 1)
    exp = {}
    for (a, b), c in exp_cbs.items():
        js = c / (nb[a] + nb[b] - c)
        ecbs = (
            c
            * np.log10(total_b / nb[a])
            * np.log10(total_b / nb[b])
        )
        exp[(a, b)] = (
            c,
            nb[a],
            nb[b],
            round(float(js), 6),
            round(float(np.round(ecbs, 6)), 6),
        )
    t = pa.table(
        {
            "id": pa.array([i for i, _ in records], type=pa.int64()),
            "bt": pa.array([s for _, s in records], type=pa.string()),
        }
    )
    out = meta_block_weights(
        ray.data.from_arrow(t).repartition(3),
        "id",
        "bt",
        purge_threshold_x2=thr,
    ).to_pandas()
    got = {
        (int(r.a), int(r.b)): (
            int(r.cbs),
            int(r.bi),
            int(r.bj),
            round(float(r.js), 6),
            round(float(r.ecbs), 6),
        )
        for r in out.itertuples()
    }
    assert got == exp
    # JS is a proper (0, 1] normalization; ECBS down-weights hubs
    assert all(0 < v[3] <= 1 for v in got.values())


def test_tfidf_cosine_matches_bruteforce_random(ray_session):
    """tfidf_cosine_pairs == brute force: idf-weighted set cosine
    with the half-corpus stopword purge, identical float regime."""
    import re
    from itertools import combinations

    from bern_ray.functions.metablocking import tfidf_cosine_pairs

    rng = np.random.default_rng(59)
    vocab = [f"w{j}" for j in range(25)]
    records = [
        (i, " ".join(rng.choice(vocab, size=7, replace=False)))
        for i in range(80)
    ]
    n = len(records)
    toks = {
        i: set(re.findall(r"[0-9a-zA-Z]+", s.lower()))
        for i, s in records
    }
    df: dict[str, int] = {}
    for ts in toks.values():
        for tk in ts:
            df[tk] = df.get(tk, 0) + 1
    idf = {
        tk: np.log(float(n)) - np.log(float(c))
        for tk, c in df.items()
        if 2 * c <= n
    }
    vecs = {
        i: {tk: idf[tk] for tk in ts if tk in idf}
        for i, ts in toks.items()
    }
    norm2 = {i: sum(w * w for w in v.values()) for i, v in vecs.items()}
    thr = 0.35
    exp = {}
    for a, b in combinations(sorted(vecs), 2):
        shared = set(vecs[a]) & set(vecs[b])
        if not shared or not norm2[a] or not norm2[b]:
            continue
        d = sum(idf[tk] * idf[tk] for tk in shared)
        cos = d / np.sqrt(norm2[a] * norm2[b])
        if cos >= thr:
            exp[(a, b)] = round(float(np.round(cos, 6)), 6)
    t = pa.table(
        {
            "id": pa.array([i for i, _ in records], type=pa.int64()),
            "bt": pa.array([s for _, s in records], type=pa.string()),
        }
    )
    out = tfidf_cosine_pairs(
        ray.data.from_arrow(t).repartition(3),
        "id",
        "bt",
        n_records=n,
        threshold=thr,
    ).to_pandas()
    got = {
        (int(r.a), int(r.b)): round(float(r.cosine), 6)
        for r in out.itertuples()
    }
    assert set(got) == set(exp)
    for k in exp:
        assert abs(got[k] - exp[k]) < 2e-6, k
    assert all(0 < v <= 1 + 1e-9 for v in got.values())


def test_float_outputs_independent_of_block_layout(ray_session):
    """TF-IDF cosines and the JS/ECBS weights are bit-identical whether
    the records arrive as one block or as 7 blocks of shuffled rows:
    every float partial is summed in sorted order, not arrival order."""
    from bern_ray.functions.metablocking import (
        meta_block_weights,
        tfidf_cosine_pairs,
    )

    rng = np.random.default_rng(67)
    vocab = [f"w{j}" for j in range(40)]
    records = [
        (i, " ".join(rng.choice(vocab, size=8, replace=False)))
        for i in range(150)
    ]
    t = pa.table(
        {
            "id": pa.array([i for i, _ in records], type=pa.int64()),
            "bt": pa.array([s for _, s in records], type=pa.string()),
        }
    )
    shuffled = t.take(rng.permutation(t.num_rows))
    layouts = [
        ray.data.from_arrow(t).repartition(1),
        ray.data.from_arrow(shuffled).repartition(7),
    ]

    def rows(ds):
        return sorted(ds.to_pandas().itertuples(index=False, name=None))

    cos = [
        rows(
            tfidf_cosine_pairs(
                ds, "id", "bt", n_records=len(records), threshold=0.2
            )
        )
        for ds in layouts
    ]
    assert len(cos[0]) > 0
    assert cos[0] == cos[1]
    weights = [
        rows(
            meta_block_weights(
                ds, "id", "bt", purge_threshold_x2=len(records)
            )
        )
        for ds in layouts
    ]
    assert len(weights[0]) > 0
    assert weights[0] == weights[1]
