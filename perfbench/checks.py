"""Output checks: gold labels from what the generator planted, pairwise
F1, near-dup recall and order-insensitive fingerprints."""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa

from workloads import (
    NEARDUP_THRESHOLD,
    jaccard,
    mirna_key_of_surface,
    shingle_set,
)

# Floors a pass must reach to count as correct. The linkage floor is the
# one tests/test_linkage.py asserts; the set-similarity join is exact
# below its posting cap, so it must return every planted pair.
MIN_PAIRWISE_F1 = 0.99
MIN_NEARDUP_RECALL = 1.0


def digest(rows) -> str:
    """Order-insensitive hash of an iterable of tuples."""
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


def linkage_gold(facts: dict) -> dict:
    """(url, surface) -> gold entity for every planted mention.

    Dictionary mentions resolve through ``dicts.merge_closure`` as in
    tests/test_linkage.py; miRNA names are keyed under the MI: rule."""
    from bern_ray.core.fold import fold_text
    from bern_ray.sources import dicts
    from bern_ray.sources.pages import (
        planted_mentions,
        planted_mirna,
        url_of,
    )

    closure = dicts.merge_closure(dicts.build_oid_merge())
    keys, surfaces, labels = [], [], []
    for doc_id, names in zip(
        facts["doc_ids"].tolist(), facts["planted_mirna"]
    ):
        url = url_of(doc_id)
        for idx, surface in planted_mentions(doc_id):
            oid = dicts.oid_of(idx)
            keys.append(url)
            surfaces.append(surface)
            labels.append(closure.get(oid, oid))
        page_mirna = planted_mirna(doc_id)
        if page_mirna is not None:
            keys.append(url)
            surfaces.append(page_mirna)
            labels.append(mirna_key_of_surface(page_mirna))
        for surface, key in names:
            keys.append(url)
            surfaces.append(surface)
            labels.append(key)
    folded = fold_text(pa.array(surfaces, type=pa.string())).to_pylist()
    return dict(zip(zip(keys, folded), labels))


def pairwise_scores(clusters: pd.DataFrame, gold: dict) -> dict:
    """Pairwise precision, recall and F1 of the clustering against gold.

    A planted mention missing from the output counts as a singleton;
    an output mention nobody planted gets a gold label of its own."""
    got = list(zip(clusters["url"], clusters["surface"]))
    g = [gold.get(k, f"extra:{m}") for k, m in zip(got, clusters["mention_id"])]
    p = clusters["cluster_id"].tolist()
    missing = set(gold) - set(got)
    g += [gold[k] for k in missing]
    p += [f"missing:{i}" for i in range(len(missing))]
    df = pd.DataFrame({"g": g, "p": p})

    def pairs(counts: pd.Series) -> int:
        c = counts.to_numpy().astype("int64")
        return int((c * (c - 1) // 2).sum())

    tp = pairs(df.groupby(["g", "p"]).size())
    pred = pairs(df.groupby("p").size())
    true = pairs(df.groupby("g").size())
    precision = tp / pred if pred else 1.0
    recall = tp / true if true else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1,
            "missing_mentions": len(missing)}


def cluster_fingerprint(clusters: pd.DataFrame) -> dict:
    return {
        "clusters": int(clusters["cluster_id"].nunique()),
        "mentions": int(len(clusters)),
        "hash": digest(
            zip(clusters["mention_id"].tolist(),
                clusters["cluster_id"].tolist())
        ),
    }


def neardup_gold(facts: dict) -> set:
    """Planted (copy, source) pairs whose exact shingle Jaccard reaches
    the join threshold."""
    text_of = dict(zip(facts["doc_ids"].tolist(), facts["texts"]))
    return {
        (a, b)
        for a, b in facts["planted_pairs"]
        if jaccard(shingle_set(text_of[a]), shingle_set(text_of[b]))
        >= NEARDUP_THRESHOLD
    }


def neardup_scores(setsim_pairs: set, gold: set) -> dict:
    hit = len(setsim_pairs & gold)
    precision = hit / len(setsim_pairs) if setsim_pairs else 1.0
    recall = hit / len(gold) if gold else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1,
            "gold_pairs": len(gold)}


def pair_set(ds, score_col: str | None = None) -> set:
    t = ds.to_pandas()
    cols = [t["doc_id_a"].tolist(), t["doc_id_b"].tolist()]
    if score_col is not None:
        cols.append(t[score_col].round(6).tolist())
    return set(zip(*cols))


def check_linkage(clusters, gold: dict) -> dict:
    """Fingerprint and quality of one linkage pass's clusters."""
    df = clusters.to_pandas()
    scores = pairwise_scores(df, gold)
    return {
        "fingerprint": cluster_fingerprint(df),
        "pairwise_f1": scores["f1"],
        "neardup_recall": scores["recall"],
        "quality": scores,
        "ok": scores["f1"] >= MIN_PAIRWISE_F1,
    }


def check_dedup(outputs, gold: set) -> dict:
    """Fingerprint and quality of one near-dup pass's three outputs."""
    exact, minhash, setsim = outputs
    ex = exact.to_pandas()
    setsim_scored = pair_set(setsim, "jaccard")
    scores = neardup_scores({(a, b) for a, b, _ in setsim_scored}, gold)
    return {
        "fingerprint": {
            "exact_groups": int(len(ex)),
            "exact": digest(
                zip(ex["content_md5"].tolist(), ex["rep_doc_id"].tolist(),
                    ex["n_dups"].tolist())
            ),
            "minhash_pairs": minhash.count(),
            "minhash": digest(pair_set(minhash, "jaccard")),
            "setsim_pairs": len(setsim_scored),
            "setsim": digest(setsim_scored),
        },
        "pairwise_f1": scores["f1"],
        "neardup_recall": scores["recall"],
        "quality": scores,
        "ok": scores["recall"] >= MIN_NEARDUP_RECALL,
    }
