"""Pair-scoring stage: candidate pairs -> scored edges.

Ray-native analog of the reference's span scoring + cross-type duel
(biobert_ner/ops.py:214-476) and of the north_star's "batched
Jaro-Winkler/Levenshtein plus embedding-cosine ensemble". Runs as a
task map over Arrow batches of pairs; every kernel is vectorized
over the whole batch (core/similarity.py) — the per-batch cost is a
few numpy passes, GPU-replaceable by swapping the cosine component.

Ensemble semantics (frozen; reproduced by the fixtures' ground truth):

    base = 1.0  if both oids resolved and equal      (dictionary hit)
         = 0.9  if both unresolved and folds equal   (CUI-less twins)
         = 0.0  otherwise
    sim  = 0.3*jaro_winkler + 0.3*levenshtein_sim + 0.4*ngram_cosine
    score = 0.8*base + 0.2*sim

With EDGE_THRESHOLD = 0.75, only dictionary/fold agreement can cross
the threshold (sim alone maxes at 0.2) — mirroring the reference,
where linkage is decided by normalization identity while the neural
score orders candidates (ops.py:232-476 keeps the higher-scored type
rather than linking across types).

The same 0.2 cap on sim decides which pairs are scored at all under
``emit="edges_only"``: each pair's score is bounded by the ensemble
itself with jw = lv = cos = 1 and fold_eq taken as true for every
pair whose oids are both unresolved, and only pairs whose bound
reaches the threshold go through the kernels. On linkage inputs most
candidate pairs share a block but no oid, so most never reach them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.fold import tmchem_key
from ..core.similarity import (
    cosine_pairs,
    jaro_winkler,
    levenshtein_sim,
    ngram_hash_vectors,
)

EDGE_THRESHOLD = 0.75
# logistic pair model decision threshold (sigmoid output space)
MODEL_EDGE_THRESHOLD = 0.5

# similarity feature vector fed to a trained pair model, in order
PAIR_FEATURES = ("jw", "lev", "cos", "same_oid", "fold_eq")

# emit="edges_only" prunes a pair only when its score bound is below
# the threshold by more than this: the float32 cosine of two equal
# unit vectors can exceed 1 by a few ulps
_BOUND_SLACK = 1e-6


class LogisticPairModel:
    """Trained logistic scorer over PAIR_FEATURES, weights loaded from
    an .npz checkpoint file — the evidenced form of the reference's
    load-model-once-per-process seam (run_ner.py:361-589 loads TF
    estimators once and serves batches; here the weight file loads
    once per scorer instance via PairScorer(pair_model_loader=...),
    and score_pairs builds one scorer per worker process).

    Trained offline by scripts/train_pair_model.py to reproduce the
    frozen ensemble's edge decisions on the fixture corpus (decision
    agreement asserted 1.0 at train time and pytest-pinned)."""

    def __init__(self, path: str):
        import numpy as _np

        ckpt = _np.load(path)
        self.w = ckpt["w"].astype(np.float64)
        self.b = float(ckpt["b"])
        if len(self.w) != len(PAIR_FEATURES):
            raise ValueError(
                f"checkpoint has {len(self.w)} weights, expected "
                f"{len(PAIR_FEATURES)}"
            )

    def __call__(self, F: np.ndarray) -> np.ndarray:
        """(n, 5) feature matrix -> (n,) edge probability."""
        z = F @ self.w + self.b
        return 1.0 / (1.0 + np.exp(-z))


def load_pair_model(path: str):
    """Picklable zero-arg loader factory for score_pairs(...)."""

    def loader():
        return LogisticPairModel(path)

    return loader


def default_pair_model_path() -> str:
    """The checked-in checkpoint written by scripts/train_pair_model.py."""
    import os

    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "resources",
        "pair_model.npz",
    )


class PairScorer:
    """Stage callable: pair batch -> pair batch + score column.

    The embedding component is a per-instance MODEL loaded once in
    ``__init__`` — the GPU seam of the north_star: a real deployment
    passes ``model_loader`` (a picklable zero-arg callable returning
    ``surfaces -> (n, d) float array``, e.g. loading a transformer
    onto the GPU; run it as ``map_batches(PairScorer,
    fn_constructor_kwargs=..., concurrency=n, num_gpus=1)``) and the
    batched-inference plumbing is identical. The default model is the deterministic
    hashed-n-gram embedder (reference analog: run_ner.py:361-589
    loads the TF estimator once per process and serves batches).

    ``emit`` picks the output: "decoded" (every pair with its string
    attrs), "edges" (every pair as a_mid, b_mid, score, is_edge) or
    "edges_only" (the is_edge rows of "edges", same scores). Under
    "edges_only" the frozen ensemble's 0.2 cap on sim also decides
    which pairs are scored: a pair whose bound (``_final_score`` with
    every kernel at 1) is below the threshold never reaches the
    kernels. A pair model or a custom ``model_loader`` embedder has no
    such bound, so those scorers score every pair and then keep the
    edges.
    """

    def __init__(
        self,
        threshold: float | None = None,
        model_loader=None,
        vocab=None,
        emit: str = "decoded",
        pair_model_loader=None,
    ):
        if emit not in ("decoded", "edges", "edges_only"):
            raise ValueError(
                f"emit={emit!r}: 'decoded', 'edges' or 'edges_only'"
            )
        # trained pair model (e.g. LogisticPairModel): loaded ONCE per
        # instance; scores PAIR_FEATURES instead of the fixed ensemble
        self.pair_model = (
            pair_model_loader() if pair_model_loader is not None else None
        )
        if threshold is None:
            threshold = (
                MODEL_EDGE_THRESHOLD
                if self.pair_model is not None
                else EDGE_THRESHOLD
            )
        # emit="edges": skip the per-row surface/oid decode and return
        # only (a_mid, b_mid, score, is_edge). MEASURED on this target
        # (1M-pair batch, replicate-32 corpus): kernels 1.4 s, decode +
        # string-table construction 15.4 s — 92% of scorer wall time
        # spent building columns the headline path immediately drops
        # (edges_only keeps the int columns). At 100-TB scale the
        # decoded table is also the object-store payload, so the lean
        # mode is the default for any consumer that only needs edges.
        self.emit = emit
        self.threshold = threshold
        # once per instance, NOT per batch
        self.embed = (
            ngram_hash_vectors if model_loader is None else model_loader()
        )
        # the ensemble over unit-norm embeddings has every kernel in
        # [0, 1]; a pair model or a custom embedder is unbounded
        self.bounded = self.pair_model is None and model_loader is None
        # de-stringified hot path: pairs arrive as int32 codes
        # (a_sc/b_sc/a_oc/b_oc) and the vocab arrays are fetched from
        # the broadcast store ONCE per instance — never per batch
        if vocab is not None:
            self.vocab_s, self.vocab_o = vocab.arrays()
        else:
            self.vocab_s = self.vocab_o = None

    def _final_score(
        self,
        jw: np.ndarray,
        lv: np.ndarray,
        cos: np.ndarray,
        pair_inv: np.ndarray,
        same_oid: np.ndarray,
        fold_eq: np.ndarray,
    ) -> np.ndarray:
        """Per-pair score from per-UNIQUE-pair kernels (expanded via
        pair_inv): the frozen ensemble, or the loaded pair model over
        PAIR_FEATURES when one was given."""
        if self.pair_model is not None:
            F = np.stack(
                [
                    jw[pair_inv],
                    lv[pair_inv],
                    cos[pair_inv],
                    same_oid.astype(np.float64),
                    fold_eq.astype(np.float64),
                ],
                axis=1,
            )
            return self.pair_model(F)
        sim = (0.3 * jw + 0.3 * lv + 0.4 * cos)[pair_inv]
        base = np.where(same_oid, 1.0, np.where(fold_eq, 0.9, 0.0))
        return 0.8 * base + 0.2 * sim

    def _prune(self, batch: pa.Table, same_oid, both_miss):
        """Under emit="edges_only", drop the pairs whose score cannot
        reach the threshold: the bound is ``_final_score`` with every
        kernel at 1 and fold_eq true wherever both oids are unresolved.
        Other modes, and scorers with no bound, keep every pair."""
        if self.emit != "edges_only" or not self.bounded:
            return batch, same_oid, both_miss
        one = np.ones(1)
        bound = self._final_score(
            one, one, one, np.zeros(len(same_oid), dtype=np.intp),
            same_oid, both_miss,
        )
        keep = bound >= self.threshold - _BOUND_SLACK
        return batch.filter(keep), same_oid[keep], both_miss[keep]

    def _edges(self, batch: pa.Table, score: np.ndarray) -> pa.Table:
        """(a_mid, b_mid, score, is_edge) rows; the edge rows only
        under emit="edges_only"."""
        return self._keep_edges(
            pa.table(
                {
                    "a_mid": batch["a_mid"],
                    "b_mid": batch["b_mid"],
                    "score": pa.array(score, type=pa.float64()),
                    "is_edge": pa.array(
                        score >= self.threshold, type=pa.bool_()
                    ),
                }
            )
        )

    def _keep_edges(self, t: pa.Table) -> pa.Table:
        return t.filter(t["is_edge"]) if self.emit == "edges_only" else t

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "a_sc" in batch.schema.names:
            return self._score_codes(batch)
        lean = self.emit != "decoded" and "a_mid" in batch.schema.names
        a_oid = batch["a_oid"].cast(pa.string())
        b_oid = batch["b_oid"].cast(pa.string())
        same_oid = pc.fill_null(pc.equal(a_oid, b_oid), False).to_numpy()
        both_miss = pc.and_(pc.is_null(a_oid), pc.is_null(b_oid)).to_numpy()
        batch, same_oid, both_miss = self._prune(batch, same_oid, both_miss)
        n = batch.num_rows
        if n == 0:
            if lean:
                # an empty batch must not inject the full decoded
                # schema into an otherwise 4-column edge dataset
                return self._edges(batch, np.zeros(0))
            return batch.append_column(
                "score", pa.array([], type=pa.float64())
            ).append_column("is_edge", pa.array([], type=pa.bool_()))
        a = batch["a_surface"].to_numpy(zero_copy_only=False)
        b = batch["b_surface"].to_numpy(zero_copy_only=False)
        # candidate batches repeat the same surface pairs heavily
        # (aliases recur corpus-wide): factorize to UNIQUE surfaces and
        # UNIQUE (a, b) pairs, run every kernel once per unique pair,
        # and scatter the results back — typically a 10-100x saving.
        uniq_s, s_codes = np.unique(np.concatenate([a, b]), return_inverse=True)
        ia = s_codes[:n]
        ib = s_codes[n:]
        pair_code = ia.astype(np.int64) * len(uniq_s) + ib
        uniq_pairs, pair_inv = np.unique(pair_code, return_inverse=True)
        upa = (uniq_pairs // len(uniq_s)).astype(np.int64)
        upb = (uniq_pairs % len(uniq_s)).astype(np.int64)
        sa = uniq_s[upa].tolist()
        sb = uniq_s[upb].tolist()
        jw = jaro_winkler(sa, sb)
        lv = levenshtein_sim(sa, sb)
        E = self.embed(uniq_s.tolist())
        cos = cosine_pairs(E[upa], E[upb])
        if both_miss.any():
            folds = np.asarray(
                tmchem_key(pa.array(uniq_s.tolist())).to_pylist(), dtype=object
            )
            fold_eq = both_miss & (folds[ia] == folds[ib])
        else:
            fold_eq = np.zeros(n, dtype=bool)
        score = self._final_score(jw, lv, cos, pair_inv, same_oid, fold_eq)
        if lean:
            return self._edges(batch, score)
        return self._keep_edges(
            batch.append_column(
                "score", pa.array(score, type=pa.float64())
            ).append_column(
                "is_edge", pa.array(score >= self.threshold, type=pa.bool_())
            )
        )

    def _score_codes(self, batch: pa.Table) -> pa.Table:
        """Score code-carrying pairs (a_sc/b_sc/a_oc/b_oc int32).

        All factorization runs on ints (np.unique over int codes, not
        a per-batch string sort); only the UNIQUE surfaces are decoded
        against the broadcast vocab. Output schema is identical to the
        string path (decoded attrs + block_key), so every downstream
        consumer is unchanged."""
        vs, vo = self.vocab_s, self.vocab_o
        if vs is None:
            raise ValueError(
                "code-carrying pairs require score_pairs(..., vocab=...)"
            )
        a_oc = batch["a_oc"].to_numpy(zero_copy_only=False)
        b_oc = batch["b_oc"].to_numpy(zero_copy_only=False)
        same_oid = (a_oc == b_oc) & (a_oc >= 0)
        both_miss = (a_oc < 0) & (b_oc < 0)
        batch, same_oid, both_miss = self._prune(batch, same_oid, both_miss)
        n = batch.num_rows
        if n == 0:
            empty = {
                "a_mid": pa.array([], type=pa.int64()),
                "b_mid": pa.array([], type=pa.int64()),
            }
            if self.emit == "decoded":
                empty.update(
                    {
                        "a_surface": pa.array([], type=pa.string()),
                        "b_surface": pa.array([], type=pa.string()),
                        "a_oid": pa.array([], type=pa.string()),
                        "b_oid": pa.array([], type=pa.string()),
                        "block_key": pa.array([], type=pa.string()),
                    }
                )
            empty.update(
                {
                    "score": pa.array([], type=pa.float64()),
                    "is_edge": pa.array([], type=pa.bool_()),
                }
            )
            return pa.table(empty)
        a_sc = batch["a_sc"].to_numpy(zero_copy_only=False).astype(np.int64)
        b_sc = batch["b_sc"].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq_c, inv = np.unique(
            np.concatenate([a_sc, b_sc]), return_inverse=True
        )
        ia, ib = inv[:n], inv[n:]
        m = len(uniq_c)
        pair_code = ia.astype(np.int64) * m + ib
        uniq_pairs, pair_inv = np.unique(pair_code, return_inverse=True)
        upa = (uniq_pairs // m).astype(np.int64)
        upb = (uniq_pairs % m).astype(np.int64)
        uniq_s = vs[uniq_c]  # decode unique surfaces only
        sa = uniq_s[upa].tolist()
        sb = uniq_s[upb].tolist()
        jw = jaro_winkler(sa, sb)
        lv = levenshtein_sim(sa, sb)
        E = self.embed(uniq_s.tolist())
        cos = cosine_pairs(E[upa], E[upb])
        if both_miss.any():
            folds = np.asarray(
                tmchem_key(pa.array(uniq_s.tolist())).to_pylist(),
                dtype=object,
            )
            fold_eq = both_miss & (folds[upa] == folds[upb])[pair_inv]
        else:
            fold_eq = np.zeros(n, dtype=bool)
        score = self._final_score(jw, lv, cos, pair_inv, same_oid, fold_eq)
        if self.emit != "decoded":
            return self._edges(batch, score)

        def dec_oid(c: np.ndarray) -> np.ndarray:
            if len(vo) == 0:
                return np.full(len(c), None, dtype=object)
            out = vo[np.maximum(c, 0)].astype(object, copy=True)
            out[c < 0] = None
            return out

        return pa.table(
            {
                "a_mid": batch["a_mid"],
                "b_mid": batch["b_mid"],
                "a_surface": pa.array(uniq_s[ia], type=pa.string()),
                "b_surface": pa.array(uniq_s[ib], type=pa.string()),
                "a_oid": pa.array(dec_oid(a_oc), type=pa.string()),
                "b_oid": pa.array(dec_oid(b_oc), type=pa.string()),
                "block_key": pa.array(
                    batch["key"].to_numpy(zero_copy_only=False).astype("U"),
                    type=pa.string(),
                ),
                "score": pa.array(score, type=pa.float64()),
                "is_edge": pa.array(
                    score >= self.threshold, type=pa.bool_()
                ),
            }
        )


def edges_only(batch: pa.Table) -> pa.Table:
    """Project scored pairs down to the edge list fed to CC."""
    t = batch.filter(batch["is_edge"])
    return pa.table(
        {
            "src": t["a_mid"],
            "dst": t["b_mid"],
            "score": t["score"],
        }
    )
