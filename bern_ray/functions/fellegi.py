"""Fellegi-Sunter unsupervised record-linkage weights via EM.

The classic probabilistic record-linkage model (Fellegi & Sunter 1969;
the Splink/FEBRL execution shape): each blocked candidate pair is
reduced to a comparison vector gamma of k binary field agreements, the
corpus is summarized as the 2^k-pattern contingency table, and EM fits
a two-class mixture — match prevalence ``lambda`` plus per-field
agreement probabilities ``m_i = P(gamma_i = 1 | match)`` and
``u_i = P(gamma_i = 1 | non-match)``. The per-field log2(m/u) match
weights are the learned scoring rule.

Reference analog: the reference scores mention pairs with FIXED
hand-set rules (normalize.py:168-289 score duel; dictionary lookups are
the similarity-1.0 degenerate case). Fellegi-Sunter is the standard
UNSUPERVISED way to learn those weights from the corpus itself — the
missing third leg next to the frozen rule ensemble (stages/scoring.py)
and the trained logistic seam (scripts/train_pair_model.py).

Scale shape (the part that matters at 100 TB):
  1. candidate pairs come from the same distributed blocked join the
     fuzzy-join family uses (bucket_join on a block key) — no driver
     pair inventory;
  2. each scoring batch collapses IMMEDIATELY to a bincount over the
     2^k patterns (a fixed-size mergeable partial) — the shuffle
     moves at most 2^k rows per batch regardless of corpus size;
  3. EM runs driver-side on the final 2^k-row table: O(2^k * iters)
     floating-point work, INDEPENDENT of corpus size. This is the same
     design Splink uses against billion-row backends.

Determinism: fixed init, fixed iteration count, float64 throughout,
patterns processed in ascending order — the DuckDB oracle mirrors the
EM as an unrolled CTE chain (one CTE per iteration) and the gate
matches values after the shared round-6 rule.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..core.similarity import jaro_winkler
from ..stages.join import bucket_join

# fixed EM hyper-parameters shared by the Ray path, the pytest
# reference and the SQL oracle generator (fs_em_sql) — change together.
FS_INIT_LAMBDA = 0.1
FS_INIT_M = 0.9
FS_INIT_U = 0.1
FS_ITERS = 20


def _fs_candidates(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    block_fn,
    num_buckets: int,
) -> "ray.data.Dataset":
    """Blocked candidate pairs: same distributed bucket_join shape as
    the fuzzy-join family — no driver pair inventory."""

    def tag(name_col: str):
        def fn(t: pa.Table) -> pa.Table:
            names = t[name_col].to_pylist()
            return t.append_column(
                "bk", pa.array(block_fn(names), type=pa.int64())
            )

        return fn

    lt = left.map_batches(tag("l_name"), batch_format="pyarrow")
    rt = right.map_batches(tag("r_name"), batch_format="pyarrow")
    return bucket_join(
        lt,
        rt,
        left_on="bk",
        right_on="bk",
        left_schema={
            "bk": pa.int64(),
            "l_id": pa.int64(),
            "l_name": pa.string(),
            "l_nation": pa.int64(),
            "l_segment": pa.string(),
        },
        right_schema={
            "bk": pa.int64(),
            "r_id": pa.int64(),
            "r_name": pa.string(),
            "r_nation": pa.int64(),
            "r_segment": pa.string(),
        },
        num_buckets=num_buckets,
    )


def _agreement_bits(t: pa.Table, jw_threshold: float):
    """(g_name, g_nation, g_segment) int64 arrays for a candidate
    batch — the shared comparison-vector kernel."""
    jw = jaro_winkler(t["l_name"].to_pylist(), t["r_name"].to_pylist())
    g_name = (jw >= jw_threshold).astype(np.int64)
    g_nation = (
        t["l_nation"].to_numpy(zero_copy_only=False)
        == t["r_nation"].to_numpy(zero_copy_only=False)
    ).astype(np.int64)
    g_segment = np.asarray(
        [
            a == b
            for a, b in zip(
                t["l_segment"].to_pylist(),
                t["r_segment"].to_pylist(),
            )
        ],
        dtype=np.int64,
    )
    return g_name, g_nation, g_segment


def fs_pattern_counts(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    block_fn,
    jw_threshold: float = 0.96,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Contingency table of comparison patterns over blocked pairs.

    ``left`` carries (l_id, l_name, l_nation, l_segment); ``right``
    carries (r_id, r_name, r_nation, r_segment). Same-block pairs
    (``block_fn`` over the name, as in functions/fuzzyjoin.py) are
    compared on three fields — name Jaro-Winkler >= ``jw_threshold``,
    nation equality, segment equality — and counted by pattern.

    Returns (g_name, g_nation, g_segment, n_pairs): at most 8 rows.
    Each map batch emits its own <=8-row bincount partial, so the
    groupby shuffles O(8 * num_blocks_of_batches) tiny rows, never the
    pairs themselves.
    """
    cand = _fs_candidates(left, right, block_fn, num_buckets)

    def partial_counts(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "g_name": pa.array([], type=pa.int64()),
                    "g_nation": pa.array([], type=pa.int64()),
                    "g_segment": pa.array([], type=pa.int64()),
                    "n": pa.array([], type=pa.int64()),
                }
            )
        g_name, g_nation, g_segment = _agreement_bits(t, jw_threshold)
        pattern = g_name * 4 + g_nation * 2 + g_segment
        counts = np.bincount(pattern, minlength=8)
        nz = np.nonzero(counts)[0]
        return pa.table(
            {
                "g_name": pa.array(nz // 4, type=pa.int64()),
                "g_nation": pa.array((nz // 2) % 2, type=pa.int64()),
                "g_segment": pa.array(nz % 2, type=pa.int64()),
                "n": pa.array(counts[nz], type=pa.int64()),
            }
        )

    partials = cand.map_batches(partial_counts, batch_format="pyarrow")
    agg = partials.groupby(["g_name", "g_nation", "g_segment"]).sum("n")
    return agg.map_batches(
        lambda t: t.rename_columns(
            ["g_name", "g_nation", "g_segment", "n_pairs"]
        ),
        batch_format="pyarrow",
    )


def _pattern_arrays(counts: pa.Table):
    """(g, n) float64 arrays in the FIXED ascending-pattern order every
    driver-side FS computation shares (the floating-point reduction
    order is part of the oracle contract)."""
    g = np.stack(
        [
            counts["g_name"].to_numpy(zero_copy_only=False),
            counts["g_nation"].to_numpy(zero_copy_only=False),
            counts["g_segment"].to_numpy(zero_copy_only=False),
        ],
        axis=1,
    ).astype(np.float64)
    n = counts["n_pairs"].to_numpy(zero_copy_only=False).astype(
        np.float64
    )
    order = np.lexsort((g[:, 2], g[:, 1], g[:, 0]))
    return g[order], n[order]


def _em_fit(
    g: np.ndarray,
    n: np.ndarray,
    *,
    iters: int,
    init_lambda: float,
    init_m: float,
    init_u: float,
):
    """Raw EM loop shared by fs_em (rounded tidy output) and the
    decision table (which must weight patterns with the UNROUNDED
    fixed point, exactly like the SQL oracle's it{iters} CTE)."""
    lam = float(init_lambda)
    m = np.full(3, float(init_m))
    u = np.full(3, float(init_u))
    for _ in range(iters):
        pm = np.prod(np.where(g == 1.0, m, 1.0 - m), axis=1)
        pu = np.prod(np.where(g == 1.0, u, 1.0 - u), axis=1)
        wm = lam * pm
        wu = (1.0 - lam) * pu
        post = wm / (wm + wu)
        mm = np.sum(n * post)
        uu = np.sum(n * (1.0 - post))
        lam = mm / (mm + uu)
        m = (n * post) @ g / mm
        u = (n * (1.0 - post)) @ g / uu
    return lam, m, u


def fs_em(
    counts: pa.Table,
    *,
    iters: int = FS_ITERS,
    init_lambda: float = FS_INIT_LAMBDA,
    init_m: float = FS_INIT_M,
    init_u: float = FS_INIT_U,
) -> pa.Table:
    """EM over a (g_name, g_nation, g_segment, n_pairs) pattern table.

    Driver-side by design: the input is at most 2^k rows whatever the
    corpus size (see module docstring). Patterns are sorted ascending
    before the loop so the floating-point reduction order is fixed.

    Precondition (holds for any non-degenerate corpus): every
    iteration keeps both mixture masses positive — callers feeding
    adversarially tiny inputs should expect NaNs, matching the SQL
    oracle's behavior rather than hiding it behind clamps.

    Returns tidy (param, value) rows: 'lambda' plus m_/u_/weight_ per
    field, value rounded to 6dp (the gate's shared float rule);
    weight_f = log2(m_f / u_f), the Fellegi-Sunter agreement weight.
    """
    fields = ("name", "nation", "segment")
    g, n = _pattern_arrays(counts)
    lam, m, u = _em_fit(
        g,
        n,
        iters=iters,
        init_lambda=init_lambda,
        init_m=init_m,
        init_u=init_u,
    )

    params = ["lambda"]
    values = [lam]
    for i, f in enumerate(fields):
        params += [f"m_{f}", f"u_{f}", f"weight_{f}"]
        values += [m[i], u[i], float(np.log2(m[i] / u[i]))]
    order2 = np.argsort(np.asarray(params, dtype=object))
    return pa.table(
        {
            "param": pa.array(
                [params[i] for i in order2], type=pa.string()
            ),
            "value": pa.array(
                [round(float(values[i]), 6) for i in order2],
                type=pa.float64(),
            ),
        }
    )


def _collect_counts(pattern_counts: "ray.data.Dataset") -> pa.Table:
    """O(2^k) driver hop — the one collect this family is allowed."""
    rows = pattern_counts.take_all()
    return pa.table(
        {
            "g_name": pa.array(
                [r["g_name"] for r in rows], type=pa.int64()
            ),
            "g_nation": pa.array(
                [r["g_nation"] for r in rows], type=pa.int64()
            ),
            "g_segment": pa.array(
                [r["g_segment"] for r in rows], type=pa.int64()
            ),
            "n_pairs": pa.array(
                [r["n_pairs"] for r in rows], type=pa.int64()
            ),
        }
    )


def fs_em_weights(
    pattern_counts: "ray.data.Dataset",
    *,
    iters: int = FS_ITERS,
) -> pa.Table:
    """Collect the <=8-row pattern table and run the EM. The take_all
    is O(2^k) by construction — the one driver hop this operator is
    ALLOWED, same contract as the sketch family's merged registers."""
    return fs_em(_collect_counts(pattern_counts), iters=iters)


def fs_decision_table(
    counts: pa.Table,
    *,
    mu: float = 0.001,
    lam_err: float = 0.01,
    iters: int = FS_ITERS,
    init_lambda: float = FS_INIT_LAMBDA,
    init_m: float = FS_INIT_M,
    init_u: float = FS_INIT_U,
) -> pa.Table:
    """The Fellegi-Sunter 1969 THREE-WAY DECISION RULE over the
    observed patterns — the step after parameter estimation that the
    original paper is actually about (Theorem 1: the optimal linkage
    rule at error bounds (mu, lambda) is a pair of thresholds on the
    likelihood-ratio order).

    Each observed pattern gamma gets its total match weight
    w(gamma) = sum_f [ gamma_f * log2(m_f/u_f)
                       + (1-gamma_f) * log2((1-m_f)/(1-u_f)) ]
    (agreement weights positive, disagreement weights negative), then
    patterns are ordered by w descending and classified:

      link      — top patterns while the cumulative false-match mass
                  sum P(gamma|u) stays <= mu;
      non_link  — bottom patterns (w ascending) while the cumulative
                  false-non-match mass sum P(gamma|m) stays <= lam_err;
      possible  — everything between (the clerical-review band).

    Driver-side on <=2^k rows whatever the corpus size, weighted with
    the UNROUNDED EM fixed point (exactly the SQL oracle's it{iters}
    CTE). Probability masses are over OBSERVED patterns (the corpus
    contingency table), matching the SQL mirror; ties in w break by
    pattern bits descending, and a pattern qualifying for both regions
    (bounds set loose enough to overlap) takes 'link', mirroring the
    oracle's CASE order. Reference analog: the reference hard-codes
    this trichotomy as score-threshold rules (normalize.py:168-289 —
    accept / duel / reject); FS derives it from the learned model with
    explicit error bounds.

    Returns (g_name, g_nation, g_segment, n_pairs, match_weight,
    p_match, p_unmatch, decision) in match-weight-descending order,
    floats rounded to 6dp (the gate's shared float rule).
    """
    g, n = _pattern_arrays(counts)
    lam, m, u = _em_fit(
        g,
        n,
        iters=iters,
        init_lambda=init_lambda,
        init_m=init_m,
        init_u=init_u,
    )
    # per-pattern weight / class-conditional mass, fixed field order
    # and left-associated arithmetic so the SQL mirror is bit-equal
    w = np.zeros(len(n))
    pm = np.ones(len(n))
    pu = np.ones(len(n))
    for i in range(3):
        gi = g[:, i] == 1.0
        w = w + np.where(
            gi,
            np.log2(m[i] / u[i]),
            np.log2((1.0 - m[i]) / (1.0 - u[i])),
        )
        pm = pm * np.where(gi, m[i], 1.0 - m[i])
        pu = pu * np.where(gi, u[i], 1.0 - u[i])

    # ORDER BY w DESC, g_name DESC, g_nation DESC, g_segment DESC
    # (ascending region scan is its exact reverse)
    desc = np.lexsort((-g[:, 2], -g[:, 1], -g[:, 0], -w))
    cu = np.cumsum(pu[desc])  # false-match mass, from the top
    cm_asc = np.cumsum(pm[desc][::-1])  # false-non-match, from the bottom
    # link/non_link are computed on the ALREADY-desc-ordered masses,
    # so `decision` below is aligned with the output row order
    link = cu <= mu
    non_link = (cm_asc[::-1] <= lam_err) & ~link
    decision = np.where(
        link, "link", np.where(non_link, "non_link", "possible")
    )

    n_int = counts["n_pairs"].to_numpy(zero_copy_only=False)
    n_ord = np.lexsort(
        (
            counts["g_segment"].to_numpy(zero_copy_only=False),
            counts["g_nation"].to_numpy(zero_copy_only=False),
            counts["g_name"].to_numpy(zero_copy_only=False),
        )
    )
    n_int = n_int[n_ord][desc]
    gi64 = g[desc].astype(np.int64)
    return pa.table(
        {
            "g_name": pa.array(gi64[:, 0], type=pa.int64()),
            "g_nation": pa.array(gi64[:, 1], type=pa.int64()),
            "g_segment": pa.array(gi64[:, 2], type=pa.int64()),
            "n_pairs": pa.array(n_int, type=pa.int64()),
            "match_weight": pa.array(
                [round(float(x), 6) for x in w[desc]],
                type=pa.float64(),
            ),
            "p_match": pa.array(
                [round(float(x), 6) for x in pm[desc]],
                type=pa.float64(),
            ),
            "p_unmatch": pa.array(
                [round(float(x), 6) for x in pu[desc]],
                type=pa.float64(),
            ),
            "decision": pa.array(decision.tolist(), type=pa.string()),
        }
    )


def fs_decisions(
    pattern_counts: "ray.data.Dataset",
    *,
    mu: float = 0.001,
    lam_err: float = 0.01,
    iters: int = FS_ITERS,
) -> pa.Table:
    """Collect the <=2^k-row pattern table, fit, and decide."""
    return fs_decision_table(
        _collect_counts(pattern_counts),
        mu=mu,
        lam_err=lam_err,
        iters=iters,
    )


def fs_decide_pairs(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    block_fn,
    decided: pa.Table,
    jw_threshold: float = 0.96,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Apply a learned decision table to every blocked pair: the
    linkage system's output file — (l_id, r_id, agreement bits,
    match_weight, decision) per candidate.

    ``decided`` is fs_decision_table's output for the SAME comparison
    configuration — 8 scalar weights + 8 decision strings, captured in
    the closure (driver-sized broadcast, like the normalization
    dicts). A pattern the table never observed (possible when scoring
    a different corpus than the one fit) falls back to the clerical
    band: decision 'possible', weight NaN — surfaced, not dropped.
    Scale shape: one bucket_join + a vectorized per-batch lookup;
    nothing pair-sized touches the driver.
    """
    wts = np.full(8, np.nan)
    dec = np.asarray(["possible"] * 8, dtype=object)
    codes = (
        decided["g_name"].to_numpy(zero_copy_only=False) * 4
        + decided["g_nation"].to_numpy(zero_copy_only=False) * 2
        + decided["g_segment"].to_numpy(zero_copy_only=False)
    )
    wts[codes] = decided["match_weight"].to_numpy(zero_copy_only=False)
    dec[codes] = np.asarray(
        decided["decision"].to_pylist(), dtype=object
    )

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "l_id": pa.array([], type=pa.int64()),
                    "r_id": pa.array([], type=pa.int64()),
                    "g_name": pa.array([], type=pa.int64()),
                    "g_nation": pa.array([], type=pa.int64()),
                    "g_segment": pa.array([], type=pa.int64()),
                    "match_weight": pa.array([], type=pa.float64()),
                    "decision": pa.array([], type=pa.string()),
                }
            )
        g_name, g_nation, g_segment = _agreement_bits(t, jw_threshold)
        pattern = g_name * 4 + g_nation * 2 + g_segment
        return pa.table(
            {
                "l_id": t["l_id"],
                "r_id": t["r_id"],
                "g_name": pa.array(g_name, type=pa.int64()),
                "g_nation": pa.array(g_nation, type=pa.int64()),
                "g_segment": pa.array(g_segment, type=pa.int64()),
                "match_weight": pa.array(
                    wts[pattern], type=pa.float64()
                ),
                "decision": pa.array(
                    dec[pattern].tolist(), type=pa.string()
                ),
            }
        )

    cand = _fs_candidates(left, right, block_fn, num_buckets)
    return cand.map_batches(score, batch_format="pyarrow")


def _em_chain_ctes(
    iters: int,
    init_lambda: float,
    init_m: float,
    init_u: float,
) -> str:
    """The unrolled EM as ",\\n"-joined it0..it{iters} CTE definitions
    (consumers must define a `pat(g1, g2, g3, n)` CTE first). Shared by
    the weights oracle and the decision-rule oracle."""
    # every chain CTE is MATERIALIZED: DuckDB otherwise inlines each
    # it{k} into its consumers and the nested re-evaluation of the
    # chain turns 20 iterations into minutes even on an 8-row pattern
    # table (measured: 503 s at sf0.001 inlined, <0.1 s materialized).
    its = [
        f"it0 AS MATERIALIZED (SELECT {init_lambda} AS lam,"
        + ", ".join(
            f" {init_m} AS m{i}, {init_u} AS u{i}" for i in (1, 2, 3)
        )
        + ")"
    ]
    for k in range(1, iters + 1):
        prev = f"it{k - 1}"
        post = (
            "(i.lam"
            " * (CASE WHEN p.g1 = 1 THEN i.m1 ELSE 1 - i.m1 END)"
            " * (CASE WHEN p.g2 = 1 THEN i.m2 ELSE 1 - i.m2 END)"
            " * (CASE WHEN p.g3 = 1 THEN i.m3 ELSE 1 - i.m3 END))"
            " / ((i.lam"
            " * (CASE WHEN p.g1 = 1 THEN i.m1 ELSE 1 - i.m1 END)"
            " * (CASE WHEN p.g2 = 1 THEN i.m2 ELSE 1 - i.m2 END)"
            " * (CASE WHEN p.g3 = 1 THEN i.m3 ELSE 1 - i.m3 END))"
            " + ((1 - i.lam)"
            " * (CASE WHEN p.g1 = 1 THEN i.u1 ELSE 1 - i.u1 END)"
            " * (CASE WHEN p.g2 = 1 THEN i.u2 ELSE 1 - i.u2 END)"
            " * (CASE WHEN p.g3 = 1 THEN i.u3 ELSE 1 - i.u3 END)))"
        )
        upd = [
            "SUM(n * post) / SUM(n) AS lam",
        ]
        for i in (1, 2, 3):
            upd.append(
                f"SUM(n * post * g{i}) / SUM(n * post) AS m{i}"
            )
            upd.append(
                f"SUM(n * (1 - post) * g{i})"
                f" / SUM(n * (1 - post)) AS u{i}"
            )
        its.append(
            f"it{k} AS MATERIALIZED (SELECT " + ", ".join(upd) + f"""
  FROM (SELECT p.n, p.g1, p.g2, p.g3, {post} AS post
        FROM pat p, {prev} i))"""
        )
    return ",\n".join(its)


def fs_em_sql(
    pairs_cte: str,
    *,
    iters: int = FS_ITERS,
    init_lambda: float = FS_INIT_LAMBDA,
    init_m: float = FS_INIT_M,
    init_u: float = FS_INIT_U,
) -> str:
    """DuckDB oracle for the EM: one CTE per iteration, mechanically
    unrolled. ``pairs_cte`` must SELECT g_name, g_nation, g_segment
    (ints) per candidate pair; the chain aggregates them to the
    pattern table and replays the exact update equations of fs_em.
    """
    body = _em_chain_ctes(iters, init_lambda, init_m, init_u)
    fields = {"1": "name", "2": "nation", "3": "segment"}
    outs = [f"SELECT 'lambda' AS param, lam AS value FROM it{iters}"]
    for i, f in fields.items():
        outs.append(f"SELECT 'm_{f}', m{i} FROM it{iters}")
        outs.append(f"SELECT 'u_{f}', u{i} FROM it{iters}")
        outs.append(
            f"SELECT 'weight_{f}', log2(m{i} / u{i}) FROM it{iters}"
        )
    union = "\nUNION ALL ".join(outs)
    return f"""
WITH pairs AS MATERIALIZED ({pairs_cte}),
pat AS MATERIALIZED (
  SELECT g_name AS g1, g_nation AS g2, g_segment AS g3,
         CAST(COUNT(*) AS DOUBLE) AS n
  FROM pairs GROUP BY 1, 2, 3
),
{body}
SELECT param, round(value, 6) AS value FROM ({union})
ORDER BY param
"""


def fs_decisions_sql(
    pairs_cte: str,
    *,
    mu: float = 0.001,
    lam_err: float = 0.01,
    iters: int = FS_ITERS,
    init_lambda: float = FS_INIT_LAMBDA,
    init_m: float = FS_INIT_M,
    init_u: float = FS_INIT_U,
) -> str:
    """DuckDB oracle for the three-way decision rule: the unrolled EM
    chain (same generator as fs_em_sql), then per-pattern weights and
    class-conditional masses from the UNROUNDED it{iters} parameters,
    cumulative error masses via window sums over the weight order, and
    the (mu, lam_err)-bounded trichotomy. Arithmetic association and
    the tie-break order match fs_decision_table exactly."""
    body = _em_chain_ctes(iters, init_lambda, init_m, init_u)

    def case(expr_agree: str, expr_disagree: str, gi: int) -> str:
        return (
            f"CASE WHEN p.g{gi} = 1 THEN {expr_agree}"
            f" ELSE {expr_disagree} END"
        )

    w_terms = [
        case(f"log2(i.m{i} / i.u{i})", f"log2((1 - i.m{i}) / (1 - i.u{i}))", i)
        for i in (1, 2, 3)
    ]
    pm_terms = [case(f"i.m{i}", f"1 - i.m{i}", i) for i in (1, 2, 3)]
    pu_terms = [case(f"i.u{i}", f"1 - i.u{i}", i) for i in (1, 2, 3)]
    return f"""
WITH pairs AS MATERIALIZED ({pairs_cte}),
pat AS MATERIALIZED (
  SELECT g_name AS g1, g_nation AS g2, g_segment AS g3,
         CAST(COUNT(*) AS DOUBLE) AS n
  FROM pairs GROUP BY 1, 2, 3
),
{body},
patw AS MATERIALIZED (
  SELECT p.g1, p.g2, p.g3, p.n,
         (({w_terms[0]}
           + {w_terms[1]})
           + {w_terms[2]}) AS w,
         (({pm_terms[0]}
           * {pm_terms[1]})
           * {pm_terms[2]}) AS pm,
         (({pu_terms[0]}
           * {pu_terms[1]})
           * {pu_terms[2]}) AS pu
  FROM pat p, it{iters} i
),
cum AS (
  SELECT *,
         SUM(pu) OVER (ORDER BY w DESC, g1 DESC, g2 DESC, g3 DESC
                       ROWS UNBOUNDED PRECEDING) AS cu,
         SUM(pm) OVER (ORDER BY w ASC, g1 ASC, g2 ASC, g3 ASC
                       ROWS UNBOUNDED PRECEDING) AS cm
  FROM patw
)
SELECT g1 AS g_name, g2 AS g_nation, g3 AS g_segment,
       CAST(n AS BIGINT) AS n_pairs,
       round(w, 6) AS match_weight,
       round(pm, 6) AS p_match,
       round(pu, 6) AS p_unmatch,
       CASE WHEN cu <= {mu} THEN 'link'
            WHEN cm <= {lam_err} THEN 'non_link'
            ELSE 'possible' END AS decision
FROM cum
ORDER BY w DESC, g1 DESC, g2 DESC, g3 DESC
"""
