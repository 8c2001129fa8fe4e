"""Dedup family: planted near-dups recovered; LSH+verify == exact."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF}/documents.parquet")


def test_exact_dedup_matches_duckdb(docs):
    import duckdb

    from bern_ray.functions.dedup import exact_dedup

    got = exact_dedup(docs).to_pandas().sort_values("content_md5")
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    exp = con.sql(
        "SELECT md5(text) AS content_md5, min(doc_id) rep_doc_id, "
        "count(*) n_dups FROM documents GROUP BY 1"
    ).df().sort_values("content_md5")
    assert got.content_md5.tolist() == exp.content_md5.tolist()
    assert got.rep_doc_id.tolist() == exp.rep_doc_id.tolist()
    assert got.n_dups.tolist() == exp.n_dups.tolist()


def test_minhash_neardup_equals_exact_jaccard(docs):
    """LSH candidates + exact verify reproduces the brute-force shingle
    Jaccard pair set at threshold 0.9 (recall ~1-4e-16)."""
    import duckdb

    from bern_ray.functions.dedup import minhash_neardup

    got = (
        minhash_neardup(docs, threshold=0.9)
        .to_pandas()
        .sort_values(["doc_id_a", "doc_id_b"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    exp = con.sql(
        """
WITH tok AS (SELECT doc_id, regexp_extract_all(lower(text),'[0-9a-zA-Z]+') ts
             FROM documents),
sh AS (SELECT doc_id, CASE WHEN len(ts)>=3 THEN list_distinct(
        list_transform(generate_series(1,len(ts)-2),
                       i -> ts[i]||' '||ts[i+1]||' '||ts[i+2]))
       ELSE [] END AS ss FROM tok)
SELECT a.doc_id doc_id_a, b.doc_id doc_id_b,
 round(len(list_intersect(a.ss,b.ss))::DOUBLE
       / len(list_distinct(list_concat(a.ss,b.ss))),6) jaccard
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE len(a.ss)>0 AND len(b.ss)>0
 AND len(list_intersect(a.ss,b.ss))::DOUBLE
     / len(list_distinct(list_concat(a.ss,b.ss))) >= 0.9
"""
    ).df().sort_values(["doc_id_a", "doc_id_b"]).reset_index(drop=True)
    assert len(got) > 10, "expected planted near-dups"
    assert got.doc_id_a.tolist() == exp.doc_id_a.tolist()
    assert got.doc_id_b.tolist() == exp.doc_id_b.tolist()
    assert np.allclose(got.jaccard, exp.jaccard, atol=1e-6)


def test_simhash_neardup_finds_planted(docs):
    from bern_ray.functions.dedup import minhash_neardup, simhash_neardup

    sh = simhash_neardup(docs, max_hamming=3).to_pandas()
    mh = minhash_neardup(docs, threshold=0.9).to_pandas()
    sh_pairs = set(zip(sh.doc_id_a, sh.doc_id_b))
    mh_pairs = set(zip(mh.doc_id_a, mh.doc_id_b))
    # simhash at hamming<=3 should recover most strong near-dups
    assert len(sh_pairs & mh_pairs) >= len(mh_pairs) * 0.3
    # and every simhash pair must be a genuinely similar doc pair
    assert (sh.hamming <= 3).all()


def test_embedding_neardup_symmetric_threshold(ray_session):
    import ray.data

    from bern_ray.functions.dedup import embedding_neardup

    embs = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    out = embedding_neardup(embs, threshold=0.4).to_pandas()
    assert (out.vec_id_a < out.vec_id_b).all()
    assert (out.cos_sim >= 0.4 - 1e-9).all()
    assert not out.duplicated(["vec_id_a", "vec_id_b"]).any()


def test_embedding_neardup_ivf_matches_bruteforce(ray_session):
    """The IVF-bucketed scale path must find the SAME pairs as brute
    force on a separable corpus (near-dup twins share nearest cells).
    Forced via max_bruteforce_rows=0 on one side."""
    import ray.data

    from bern_ray.functions.dedup import embedding_neardup

    rng = np.random.default_rng(3)
    d, n_groups, per = 16, 30, 4
    dirs = rng.normal(size=(n_groups, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vecs, ids = [], []
    vid = 0
    for gi in range(n_groups):
        for _ in range(per):
            v = dirs[gi] + 0.02 * rng.normal(size=d)
            vecs.append((v / np.linalg.norm(v)).astype(np.float32))
            ids.append(vid)
            vid += 1
    t = pa.table(
        {
            "vec_id": pa.array(ids, type=pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in vecs], type=pa.list_(pa.float32())
            ),
        }
    )
    ds = ray.data.from_arrow(t).repartition(4).materialize()
    brute = (
        embedding_neardup(ds, threshold=0.95)
        .to_pandas()
        .sort_values(["vec_id_a", "vec_id_b"])
        .reset_index(drop=True)
    )
    ivf = (
        embedding_neardup(
            ds, threshold=0.95, max_bruteforce_rows=0, n_cells=8, n_probe=2
        )
        .to_pandas()
        .sort_values(["vec_id_a", "vec_id_b"])
        .reset_index(drop=True)
    )
    assert len(brute) > 0
    import pandas as pd

    pd.testing.assert_frame_equal(brute, ivf, check_dtype=False)


def _dup_band_corpus():
    """60 exact copies of one boilerplate doc + 3 distinct docs + one
    near-dup pair — every band of the boilerplate class has 60
    members, far over the forced cap of 8."""
    boiler = "breaking news the quick brown fox jumps over the lazy dog today again"
    base = (
        "completely different alpha beta gamma delta epsilon zeta eta "
        "theta iota kappa lambda omicron pi rho sigma tau upsilon phi "
        "chi psi omega one two three four five six "
    )
    # 30 tokens, single final-token edit -> jaccard 27/29 ~ 0.931
    near_a = base + "seven"
    near_b = base + "eight"
    texts = [boiler] * 60 + [
        near_a,
        near_b,
        "unrelated lorem ipsum dolor sit amet consectetur adipiscing elit",
        "another standalone document with its own vocabulary entirely",
    ]
    return pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )


def test_band_cap_emits_linear_pairs(ray_session):
    """An oversized duplicate band emits O(n) pairs (the star over the
    exact-duplicate class), never O(n^2) — and every emitted pair still
    verifies at jaccard 1.0."""
    import ray.data

    from bern_ray.functions.dedup import minhash_neardup

    ds = ray.data.from_arrow(_dup_band_corpus()).repartition(3)
    capped = minhash_neardup(ds, threshold=0.9, band_cap=8).to_pandas()
    # the 60-member class yields exactly 59 star pairs (plus the one
    # planted near-dup pair), NOT 60*59/2 = 1770
    n_class_pairs = len(capped[capped.doc_id_a < 60])
    assert n_class_pairs == 59, n_class_pairs
    assert (capped[capped.doc_id_a < 60].jaccard == 1.0).all()
    assert (60, 61) in set(zip(capped.doc_id_a, capped.doc_id_b))


def test_band_cap_clusters_identical(ray_session):
    """dedup_clusters over the capped path equals the uncapped path —
    the spanning star preserves component structure."""
    import ray.data

    from bern_ray.functions.dedup import dedup_clusters

    t = _dup_band_corpus()

    def run(cap):
        ds = ray.data.from_arrow(t).repartition(3)
        out = dedup_clusters(ds, threshold=0.9, band_cap=cap).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    capped = run(8)
    full = run(None)
    import pandas as pd

    pd.testing.assert_frame_equal(capped, full, check_dtype=False)
    # the boilerplate class is one component rooted at doc 0
    assert (capped[capped.doc_id < 60].cluster_id == 0).all()


def test_duplicated_spans_planted(ray_session):
    """Planted shared 10-token run across two docs -> one maximal
    island per doc covering exactly the run; unique docs emit nothing;
    a within-doc repeat also counts (corpus count >= 2)."""
    import ray.data

    from bern_ray.functions.dedup import duplicated_spans

    run = " ".join(f"shared{i}" for i in range(10))  # 10 tokens
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                [
                    f"alpha beta {run} gamma delta",
                    f"one two three four {run} five",
                    "entirely unique words nowhere repeated at all here",
                    # within-doc repeat: the same 8-token run twice
                    " ".join(f"w{i}" for i in range(8))
                    + " xx "
                    + " ".join(f"w{i}" for i in range(8)),
                ]
            ),
        }
    )
    got = (
        duplicated_spans(ray.data.from_arrow(t), k=8)
        .to_pandas()
        .sort_values(["doc_id", "start_tok"])
        .reset_index(drop=True)
    )
    rows = list(
        got[["doc_id", "start_tok", "end_tok", "n_windows"]].itertuples(
            index=False, name=None
        )
    )
    # doc 1: run at tokens 2..11 -> 3 windows (10-8+1), island 2..11
    # doc 2: run at tokens 4..13 -> island 4..13
    # doc 4: w0..w7 at 0..7 and 9..16 (xx at 8) -> two islands
    assert rows == [
        (1, 2, 11, 3),
        (2, 4, 13, 3),
        (4, 0, 7, 1),
        (4, 9, 16, 1),
    ]


def test_duplicated_spans_short_and_empty_docs(ray_session):
    """Docs with < k tokens (or no text) produce no windows and never
    crash the buffer kernels."""
    import ray.data

    from bern_ray.functions.dedup import duplicated_spans

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(["a b c", None, ""]),
        }
    )
    assert duplicated_spans(ray.data.from_arrow(t), k=8).count() == 0


def test_duplicated_spans_matches_duckdb_oracle(ray_session):
    """Value-identical to the gram-text SQL oracle on the real table
    (the digest regime differs only on ~n^2/2^64 collisions)."""
    import duckdb

    from bern_ray.pipelines.relational import (
        SQL_DUPLICATED_SPANS,
        q_duplicated_spans,
    )

    got = (
        q_duplicated_spans(SF)
        .to_pandas()
        .sort_values(["doc_id", "start_tok"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'"
    )
    exp = (
        con.sql(SQL_DUPLICATED_SPANS)
        .df()
        .sort_values(["doc_id", "start_tok"])
        .reset_index(drop=True)
    )
    assert len(got) == len(exp) and len(got) > 0
    for c in ["doc_id", "start_tok", "end_tok", "n_windows"]:
        assert got[c].tolist() == exp[c].tolist(), c


def _naive_islands(doc_texts: dict[int, str], k: int):
    """Pure-Python reference for duplicated_spans: regex tokens,
    gram-text window equality, island merge of consecutive indices."""
    import re
    from collections import Counter

    toks = {
        d: re.findall(r"[0-9a-zA-Z]+", (s or "").lower())
        for d, s in doc_texts.items()
    }
    grams: Counter = Counter()
    for ts in toks.values():
        for i in range(len(ts) - k + 1):
            grams[tuple(ts[i : i + k])] += 1
    out = []
    for d in sorted(toks):
        ts = toks[d]
        idxs = [
            i
            for i in range(len(ts) - k + 1)
            if grams[tuple(ts[i : i + k])] >= 2
        ]
        run: list[int] = []
        for i in idxs + [None]:
            if run and (i is None or i > run[-1] + 1):
                out.append((d, run[0], run[-1] + k - 1, len(run)))
                run = []
            if i is not None:
                run.append(i)
    return sorted(out)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.sampled_from("aa bb cc dd ee ff".split()),
            min_size=0,
            max_size=24,
        ),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=2, max_value=4),
)
def test_duplicated_spans_kernel_fuzz(token_lists, k):
    """The window-digest + two-kernel pipeline (run eagerly on one
    batch, no Ray) matches a pure-Python gram-text reference on random
    tiny-alphabet corpora — the regime where repeated windows, island
    merges and cross-doc boundaries all collide at once."""
    import numpy as np

    from bern_ray.functions.dedup import _window_rows
    from bern_ray.stages.bucketed import segments

    t = pa.table(
        {
            "doc_id": pa.array(
                list(range(len(token_lists))), type=pa.int64()
            ),
            "text": pa.array([" ".join(ts) for ts in token_lists]),
        }
    )
    inv = _window_rows(t, k)
    h = inv["h"].to_numpy(zero_copy_only=False)
    order = np.argsort(h, kind="stable")
    _, sizes = segments(h[order])
    kept = order[np.repeat(sizes >= 2, sizes)]
    d = inv["doc_id"].to_numpy(zero_copy_only=False)[kept]
    i = inv["idx"].to_numpy(zero_copy_only=False)[kept]
    o = np.lexsort((i, d))
    d, i = d[o], i[o]
    got = []
    if len(d):
        brk = np.r_[True, (d[1:] != d[:-1]) | (i[1:] - i[:-1] > 1)]
        starts = np.flatnonzero(brk)
        szs = np.diff(np.append(starts, len(d)))
        got = sorted(
            zip(
                d[starts].tolist(),
                i[starts].tolist(),
                (i[starts + szs - 1] + k - 1).tolist(),
                szs.tolist(),
            )
        )
    exp = _naive_islands(
        {j: " ".join(ts) for j, ts in enumerate(token_lists)}, k
    )
    assert got == exp


def test_remove_duplicated_spans_planted(ray_session):
    """Cleaning drops exactly the island tokens: a fully-duplicated
    doc empties out, partial overlaps keep their unique flanks, docs
    with no text still emit a row."""
    import ray.data

    from bern_ray.functions.dedup import remove_duplicated_spans

    run = " ".join(f"s{i}" for i in range(8))  # exactly one window
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                [run, f"left flank {run} right flank", None, "tiny doc"]
            ),
        }
    )
    got = (
        remove_duplicated_spans(ray.data.from_arrow(t), k=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    rows = list(
        got[["doc_id", "n_tokens", "n_kept", "clean_text"]].itertuples(
            index=False, name=None
        )
    )
    assert rows == [
        (1, 8, 0, ""),
        (2, 12, 4, "left flank right flank"),
        (3, 0, 0, ""),
        (4, 2, 2, "tiny doc"),
    ]


def test_duplicated_spans_prefilter_identical(ray_session):
    """The Bloom prefilter changes COST only: output bit-identical to
    the unfiltered path on the real table, and it genuinely pruned
    hapax windows (counter observed)."""
    import pandas as pd
    import ray.data

    from bern_ray.functions.dedup import duplicated_spans
    from bern_ray.state import counters

    docs = ray.data.read_parquet(f"{SF}/documents.parquet")

    def run(**kw):
        return (
            duplicated_spans(docs, k=8, **kw)
            .to_pandas()
            .sort_values(["doc_id", "start_tok"])
            .reset_index(drop=True)
        )

    base = run()
    counters.reset()
    pre = run(prefilter_bits=1 << 20)
    pd.testing.assert_frame_equal(base, pre, check_dtype=False)
    assert len(base) > 0
    assert counters.snapshot().get("substring_windows_pruned", 0) > 0


def test_consensus_is_intersection_of_methods(ray_session):
    """consensus_neardup == (jaccard>=0.8 pairs) ∩ (hamming<=3 pairs),
    carrying both scores — on the oracle doc subset at sf0.001."""
    from bern_ray.pipelines.relational import (
        q_consensus_neardup,
        q_ngram_jaccard_neardup,
        q_simhash_neardup,
    )

    sf = "/root/testdata/sf0.001"
    cons = q_consensus_neardup(sf).to_pandas()
    jac = q_ngram_jaccard_neardup(sf).to_pandas()
    sim = q_simhash_neardup(sf).to_pandas()
    jset = {
        (r.doc_id_a, r.doc_id_b): r.jaccard for r in jac.itertuples()
    }
    sset = {
        (r.doc_id_a, r.doc_id_b): r.hamming for r in sim.itertuples()
    }
    expect = set(jset) & set(sset)
    got = {(r.doc_id_a, r.doc_id_b) for r in cons.itertuples()}
    assert got == expect
    for r in cons.itertuples():
        k = (r.doc_id_a, r.doc_id_b)
        assert r.jaccard == jset[k]
        assert r.hamming == sset[k]


def test_setsim_equals_minhash_exact_regime(docs):
    """setsim (exact prefix filter) and minhash (LSH, cap=None) are
    both provably/near-certainly the all-pairs Jaccard set at the same
    threshold, so their outputs must be identical on the real table."""
    import pandas as pd

    from bern_ray.functions.dedup import minhash_neardup, setsim_neardup

    ss = (
        setsim_neardup(docs, threshold=0.9)
        .to_pandas()
        .sort_values(["doc_id_a", "doc_id_b"])
        .reset_index(drop=True)
    )
    mh = (
        minhash_neardup(docs, threshold=0.9)
        .to_pandas()
        .sort_values(["doc_id_a", "doc_id_b"])
        .reset_index(drop=True)
    )
    assert len(ss) > 10
    pd.testing.assert_frame_equal(ss, mh, check_dtype=False)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=-(2**62), max_value=2**62),
            min_size=0,
            max_size=20,
        ),
        min_size=2,
        max_size=12,
    )
)
def test_setsim_prefix_lemma_fuzz(token_sets):
    """Prefix lemma, ALL measures: for ANY pair with sim >= t, the
    per-doc prefixes (p = n - ceil(c*n) + 1 under the global uint64
    order, c = the measure's overlap coefficient) share at least one
    token — so the inverted-index candidate set is a superset of the
    true pair set. Checked on random int sets via the production
    kernel (_prefix_rows)."""
    from bern_ray.functions.dedup import _SETSIM_MEASURES, _prefix_rows

    t = 0.8
    sets = [
        np.unique(np.asarray(s, dtype=np.int64).view(np.uint64)).view(
            np.int64
        )
        for s in token_sets
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(sets)), type=pa.int64()),
            "tok": pa.array(
                [s.tolist() for s in sets], type=pa.list_(pa.int64())
            ),
        }
    )
    import math

    for sim, m in _SETSIM_MEASURES.items():
        if sim == "overlap":
            continue  # absolute threshold: own lemma fuzz below
        coef = m["alpha_coef"](t)
        out = _prefix_rows(tbl, coef)
        prefixes: dict[int, set] = {i: set() for i in range(len(sets))}
        for tok, did in zip(
            out["tok"].to_pylist(), out["doc_id"].to_pylist()
        ):
            prefixes[did].add(tok)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                a, b = set(sets[i].tolist()), set(sets[j].tolist())
                if not a or not b:
                    continue
                inter = len(a & b)
                if sim == "jaccard":
                    score = inter / len(a | b)
                elif sim == "cosine":
                    score = inter / math.sqrt(len(a) * len(b))
                else:
                    score = 2 * inter / (len(a) + len(b))
                if score >= t:
                    assert prefixes[i] & prefixes[j], (
                        f"qualifying pair ({i},{j}) {sim}={score} "
                        "missed by prefix filter"
                    )


def test_setsim_posting_cap_counter(ray_session):
    """An oversized posting list under posting_cap switches to the
    spanning emission and REPORTS the elision (SURVEY §7.5)."""
    import ray.data

    from bern_ray.functions.dedup import setsim_neardup
    from bern_ray.state import counters

    # 40 identical docs: every prefix token's posting list has 40 docs
    docs = ray.data.from_items(
        [
            {"doc_id": i, "text": "alpha beta gamma delta epsilon zeta"}
            for i in range(40)
        ]
    )
    counters.reset()
    out = setsim_neardup(docs, threshold=0.9, posting_cap=8).to_pandas()
    snap = counters.snapshot()
    assert snap.get("setsim_postings_capped", 0) > 0
    assert snap.get("setsim_pairs_elided", 0) > 0
    # identical docs: every emitted spanning edge verifies at 1.0, so
    # the CC closure is intact even though the inventory is capped
    assert (out.jaccard == 1.0).all()
    ids = set(out.doc_id_a) | set(out.doc_id_b)
    assert ids == set(range(40))


def test_setsim_join_matches_bruteforce(docs):
    """R-S prefix-filtered join == DuckDB all-cross-pairs jaccard at
    0.7 (even ids vs odd ids)."""
    import duckdb

    from bern_ray.pipelines.relational import (
        SQL_CROSS_CORPUS_NEARDUP,
        q_cross_corpus_neardup,
    )

    got = (
        q_cross_corpus_neardup(SF)
        .to_pandas()
        .sort_values(["doc_id_a", "doc_id_b"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    exp = (
        con.sql(SQL_CROSS_CORPUS_NEARDUP)
        .df()
        .sort_values(["doc_id_a", "doc_id_b"])
        .reset_index(drop=True)
    )
    assert len(got) > 5
    assert got.doc_id_a.tolist() == exp.doc_id_a.tolist()
    assert got.doc_id_b.tolist() == exp.doc_id_b.tolist()
    assert np.allclose(got.jaccard, exp.jaccard, atol=1e-6)
    assert (got.doc_id_a % 2 == 0).all() and (got.doc_id_b % 2 == 1).all()


def test_setsim_join_cap_counter(ray_session):
    """posting_cap truncates an oversized R-S posting list and reports
    the elision; cap=None on the same input is the exact cross set."""
    import ray.data

    from bern_ray.functions.dedup import setsim_join
    from bern_ray.state import counters

    text = "alpha beta gamma delta epsilon zeta"
    r = ray.data.from_items(
        [{"doc_id": i, "text": text} for i in range(0, 20)]
    )
    s = ray.data.from_items(
        [{"doc_id": i, "text": text} for i in range(100, 120)]
    )
    exact = setsim_join(r, s, threshold=0.9).to_pandas()
    assert len(exact) == 20 * 20
    assert (exact.jaccard == 1.0).all()
    counters.reset()
    capped = setsim_join(r, s, threshold=0.9, posting_cap=16).to_pandas()
    snap = counters.snapshot()
    assert snap.get("setsim_rs_postings_capped", 0) > 0
    assert snap.get("setsim_rs_pairs_elided", 0) > 0
    assert 0 < len(capped) < 400
    assert (capped.jaccard == 1.0).all()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=-(2**62), max_value=2**62),
            min_size=0,
            max_size=20,
        ),
        min_size=2,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=6),
)
def test_setsim_abs_overlap_prefix_lemma_fuzz(token_sets, min_ov):
    """Absolute-overlap prefix lemma: any pair with |A∩B| >= T shares
    a token within both docs' first n - T + 1 tokens (global uint64
    order), via the production kernel (_prefix_rows_abs)."""
    from bern_ray.functions.dedup import _prefix_rows_abs

    sets = [
        np.unique(
            np.asarray(s, dtype=np.int64).view(np.uint64)
        ).view(np.int64)
        for s in token_sets
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(sets)), type=pa.int64()),
            "tok": pa.array(
                [s.tolist() for s in sets],
                type=pa.list_(pa.int64()),
            ),
        }
    )
    out = _prefix_rows_abs(tbl, min_ov)
    prefixes: dict[int, set] = {i: set() for i in range(len(sets))}
    for tok, did in zip(
        out["tok"].to_pylist(), out["doc_id"].to_pylist()
    ):
        prefixes[did].add(tok)
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a = set(sets[i].tolist())
            b = set(sets[j].tolist())
            if len(a & b) >= min_ov:
                assert prefixes[i] & prefixes[j]
    # docs shorter than T emit nothing (they can never qualify)
    for i, s_i in enumerate(sets):
        if len(s_i) < min_ov:
            assert not prefixes[i]


def test_setsim_overlap_join_matches_bruteforce(ray_session):
    import itertools

    import ray.data

    from bern_ray.functions.dedup import (
        _shingle_list_rows,
        setsim_overlap_join,
    )

    rng = np.random.default_rng(9)
    words = [f"w{k}" for k in range(30)]
    # families of near-duplicates: a base sequence per family, each
    # member mutates a couple of positions — members share long
    # shingle runs, cross-family pairs share almost none
    docs_rows = []
    i = 0
    for fam in range(5):
        base = rng.choice(words, size=15)
        for _ in range(5):
            seq = base.copy()
            for p in rng.integers(0, 15, size=rng.integers(0, 3)):
                seq[p] = rng.choice(words)
            docs_rows.append(
                {"doc_id": i, "text": " ".join(seq)}
            )
            i += 1
    docs = ray.data.from_items(docs_rows).repartition(3)
    T = 4
    got = {
        (int(a), int(b)): int(o)
        for a, b, o in setsim_overlap_join(docs, min_overlap=T)
        .to_pandas()[["doc_id_a", "doc_id_b", "overlap"]]
        .itertuples(index=False)
    }
    # brute force over the SAME shingle sets the kernel builds
    tbl = pa.table(
        {
            "doc_id": pa.array(
                [d["doc_id"] for d in docs_rows], type=pa.int64()
            ),
            "text": pa.array([d["text"] for d in docs_rows]),
        }
    )
    sh = _shingle_list_rows(tbl, 3)
    sets = {
        d: set(tk)
        for d, tk in zip(
            sh["doc_id"].to_pylist(), sh["tok"].to_pylist()
        )
    }
    want = {}
    for a, b in itertools.combinations(sorted(sets), 2):
        ov = len(sets[a] & sets[b])
        if ov >= T:
            want[(a, b)] = ov
    assert got == want and len(want) > 0


def test_setsim_positional_filter_output_preserving(ray_session):
    """PPJoin positional filter prunes emissions, never pairs: the
    positional and non-positional joins emit the identical pair set
    on a mixed near-dup corpus, and the pruned-emission counter
    fires."""
    import ray.data

    from bern_ray.functions.dedup import setsim_neardup
    from bern_ray.state import counters

    rng = np.random.default_rng(21)
    words = [f"w{k}" for k in range(40)]
    rows = []
    i = 0
    # size-DIVERSE families: members are prefixes of the base at
    # different lengths (plus small mutations), so shared-token
    # emissions exist between sets of very different sizes — the
    # regime where the positional bound actually prunes
    for fam in range(8):
        base = rng.choice(words, size=24)
        for ln in (24, 23, 16, 12):
            seq = base[:ln].copy()
            for p in rng.integers(0, ln, size=rng.integers(0, 2)):
                seq[p] = rng.choice(words)
            rows.append({"doc_id": i, "text": " ".join(seq)})
            i += 1
    docs = ray.data.from_items(rows).repartition(3)

    def run(positional):
        return sorted(
            (int(a), int(b), float(j))
            for a, b, j in setsim_neardup(
                docs, threshold=0.7, positional=positional
            )
            .to_pandas()[["doc_id_a", "doc_id_b", "jaccard"]]
            .itertuples(index=False)
        )

    counters.reset()
    with_pos = run(True)
    pruned = counters.snapshot().get("setsim_pos_pruned", 0)
    without = run(False)
    assert with_pos == without and len(with_pos) > 0
    assert pruned >= 1  # the filter actually did work


# ---- flat set verification and the pandas-free pair kernels (pure) ----


def _overlaps_loop(ta, tb):
    """The per-pair reference: one intersect1d per row, None as empty."""
    inter, na, nb = [], [], []
    for sa, sb in zip(ta, tb):
        sa = np.asarray(sa if sa is not None else [], dtype=np.int64)
        sb = np.asarray(sb if sb is not None else [], dtype=np.int64)
        inter.append(len(np.intersect1d(sa, sb, assume_unique=True)))
        na.append(len(sa))
        nb.append(len(sb))
    return inter, na, nb


def test_set_overlaps_match_per_pair_loop():
    from bern_ray.functions.dedup import _set_overlaps

    big = -(2**62)
    ta = [
        None,           # null vs set
        [1, 2, 3],
        [],             # empty vs set
        [4, 5],         # disjoint
        [7, 8, 9],      # identical
        [11],           # one element, shared
        [12],           # one element, not shared
        [big, -5, -1, 3, 2**62],  # negative int64 hashes (b unsorted)
        None,           # null vs null
        [],             # empty vs null
    ]
    tb = [
        [1, 2],
        None,
        [1],
        [6, 10],
        [7, 8, 9],
        [11],
        [13],
        [-5, 2**62, big, 0],
        None,
        None,
    ]
    typ = pa.list_(pa.int64())
    # split across chunks, as a joined batch can be
    col_a = pa.chunked_array([pa.array(ta[:4], typ), pa.array(ta[4:], typ)])
    col_b = pa.chunked_array([pa.array(tb[:7], typ), pa.array(tb[7:], typ)])
    inter, na, nb = _set_overlaps(col_a, col_b)
    want = _overlaps_loop(ta, tb)
    assert [inter.tolist(), na.tolist(), nb.tolist()] == [list(w) for w in want]
    assert inter.tolist() == [0, 0, 0, 0, 3, 1, 0, 3, 0, 0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.sets(st.integers(-(2**63), 2**63 - 1), max_size=6)),
            st.one_of(st.none(), st.sets(st.integers(-4, 4), max_size=6)),
        ),
        max_size=12,
    )
)
def test_set_overlaps_fuzz(rows):
    from bern_ray.functions.dedup import _set_overlaps

    ta = [sorted(a) if a is not None else None for a, _ in rows]
    tb = [sorted(b) if b is not None else None for _, b in rows]
    typ = pa.list_(pa.int64())
    inter, na, nb = _set_overlaps(
        pa.chunked_array([pa.array(ta, typ)]),
        pa.chunked_array([pa.array(tb, typ)]),
    )
    want = _overlaps_loop(ta, tb)
    assert [inter.tolist(), na.tolist(), nb.tolist()] == [list(w) for w in want]


def _pandas_prelude(t: pa.Table, keys: list[str]) -> pa.Table:
    """The pair kernels' former first step: pandas drop_duplicates, then
    a stable sort, back to Arrow."""
    g = t.to_pandas().drop_duplicates(keys)
    g = g.sort_values(keys, kind="mergesort").reset_index(drop=True)
    return pa.Table.from_pandas(g, schema=t.schema, preserve_index=False)


def _band_bucket() -> pa.Table:
    """Band rows with duplicate (band, doc) rows, ties, and one band of
    six docs (over a cap of 3) holding a three-doc duplicate class."""
    rows = [
        ("b:zz", 5, 50), ("b:aa", 3, 30), ("b:zz", 1, 10),
        ("b:aa", 3, 31),  # duplicate (band, doc): the first row stays
        ("b:Ab", 2, 20), ("b:aa", 1, 10), ("b:Ab", 4, 40),
        ("b:é", 7, 70), ("b:é", 6, 60),  # non-ASCII key
    ]
    # the oversized band: docs 20..22 share sig64 99, 23..25 differ
    big = [("b:big", d, 99) for d in (22, 20, 21)] + [
        ("b:big", 25, 250), ("b:big", 23, 230), ("b:big", 24, 240),
        ("b:big", 20, 77),  # duplicate inside the oversized band
    ]
    rows = rows[:4] + big + rows[4:]
    band, doc, sig = zip(*rows)
    return pa.table(
        {
            "band": pa.array(band, pa.string()),
            "doc_id": pa.array(doc, pa.int64()),
            "sig64": pa.array(sig, pa.int64()),
        }
    )


def _posting_bucket(with_side: bool) -> pa.Table:
    rows = [
        # tok, side, doc_id, nt, pos
        (9, 0, 4, 10, 0), (-3, 1, 8, 10, 1), (9, 1, 5, 9, 0),
        (9, 0, 4, 99, 5),  # duplicate (tok, side, doc): the first stays
        (-3, 0, 2, 11, 0), (9, 0, 1, 10, 2), (-3, 1, 7, 10, 0),
        (2**62, 0, 3, 12, 1), (-3, 0, 6, 10, 1), (9, 1, 5, 9, 0),
        (9, 0, 5, 9, 0),  # same doc on both sides of token 9
    ]
    tok, side, doc, nt, pos = zip(*rows)
    return pa.table(
        {
            "tok": pa.array(tok, pa.int64()),
            "doc_id": pa.array(doc, pa.int64()),
            "nt": pa.array(nt, pa.int64()),
            ("side" if with_side else "pos"): pa.array(
                side if with_side else pos, pa.int64()
            ),
        }
    )


def test_sorted_unique_matches_pandas_prelude():
    from bern_ray.functions.dedup import _sorted_unique

    for t, keys in (
        (_band_bucket(), ["band", "doc_id"]),
        (_posting_bucket(False), ["tok", "doc_id"]),
        (_posting_bucket(True), ["tok", "side", "doc_id"]),
    ):
        assert _sorted_unique(t, keys).equals(_pandas_prelude(t, keys))
        assert _sorted_unique(t.slice(0, 0), keys).num_rows == 0


def test_pair_kernels_match_pandas_prelude():
    """Each kernel gives the same table on the raw bucket as on the
    bucket already deduplicated and sorted the former pandas way."""
    from bern_ray.functions.dedup import (
        _band_pairs_bucket,
        _posting_pairs_abs_bucket,
        _posting_pairs_bucket,
        _posting_pairs_rs_bucket,
        _simhash_pairs_bucket,
    )

    band = _band_bucket()
    sim = band.rename_columns(["band", "doc_id", "sim"])
    post = _posting_bucket(False)
    rs = _posting_bucket(True)
    cases = [
        (_band_pairs_bucket(None), band, ["band", "doc_id"]),
        (_band_pairs_bucket(3), band, ["band", "doc_id"]),
        (_simhash_pairs_bucket(64), sim, ["band", "doc_id"]),
        (_posting_pairs_bucket(0.8, None), post.drop(["pos"]), ["tok", "doc_id"]),
        (_posting_pairs_bucket(0.8, None, True), post, ["tok", "doc_id"]),
        (_posting_pairs_bucket(0.5, 2, True), post, ["tok", "doc_id"]),
        (_posting_pairs_abs_bucket(10, None), post.drop(["pos"]), ["tok", "doc_id"]),
        (_posting_pairs_rs_bucket(0.8, None), rs, ["tok", "side", "doc_id"]),
        (_posting_pairs_rs_bucket(0.8, 1), rs, ["tok", "side", "doc_id"]),
    ]
    for kernel, t, keys in cases:
        got = kernel(t)
        assert got.equals(kernel(_pandas_prelude(t, keys)))
    # the capped band kernel collapsed the duplicate class to a star
    capped = _band_pairs_bucket(3)(band).to_pylist()
    assert {"doc_id_a": 20, "doc_id_b": 21} in capped
    assert {"doc_id_a": 20, "doc_id_b": 22} in capped
    assert {"doc_id_a": 21, "doc_id_b": 22} not in capped
    # the R-S token 9 pairs its side-0 docs with its side-1 doc
    rs_pairs = _posting_pairs_rs_bucket(0.8, None)(rs).to_pylist()
    assert {"doc_id_a": 4, "doc_id_b": 5} in rs_pairs
    assert {"doc_id_a": 5, "doc_id_b": 5} in rs_pairs


# ------------------------------------------------ int band keys, arms


def _string_band_rows(t: pa.Table, k: int = 3) -> pa.Table:
    """_minhash_band_rows with the former string band keys
    '{b}:{h:016x}' over the same signatures, so only the key differs."""
    from bern_ray.core.minhash import (
        _splitmix64,
        minhash_signatures,
        token_shingles,
    )
    from bern_ray.functions import dedup

    flat, starts = token_shingles(t["text"].to_pylist(), k=k)
    sig = minhash_signatures(flat, starts, num_perm=dedup.MINHASH_PERMS)
    keys = []
    for b in range(dedup.MINHASH_BANDS):
        h = np.zeros(t.num_rows, dtype=np.uint64)
        for r in range(dedup.MINHASH_ROWS):
            h = _splitmix64(h ^ sig[:, b * dedup.MINHASH_ROWS + r])
        keys.append(np.char.add(f"{b}:", np.char.mod("%016x", h)))
    rows = dedup._minhash_band_rows(t, k)
    band = pa.array(np.stack(keys, axis=1).ravel().tolist(), pa.string())
    return rows.set_column(0, "band", band)


@pytest.mark.parametrize("sf", [SF, "/root/testdata/sf0.01"])
def test_int_band_keys_give_the_string_keys_pairs(sf):
    """The int64 band key (band hash ^ per-band salt) groups exactly the
    docs the string key '{b}:{h:016x}' grouped: the same candidate
    pairs, uncapped and capped."""
    import pyarrow.parquet as pq

    from bern_ray.functions.dedup import (
        DEFAULT_BAND_CAP,
        _band_pairs_bucket,
        _minhash_band_rows,
        _sorted_unique,
    )

    t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    rows = _minhash_band_rows(t, 3)
    assert rows["band"].type == pa.int64()
    assert rows.num_rows == 32 * t.num_rows
    strings = _string_band_rows(t)
    keys = ["doc_id_a", "doc_id_b"]
    for cap in (None, 3, DEFAULT_BAND_CAP):
        kernel = _band_pairs_bucket(cap)
        got = _sorted_unique(kernel(rows), keys)
        assert got.num_rows > 0
        assert got.equals(_sorted_unique(kernel(strings), keys))


def _edge_case_docs() -> pa.Table:
    """Empty texts, texts shorter than k = 3 tokens, an exact-duplicate
    class of five long texts (every band of it all-duplicate, over a
    band cap of 3) and near-dup variants one token apart."""
    base = (
        "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda "
        "mu nu xi omicron pi rho sigma tau upsilon phi chi psi omega "
    )
    boiler = "the quick brown fox jumps over the lazy dog once more today"
    texts = {
        1: "",
        2: "two tokens",
        3: "",
        4: "Two Tokens",
        5: "one",
        **{10 + i: boiler for i in range(5)},
        20: base + "one",
        21: base + "two",
        22: base + "three",
        23: base,
        30: "an unrelated document with words of its very own here",
    }
    return pa.table(
        {
            "doc_id": pa.array(list(texts), pa.int64()),
            "text": pa.array(list(texts.values()), pa.string()),
        }
    )


def _arm_cases():
    from bern_ray.functions import dedup

    return {
        "exact": lambda d: dedup.exact_dedup(d),
        "minhash": lambda d: dedup.minhash_neardup(d),
        "minhash_capped": lambda d: dedup.minhash_neardup(d, band_cap=3),
        **{
            f"setsim_{sim}_{pos}": (
                lambda d, sim=sim, pos=pos: dedup.setsim_neardup(
                    d, 0.8, sim=sim, positional=pos
                )
            )
            for sim in ("jaccard", "cosine", "dice")
            for pos in (True, False)
        },
    }


@pytest.mark.parametrize("corpus", ["sf0.001", "edge_cases"])
def test_both_neardup_arms_give_the_same_rows(ray_session, monkeypatch, corpus):
    """exact_dedup, minhash_neardup (capped and not) and setsim_neardup
    (each measure, positional filter on and off) give the same rows,
    the same column types and the same cap counters with every driver
    arm (bound 2^40) and with none (bound 0)."""
    import ray.data

    from bern_ray.stages import partitions
    from bern_ray.state import counters

    if corpus == "sf0.001":
        docs = ray.data.read_parquet(f"{SF}/documents.parquet")
    else:
        docs = ray.data.from_arrow(_edge_case_docs()).repartition(3)
    docs = docs.materialize()
    for name, op in _arm_cases().items():
        got = []
        for bound in (0, 1 << 40):
            monkeypatch.setattr(partitions, "DRIVER_BYTES", bound)
            counters.reset()
            out = op(docs).materialize()
            t = pa.concat_tables(
                out.iter_batches(batch_format="pyarrow", batch_size=None)
            )
            keys = t.column_names[:1] if name == "exact" else t.column_names[:2]
            got.append((t.sort_by([(k, "ascending") for k in keys]),
                        counters.snapshot()))
        (t0, c0), (t1, c1) = got
        assert t0.num_rows > 0, name
        assert t0.equals(t1), name
        assert c0 == c1, name
        if name == "minhash_capped":
            assert c0.get("minhash_bands_capped", 0) > 0
    if corpus == "edge_cases":
        # the five-copy class is one exact group led by doc 10
        exact = _arm_cases()["exact"](docs).to_pandas()
        assert sorted(exact.n_dups.tolist())[-1] == 5
        assert 10 in exact.rep_doc_id.tolist()


@pytest.mark.parametrize("bound, shuffled", [(None, False), (0, True)])
def test_neardup_arms(ray_session, monkeypatch, bound, shuffled):
    """At the default bound the three near-dup-pass operators on sf0.001
    run no bucketed_apply, no bucket_join and no Dataset.groupby; with
    the bound at 0 each runs its shuffles."""
    import ray.data

    from bern_ray.functions import dedup
    from bern_ray.stages import join, partitions

    calls = []
    real_apply, real_join = dedup.bucketed_apply, join.bucket_join
    real_groupby = ray.data.Dataset.groupby

    def bucketed_apply(ds, key, *args, **kwargs):
        calls.append(("bucketed_apply", key))
        return real_apply(ds, key, *args, **kwargs)

    def bucket_join(*args, **kwargs):
        calls.append(("bucket_join", kwargs["left_on"]))
        return real_join(*args, **kwargs)

    def groupby(self, key, *args, **kwargs):
        calls.append(("groupby", key))
        return real_groupby(self, key, *args, **kwargs)

    monkeypatch.setattr(dedup, "bucketed_apply", bucketed_apply)
    monkeypatch.setattr(join, "bucket_join", bucket_join)
    monkeypatch.setattr(ray.data.Dataset, "groupby", groupby)
    if bound is not None:
        monkeypatch.setattr(partitions, "DRIVER_BYTES", bound)
    docs = ray.data.read_parquet(f"{SF}/documents.parquet")
    dedup.exact_dedup(docs).materialize()
    dedup.minhash_neardup(docs, band_cap=dedup.DEFAULT_BAND_CAP).materialize()
    dedup.setsim_neardup(docs, 0.85).materialize()
    want = {
        ("groupby", "content_md5"),
        ("bucketed_apply", "band"),
        ("bucketed_apply", "tok"),
        ("bucket_join", "doc_id_a"),
        ("bucket_join", "doc_id_b"),
    }
    if shuffled:
        assert want <= set(calls)
    else:
        assert calls == []
