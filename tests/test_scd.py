"""Inverted index and token bigrams: planted-data pins."""

import numpy as np
import pandas as pd

from bern_ray.pipelines.relational import q_inverted_index


def test_inverted_index_postings(ray_session, tmp_path):
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5, 6],
            "text": [
                "alpha beta", "beta gamma", "Alpha beta",
                "beta", "beta alpha beta", "alpha",
            ],
            "lang": "en",
            "source": "s",
            "n_chars": 10,
        }
    )
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    out = q_inverted_index(str(tmp_path)).to_pandas()
    idx = {r.token: (r.df, list(r.postings)) for r in out.itertuples()}
    # min_df=5: beta appears in 5 docs, alpha in 4, gamma in 1
    assert set(idx) == {"beta"}
    assert idx["beta"] == (5, [1, 2, 3, 4, 5])  # sorted, deduped


def test_token_bigrams_planted(ray_session, tmp_path):
    from bern_ray.pipelines.relational import (
        BIGRAM_MIN,
        q_token_bigrams,
    )

    # "a b" appears BIGRAM_MIN times across docs; "b c" only once;
    # doc boundary between docs 1/2 must not fuse "x" + "y"
    docs = ["a b " * BIGRAM_MIN, "x", "y c b"]
    df = pd.DataFrame(
        {
            "doc_id": np.arange(1, len(docs) + 1, dtype=np.int64),
            "text": docs,
            "lang": "en",
            "source": "s",
            "n_chars": 10,
        }
    )
    df.to_parquet(tmp_path / "documents.parquet", index=False)
    out = q_token_bigrams(str(tmp_path)).to_pandas()
    got = {(r.prev_tok, r.next_tok): r.n for r in out.itertuples()}
    # "a b"xN and the N-1 "b a" wraps survive only if >= threshold
    assert got[("a", "b")] == BIGRAM_MIN
    assert ("x", "y") not in got and ("b", "c") not in got
    assert all(n >= BIGRAM_MIN for n in got.values())
