"""Text-analysis operators over the `documents` table.

Large-scale training-data-pipeline ops (task brief): language ID,
quality scoring, token counting, content fingerprinting. Every
operator is a vectorized `map_batches` stage; each has a matching
DuckDB oracle expression (RE2 regex semantics on both sides — pyarrow
and DuckDB both use RE2, so `\\b` word boundaries agree).

Tokenization rule (frozen, shared with minhash shingling and the
token-frequency builder): tokens = maximal runs of [0-9a-zA-Z],
lowercased.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..core.strhash import _as_string_array, _token_h64  # noqa: F401

TOKEN_RE = "[0-9a-zA-Z]+"

# tiny deterministic stopword inventories for the n-gram-free langid
# heuristic; overlaps are fine — scoring is deterministic on both sides
LANG_STOPWORDS = {
    "en": ["the", "and", "of", "to", "is"],
    "de": ["der", "die", "das", "und", "ist"],
    "es": ["el", "los", "las", "de", "y"],
    "fr": ["le", "les", "et", "dans", "pour"],
}
EN_STOPWORDS = ["the", "a", "and", "of", "to", "is", "in"]


def _word_re(words: list[str]) -> str:
    return r"\b(" + "|".join(words) + r")\b"


def doc_stats_batch(t: pa.Table) -> pa.Table:
    """Per-doc token/quality statistics (all pyarrow.compute kernels)."""
    text = t["text"]
    lower = pc.utf8_lower(text)
    n_chars = pc.utf8_length(text)
    n_tokens = pc.count_substring_regex(lower, TOKEN_RE)
    alnum_chars = pc.count_substring_regex(lower, "[0-9a-z]")
    punct_chars = pc.count_substring_regex(lower, "[^0-9a-zA-Z ]")
    n_stop = pc.count_substring_regex(lower, _word_re(EN_STOPWORDS))
    nt = pc.cast(n_tokens, pa.float64())
    nc = pc.max_element_wise(pc.cast(n_chars, pa.float64()), 1.0)
    mean_tok_len = pc.round(
        pc.divide(
            pc.cast(alnum_chars, pa.float64()),
            pc.max_element_wise(nt, 1.0),
        ),
        ndigits=6,
    )
    stop_ratio = pc.round(
        pc.divide(pc.cast(n_stop, pa.float64()), pc.max_element_wise(nt, 1.0)),
        ndigits=6,
    )
    punct_ratio = pc.round(
        pc.divide(pc.cast(punct_chars, pa.float64()), nc), ndigits=6
    )
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "n_chars": pc.cast(n_chars, pa.int64()),
            "n_tokens": pc.cast(n_tokens, pa.int64()),
            "mean_tok_len": mean_tok_len,
            "stop_ratio": stop_ratio,
            "punct_ratio": punct_ratio,
        }
    )


def doc_stats_sql() -> str:
    return f"""
SELECT doc_id,
       length(text)::BIGINT AS n_chars,
       len(regexp_extract_all(lower(text), '{TOKEN_RE}'))::BIGINT AS n_tokens,
       round(len(regexp_extract_all(lower(text), '[0-9a-z]'))::DOUBLE
             / greatest(len(regexp_extract_all(lower(text), '{TOKEN_RE}')), 1), 6) AS mean_tok_len,
       round(len(regexp_extract_all(lower(text), '\\b({"|".join(EN_STOPWORDS)})\\b'))::DOUBLE
             / greatest(len(regexp_extract_all(lower(text), '{TOKEN_RE}')), 1), 6) AS stop_ratio,
       round(len(regexp_extract_all(lower(text), '[^0-9a-zA-Z ]'))::DOUBLE
             / greatest(length(text), 1), 6) AS punct_ratio
FROM documents
"""


def langid_batch(t: pa.Table) -> pa.Table:
    """Stopword-vote language ID; deterministic fixed tie-break order."""
    lower = pc.utf8_lower(t["text"])
    scores = {
        lang: pc.count_substring_regex(lower, _word_re(ws))
        for lang, ws in LANG_STOPWORDS.items()
    }
    n = t.num_rows
    best = np.full(n, "und", dtype=object)
    best_score = np.zeros(n, dtype=np.int64)
    for lang in ["en", "de", "es", "fr"]:  # fixed priority order
        sc = scores[lang].to_numpy(zero_copy_only=False).astype(np.int64)
        take = sc > best_score
        best[take] = lang
        best_score[take] = sc[take]
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "pred_lang": pa.array(best.tolist(), type=pa.string()),
            "vote_score": pa.array(best_score, type=pa.int64()),
        }
    )


def langid_sql() -> str:
    def cnt(lang):
        return (
            f"len(regexp_extract_all(lower(text), "
            f"'\\b({'|'.join(LANG_STOPWORDS[lang])})\\b'))"
        )

    return f"""
SELECT doc_id,
       CASE
         WHEN {cnt('en')} >= {cnt('de')} AND {cnt('en')} >= {cnt('es')}
              AND {cnt('en')} >= {cnt('fr')} AND {cnt('en')} > 0 THEN 'en'
         WHEN {cnt('de')} >= {cnt('es')} AND {cnt('de')} >= {cnt('fr')}
              AND {cnt('de')} > 0 THEN 'de'
         WHEN {cnt('es')} >= {cnt('fr')} AND {cnt('es')} > 0 THEN 'es'
         WHEN {cnt('fr')} > 0 THEN 'fr'
         ELSE 'und'
       END AS pred_lang,
       greatest({cnt('en')}, {cnt('de')}, {cnt('es')}, {cnt('fr')})::BIGINT
         AS vote_score
FROM documents
"""


def fingerprint_batch(t: pa.Table) -> pa.Table:
    """Content fingerprint: md5 of the folded text (exact-dup key).

    Per-row hashlib on bytes — IO-bound stages dominate this cost; a
    rolling-hash shingle fingerprint lives in core/minhash.simhash.
    """
    from ..core.fold import fold_text

    folded = fold_text(t["text"])
    fps = [
        hashlib.md5(s.encode("utf-8")).hexdigest()
        for s in folded.to_pylist()
    ]
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "content_md5": pa.array(fps, type=pa.string()),
        }
    )


def token_freq(
    docs: "ray.data.Dataset", min_count: int = 50
) -> "ray.data.Dataset":
    """Token frequency with threshold — the reference's freq-dict
    builder (gene_auxiliary_normalizer.py:46-60: groupby mention ->
    count -> threshold) at corpus scale.

    Pre-aggregates counts per batch (partial combine) so the shuffle
    moves one row per (batch, token), not one per occurrence. The
    batch kernel is one Arrow RE2 split + one C++ value_counts.
    """

    def partial(t: pa.Table) -> pa.Table:
        _, toks = _explode_tokens(t["text"])
        vc = pc.value_counts(toks)
        return pa.table(
            {
                "token": vc.field("values"),
                "partial": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    agg = docs.map_batches(partial, batch_format="pyarrow").groupby(
        "token"
    ).sum("partial")
    return agg.map_batches(
        lambda t: pa.table(
            {"token": t["token"], "cnt": t["sum(partial)"]}
        ).filter(pc.greater_equal(t["sum(partial)"], min_count)),
        batch_format="pyarrow",
    )


def token_freq_sql(min_count: int = 50) -> str:
    return f"""
SELECT token, count(*)::BIGINT AS cnt
FROM (
  SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS token
  FROM documents
)
GROUP BY token
HAVING count(*) >= {min_count}
"""


# BPE-style pre-tokenizer (GPT-2 pattern family, RE2-compatible: no
# lookahead, contractions + letter runs + digit runs + punct runs +
# whitespace runs). Arrow's count_substring_regex and DuckDB's
# regexp_extract_all both compile RE2, so the Ray side and the oracle
# share one pattern verbatim — the count is definitionally identical.
BPE_RE = "'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 ]+| +"


def token_count_batch(t: pa.Table) -> pa.Table:
    """Per-doc token counts: whitespace tokens and BPE-ish subword
    pre-tokens (the two denominators an LLM-corpus budget uses)."""
    text = t["text"]
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "n_ws_tokens": pc.cast(
                pc.count_substring_regex(text, "[^ ]+"), pa.int64()
            ),
            "n_bpe_tokens": pc.cast(
                pc.count_substring_regex(text, BPE_RE), pa.int64()
            ),
        }
    )


def token_count_sql() -> str:
    return f"""
SELECT doc_id,
       len(regexp_extract_all(text, '[^ ]+'))::BIGINT AS n_ws_tokens,
       len(regexp_extract_all(text, '{BPE_RE.replace("'", "''")}'))::BIGINT AS n_bpe_tokens
FROM documents
"""


def repetition_batch(t: pa.Table) -> pa.Table:
    """Gopher-style repetition signals per doc (Rae et al. 2021,
    public): top_bigram_frac = share of bigrams taken by the most
    frequent one; dup_word_frac = share of tokens whose word occurs
    more than once. Fully vectorized: one dictionary-encode of the
    flattened token lists, then lexsort + run-length segmentation —
    no per-row Python. Single-token docs emit 0.0 for the bigram
    fraction (the oracle COALESCEs to match)."""
    toks = pc.split_pattern(t["text"], " ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    n = len(toks)
    flat = toks.flatten()
    codes = pc.dictionary_encode(flat).indices.to_numpy(
        zero_copy_only=False
    )
    tok_counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(n), tok_counts)
    vocab = int(codes.max()) + 1 if len(codes) else 1

    # dup_word_frac: per-(doc, word) counts via one sort
    key = doc_idx.astype(np.int64) * vocab + codes
    uk, uc = np.unique(key, return_counts=True)
    dup_tok = np.bincount(
        (uk // vocab).astype(np.int64), weights=uc * (uc > 1), minlength=n
    )
    dup_frac = dup_tok / np.maximum(tok_counts, 1)

    # top_bigram_frac: adjacent-token pairs within a doc
    m = doc_idx[:-1] == doc_idx[1:]
    d = doc_idx[:-1][m]
    a = codes[:-1][m]
    b = codes[1:][m]
    order = np.lexsort((b, a, d))
    d, a, b = d[order], a[order], b[order]
    new = np.ones(len(d), dtype=bool)
    if len(d) > 1:
        new[1:] = (d[1:] != d[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    starts = np.flatnonzero(new)
    gcounts = np.diff(np.append(starts, len(d)))
    gdoc = d[starts]
    doc_starts = np.flatnonzero(
        np.concatenate(([True], gdoc[1:] != gdoc[:-1]))
    ) if len(gdoc) else np.empty(0, dtype=np.int64)
    top = np.zeros(n)
    if len(gcounts):
        top[gdoc[doc_starts]] = np.maximum.reduceat(gcounts, doc_starts)
    tot_bi = np.bincount(d, minlength=n).astype(np.float64)
    top_frac = top / np.maximum(tot_bi, 1)
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "top_bigram_frac": pa.array(np.round(top_frac, 6)),
            "dup_word_frac": pa.array(np.round(dup_frac, 6)),
        }
    )


# ---------------------------------------------------------- tf-idf


# above this many docs the broadcast-df path is presumed driver-unsafe
# (web-text vocabulary grows ~linearly with corpus size, hapax-heavy)
# and tfidf_top_terms auto-switches to the fully distributed df-attach
TFIDF_BROADCAST_MAX_DOCS = 200_000


# byte class table for TOKEN_RE = [0-9a-zA-Z]+ (tokens are ASCII
# alnum runs of the lowered text, so a byte LUT is exact)
_ALNUM = np.zeros(256, dtype=bool)
for _c in b"0123456789abcdefghijklmnopqrstuvwxyz":
    _ALNUM[_c] = True
del _c


def _explode_tokens(texts) -> tuple[np.ndarray, pa.Array]:
    """-> (parent_idx int64 ndarray, tokens StringArray): one pair per
    token OCCURRENCE ([0-9a-zA-Z]+ runs of the lowered text).

    Zero-copy byte kernel: run boundaries come from a 256-entry LUT
    over the Arrow string buffer (document offsets force run breaks so
    adjacent docs never fuse a token); token bytes are gathered with
    one fancy index into a fresh StringArray. ~2.3x the old per-row
    re.findall + Counter pass, byte-identical output (measured
    BASELINE.md r5)."""
    low = _as_string_array(pc.utf8_lower(texts))
    if low.null_count:
        low = pc.fill_null(low, "")
    n = len(low)
    empty = (np.empty(0, dtype=np.int64), pa.array([], type=pa.string()))
    if n == 0:
        return empty
    offs = np.frombuffer(low.buffers()[1], dtype=np.int32)[
        low.offset : low.offset + n + 1
    ].astype(np.int64)
    if offs[-1] == offs[0]:
        return empty
    data = np.frombuffer(low.buffers()[2], dtype=np.uint8)[
        offs[0] : offs[-1]
    ]
    offs = offs - offs[0]
    al = _ALNUM[data]
    prev = np.empty_like(al)
    prev[0] = False
    prev[1:] = al[:-1]
    brk = np.zeros(len(al) + 1, dtype=bool)
    brk[offs[:-1].clip(max=len(al))] = True
    tok_starts = np.flatnonzero(al & (~prev | brk[: len(al)]))
    nxt = np.empty_like(al)
    nxt[-1] = False
    nxt[:-1] = al[1:]
    tok_ends = np.flatnonzero(al & (~nxt | brk[1 : len(al) + 1])) + 1
    lens = tok_ends - tok_starts
    parent = np.searchsorted(offs, tok_starts, side="right") - 1
    total = int(lens.sum())
    new_offs = np.zeros(len(lens) + 1, dtype=np.int32)
    np.cumsum(lens, out=new_offs[1:])
    pos = (
        np.repeat(tok_starts - new_offs[:-1].astype(np.int64), lens)
        + np.arange(total)
    )
    toks = pa.StringArray.from_buffers(
        len(lens),
        pa.py_buffer(new_offs),
        pa.py_buffer(np.ascontiguousarray(data[pos])),
    )
    return parent.astype(np.int64), toks


def _tf_rows(t: pa.Table) -> pa.Table:
    """Explode a doc batch to one (doc_id, token, tf) row per DISTINCT
    (doc, token) — the shared pass-1 of both tf-idf paths. Counting is
    one dictionary-encode + one np.unique over packed int keys (no
    Counter loop, no string re-hash per pair)."""
    parent, toks = _explode_tokens(t["text"])
    if len(toks) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "token": pa.array([], type=pa.string()),
                "tf": pa.array([], type=pa.int64()),
            }
        )
    codes = toks.dictionary_encode()
    idx = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    nd = len(codes.dictionary)
    key = parent * nd + idx
    uk, cnt = np.unique(key, return_counts=True)
    return pa.table(
        {
            "doc_id": pc.take(
                t["doc_id"], pa.array(uk // nd, type=pa.int64())
            ),
            "token": codes.dictionary.take(
                pa.array(uk % nd, type=pa.int64())
            ),
            "tf": pa.array(cnt, type=pa.int64()),
        }
    )


def tfidf_top_terms(
    docs: "ray.data.Dataset", top_n: int = 3, mode: str = "auto"
) -> "ray.data.Dataset":
    """Top distinctive terms per doc with their tf-idf score.

    Selection is by the INTEGER key (tf desc, df asc, term asc) —
    deterministic across engines, no float-ordering ambiguity — and
    the reported score is tf * ln(N / df) rounded to 6dp.

    Two execution paths (pytest-pinned identical), dispatched like
    functions/dedup.py's embedding_neardup:

    - ``broadcast`` (row count <= TFIDF_BROADCAST_MAX_DOCS): the df
      table collects to a driver dict and broadcasts once; pass 2 is
      shuffle-free. Right for dictionary-bounded corpora.
    - ``joined`` (the 100-TB path): NOTHING vocabulary-sized touches
      the driver. Pass 1 explodes docs to (doc_id, token, tf) rows;
      df is a distributed groupby(token); df attaches back to the
      term rows via the bucketed hash join on a 63-bit token hash
      (exact: the merge post-filters on string equality of the token
      itself, so a hash collision can only co-locate, never mis-join);
      the per-doc top-n is one more bucketed shuffle on doc_id with a
      vectorized in-bucket head(top_n). Per-task memory is bounded by
      bucket count on both shuffles.
    """
    import math

    n_docs = docs.count()
    if mode == "auto":
        mode = (
            "broadcast" if n_docs <= TFIDF_BROADCAST_MAX_DOCS else "joined"
        )

    # df partial = per-batch sum of per-DOC distincts (one row per
    # token per batch; summing batch-level distincts would under-count).
    # _tf_rows already emits distinct (doc, token) pairs, so the df
    # partial is one value_counts over its token column.
    def df_partial_exact(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(_tf_rows(t)["token"])
        return pa.table(
            {
                "token": vc.field("values"),
                "partial": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    df_agg = (
        docs.map_batches(df_partial_exact, batch_format="pyarrow")
        .groupby("token")
        .sum("partial")
    )

    if mode == "broadcast":
        from bern_ray.stages.broadcast import get_broadcast, put_broadcast

        df_map = {
            r["token"]: r["sum(partial)"] for r in df_agg.take_all()
        }
        df_ref = put_broadcast(df_map)

        def top_terms(t: pa.Table) -> pa.Table:
            dfm = get_broadcast(df_ref)
            tf_t = _tf_rows(t)
            toks = tf_t["token"].to_pylist()
            n_rows = len(toks)
            df = np.fromiter(
                (dfm[w] for w in toks), dtype=np.int64, count=n_rows
            )
            doc = tf_t["doc_id"].to_numpy(zero_copy_only=False)
            tf = tf_t["tf"].to_numpy(zero_copy_only=False)
            # rank per doc by (tf desc, df asc, token asc): lexsort,
            # then run-length rank -> head(top_n) — no per-doc Python
            order = np.lexsort(
                (np.asarray(toks, dtype=object), df, -tf, doc)
            )
            doc_s = doc[order]
            new_doc = np.empty(n_rows, dtype=bool)
            if n_rows:
                new_doc[0] = True
                new_doc[1:] = doc_s[1:] != doc_s[:-1]
            starts = np.flatnonzero(new_doc)
            sizes = np.diff(np.append(starts, n_rows))
            rank = np.arange(n_rows) - np.repeat(starts, sizes)
            keep = order[rank < top_n]
            score = np.round(
                tf[keep] * np.log(n_docs / df[keep].astype(np.float64)),
                6,
            )
            return pa.table(
                {
                    "doc_id": pa.array(doc[keep], type=pa.int64()),
                    "term": pc.take(
                        tf_t["token"], pa.array(keep, type=pa.int64())
                    ),
                    "tfidf": pa.array(score, type=pa.float64()),
                }
            )

        return docs.map_batches(top_terms, batch_format="pyarrow")

    # ------------------------------------------- joined (scale) path
    import pandas as pd

    from bern_ray.stages.bucketed import PREP_BATCH
    from bern_ray.stages.join import bucket_join

    term_rows = docs.map_batches(
        _tf_rows, batch_format="pyarrow"
    ).map_batches(
        lambda t: t.append_column(
            "h64", pa.array(_token_h64(t["token"]))
        ),
        batch_format="pyarrow",
        batch_size=PREP_BATCH,
    )
    df_rows = df_agg.map_batches(
        lambda t: pa.table(
            {
                "h64": pa.array(_token_h64(t["token"])),
                "r_token": t["token"],
                "df": pc.cast(t["sum(partial)"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=PREP_BATCH,
    )
    attached = bucket_join(
        term_rows,
        df_rows,
        left_on="h64",
        right_on="h64",
        left_schema={
            "h64": pa.int64(),
            "doc_id": pa.int64(),
            "token": pa.string(),
            "tf": pa.int64(),
        },
        right_schema={
            "h64": pa.int64(),
            "r_token": pa.string(),
            "df": pa.int64(),
        },
    )

    def exact_and_bucket(t: pa.Table) -> pa.Table:
        # collision guard: keep only true token matches, then key the
        # second shuffle on a doc_id bucket (bounded task memory)
        t = t.filter(pc.equal(t["token"], t["r_token"]))
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = (d.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> (
                np.uint64(33)
            )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "token": t["token"],
                "tf": t["tf"],
                "df": t["df"],
                "bucket": pa.array((h % 256).astype(np.int64)),
            }
        )

    bucketed = attached.map_batches(
        exact_and_bucket,
        batch_format="pyarrow",
        batch_size=PREP_BATCH,
    )

    def top_per_doc(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(
            ["doc_id", "tf", "df", "token"],
            ascending=[True, False, True, True],
            kind="stable",
        )
        top = g.groupby("doc_id", sort=False).head(top_n)
        tfidf = np.round(
            top["tf"].to_numpy(dtype=np.float64)
            * np.log(n_docs / top["df"].to_numpy(dtype=np.float64)),
            6,
        )
        return pa.table(
            {
                "doc_id": pa.array(
                    top["doc_id"].to_numpy(dtype=np.int64)
                ),
                "term": pa.array(top["token"].tolist(), type=pa.string()),
                "tfidf": pa.array(tfidf, type=pa.float64()),
            }
        )

    return bucketed.groupby("bucket").map_groups(
        top_per_doc, batch_format="pandas"
    )


def tfidf_top_terms_sql(top_n: int = 3) -> str:
    return f"""
WITH w AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS tok
  FROM documents
),
tf AS (SELECT doc_id, tok, count(*)::BIGINT AS c FROM w GROUP BY 1, 2),
df AS (SELECT tok, count(DISTINCT doc_id)::BIGINT AS d FROM w GROUP BY 1),
n AS (SELECT count(*)::DOUBLE AS nn FROM documents),
s AS (
  SELECT tf.doc_id, tf.tok AS term,
         round(tf.c * ln(n.nn / df.d), 6) AS tfidf,
         row_number() OVER (
           PARTITION BY tf.doc_id ORDER BY tf.c DESC, df.d ASC, tf.tok ASC
         ) AS rn
  FROM tf JOIN df ON tf.tok = df.tok CROSS JOIN n
)
SELECT doc_id, term, tfidf FROM s WHERE rn <= {top_n}
"""


# ------------------------------------------- trigram language ID

# Seed text per language: ~40 highest-frequency function words each
# (public linguistic knowledge). Profiles derive deterministically
# from these at import time — no external data, no training artifact.
LANG_SEEDS = {
    "en": (
        "the and of to in is was for on that he with as his they at be "
        "this have from or by one had not but what all were we when "
        "your can said there use each which she do how their if will "
        "about out many then them these so some would other into more"
    ),
    "de": (
        "der die das und ist war für auf dass er mit als sein sie bei "
        "dies haben von oder durch ein hatte nicht aber was alle waren "
        "wir wenn ihre kann sagte dort jeder welche tun wie auch nach "
        "werden eine einer dem den des im zu aus um über unter gegen"
    ),
    "es": (
        "el la los las y es era para en que con como su ellos ser este "
        "tener de o por uno había no pero qué todos fueron nosotros "
        "cuando puede dijo allí cada cual ella hacer cómo si una del "
        "se lo le más este esta estos estas sin sobre entre hasta muy"
    ),
    "fr": (
        "le la les et est était pour sur que il avec comme son ils "
        "être ce avoir de ou par un avait pas mais quoi tous étaient "
        "nous quand votre peut dit là chaque quelle elle faire comment "
        "si une des du au aux dans plus cette ces se ne qui nous vous"
    ),
}


# RE2 split complement of "unicode letter runs" — the Cavnar-Trenkle
# word unit, tokenized in one Arrow pass (no per-row re.findall)
_WORD_SPLIT_RE = r"[^\p{L}]+"


def _trigram_hash_counts(
    texts,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc_idx, trigram_code, count) triples for a batch of texts —
    the vectorized Cavnar-Trenkle unit: one Arrow RE2 pass collapses
    every non-letter run of the lowered text to a single space, the
    result is padded to ' w1 w2 ... ', and the trigram stream is read
    straight off the UTF-8 buffer as 24-bit byte codes (injective —
    no hashing, so no collisions; multibyte letters span >1 position,
    consistently between documents and profiles). Ragged per-doc
    positions come from one repeat+arange; counting is one np.unique
    over packed (doc, code) int keys. No per-row Python anywhere."""
    arr = _as_string_array(
        texts
        if isinstance(texts, (pa.Array, pa.ChunkedArray))
        else pa.array(list(texts), type=pa.string())
    )
    clean = pc.replace_substring_regex(
        pc.utf8_lower(arr), _WORD_SPLIT_RE, " "
    )
    padded = _as_string_array(
        pc.binary_join_element_wise(" ", clean, " ", "")
    )
    n = len(padded)
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
    if n == 0:
        return empty
    if padded.null_count:
        padded = pc.fill_null(padded, "  ")
    offs = np.frombuffer(padded.buffers()[1], dtype=np.int32)[
        padded.offset : padded.offset + n + 1
    ].astype(np.int64)
    data = np.frombuffer(padded.buffers()[2], dtype=np.uint8)[
        offs[0] : offs[-1]
    ].astype(np.int64)
    offs = offs - offs[0]
    lens = np.diff(offs)
    n_tri = np.maximum(lens - 2, 0)
    total = int(n_tri.sum())
    if total == 0:
        return empty
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), n_tri)
    tri_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_tri, out=tri_off[1:])
    pos = (
        np.repeat(offs[:-1] - tri_off[:-1], n_tri)
        + np.arange(total, dtype=np.int64)
    )
    code = (data[pos] << 16) | (data[pos + 1] << 8) | data[pos + 2]
    # count per (doc, trigram): one np.unique over packed keys
    key = (doc_idx << 24) | code
    uk, cnt = np.unique(key, return_counts=True)
    return uk >> 24, uk & 0xFFFFFF, cnt


_PROFILES: tuple | None = None


def _lang_profiles() -> tuple:
    """(langs, sorted union trigram-hash array H, weight matrix W
    [n_langs, len(H)] with L2-normalized rows) — computed once per
    process from the in-repo seed lists; tiny."""
    langs = list(LANG_SEEDS)
    per_lang = []
    for lang in langs:
        _, h, c = _trigram_hash_counts([LANG_SEEDS[lang]])
        per_lang.append((h, c.astype(np.float64)))
    H = np.unique(np.concatenate([h for h, _ in per_lang]))
    W = np.zeros((len(langs), len(H)))
    for li, (h, c) in enumerate(per_lang):
        W[li, np.searchsorted(H, h)] = c / np.sqrt((c * c).sum())
    return langs, H, W


def langid_trigram_batch(t: pa.Table) -> pa.Table:
    """Character-trigram cosine language ID (Cavnar & Trenkle 1994
    n-gram text categorization, cosine variant) — the production-
    shaped classifier next to the oracle-matched stopword vote
    (`langid_batch`): robust to unseen words because it scores
    sub-word character patterns, not exact stopword hits.

    Deterministic: profiles derive from the in-repo seed word lists;
    ties break by fixed language order (argmax-first); docs sharing no
    trigram with any profile report 'und'. Shuffle-free map_batches;
    the profile build runs once per process. Fully vectorized: one
    Arrow RE2 tokenize + splitmix trigram hashing + a searchsorted
    membership + per-language bincount dot products — no per-row
    Python (the r4-flagged dict-cosine loop is gone).
    """
    global _PROFILES
    if _PROFILES is None:
        _PROFILES = _lang_profiles()
    langs, H, W = _PROFILES
    n = t.num_rows
    doc_idx, h, cnt = _trigram_hash_counts(t["text"])
    cntf = cnt.astype(np.float64)
    dn = np.sqrt(np.bincount(doc_idx, weights=cntf * cntf, minlength=n))
    pos = np.searchsorted(H, h)
    pos_c = np.minimum(pos, len(H) - 1) if len(H) else pos
    valid = (pos < len(H)) & (H[pos_c] == h) if len(H) else pos < 0
    dv, pv, cv = doc_idx[valid], pos_c[valid], cntf[valid]
    dots = np.empty((len(langs), n))
    for li in range(len(langs)):
        dots[li] = np.bincount(dv, weights=cv * W[li, pv], minlength=n)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(dn > 0, dots / dn, 0.0)
    best_li = np.argmax(cos, axis=0)
    conf = cos[best_li, np.arange(n)]
    lang_arr = np.asarray(langs + ["und"], dtype=object)
    pred = lang_arr[np.where(conf > 0, best_li, len(langs))]
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "pred_lang": pa.array(pred.tolist(), type=pa.string()),
            "confidence": pa.array(
                np.round(np.maximum(conf, 0.0), 6), type=pa.float64()
            ),
        }
    )


# --------------------------------------- unigram-LM quality score

LM_BROADCAST_MAX_DOCS = TFIDF_BROADCAST_MAX_DOCS


def lm_score(
    docs: "ray.data.Dataset", mode: str = "auto"
) -> "ray.data.Dataset":
    """Corpus-trained unigram-LM quality score per document: the
    standard webtext-pipeline signal (CCNet/Gopher-style "perplexity
    under a corpus LM", here self-trained so no external artifact is
    needed). For each doc with >= 1 token:

        avg_logprob = (1/n_tokens) * sum over token OCCURRENCES of
                      ln(count(token) / N_total)

    where count() / N_total are corpus-wide occurrence statistics.
    Low avg_logprob = rare-token-heavy (gibberish, codey, or
    boilerplate-free) docs; the filterable quality column. Rounded to
    6dp; zero-token docs emit no row (both engine and oracle).

    Two pytest-pinned-identical paths, dispatched like
    tfidf_top_terms:

    - ``broadcast`` (corpus <= LM_BROADCAST_MAX_DOCS): the count
      table collects to a driver dict and broadcasts once
      (``ray.put`` via stages.broadcast); scoring is then
      SHUFFLE-FREE — a doc's term rows never leave its batch, so the
      per-doc sum happens inside the same map_batches call.
    - ``joined`` (the 100-TB path): nothing vocabulary-sized touches
      the driver. Counts are a distributed groupby(token) that is
      MATERIALIZED once (bounded by |vocab|, lives in the object
      store, read twice: once for the N_total scalar, once as the
      join side); they attach to the (doc_id, token, tf) rows via
      the bucketed hash join on the 63-bit token hash with a
      string-equality post-filter (collisions co-locate, never
      mis-join); the per-doc reduction is per-batch partial sums
      followed by one groupby(doc_id) aggregate.

    Tokenization is the frozen TOKEN_RE byte-LUT kernel
    (_explode_tokens), so DuckDB's
    regexp_extract_all(lower(text), '[0-9a-zA-Z]+') sees the same
    token stream (lm_score_sql is the oracle).
    """
    n_docs = docs.count()
    if mode == "auto":
        mode = "broadcast" if n_docs <= LM_BROADCAST_MAX_DOCS else "joined"

    def cnt_partial(t: pa.Table) -> pa.Table:
        tf_t = _tf_rows(t)
        return pa.table({"token": tf_t["token"], "partial": tf_t["tf"]})

    cnt_agg = (
        docs.map_batches(cnt_partial, batch_format="pyarrow")
        .groupby("token")
        .sum("partial")
    )

    def finish_rows(
        doc: np.ndarray, tf: np.ndarray, c: np.ndarray, n_total: float
    ) -> pa.Table:
        # per-doc sum of tf * ln(c/N) and of tf, vectorized over the
        # (already doc-contiguous after sort) row set
        order = np.argsort(doc, kind="stable")
        doc_s, tf_s, c_s = doc[order], tf[order], c[order]
        new = np.empty(len(doc_s), dtype=bool)
        if len(doc_s):
            new[0] = True
            new[1:] = doc_s[1:] != doc_s[:-1]
        starts = np.flatnonzero(new)
        lp = tf_s * np.log(c_s.astype(np.float64) / n_total)
        sum_lp = np.add.reduceat(lp, starts) if len(starts) else np.empty(0)
        n_tok = (
            np.add.reduceat(tf_s.astype(np.int64), starts)
            if len(starts)
            else np.empty(0, dtype=np.int64)
        )
        return pa.table(
            {
                "doc_id": pa.array(doc_s[starts], type=pa.int64()),
                "n_tokens": pa.array(n_tok, type=pa.int64()),
                "avg_logprob": pa.array(
                    np.round(sum_lp / n_tok, 6), type=pa.float64()
                ),
            }
        )

    if mode == "broadcast":
        from bern_ray.stages.broadcast import get_broadcast, put_broadcast

        rows = cnt_agg.take_all()
        cmap = {r["token"]: r["sum(partial)"] for r in rows}
        n_total = float(sum(cmap.values()))
        ref = put_broadcast(cmap)

        def score(t: pa.Table) -> pa.Table:
            cm = get_broadcast(ref)
            tf_t = _tf_rows(t)
            toks = tf_t["token"].to_pylist()
            c = np.fromiter(
                (cm[w] for w in toks), dtype=np.int64, count=len(toks)
            )
            return finish_rows(
                tf_t["doc_id"].to_numpy(zero_copy_only=False),
                tf_t["tf"].to_numpy(zero_copy_only=False),
                c,
                n_total,
            )

        return docs.map_batches(score, batch_format="pyarrow")

    # ------------------------------------------- joined (scale) path
    from ray.data.aggregate import Sum

    from bern_ray.stages.bucketed import PREP_BATCH
    from bern_ray.stages.join import bucket_join

    cnt = cnt_agg.materialize()  # |vocab|-bounded, object store only
    n_total = float(cnt.sum("sum(partial)"))

    term_rows = docs.map_batches(
        _tf_rows, batch_format="pyarrow"
    ).map_batches(
        lambda t: t.append_column("h64", pa.array(_token_h64(t["token"]))),
        batch_format="pyarrow",
        batch_size=PREP_BATCH,
    )
    cnt_rows = cnt.map_batches(
        lambda t: pa.table(
            {
                "h64": pa.array(_token_h64(t["token"])),
                "r_token": t["token"],
                "c": pc.cast(t["sum(partial)"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=PREP_BATCH,
    )
    attached = bucket_join(
        term_rows,
        cnt_rows,
        left_on="h64",
        right_on="h64",
        left_schema={
            "h64": pa.int64(),
            "doc_id": pa.int64(),
            "token": pa.string(),
            "tf": pa.int64(),
        },
        right_schema={
            "h64": pa.int64(),
            "r_token": pa.string(),
            "c": pa.int64(),
        },
    )

    def doc_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["token"], t["r_token"]))
        doc = t["doc_id"].to_numpy(zero_copy_only=False)
        tf = t["tf"].to_numpy(zero_copy_only=False)
        c = t["c"].to_numpy(zero_copy_only=False)
        order = np.argsort(doc, kind="stable")
        doc_s, tf_s, c_s = doc[order], tf[order], c[order]
        new = np.empty(len(doc_s), dtype=bool)
        if len(doc_s):
            new[0] = True
            new[1:] = doc_s[1:] != doc_s[:-1]
        starts = np.flatnonzero(new)
        lp = tf_s * np.log(c_s.astype(np.float64) / n_total)
        return pa.table(
            {
                "doc_id": pa.array(doc_s[starts], type=pa.int64()),
                "lp": pa.array(
                    np.add.reduceat(lp, starts)
                    if len(starts)
                    else np.empty(0)
                ),
                "ntok": pa.array(
                    np.add.reduceat(tf_s.astype(np.int64), starts)
                    if len(starts)
                    else np.empty(0, dtype=np.int64)
                ),
            }
        )

    agg = (
        attached.map_batches(
            doc_partial, batch_format="pyarrow", batch_size=PREP_BATCH
        )
        .groupby("doc_id")
        .aggregate(Sum("lp", alias_name="lp"), Sum("ntok", alias_name="ntok"))
    )

    def finish(t: pa.Table) -> pa.Table:
        n_tok = t["ntok"].to_numpy(zero_copy_only=False).astype(np.int64)
        lp = t["lp"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(n_tok, type=pa.int64()),
                "avg_logprob": pa.array(
                    np.round(lp / n_tok, 6), type=pa.float64()
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def lm_score_sql() -> str:
    return f"""
WITH w AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS tok
  FROM documents
),
cnt AS (SELECT tok, count(*)::DOUBLE AS c FROM w GROUP BY 1),
n AS (SELECT count(*)::DOUBLE AS nn FROM w)
SELECT w.doc_id, count(*)::BIGINT AS n_tokens,
       round(sum(ln(cnt.c / n.nn)) / count(*), 6) AS avg_logprob
FROM w JOIN cnt ON w.tok = cnt.tok CROSS JOIN n
GROUP BY w.doc_id
"""


# ------------------------------------------------------- PMI collocations


def _attach_hb(t: pa.Table) -> pa.Table:
    """Post-filter the df_a hash-join on string equality, then key the
    second attach by the b token's hash."""
    t = t.filter(pc.equal(t["a"], t["ra"]))
    return t.append_column("hb", pa.array(_token_h64(t["b"])))


def pmi_collocations(
    docs: "ray.data.Dataset",
    min_df_frac: float = 0.05,
    min_pair_frac: float = 0.02,
    num_buckets: int = 32,
) -> "ray.data.Dataset":
    """Pointwise mutual information of token pairs over document
    co-occurrence (Church & Hanks 1990) — the collocation/phrase-
    detection primitive of corpus pipelines (word2vec's phrase pass,
    Gensim Phrases): pmi(a,b) = ln(c_ab * N / (df_a * df_b)) where
    df counts documents CONTAINING the token and c_ab documents
    containing both.

    Fully distributed, no broadcast side: per-batch per-doc DISTINCT
    (doc, token) rows (dictionary-encode + one packed np.unique; a
    doc never spans a batch, so in-batch distinct is global) -> df
    via partial value_counts into one token groupby -> eligibility
    attach back onto the (doc, token) stream via the 63-bit-hash
    bucket_join with string post-filter (the tfidf joined-path idiom
    — the df table is vocabulary-sized and co-locates by hash, never
    ships to the driver) -> per-doc pair fan-out (bucket-and-segment
    on doc_id; tokens rank-encoded per bucket so emitted pairs are
    canonical a < b LEXICOGRAPHICALLY, matching the SQL e1.tok <
    e2.tok) with in-bucket packed-pair partial counts -> one pair
    groupby -> two hash-joins attach df_a / df_b -> pmi, rounded to 6
    decimals on both sides of the oracle (shared double expression
    order: (c_ab * N) / (df_a * df_b)).

    Thresholds are FRACTIONS of the corpus size (df >= min_df_frac*N,
    c_ab >= min_pair_frac*N) so the output is scale-stable; both
    comparisons are the same float64 expressions the oracle runs. The
    df Dataset is materialized once (vocabulary-sized) because three
    joins consume it — a lazy Dataset would re-run the df shuffle per
    consumer.
    """
    from ..stages.bucketed import bucketed_apply, segments
    from ..stages.blocking import segment_pairs
    from ..stages.join import bucket_join

    n_docs = docs.count()
    min_df = min_df_frac * n_docs
    min_pair = min_pair_frac * n_docs

    def distinct_rows(t: pa.Table) -> pa.Table:
        parent, toks = _explode_tokens(t["text"])
        if len(parent) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "tok": pa.array([], type=pa.string()),
                }
            )
        codes = (
            pc.dictionary_encode(toks)
            .indices.to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        packed = (parent << np.int64(32)) | codes
        _, first = np.unique(packed, return_index=True)
        first.sort()
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)[parent[first]]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids.astype(np.int64)),
                "tok": toks.take(pa.array(first)),
            }
        )

    def dt_stream():
        return docs.map_batches(
            distinct_rows, batch_format="pyarrow"
        )

    def df_partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t["tok"])
        return pa.table(
            {
                "r_token": vc.field("values"),
                "partial": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    def df_finish(t: pa.Table) -> pa.Table:
        t = pa.table(
            {"r_token": t["r_token"], "df": t["sum(partial)"]}
        ).filter(pc.greater_equal(t["sum(partial)"], min_df))
        return t.append_column("rh", pa.array(_token_h64(t["r_token"])))

    df_tbl = (
        dt_stream()
        .map_batches(df_partial, batch_format="pyarrow")
        .groupby("r_token")
        .sum("partial")
        .map_batches(df_finish, batch_format="pyarrow")
        .materialize()
    )

    def add_h(t: pa.Table) -> pa.Table:
        return t.append_column("h", pa.array(_token_h64(t["tok"])))

    eligible = bucket_join(
        dt_stream().map_batches(add_h, batch_format="pyarrow"),
        df_tbl,
        left_on="h",
        right_on="rh",
        left_schema={
            "h": pa.int64(),
            "doc_id": pa.int64(),
            "tok": pa.string(),
        },
        right_schema={
            "rh": pa.int64(),
            "r_token": pa.string(),
            "df": pa.int64(),
        },
        num_buckets=num_buckets,
    ).map_batches(
        lambda t: t.filter(pc.equal(t["tok"], t["r_token"])).select(
            ["doc_id", "tok"]
        ),
        batch_format="pyarrow",
    )

    def pair_kernel(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "pair": pa.array([], type=pa.string()),
                "partial": pa.array([], type=pa.int64()),
            }
        )
        if t.num_rows == 0:
            return empty
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        toks_np = np.asarray(t["tok"].to_pylist(), dtype=object)
        uniq, inv = np.unique(toks_np, return_inverse=True)
        order = np.lexsort((inv, d))
        d_s, inv_s = d[order], inv[order]
        starts, sizes = segments(d_s)
        ai, bi = segment_pairs(starts, sizes, cap=None)
        if len(ai) == 0:
            return empty
        pk = (inv_s[ai] << np.int64(32)) | inv_s[bi]
        u, c = np.unique(pk, return_counts=True)
        a = uniq[(u >> np.int64(32)).astype(np.int64)]
        b = uniq[(u & np.int64(0xFFFFFFFF)).astype(np.int64)]
        pair = pc.binary_join_element_wise(
            pa.array(list(a), type=pa.string()),
            pa.array(list(b), type=pa.string()),
            "\x01",
        )
        return pa.table(
            {"pair": pair, "partial": pa.array(c.astype(np.int64))}
        )

    pairs = (
        bucketed_apply(eligible, "doc_id", pair_kernel, num_buckets)
        .groupby("pair")
        .sum("partial")
        .map_batches(
            lambda t: pa.table(
                {"pair": t["pair"], "c_ab": t["sum(partial)"]}
            )
            .replace_schema_metadata(None)
            .filter(pc.greater_equal(t["sum(partial)"], min_pair)),
            batch_format="pyarrow",
        )
    )

    def split_pair(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["pair"], "\x01")
        a = pc.list_element(parts, 0)
        b = pc.list_element(parts, 1)
        return pa.table(
            {
                "a": a,
                "b": b,
                "c_ab": t["c_ab"],
                "ha": pa.array(_token_h64(a)),
            }
        )

    with_a = bucket_join(
        pairs.map_batches(split_pair, batch_format="pyarrow"),
        df_tbl.map_batches(
            lambda t: t.rename_columns(["ra", "df_a", "rha"]),
            batch_format="pyarrow",
        ),
        left_on="ha",
        right_on="rha",
        left_schema={
            "ha": pa.int64(),
            "a": pa.string(),
            "b": pa.string(),
            "c_ab": pa.int64(),
        },
        right_schema={
            "rha": pa.int64(),
            "ra": pa.string(),
            "df_a": pa.int64(),
        },
        num_buckets=num_buckets,
    ).map_batches(_attach_hb, batch_format="pyarrow")

    with_b = bucket_join(
        with_a,
        df_tbl.map_batches(
            lambda t: t.rename_columns(["rb", "df_b", "rhb"]),
            batch_format="pyarrow",
        ),
        left_on="hb",
        right_on="rhb",
        left_schema={
            "hb": pa.int64(),
            "ha": pa.int64(),
            "a": pa.string(),
            "ra": pa.string(),
            "b": pa.string(),
            "c_ab": pa.int64(),
            "df_a": pa.int64(),
        },
        right_schema={
            "rhb": pa.int64(),
            "rb": pa.string(),
            "df_b": pa.int64(),
        },
        num_buckets=num_buckets,
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["b"], t["rb"]))
        c_ab = t["c_ab"].to_numpy(zero_copy_only=False).astype(np.int64)
        df_a = t["df_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        df_b = t["df_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        pmi = np.round(np.log((c_ab * n_docs) / (df_a * df_b)), 6)
        return pa.table(
            {
                "a": t["a"],
                "b": t["b"],
                "c_ab": pa.array(c_ab),
                "pmi": pa.array(pmi),
            }
        )

    return with_b.map_batches(finish, batch_format="pyarrow")


def pmi_collocations_sql(
    min_df_frac: float = 0.05, min_pair_frac: float = 0.02
) -> str:
    return f"""
WITH dt AS (
  SELECT DISTINCT doc_id, tok FROM (
    SELECT doc_id,
           unnest(regexp_extract_all(lower(text), '{TOKEN_RE}')) AS tok
    FROM documents)
),
n AS (SELECT count(*) AS nd FROM documents),
df AS (SELECT tok, count(*) AS df FROM dt GROUP BY tok),
el AS (
  SELECT dt.doc_id, dt.tok
  FROM dt JOIN df USING (tok), n
  WHERE df.df >= {min_df_frac} * n.nd
),
pairs AS (
  SELECT e1.tok AS a, e2.tok AS b, count(*) AS c_ab
  FROM el e1 JOIN el e2
    ON e1.doc_id = e2.doc_id AND e1.tok < e2.tok
  GROUP BY 1, 2
  HAVING count(*) >= (SELECT {min_pair_frac} * nd FROM n)
)
SELECT p.a, p.b, p.c_ab::BIGINT AS c_ab,
       round(ln((p.c_ab * n.nd) / (fa.df * fb.df)), 6) AS pmi
FROM pairs p, n
JOIN df fa ON fa.tok = p.a
JOIN df fb ON fb.tok = p.b
"""


def compression_stats(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-document zlib compression ratio — the model-free
    repetitiveness signal the Gopher/MassiveText quality filters use
    (boilerplate and spam compress far below natural prose; random
    or encrypted payloads don't compress at all). Output
    (doc_id, n_bytes, n_compressed, ratio = compressed/raw, round 6).

    Rows-only by design: zlib's DEFLATE output is not
    SQL-expressible; the kernel is pinned by planted-text pytests
    (tests/test_compression_stats.py). The per-row zlib.compress call
    is a C-library pass over the payload (payload-bound, like the
    multimodal codec seam) — the Python loop only dispatches."""
    import zlib

    def kernel(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        raw = np.empty(len(texts), dtype=np.int64)
        comp = np.empty(len(texts), dtype=np.int64)
        for i, s in enumerate(texts):
            b = (s or "").encode("utf-8", "surrogatepass")
            raw[i] = len(b)
            comp[i] = len(zlib.compress(b, 6))
        ratio = np.round(
            np.divide(
                comp,
                raw,
                out=np.ones(len(texts), dtype=float),
                where=raw > 0,
            ),
            6,
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_bytes": pa.array(raw),
                "n_compressed": pa.array(comp),
                "ratio": pa.array(ratio),
            }
        )

    return ds.map_batches(kernel, batch_format="pyarrow")
