"""Synthesize the Common-Crawl-style `pages` table (input_hint shape).

Columns: url:string, warc_ts:timestamp[us], html:binary, text:string,
lang:string — built deterministically from the driver's `documents`
parquet (TESTDATA.md) so every scale factor yields the same pages for
the same doc_ids; no external data.

Planted content per doc (pure function of doc_id):
- 1-3 entity mentions drawn from the synthetic dictionary
  (sources/dicts.py), alias variant rotated per doc — ground truth for
  the linkage pipeline.
- species stoplist words (doc_id % 13 == 5) that extraction MUST drop
  (reference stoplist utils.py:269-308).
- miRNA-pattern surfaces (doc_id % 19 == 4) handled by the pattern
  tagger (reference: normalizers/miRNA_normalizer.py:4-151).
- fold edge cases: exotic unicode spaces (doc_id % 17 == 0), CRLF
  (doc_id % 23 == 0), >50-char words (doc_id % 97 == 0) — exercising
  the frozen fold (core/fold.py).

The `text` column is the folded extraction of `html` — the per-row
byte-identical invariant (BASELINE.json.input_hint). `html` embeds the
raw (pre-fold) text with HTML escaping, so the extract stage must
strip tags, unescape and fold to reproduce `text` exactly.
"""

from __future__ import annotations

import html as _html

import numpy as np
import pyarrow as pa

import ray.data

from ..core.fold import fold_text
from ..stages.partitions import plan_blocks, session_cpus, source_rows
from . import dicts
from .pq import read_parquet_clean

_BASE_TS = np.datetime64("2024-03-01T00:00:00", "us")

_MIRNA_SURFACES = [
    "hsa-miR-21-5p", "hsa-mir-21-3p", "hsa-miR-21", "mmu-miR-155",
    "mmu-mir-155-5p", "hsa-let-7a", "hsa-miR-7b-3p", "rno-miR-124",
]
_STOPLIST_PLANTS = ["human", "patients", "Child", "women"]


def planted_mentions(doc_id: int) -> list[tuple[int, str]]:
    """(dict_index, alias_surface) planted in this doc, in order."""
    k = 1 + doc_id % 3
    out = []
    for j in range(k):
        idx = (doc_id * 31 + j * 7919) % dicts.N_OIDS
        al = dicts.aliases_of(idx)
        out.append((idx, al[(doc_id + j) % len(al)]))
    return out


def planted_mirna(doc_id: int) -> str | None:
    if doc_id % 19 == 4:
        return _MIRNA_SURFACES[doc_id % len(_MIRNA_SURFACES)]
    return None


def planted_stopwords(doc_id: int) -> list[str]:
    if doc_id % 13 == 5:
        return [_STOPLIST_PLANTS[doc_id % len(_STOPLIST_PLANTS)]]
    return []


def raw_page_text(doc_id: int, doc_text: str) -> str:
    """Pre-fold page text: base document text + planted sentences."""
    parts = [doc_text]
    mentions = [s for _, s in planted_mentions(doc_id)]
    if doc_id % 17 == 0:
        # exotic unicode spaces (fold -> ' '): THIN SPACE + NO-BREAK SPACE
        parts.append("\u2009Entity\u00a0report:")
    else:
        parts.append(" Entity report:")
    parts.append(" " + " ; ".join(mentions) + " .")
    mir = planted_mirna(doc_id)
    if mir is not None:
        parts.append(f" Regulated by {mir} .")
    for sw in planted_stopwords(doc_id):
        parts.append(f" Seen in {sw} .")
    if doc_id % 23 == 0:
        parts.append(" line one\r\nline two")
    if doc_id % 97 == 0:
        parts.append(" " + "q" * 64 + " tailword")
    return "".join(parts)


def url_of(doc_id: int) -> str:
    return f"https://site{doc_id % 50}.example/p/{doc_id}"


def _make_pages_batch(batch: pa.Table, replicate: int = 1) -> pa.Table:
    doc_ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    langs = batch["lang"].to_pylist()
    if replicate > 1:
        # deterministic scale-up: each copy gets a disjoint doc_id band,
        # so planted mentions/edge cases differ per copy (not clones)
        doc_ids = [
            d + j * 1_000_000 for j in range(replicate) for d in doc_ids
        ]
        texts = texts * replicate
        langs = langs * replicate
    urls = [url_of(d) for d in doc_ids]
    raws = [raw_page_text(d, t) for d, t in zip(doc_ids, texts)]
    htmls = [
        (
            f"<html><head><title>Doc {d}</title></head>"
            f"<body><p>{_html.escape(r)}</p></body></html>"
        ).encode("utf-8")
        for d, r in zip(doc_ids, raws)
    ]
    folded = fold_text(pa.array(raws, type=pa.string()))
    ts = _BASE_TS + np.array(doc_ids, dtype="timedelta64[s]").astype(
        "timedelta64[us]"
    )
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(ts),
            "html": pa.array(htmls, type=pa.binary()),
            "text": folded,
            "lang": pa.array(langs, type=pa.string()),
        }
    )


def pages_source_blocks(sf_dir: str, replicate: int = 1) -> int:
    """Source block count ``read_pages`` plans for this input and session
    (stages/partitions.py)."""
    rows = source_rows(f"{sf_dir}/documents.parquet", replicate)
    return plan_blocks(rows, session_cpus())


def read_pages(sf_dir: str, replicate: int = 1) -> "ray.data.Dataset":
    """documents.parquet -> pages Dataset (lazy, streaming).

    ``replicate`` scales the corpus deterministically (bench knob):
    each copy occupies a disjoint doc_id band with its own planted
    mentions, so blocking/scoring work grows linearly with it.

    The source block count is planned from the metadata row count ×
    ``replicate`` and the session's CPUs (stages/partitions.py): one
    block per ~313 pages, between one and four per CPU. The linkage
    pass plans its shuffle buckets from the same inputs (two per
    block, ``pipelines/linkage.py`` ``pass_buckets``), so a small input
    pays for a small fan-out, and a large one still gives each CPU
    >= 4 tasks.
    """
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang"],
        override_num_blocks=pages_source_blocks(sf_dir, replicate),
    )
    return ds.map_batches(
        lambda t: _make_pages_batch(t, replicate),
        batch_format="pyarrow",
    )


def pages_table(sf_dir: str) -> pa.Table:
    """Small-scale convenience (tests/fixtures): build pages eagerly
    with pyarrow only — no Ray session required."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    out = []
    for i in range(0, t.num_rows, 4096):
        out.append(_make_pages_batch(t.slice(i, 4096)))
    return pa.concat_tables(out)
