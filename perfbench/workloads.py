"""Seeded input generators and the gold labels derived from what they plant.

Every workload writes one ``documents.parquet`` (doc_id, text, lang) into
its own directory. ``bern_ray.sources.pages.read_pages`` turns that file
into pages for the linkage workloads; the near-dup workload feeds the
documents to the dedup operators directly. The program sees only these
files. Everything here is a pure function of the seed.

Why each workload exists (sizes are far below those the workloads were
first measured at, so that one run fits the benchmark's time budget;
each keeps the property it was chosen for):

- ``er_dict``: every entity mention comes from the 420-entity
  dictionary (``sources/dicts.py``, planted by ``read_pages``), so
  ~2k distinct surfaces repeat across the corpus. The scorer collapses
  repeated surface pairs to unique pairs, so time goes to extraction
  and to the Ray shuffles (vocabulary, hot-key census, pair
  generation); the similarity kernels are almost bypassed.
- ``er_distinct``: each page also carries two miRNA names with a
  number drawn from ~20k values. Near-unique surfaces defeat the
  unique-pair collapse, so the similarity kernels and cluster
  assignment do most of the work.
- ``neardup_docs``: 20% of the documents are copies of another with
  one token changed. The pass runs the near-dup family (exact, minhash,
  set-similarity), which has no actor pools and no ER scorer but uses
  the same bucketed shuffle and hash joins, including the per-pair
  verify loop in ``verify_setsim_pairs``.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORKLOADS = ("er_dict", "er_distinct", "neardup_docs")

# Pages per linkage workload and documents for the near-dup workload.
# Small on purpose: a linkage pass spends 11-25 s in Ray Data scheduling
# on a 2-CPU session whatever its size, and every run has to fit the
# benchmark's time budget (README.md).
SIZES = {"er_dict": 1500, "er_distinct": 1500, "neardup_docs": 2000}

NEARDUP_SHARE = 0.2
NEARDUP_THRESHOLD = 0.85
SHINGLE_K = 3

_LANGS = ("en", "es", "de", "fr", "zh")
# Consonant-vowel words: they never match a dictionary surface (those
# carry digits), a species stop word or the miRNA pattern, so every
# mention the extractor finds is one the generator or read_pages planted.
_CONS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONS for v in _VOWELS]
_MIRNA_PREFIXES = ("hsa", "mmu", "rno")
_MIRNA_STEMS = ("miR", "mir", "let")
_MIRNA_LETTERS = ("", "a", "b", "c")
_MIRNA_ARMS = ("", "-3p", "-5p")
MIRNA_NUMBERS = 20_000

_MIRNA_SURFACE_RE = re.compile(
    r"(hsa|mmu|rno)-(mir|miR|let)-(\d+)([a-z]?)(-[35]p)?"
)
_TOKEN_RE = re.compile("[0-9a-zA-Z]+")


def _vocabulary(rng: np.random.Generator, n: int) -> list[str]:
    words: set[str] = set()
    while len(words) < n:
        k = int(rng.integers(2, 4))
        words.add("".join(rng.choice(_SYLLABLES, size=k)))
    return sorted(words)


def _doc_ids(rng: np.random.Generator, n: int) -> np.ndarray:
    # distinct ids from a wide range: read_pages plants mentions as a
    # pure function of doc_id, so the seed also varies the planted mix
    return np.sort(rng.choice(10_000_000, size=n, replace=False)).astype(
        np.int64
    )


def _write(out_dir: str, doc_ids, texts, rng) -> None:
    os.makedirs(out_dir, exist_ok=True)
    langs = rng.choice(_LANGS, size=len(texts)).tolist()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
                "lang": pa.array(langs, type=pa.string()),
            }
        ),
        os.path.join(out_dir, "documents.parquet"),
    )


def mirna_key(prefix: str, stem: str, number: str, letter: str) -> str:
    """Gold key of a miRNA name under the MI: rule: the stem case-folds
    ('miR' and 'mir' are one stem, 'let' its own) and the -3p/-5p arm
    is dropped."""
    stem = "let" if stem.lower() == "let" else "mir"
    return f"MI:{prefix}-{stem}-{number}{letter}"


def mirna_key_of_surface(surface: str) -> str:
    m = _MIRNA_SURFACE_RE.fullmatch(surface)
    if m is None:
        raise ValueError(f"not a miRNA surface: {surface!r}")
    return mirna_key(m.group(1), m.group(2), m.group(3), m.group(4))


def _linkage_texts(rng, n: int, with_mirna: bool):
    vocab = _vocabulary(rng, 60)
    texts, planted = [], []
    for _ in range(n):
        words = rng.choice(vocab, size=int(rng.integers(10, 70))).tolist()
        names = []
        if with_mirna:
            for _ in range(2):
                prefix = str(rng.choice(_MIRNA_PREFIXES))
                stem = str(rng.choice(_MIRNA_STEMS))
                number = str(int(rng.integers(1, MIRNA_NUMBERS + 1)))
                letter = str(rng.choice(_MIRNA_LETTERS))
                arm = str(rng.choice(_MIRNA_ARMS))
                surface = f"{prefix}-{stem}-{number}{letter}{arm}"
                words.insert(int(rng.integers(0, len(words) + 1)), surface)
                names.append((surface, mirna_key(prefix, stem, number, letter)))
        texts.append(" ".join(words))
        planted.append(names)
    return texts, planted


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's documents.parquet; return its gold facts."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    n = SIZES[workload]
    doc_ids = _doc_ids(rng, n)
    if workload == "neardup_docs":
        texts, pairs = _neardup_texts(rng, doc_ids)
        _write(out_dir, doc_ids, texts, rng)
        return {"doc_ids": doc_ids, "texts": texts, "planted_pairs": pairs}
    texts, planted = _linkage_texts(rng, n, workload == "er_distinct")
    _write(out_dir, doc_ids, texts, rng)
    return {"doc_ids": doc_ids, "planted_mirna": planted}


def _neardup_texts(rng, doc_ids: np.ndarray):
    """80% originals over a small vocabulary (so common shingles give
    the set-similarity join real candidate pairs to verify), 20% copies
    of distinct originals with one token replaced."""
    n = len(doc_ids)
    n_copy = int(n * NEARDUP_SHARE)
    vocab = _vocabulary(rng, 64)
    texts: list[str | None] = [None] * n
    order = rng.permutation(n)
    copies, sources = order[:n_copy], order[n_copy : 2 * n_copy]
    for i in order[n_copy:]:
        texts[i] = " ".join(
            rng.choice(vocab, size=int(rng.integers(40, 120))).tolist()
        )
    pairs = []
    for c, s in zip(copies, sources):
        words = texts[s].split(" ")
        j = int(rng.integers(0, len(words)))
        words[j] = str(
            rng.choice([w for w in vocab if w != words[j]])
        )
        texts[c] = " ".join(words)
        a, b = sorted((int(doc_ids[c]), int(doc_ids[s])))
        pairs.append((a, b))
    return texts, sorted(pairs)


def shingle_set(text: str, k: int = SHINGLE_K) -> set:
    toks = _TOKEN_RE.findall(text.lower())
    return {tuple(toks[i : i + k]) for i in range(len(toks) - k + 1)}


def jaccard(a: set, b: set) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 0.0
