"""MinHash / LSH banding and SimHash — vectorized sketch kernels.

Used by (a) the blocking stage's LSH band keys (SURVEY.md §7.2 step 3)
and (b) the near-duplicate detection functions over the `documents`
table. Public techniques (Broder 1997 minhash; Indyk-Motwani LSH;
Charikar 2002 simhash; cf. PAPERS.md SparkER).

Vectorization strategy: all documents in a batch are shingled into one
flat int64 hash array with segment offsets; each permutation is one
`np.minimum.reduceat` pass — no Python loop over documents.
"""

from __future__ import annotations

import numpy as np

_MERSENNE = (1 << 61) - 1
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mixer (public splitmix64 constants).

    uint64 wraparound is intentional — warnings suppressed.
    """
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def token_shingles(texts, k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Hash the k-token shingles of each text.

    Returns (flat_hashes: uint64, starts: int64 offsets per doc).
    Tokenization = split on runs of non-alphanumerics, lowercased —
    the same rule as the token-frequency oracle. Per-token hashing is
    zlib.crc32 (C speed); shingle combination is vectorized numpy.
    """
    import re
    from zlib import crc32

    tok_re = re.compile(r"[0-9a-zA-Z]+")
    tok_hashes: list[int] = []
    counts = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        toks = tok_re.findall(t.lower()) if t else []
        counts[i] = len(toks)
        tok_hashes.extend(crc32(w.encode()) for w in toks)
    T = np.asarray(tok_hashes, dtype=np.uint64)
    doc_starts = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(counts, out=doc_starts[1:])
    nsh = np.maximum(np.where(counts > 0, counts - k + 1, 1), 1)
    starts = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(nsh, out=starts[1:])
    flat = np.zeros(int(starts[-1]), dtype=np.uint64)
    # position-dependent combine of k consecutive token hashes
    C = [np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F),
         np.uint64(0x165667B19E3779F9), np.uint64(0x27D4EB2F165667C5)]
    with np.errstate(over="ignore"):
        for i in range(len(texts)):
            lo, n_tok = int(doc_starts[i]), int(counts[i])
            s0 = int(starts[i])
            if n_tok >= k:
                acc = np.zeros(n_tok - k + 1, dtype=np.uint64)
                for j in range(k):
                    acc += T[lo + j : lo + j + n_tok - k + 1] * C[j % len(C)]
                flat[s0 : s0 + n_tok - k + 1] = _splitmix64(acc)
            elif n_tok > 0:
                acc = np.uint64(0)
                for j in range(n_tok):
                    acc += T[lo + j] * C[j % len(C)]
                flat[s0] = _splitmix64(np.uint64(acc))
    return flat, starts


def char_shingles(strs, k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Hash the k-byte shingles of each (short) string, vectorized.

    For short surface forms (blocking keys). Returns flat hashes +
    offsets like `token_shingles`.
    """
    from .similarity import encode_padded

    max_len = 48
    A, lens = encode_padded(strs, max_len)
    n = A.shape[0]
    nsh = np.maximum(lens - k + 1, 1).astype(np.int64)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nsh, out=starts[1:])
    L = A.shape[1]
    codes = np.zeros((n, max(L - k + 1, 1)), dtype=np.uint64)
    a = A.astype(np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            codes = codes * np.uint64(256) + a[:, j : a.shape[1] - k + 1 + j]
    codes = _splitmix64(codes)
    pos = np.arange(codes.shape[1])
    valid = pos[None, :] < nsh[:, None]
    flat = codes[valid]
    return flat, starts


def hash_bytes(s: str) -> int:
    """Stable 64-bit string hash (FNV-1a), deterministic across runs."""
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def minhash_signatures(
    flat: np.ndarray, starts: np.ndarray, num_perm: int = 128, seed: int = 42
) -> np.ndarray:
    """(n_docs, num_perm) uint64 minhash signature matrix.

    One `np.minimum.reduceat` per permutation over the flat shingle
    array — vectorized across all documents in the batch.
    """
    n = len(starts) - 1
    sig = np.empty((n, num_perm), dtype=np.uint64)
    if len(flat) == 0:
        sig.fill(0)
        return sig
    rs = np.random.RandomState(seed)
    # odd multipliers + offsets for a multiply-xor family
    muls = (rs.randint(1, 1 << 62, size=num_perm).astype(np.uint64) << np.uint64(1)) | np.uint64(1)
    offs = rs.randint(0, 1 << 62, size=num_perm).astype(np.uint64)
    idx = starts[:-1]
    with np.errstate(over="ignore"):
        for p in range(num_perm):
            hv = flat * muls[p] + offs[p]
            hv ^= hv >> np.uint64(33)
            sig[:, p] = np.minimum.reduceat(hv, idx)
    return sig


def simhash(flat: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """64-bit SimHash per document from flat shingle hashes.

    Majority vote per bit-plane via np.add.reduceat on the unpacked
    bit matrix.
    """
    n = len(starts) - 1
    if len(flat) == 0:
        return np.zeros(n, dtype=np.uint64)
    bits = np.unpackbits(flat.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    counts = np.add.reduceat(bits.astype(np.int32), starts[:-1], axis=0)
    sizes = np.diff(starts)[:, None]
    maj = (counts * 2 > sizes).astype(np.uint64)
    weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
    return (maj * weights[None, :]).sum(axis=1, dtype=np.uint64)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distance between uint64 arrays."""
    x = np.bitwise_xor(a, b)
    cnt = np.zeros(len(x), dtype=np.int64)
    for _ in range(64):
        cnt += (x & np.uint64(1)).astype(np.int64)
        x = x >> np.uint64(1)
    return cnt


def jaccard_exact(tokens_a: list[set], tokens_b: list[set]) -> np.ndarray:
    """Exact Jaccard over precomputed token sets (verification step)."""
    out = np.empty(len(tokens_a), dtype=np.float64)
    for i, (sa, sb) in enumerate(zip(tokens_a, tokens_b)):
        u = len(sa | sb)
        out[i] = (len(sa & sb) / u) if u else 1.0
    return out


def icws_signatures(
    tok_h: np.ndarray,
    weights: np.ndarray,
    starts: np.ndarray,
    num_samples: int = 128,
    seed: int = 42,
) -> np.ndarray:
    """(n_docs, num_samples) uint64 Improved Consistent Weighted
    Sampling signatures (Ioffe, ICDM 2010): for two weighted sets the
    per-sample collision probability is EXACTLY their weighted
    Jaccard sum(min w)/sum(max w) — the weighted generalization of
    minhash, so the same 32x4 banding detection math applies.

    Per sample k and token i with weight w > 0 (Ioffe's scheme,
    log-space):
        r ~ Gamma(2,1) = -ln(u1*u2),  c ~ Gamma(2,1) = -ln(u3*u4),
        b ~ U(0,1)                    (all hash-derived from (h_i, k),
                                       so they are CONSISTENT: the
                                       same token draws the same
                                       randomness in every doc)
        t    = floor(ln(w)/r + b)
        ln y = r*(t - b)
        ln a = ln c - ln y - r
    and the sample is (token, t) of the argmin ln a; equal weighted
    sets produce equal samples, and sample ids hash (h, t) together.

    Vectorized exactly like minhash_signatures: the Python loop runs
    over the num_samples axis only; each iteration is a handful of
    numpy passes over the flat (doc, token) array with
    np.minimum.reduceat per doc. Zero-weight/empty docs emit 0."""
    n = len(starts) - 1
    sig = np.zeros((n, num_samples), dtype=np.uint64)
    total = len(tok_h)
    if total == 0 or n == 0:
        return sig
    tok_h = tok_h.astype(np.uint64)
    logw = np.log(weights.astype(np.float64))
    # clip so reduceat stays in-bounds when trailing docs are empty;
    # their (meaningless) reductions are masked by `nonempty` below
    idx = np.minimum(starts[:-1], total - 1).astype(np.int64)
    lens = np.diff(starts).astype(np.int64)
    doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    nonempty = lens > 0
    pos = np.arange(total, dtype=np.int64)
    BIG = np.int64(total)
    INF = np.float64(np.inf)
    rs = np.random.RandomState(seed)
    salts = rs.randint(0, 1 << 62, size=(num_samples, 5)).astype(
        np.uint64
    )

    def unif(salt: np.uint64) -> np.ndarray:
        v = _splitmix64(tok_h ^ salt)
        # 53-bit mantissa uniform in (0, 1]; +1 avoids ln(0)
        return (
            (v >> np.uint64(11)).astype(np.float64) + 1.0
        ) / 9007199254740993.0

    with np.errstate(over="ignore"):
        for k in range(num_samples):
            u = [unif(salts[k, j]) for j in range(5)]
            r = -np.log(u[0] * u[1])
            c = -np.log(u[2] * u[3])
            b = u[4]
            t = np.floor(logw / r + b)
            ln_y = r * (t - b)
            ln_a = np.log(c) - ln_y - r
            m = np.minimum.reduceat(ln_a, idx)
            win_mask = ln_a == m[doc_of]
            cand = np.where(win_mask, pos, BIG)
            win = np.minimum.reduceat(cand, idx)
            win = np.where(nonempty, win, 0).astype(np.int64)
            t_bits = (
                t[win].astype(np.int64).astype(np.uint64)
            )  # t can be negative for w < 1; int64 view is fine
            sid = _splitmix64(
                tok_h[win] ^ _splitmix64(t_bits ^ salts[k, 0])
            )
            sig[:, k] = np.where(nonempty, sid, np.uint64(0))
    return sig
