"""PairScorer(emit="edges_only") bounds each pair's score from its oid /
fold agreement and runs the similarity kernels only on pairs whose
bound reaches the threshold. Its output must be exactly the edge rows
of emit="edges": same pairs, same four columns, equal scores, on the
code path and on the string path. Pure: no Ray session."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bern_ray.core.similarity import MAX_LEN
from bern_ray.stages import scoring
from bern_ray.stages.scoring import PairScorer

LONG = "n" * (MAX_LEN + 12)

# (surface, oid) per mention; the mention id is the index
MENTIONS = [
    ("aspirin", "MESH:1"),
    ("Aspirin", "MESH:1"),
    ("ASA", "MESH:1"),
    ("aspirin", "MESH:2"),
    ("advil", None),
    ("Advil", None),  # unresolved, fold equal, surfaces differ
    ("ad-vil", None),
    ("advil", None),
    ("", None),
    ("", "MESH:2"),
    (LONG, None),
    (LONG + "tail", None),  # equal to LONG within MAX_LEN bytes
    (LONG, "GN:7"),
    ("éta", None),
    ("ÉTA", None),
    ("zeta", "GN:7"),
    ("brca-1", None),
    ("BRCA1", "GN:7"),
]

THRESHOLDS = [0.0, 0.2, 0.72, 0.75, 0.92, 1.0]


class _Vocab:
    """What PairScorer reads of an AttrVocab, without a Ray session."""

    def __init__(self, surfaces, oids):
        self.surfaces = np.array(sorted(set(surfaces)), dtype=object)
        self.oids = np.array(
            sorted({o for o in oids if o is not None}), dtype=object
        )

    def arrays(self):
        return self.surfaces, self.oids

    def codes(self, values, vocab):
        return [
            -1 if v is None else int(np.searchsorted(vocab, v))
            for v in values
        ]


def _all_pairs(mentions):
    n = len(mentions)
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _string_batch(mentions, pairs) -> pa.Table:
    a = [mentions[i] for i, _ in pairs]
    b = [mentions[j] for _, j in pairs]
    return pa.table(
        {
            "a_mid": pa.array([i for i, _ in pairs], type=pa.int64()),
            "b_mid": pa.array([j for _, j in pairs], type=pa.int64()),
            "a_surface": pa.array([s for s, _ in a], type=pa.string()),
            "b_surface": pa.array([s for s, _ in b], type=pa.string()),
            "a_oid": pa.array([o for _, o in a], type=pa.string()),
            "b_oid": pa.array([o for _, o in b], type=pa.string()),
            "block_key": pa.array(["k"] * len(pairs), type=pa.string()),
        }
    )


def _code_batch(mentions, pairs):
    vocab = _Vocab([s for s, _ in mentions], [o for _, o in mentions])
    vs, vo = vocab.arrays()

    def col(side, k, table):
        return pa.array(
            vocab.codes([mentions[p[side]][k] for p in pairs], table),
            type=pa.int32(),
        )

    batch = pa.table(
        {
            "a_mid": pa.array([i for i, _ in pairs], type=pa.int64()),
            "b_mid": pa.array([j for _, j in pairs], type=pa.int64()),
            "a_sc": col(0, 0, vs),
            "b_sc": col(1, 0, vs),
            "a_oc": col(0, 1, vo),
            "b_oc": col(1, 1, vo),
            "key": pa.array([7] * len(pairs), type=pa.int64()),
        }
    )
    return batch, vocab


def _batch(path, mentions, pairs):
    if path == "string":
        return _string_batch(mentions, pairs), None
    return _code_batch(mentions, pairs)


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([("a_mid", "ascending"), ("b_mid", "ascending")])


def _assert_edges_only_exact(batch, vocab, **kw):
    full = PairScorer(emit="edges", vocab=vocab, **kw)(batch)
    want = _sorted(full.filter(full["is_edge"]))
    got = PairScorer(emit="edges_only", vocab=vocab, **kw)(batch)
    assert got.schema.names == ["a_mid", "b_mid", "score", "is_edge"]
    assert got.schema == want.schema
    got = _sorted(got)
    assert got.equals(want), (got.to_pydict(), want.to_pydict())
    return got


def _bound_of_both_unresolved() -> float:
    one = np.ones(1)
    return float(
        PairScorer()._final_score(
            one, one, one, np.zeros(1, dtype=np.intp),
            np.zeros(1, dtype=bool), np.ones(1, dtype=bool),
        )[0]
    )


@pytest.mark.parametrize("path", ["string", "code"])
@pytest.mark.parametrize(
    "threshold", THRESHOLDS + [_bound_of_both_unresolved()]
)
def test_edges_only_is_the_edge_rows_of_edges(path, threshold):
    batch, vocab = _batch(path, MENTIONS, _all_pairs(MENTIONS))
    got = _assert_edges_only_exact(batch, vocab, threshold=threshold)
    if threshold == 0.75:
        # the unresolved fold twins and the same-oid pairs link
        pairs = set(zip(got["a_mid"].to_pylist(), got["b_mid"].to_pylist()))
        assert {(0, 1), (0, 2), (4, 5), (4, 6), (4, 7)} <= pairs
        assert (0, 3) not in pairs


@pytest.mark.parametrize("path", ["string", "code"])
def test_unresolved_fold_twins_reach_the_kernels(path, monkeypatch):
    """A bound that left out the 0.9 both-unresolved case would prune
    advil / Advil; it must be scored and linked."""
    seen = []
    jw = scoring.jaro_winkler

    def recording(a, b):
        seen.append(list(zip(a, b)))
        return jw(a, b)

    monkeypatch.setattr(scoring, "jaro_winkler", recording)
    mentions = [("advil", None), ("Advil", None), ("aspirin", "MESH:1")]
    batch, vocab = _batch(path, mentions, _all_pairs(mentions))
    got = _assert_edges_only_exact(batch, vocab)
    assert got["a_mid"].to_pylist() == [0]
    assert got["b_mid"].to_pylist() == [1]
    # edges mode scored all three pairs; edges_only only the twins
    assert [len(s) for s in seen] == [3, 1]
    assert seen[1] == [("advil", "Advil")]


@pytest.mark.parametrize("path", ["string", "code"])
def test_all_pruned_batch_is_empty_with_edge_schema(path, monkeypatch):
    mentions = [("aspirin", "MESH:1"), ("aspirin", "MESH:2"), ("", "GN:7")]
    batch, vocab = _batch(path, mentions, _all_pairs(mentions))

    def never(a, b):
        raise AssertionError("a pruned pair reached the kernels")

    monkeypatch.setattr(scoring, "jaro_winkler", never)
    got = PairScorer(emit="edges_only", vocab=vocab)(batch)
    assert got.num_rows == 0
    assert got.schema == pa.schema(
        [
            ("a_mid", pa.int64()),
            ("b_mid", pa.int64()),
            ("score", pa.float64()),
            ("is_edge", pa.bool_()),
        ]
    )


@pytest.mark.parametrize("path", ["string", "code"])
def test_empty_batch_has_edge_schema(path):
    batch, vocab = _batch(path, MENTIONS, [])
    got = PairScorer(emit="edges_only", vocab=vocab)(batch)
    assert got.num_rows == 0
    assert got.schema.names == ["a_mid", "b_mid", "score", "is_edge"]
    _assert_edges_only_exact(batch, vocab)


def _constant_model():
    def embed(surfaces):
        E = np.zeros((len(surfaces), 4))
        E[:, 0] = 1.0
        return E

    return embed


@pytest.mark.parametrize("path", ["string", "code"])
@pytest.mark.parametrize("scorer", ["pair_model", "custom_embedder"])
def test_unbounded_scorers_prune_nothing(path, scorer, monkeypatch):
    """A pair model or a custom embedder has no bounded formula: every
    unique pair reaches the kernels, then only the edges are kept."""
    kw = (
        {"pair_model_loader": scoring.load_pair_model(
            scoring.default_pair_model_path())}
        if scorer == "pair_model"
        else {"model_loader": _constant_model}
    )
    batch, vocab = _batch(path, MENTIONS, _all_pairs(MENTIONS))
    seen = []
    jw = scoring.jaro_winkler

    def recording(a, b):
        seen.append(len(a))
        return jw(a, b)

    monkeypatch.setattr(scoring, "jaro_winkler", recording)
    _assert_edges_only_exact(batch, vocab, **kw)
    # one kernel call per mode, each over every unique surface pair
    assert len(seen) == 2 and seen[0] == seen[1]


_SURFACES = ["advil", "Advil", "ad vil", "", "éta", "ÉTA", LONG, LONG + "x", "p53"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_SURFACES),
            st.sampled_from([None, None, "MESH:1", "MESH:2"]),
        ),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=24),
    st.sampled_from(THRESHOLDS + [_bound_of_both_unresolved()]),
)
def test_edges_only_fuzz(mentions, raw_pairs, threshold):
    n = len(mentions)
    pairs = [(i % n, j % n) for i, j in raw_pairs]
    for path in ("string", "code"):
        batch, vocab = _batch(path, mentions, pairs)
        _assert_edges_only_exact(batch, vocab, threshold=threshold)
