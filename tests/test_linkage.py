"""End-to-end linkage correctness: pairwise F1 >= 0.99 on labeled
same-block pairs + golden cluster comparison (FIXTURES.md §6 items
3-4; BASELINE.md target metrics).

Ground truth is derived from the page synthesizer's planted mentions:
two mentions are positive iff the reference semantics (dictionary
fold/fallback chain + oid_merge transitive closure) give them the same
canonical ID — exactly the reference's normalization fixtures
re-expressed as linkage pairs (utils.py:155-265 analog).
"""

import itertools

import pytest

from bern_ray.core.fold import fold_text_str
from bern_ray.sources import dicts
from bern_ray.sources.pages import planted_mentions, url_of

SF = "/root/testdata/sf0.001"
N_DOCS = 500


@pytest.fixture(scope="module")
def clusters_df(ray_session):
    from bern_ray.pipelines.linkage import linkage_pipeline

    return linkage_pipeline(SF, concurrency=(1, 2)).to_pandas()


@pytest.fixture(scope="module")
def truth():
    """(url, folded_surface) -> canonical ground-truth oid."""
    closure = dicts.merge_closure(dicts.build_oid_merge())
    out = {}
    for doc_id in range(N_DOCS):
        for idx, surf in planted_mentions(doc_id):
            canon = closure.get(dicts.oid_of(idx), dicts.oid_of(idx))
            out[(url_of(doc_id), fold_text_str(surf))] = canon
    return out


def _mention_cluster_map(clusters_df):
    return {
        (r.url, r.surface): r.cluster_id
        for r in clusters_df.itertuples()
    }


def test_every_planted_mention_clustered_to_canonical(clusters_df, truth):
    got = _mention_cluster_map(clusters_df)
    wrong = []
    for (url, surf), canon in truth.items():
        cid = got.get((url, surf))
        if cid != f"BERN:{canon}":
            wrong.append((url, surf, canon, cid))
    assert not wrong, wrong[:10]


def test_pairwise_f1(clusters_df, truth):
    """Pairwise P/R/F1 over labeled pairs sharing a blocking key.

    Positives: same canonical oid (all such pairs share the 'O:<oid>'
    block). Negatives: different canonical oids drawn from adjacent
    dictionary indices (similar surfaces -> frequently share LSH
    bands) plus random cross pairs.
    """
    got = _mention_cluster_map(clusters_df)
    by_canon = {}
    for key, canon in truth.items():
        by_canon.setdefault(canon, []).append(key)

    tp = fp = fn = tn = 0
    # positive labeled pairs (cap per canon for test runtime)
    for canon, keys in by_canon.items():
        for a, b in itertools.islice(itertools.combinations(keys, 2), 50):
            if got.get(a) == got.get(b) and got.get(a) is not None:
                tp += 1
            else:
                fn += 1
    # negative labeled pairs: adjacent canon ids (same etype = step 7)
    canons = sorted(by_canon)
    rngpairs = zip(canons, canons[1:])
    for c1, c2 in rngpairs:
        for a in by_canon[c1][:5]:
            for b in by_canon[c2][:5]:
                if got.get(a) == got.get(b) and got.get(a) is not None:
                    fp += 1
                else:
                    tn += 1
    assert tp + fn > 500, "not enough positive labeled pairs"
    assert fp + tn > 500, "not enough negative labeled pairs"
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    assert f1 >= 0.99, (precision, recall, f1)


def test_merge_chain_transitive(clusters_df):
    """Mentions normalized to oid i, i-7, i-14 (a goid2goid chain) must
    share one cluster — the transitive-closure requirement."""
    df = clusters_df.dropna(subset=["oid"])
    for i in range(14, dicts.N_OIDS, 21):
        oids = {dicts.oid_of(i - 14), dicts.oid_of(i - 7), dicts.oid_of(i)}
        sub = df[df.oid.isin({dicts.oid_of(i - 14)})]
        if sub.empty:
            continue
        # the pipeline rewrites member oids to the canonical root
        assert set(sub.cluster_id) == {f"BERN:{dicts.oid_of(i - 14)}"}


def test_lp_mode_identical_clusters(clusters_df, ray_session):
    """cc_mode='lp' runs CC + label attach as pure Dataset ops (no
    driver label dict); its cluster assignment must be identical to
    the union-find path because cluster_id is derived from component
    CONTENT (min oid / shared fold key), not from root node ids."""
    from bern_ray.pipelines.linkage import linkage_pipeline

    lp = linkage_pipeline(SF, cc_mode="lp", concurrency=(1, 2)).to_pandas()
    key = ["url", "mention_id"]
    a = clusters_df[key + ["cluster_id"]].sort_values(key).reset_index(
        drop=True
    )
    b = lp[key + ["cluster_id"]].sort_values(key).reset_index(drop=True)
    assert a.equals(b)


def test_cluster_ids_consistent(clusters_df):
    df = clusters_df.dropna(subset=["oid"])
    assert (df.groupby("oid").cluster_id.nunique() <= 1).all()
    assert (df.groupby("cluster_id").oid.nunique() <= 1).all()


def test_pool_check_needs_a_free_cpu():
    from bern_ray.pipelines.linkage import check_pool_fits

    check_pool_fits((1, 8), 2)
    check_pool_fits(3, 4)
    with pytest.raises(ValueError, match="at least 5 CPUs.*has 4"):
        check_pool_fits((4, 4), 4)
    with pytest.raises(ValueError, match="at least 2 CPUs.*has 1"):
        check_pool_fits((1, 1), 1)


def test_too_few_cpus_fails_loudly(ray_session):
    """A pool minimum that holds all 4 CPUs stalls the pipeline; it
    must raise before any dataset is built."""
    import time

    from bern_ray.pipelines.linkage import linkage_pipeline

    t0 = time.monotonic()
    with pytest.raises(ValueError, match="at least 5 CPUs.*has 4"):
        linkage_pipeline(SF, concurrency=(4, 4))
    assert time.monotonic() - t0 < 5


def test_pool_actor_that_cannot_start_fails_fast(
    ray_session, tmp_path, monkeypatch
):
    """An extraction actor that cannot start (its class lives in a
    module only the test process can import) must fail the dataset, not be
    re-created without end. Runs in a thread so a restart loop fails
    the test after 30 s instead of hanging it."""
    import threading

    import ray.data

    from bern_ray.pipelines import linkage

    (tmp_path / "local_only_udf.py").write_text(
        "class Unimportable:\n"
        "    def __init__(self, **kwargs):\n"
        "        pass\n"
        "\n"
        "    def __call__(self, batch):\n"
        "        return batch\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    from local_only_udf import Unimportable

    monkeypatch.setattr(linkage, "FusedExtractNormalize", Unimportable)
    outcome = {}

    def run():
        try:
            linkage.extract_normalize_mentions(
                ray.data.from_items([{"x": 1}]), concurrency=(1, 1)
            ).materialize()
            outcome["done"] = "no error"
        except Exception as e:
            outcome["done"] = e

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert isinstance(outcome["done"], Exception)


def test_model_scorer_that_cannot_start_fails_fast(
    ray_session, tmp_path, monkeypatch
):
    """A scorer with a pair model that cannot be built in the worker
    must fail the dataset at once, not be retried without end (same
    pattern as the extraction test above)."""
    import threading

    import ray.data

    from bern_ray.pipelines import linkage

    (tmp_path / "local_only_scorer.py").write_text(
        "class Unimportable:\n"
        "    def __init__(self, **kwargs):\n"
        "        pass\n"
        "\n"
        "    def __call__(self, batch):\n"
        "        return batch\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    from local_only_scorer import Unimportable

    monkeypatch.setattr(linkage, "PairScorer", Unimportable)
    outcome = {}

    def run():
        try:
            linkage.score_pairs(
                ray.data.from_items([{"a_sc": 0, "b_sc": 1}]),
                None,
                concurrency=(1, 1),
                vocab=object(),
                pair_model_loader=lambda: None,
            ).materialize()
            outcome["done"] = "no error"
        except Exception as e:
            outcome["done"] = e

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert isinstance(outcome["done"], Exception)


class _RecordingDataset:
    """Stands in for a Dataset: records each map_batches call."""

    def __init__(self):
        self.calls = []

    def map_batches(self, fn, **kwargs):
        self.calls.append((fn, kwargs))
        return self

    def materialize(self):
        return self


@pytest.mark.parametrize(
    "stage",
    ["extract_normalize", "extract", "normalize", "score", "model_score"],
)
def test_stages_are_task_maps(stage):
    """Every stage, a pair-model scorer included, maps a plain function
    (one stage object per worker process) with no concurrency, so Ray
    Data can fuse it with the map before it and starts no actor
    pool."""
    import inspect

    from bern_ray.pipelines import linkage

    ds = _RecordingDataset()
    if stage == "extract_normalize":
        linkage.extract_normalize_mentions(ds, concurrency=(1, 4))
    elif stage == "extract":
        linkage.extract_mentions(ds)
    elif stage == "normalize":
        linkage.normalize_mentions(ds)
    elif stage == "score":
        linkage.score_pairs(ds, None, concurrency=(1, 4), vocab=object())
    else:
        linkage.score_pairs(
            ds,
            None,
            concurrency=(1, 4),
            vocab=object(),
            pair_model_loader=lambda: None,
        )
    (fn, kwargs), = ds.calls
    assert inspect.isfunction(fn)
    assert "concurrency" not in kwargs
    assert "fn_constructor_kwargs" not in kwargs


def test_pipeline_passes_planned_buckets(monkeypatch):
    """linkage_pipeline plans one bucket count from the pages metadata
    and the session's CPUs, and hands it to pair generation and to
    cluster_mentions (500 pages on 3 CPUs: 3 blocks, 6 buckets)."""
    from bern_ray.pipelines import linkage

    seen = {}

    def candidate_pairs(mentions, **kwargs):
        seen["candidate_pairs"] = kwargs["num_buckets"]
        return _RecordingDataset()

    def cluster_mentions(normalized, edges, **kwargs):
        seen["cluster_mentions"] = kwargs["num_buckets"]
        return _RecordingDataset()

    monkeypatch.setattr(linkage, "session_cpus", lambda: 3)
    monkeypatch.setattr(linkage, "read_pages", lambda sf: _RecordingDataset())
    monkeypatch.setattr(
        linkage, "extract_normalize_mentions", lambda p, **kw: p
    )
    monkeypatch.setattr(linkage, "build_attr_vocab", lambda ds: object())
    monkeypatch.setattr(linkage, "candidate_pairs", candidate_pairs)
    monkeypatch.setattr(linkage, "score_pairs", lambda p, n, **kw: p)
    monkeypatch.setattr(linkage, "cluster_mentions", cluster_mentions)

    assert linkage.pass_buckets(SF) == 6
    linkage.linkage_pipeline(SF, concurrency=(1, 2))
    assert seen == {"candidate_pairs": 6, "cluster_mentions": 6}


def _stub_pass(monkeypatch, cpus: int, vocab):
    """linkage_pipeline over stub datasets (checkpoints built in place);
    returns the module and the ``emit`` of each score_pairs call."""
    from bern_ray.pipelines import linkage

    emits = []

    def score_pairs(pairs, normalized, **kwargs):
        emits.append(kwargs["emit"])
        return pairs

    monkeypatch.setattr(linkage, "session_cpus", lambda: cpus)
    monkeypatch.setattr(linkage, "read_pages", lambda sf: _RecordingDataset())
    monkeypatch.setattr(
        linkage, "extract_normalize_mentions", lambda p, **kw: p
    )
    monkeypatch.setattr(linkage, "build_attr_vocab", lambda ds: vocab)
    monkeypatch.setattr(
        linkage, "candidate_pairs", lambda m, **kw: _RecordingDataset()
    )
    monkeypatch.setattr(linkage, "score_pairs", score_pairs)
    monkeypatch.setattr(
        linkage, "cluster_mentions", lambda n, e, **kw: _RecordingDataset()
    )
    monkeypatch.setattr(
        linkage, "checkpointed", lambda name, build, root, **kw: build()
    )
    return linkage, emits


@pytest.mark.parametrize("vocab", [object(), None], ids=["codes", "strings"])
def test_pass_without_checkpoint_scores_edges_only(monkeypatch, vocab):
    linkage, emits = _stub_pass(monkeypatch, 3, vocab)
    linkage.linkage_pipeline(SF, concurrency=(1, 2))
    assert emits == ["edges_only"]


@pytest.mark.parametrize("scored_emit", ["decoded", "edges"])
def test_checkpointed_pass_scores_every_pair(monkeypatch, tmp_path, scored_emit):
    linkage, emits = _stub_pass(monkeypatch, 3, object())
    linkage.linkage_pipeline(
        SF, checkpoint_root=str(tmp_path), scored_emit=scored_emit
    )
    assert emits == [scored_emit]


def test_one_cpu_session_plans_a_pass(monkeypatch):
    """No stage needs a CPU of its own, so the default pass does not
    ask for one; a stated minimum is still checked."""
    linkage, emits = _stub_pass(monkeypatch, 1, object())
    linkage.linkage_pipeline(SF)
    assert emits == ["edges_only"]
    with pytest.raises(ValueError, match="at least 2 CPUs.*has 1"):
        linkage.linkage_pipeline(SF, concurrency=(1, 8))


def test_process_instance_is_one_per_class_and_key(monkeypatch):
    from bern_ray.pipelines import linkage

    monkeypatch.setattr(linkage, "_INSTANCES", {})
    built = []

    class Stage:
        def __init__(self, **kwargs):
            built.append(kwargs)

    a = linkage._process_instance(Stage, ("edges", "r1"), x=1)
    assert linkage._process_instance(Stage, ("edges", "r1"), x=1) is a
    b = linkage._process_instance(Stage, ("edges", "r2"), x=2)
    assert b is not a
    assert built == [{"x": 1}, {"x": 2}]
    # the replaced instance is no longer held
    assert list(linkage._INSTANCES.values()) == [(("edges", "r2"), b)]


def test_assign_clusters_bucket_min_oid_else_fold_key():
    """Two roots in one bucket: root 1 has a resolved oid (its least
    one wins over a null), root 2 has none and takes its least fold key
    by code point ('zeta' < 'éta'); rows keep their order and the mention columns pass
    through."""
    import pyarrow as pa

    from bern_ray.pipelines.linkage import _assign_clusters_bucket

    t = pa.table(
        {
            "url": ["u0", "u1", "u2", "u3", "u4"],
            "mention_id": pa.array([10, 11, 12, 13, 14], pa.int64()),
            "etype": ["gene"] * 5,
            "start": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "end": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "surface": ["a", "b", "c", "d", "e"],
            "oid": ["O:9", None, None, "O:3", None],
            "ids": pa.array(
                [["x"], [], [], ["y", "z"], []], pa.list_(pa.string())
            ),
            "fold_key": ["k", "zeta", "éta", "j", "ötz"],
            "root": pa.array([1, 2, 2, 1, 2], pa.int64()),
        }
    )
    out = _assign_clusters_bucket(t)
    assert out.column_names == [
        c for c in t.column_names if c != "root"
    ] + ["cluster_id"]
    assert out["ids"].type == pa.list_(pa.string())
    assert out.drop_columns(["cluster_id"]).equals(t.drop_columns(["root"]))
    assert out["cluster_id"].to_pylist() == [
        "BERN:O:3",
        "SURF:zeta",
        "SURF:zeta",
        "BERN:O:3",
        "SURF:zeta",
    ]
