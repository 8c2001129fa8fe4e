"""Checkpoint/resume (FIXTURES.md §6 item 5): rerun after a completed
stage skips recomputation and yields identical output."""

import json
import os
import shutil

import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def ckpt_root(tmp_path):
    return str(tmp_path / "ckpt")


def _run(ckpt_root):
    from bern_ray.pipelines.linkage import linkage_pipeline

    df = (
        linkage_pipeline(SF, checkpoint_root=ckpt_root, concurrency=(1, 2))
        .to_pandas()
        .sort_values(["url", "mention_id"])
        .reset_index(drop=True)
    )
    return df


def test_resume_skips_completed_stages(ray_session, ckpt_root):
    from bern_ray.state.checkpoint import is_complete, read_manifest

    df1 = _run(ckpt_root)
    assert is_complete(ckpt_root, "normalized")
    assert is_complete(ckpt_root, "scored_pairs")
    assert is_complete(ckpt_root, "clusters")
    man = read_manifest(ckpt_root, "scored_pairs")
    assert man["rows"] > 0 and man["lineage"] == ["normalized"]

    # poison the normalized stage data (but keep its manifest): a resume
    # must NOT recompute it, and downstream stages must load from disk
    # without touching the factory.
    df2 = _run(ckpt_root)
    assert df1.drop(columns=["ids"]).equals(df2.drop(columns=["ids"]))

    # delete the LAST stage only -> rerun recomputes it from the
    # checkpointed upstream, result identical
    shutil.rmtree(os.path.join(ckpt_root, "clusters"))
    df3 = _run(ckpt_root)
    assert df1.drop(columns=["ids"]).equals(df3.drop(columns=["ids"]))


def test_manifest_contents(ray_session, ckpt_root):
    from bern_ray.state.checkpoint import read_manifest

    _run(ckpt_root)
    man = read_manifest(ckpt_root, "normalized")
    schema_cols = [c for c, _t in man["schema"]]
    assert {"url", "mention_id", "surface", "oid"} <= set(schema_cols)
    assert man["wall_sec"] > 0
    with open(os.path.join(ckpt_root, "normalized", "_MANIFEST.json")) as f:
        assert json.load(f)["stage"] == "normalized"


def test_content_key_mismatch_recomputes(ray_session, tmp_path):
    """A checkpoint written under one config must NOT be reused for a
    different config (stale-read hazard): the stage recomputes and the
    manifest's content key updates."""
    import ray.data

    from bern_ray.state.checkpoint import checkpointed, read_manifest

    root = str(tmp_path / "ck")
    calls = []

    def factory_v(rows):
        def f():
            calls.append(rows)
            return ray.data.range(rows)

        return f

    a = checkpointed("st", factory_v(5), root, config={"sf": "a"})
    assert a.count() == 5 and calls == [5]
    # same config -> reused, factory not called again
    b = checkpointed("st", factory_v(7), root, config={"sf": "a"})
    assert b.count() == 5 and calls == [5]
    # different config -> recomputed
    c = checkpointed("st", factory_v(7), root, config={"sf": "b"})
    assert c.count() == 7 and calls == [5, 7]
    assert read_manifest(root, "st")["content_key"] is not None


def test_code_change_recomputes(ray_session, tmp_path):
    """The linkage content keys carry ``source_digest`` of the code the
    stages run: one changed byte in that code recomputes the stage
    instead of reusing the stored one."""
    import ray.data

    from bern_ray.stages import partitions
    from bern_ray.state.checkpoint import checkpointed, source_digest

    src = tmp_path / "src"
    src.mkdir()
    mod = src / "partitions.py"
    mod.write_bytes(open(partitions.__file__, "rb").read())
    root = str(tmp_path / "ck")
    calls = []

    def factory():
        calls.append(1)
        return ray.data.range(3)

    def run():
        cfg = {"sf": "a", "code": source_digest(str(src))}
        return checkpointed("st", factory, root, config=cfg).count()

    assert run() == 3 and len(calls) == 1
    assert run() == 3 and len(calls) == 1  # unchanged code: reused
    body = mod.read_bytes()
    mod.write_bytes(body[:-1] + bytes([body[-1] ^ 1]))  # one byte
    source_digest.cache_clear()  # a new process computes it afresh
    assert run() == 3 and len(calls) == 2


def test_stage_metrics_rollup(ray_session, tmp_path):
    """The metrics rollup (state/metrics.py) turns each completed
    stage's _MANIFEST.json + parquet sidecars into one queryable row
    with consistent rows/bytes/lineage facts."""
    import pyarrow as pa

    import ray.data

    from bern_ray.state import counters
    from bern_ray.state.checkpoint import checkpointed, read_manifest
    from bern_ray.state.metrics import stage_metrics

    # cap counters from tests that ran earlier in this Ray session
    # would otherwise surface as extra cap:* rollup rows
    counters.reset()

    root = str(tmp_path / "ckpt")

    def mk(n):
        return lambda: ray.data.from_arrow(
            pa.table({"x": pa.array(range(n), type=pa.int64())})
        )

    checkpointed("alpha", mk(100), root, lineage=["pages"], config={"v": 1})
    checkpointed(
        "beta", mk(40), root, lineage=["alpha"], config={"v": 1}
    )
    df = stage_metrics(root).to_pandas().set_index("stage")
    assert set(df.index) == {"alpha", "beta"}
    assert df.loc["alpha", "rows"] == 100
    assert df.loc["beta", "rows"] == 40
    assert (df["bytes"] > 0).all() and (df["n_files"] >= 1).all()
    assert list(df.loc["beta", "lineage"]) == ["alpha"]
    assert (
        df.loc["alpha", "content_key"]
        == read_manifest(root, "alpha")["content_key"]
    )
    # wall times are real measurements
    assert (df["wall_sec"] > 0).all()
