"""Output projections: per-doc (begin, obj) sort + PubTator lines."""

import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def clusters(ray_session):
    from bern_ray.pipelines.linkage import linkage_pipeline

    return linkage_pipeline(SF, concurrency=(1, 2)).materialize()


def test_denotations_sorted_within_doc(clusters):
    from bern_ray.sources.output import to_denotations

    out = to_denotations(clusters).to_pandas()
    assert len(out) == clusters.to_pandas().url.nunique()
    checked = 0
    for r in out.itertuples():
        dens = list(r.denotations)
        keys = [(d["begin"], d["obj"]) for d in dens]
        assert keys == sorted(keys)
        assert r.n_denotations == len(dens)
        checked += len(dens)
    assert checked == clusters.count()


def test_pubtator_lines(clusters):
    from bern_ray.sources.output import to_pubtator

    out = to_pubtator(clusters).to_pandas()
    assert len(out) == clusters.count()
    line = out.line.iloc[0]
    parts = line.split("\t")
    assert len(parts) == 6
    assert parts[0].startswith("https://")
    assert "|" in parts[5] or parts[5].startswith("CUI-less") or parts[5]


def test_write_and_readback(clusters, tmp_path):
    import ray.data

    from bern_ray.sources.output import write_outputs

    write_outputs(clusters, str(tmp_path))
    back = ray.data.read_parquet(f"{tmp_path}/denotations")
    assert back.count() == clusters.to_pandas().url.nunique()


def test_write_outputs_runs_lazy_clusters_once(clusters, tmp_path):
    """Both sinks read one materialization: each block of a lazy
    clusters dataset passes its map exactly once."""
    import os
    import tempfile

    from bern_ray.sources.output import write_outputs

    marks = tmp_path / "marks"
    marks.mkdir()

    def mark(t):
        fd, _ = tempfile.mkstemp(dir=marks)
        os.close(fd)
        return t

    lazy = clusters.map_batches(mark, batch_format="pyarrow", batch_size=None)
    write_outputs(lazy, str(tmp_path / "out"))
    assert len(list(marks.iterdir())) == clusters.num_blocks()


def test_pubtator_round_trip():
    """writer -> parser round-trip: every mention field survives
    (reference write convert.py:559-586, parse convert.py:9-115)."""
    import pyarrow as pa

    from bern_ray.sources.output import parse_pubtator_batch, pubtator_batch

    clusters = pa.table(
        {
            "url": pa.array(["u1", "u1", "u2"]),
            "start": pa.array([5, 0, 3], type=pa.int64()),
            "end": pa.array([9, 4, 7], type=pa.int64()),
            "surface": pa.array(["beta", "alfa", "gamm"]),
            "etype": pa.array(["gene", "drug", "species"]),
            "ids": pa.array(
                [["BERN:GN:1", "HGNC:2"], ["CUI-less"], []],
                type=pa.list_(pa.string()),
            ),
        }
    )
    lines = pubtator_batch(clusters)
    back = parse_pubtator_batch(lines)
    # writer sorts by (url, start); compare as sorted row sets
    want = clusters.to_pandas().sort_values(["url", "start"]).reset_index(
        drop=True
    )
    got = back.to_pandas().sort_values(["url", "start"]).reset_index(
        drop=True
    )
    for col in ("url", "start", "end", "surface", "etype"):
        assert got[col].tolist() == want[col].tolist()
    assert [list(x) for x in got["ids"]] == [list(x) for x in want["ids"]]


def test_pubtator_parser_skips_malformed():
    import pyarrow as pa

    from bern_ray.sources.output import parse_pubtator_batch

    t = pa.table(
        {
            "url": pa.array(["u", "u"]),
            "line": pa.array(["not a mention line", "u\t1\t3\tab\tgene\t"]),
        }
    )
    out = parse_pubtator_batch(t)
    assert out.num_rows == 1
    assert out["ids"].to_pylist() == [[]]


def test_write_outputs_partitioned(ray_session, tmp_path):
    """partition_by hive-partitions the cluster table so finished
    partitions are skippable on resume and prunable at read."""
    import os

    import pyarrow as pa
    import ray.data

    clusters = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array(["u1", "u2", "u3"]),
                "mention_id": pa.array([1, 2, 3], type=pa.int64()),
                "start": pa.array([0, 0, 0], type=pa.int64()),
                "end": pa.array([2, 2, 2], type=pa.int64()),
                "surface": pa.array(["aa", "bb", "cc"]),
                "etype": pa.array(["gene", "drug", "gene"]),
                "ids": pa.array(
                    [["x"], ["y"], ["z"]], type=pa.list_(pa.string())
                ),
                "cluster_id": pa.array(["c1", "c2", "c1"]),
            }
        )
    )
    from bern_ray.sources.output import write_outputs

    out = str(tmp_path / "out")
    write_outputs(clusters, out, partition_by="etype")
    parts = sorted(os.listdir(f"{out}/clusters"))
    assert any(p.startswith("etype=gene") for p in parts)
    assert any(p.startswith("etype=drug") for p in parts)
    back = ray.data.read_parquet(f"{out}/clusters").to_pandas()
    assert len(back) == 3
    assert os.path.isdir(f"{out}/denotations")


def test_denotations_roundtrip(ray_session):
    """to_denotations -> from_denotations recovers every (url, begin,
    end, obj, ids) row — the PubAnnotation write->read round-trip."""
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from bern_ray.sources.output import from_denotations, to_denotations

    t = pa.table(
        {
            "url": pa.array(
                ["u1", "u1", "u2", "u3", "u3", "u3"], type=pa.string()
            ),
            "start": pa.array([5, 0, 3, 9, 1, 1], type=pa.int64()),
            "end": pa.array([8, 2, 6, 12, 4, 3], type=pa.int64()),
            "cluster_id": pa.array(
                ["A", "B", "A", "C", "B", "A"], type=pa.string()
            ),
            "ids": pa.array(
                [["x"], [], ["y", "z"], [], ["w"], []],
                type=pa.list_(pa.string()),
            ),
        }
    )
    docs = to_denotations(
        ray.data.from_arrow(t).repartition(3), num_buckets=4
    )
    flat = (
        from_denotations(docs)
        .to_pandas()
        .sort_values(["url", "begin", "obj"])
        .reset_index(drop=True)
    )
    exp = (
        t.to_pandas()
        .rename(columns={"start": "begin", "cluster_id": "obj"})
        .sort_values(["url", "begin", "obj"])
        .reset_index(drop=True)[["url", "begin", "end", "obj", "ids"]]
    )
    flat["ids"] = flat["ids"].map(list)
    exp["ids"] = exp["ids"].map(list)
    pd.testing.assert_frame_equal(flat, exp)
