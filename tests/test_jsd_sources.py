"""jsd_sources: planted distributions — a source whose token
distribution equals the rest of the corpus scores ~0; a source with a
fully disjoint vocabulary scores the JSD maximum ln 2."""

import math

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from bern_ray.pipelines.relational import _jsd_by_source, q_jsd_sources


def _write(tmp_path, rows):
    t = pa.table(
        {
            "doc_id": pa.array(range(len(rows)), type=pa.int64()),
            "text": pa.array([r[0] for r in rows], type=pa.string()),
            "lang": pa.array(["en"] * len(rows), type=pa.string()),
            "source": pa.array([r[1] for r in rows], type=pa.string()),
            "n_chars": pa.array(
                [len(r[0]) for r in rows], type=pa.int64()
            ),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet", row_group_size=5)


@pytest.mark.usefixtures("ray_session")
def test_identical_vs_disjoint(tmp_path):
    same = "alpha beta gamma delta"
    rows = [(same, "mirrorA") for _ in range(20)]
    rows += [(same, "mirrorB") for _ in range(20)]
    rows += [("omega sigma tau phi", "alien") for _ in range(20)]
    _write(tmp_path, rows)

    got = (
        q_jsd_sources(str(tmp_path))
        .to_pandas()
        .set_index("source")["jsd"]
    )
    # mirrors vs rest share mass with each other but not with alien,
    # so they are NOT zero — but vs each other they'd be. Rebuild with
    # only the two mirrors to pin the zero case:
    assert got["alien"] == pytest.approx(math.log(2.0), abs=1e-6)

    rows2 = [(same, "mirrorA") for _ in range(20)]
    rows2 += [(same, "mirrorB") for _ in range(20)]
    _write(tmp_path, rows2)
    got2 = (
        q_jsd_sources(str(tmp_path))
        .to_pandas()
        .set_index("source")["jsd"]
    )
    assert got2["mirrorA"] == pytest.approx(0.0, abs=1e-6)
    assert got2["mirrorB"] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.usefixtures("ray_session")
def test_unrounded_jsd_independent_of_block_layout():
    import numpy as np

    import ray.data

    rng = np.random.default_rng(11)
    vocab = [f"tok{i}" for i in range(300)]
    texts, sources = [], []
    for i in range(240):
        k = i % 4
        words = rng.choice(vocab[k * 40 : k * 40 + 180], size=12)
        texts.append(" ".join(words))
        sources.append(f"src{k}")
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "source": pa.array(sources, type=pa.string()),
        }
    )
    one = _jsd_by_source(ray.data.from_arrow(t).repartition(1))
    many = _jsd_by_source(
        ray.data.from_arrow(t.take(rng.permutation(t.num_rows)))
        .repartition(7)
    )
    assert one["source"].to_pylist() == many["source"].to_pylist()
    assert one["jsd"].to_pylist() == many["jsd"].to_pylist()
