"""Partition planner (stages/partitions.py): the formulas and their
metadata input are pure; Ray tests check read_pages follows the block
plan and that the bucket count changes no linkage output."""

import pyarrow as pa
import pyarrow.parquet as pq

import pytest

from bern_ray.stages.partitions import (
    PAGES_PER_BLOCK,
    plan_blocks,
    plan_buckets,
    source_rows,
)

SF = "/root/testdata/sf0.001"


def test_tiny_input_gets_one_block_per_cpu():
    assert plan_blocks(1, 4) == 4
    assert plan_blocks(500, 4) == 4


def test_headline_point_keeps_128_blocks():
    # sf0.1 (5,000 documents) x replicate 8 at 32 CPUs
    assert plan_blocks(5_000 * 8, 32) == 128


def test_cap_is_four_blocks_per_cpu():
    assert plan_blocks(10**9, 8) == 32
    assert plan_blocks(10**9, 32) == 128
    # between floor and cap the count follows the rows
    assert plan_blocks(20 * PAGES_PER_BLOCK, 8) == 20
    assert plan_blocks(1_500, 2) == 5


def test_replicate_scales_rows(tmp_path):
    path = str(tmp_path / "d.parquet")
    pq.write_table(pa.table({"x": list(range(700))}), path)
    assert source_rows(path) == 700
    assert source_rows(path, replicate=8) == 5_600
    assert plan_blocks(source_rows(path, 8), 4) == 16


def test_rows_come_from_metadata(tmp_path):
    """The row count is the footer's, summed over row groups."""
    path = str(tmp_path / "d.parquet")
    pq.write_table(
        pa.table({"x": list(range(1_000))}), path, row_group_size=64
    )
    assert pq.read_metadata(path).num_row_groups == 16
    assert source_rows(path) == 1_000
    assert source_rows(SF + "/documents.parquet") == 500


def test_read_pages_uses_planned_blocks(ray_session):
    from bern_ray.sources.pages import (
        pages_source_blocks,
        pages_table,
        read_pages,
    )

    planned = pages_source_blocks(SF)
    assert planned == 4  # 500 pages on the 4-CPU session: the floor
    ds = read_pages(SF).materialize()
    assert ds.num_blocks() == planned
    got = pa.concat_tables(
        ds.iter_batches(batch_format="pyarrow", batch_size=None)
    ).sort_by("url")
    want = pages_table(SF).sort_by("url")
    assert got.equals(want)


def test_headline_keeps_todays_bucket_counts():
    # sf0.1 x replicate 8 at 32 CPUs: the pair-gen / cluster 256 and
    # the join / contraction 64 are unchanged
    assert plan_buckets(40_000, 32, 256) == 256
    assert plan_buckets(40_000, 32, 64) == 64


def test_buckets_follow_small_inputs():
    # the er_distinct benchmark pass: 1,500 pages on 2 CPUs, 5 blocks
    assert plan_buckets(1_500, 2, 256) == 10
    # a tiny input gets two buckets per CPU
    assert plan_buckets(1, 4, 256) == 8
    assert plan_buckets(500, 8, 256) == 16
    # never more than four blocks' worth per CPU, nor the cap
    assert plan_buckets(10**9, 2, 256) == 16
    assert plan_buckets(10**9, 64, 256) == 256


def _sorted_table(ds, keys):
    t = pa.concat_tables(
        ds.iter_batches(batch_format="pyarrow", batch_size=None)
    )
    return t.sort_by([(k, "ascending") for k in keys])


@pytest.fixture(scope="module")
def linkage_inputs(ray_session):
    """sf0.001 mentions and their scored edges, computed once."""
    from bern_ray.pipelines.linkage import (
        extract_normalize_mentions,
        score_pairs,
    )
    from bern_ray.sources.pages import read_pages
    from bern_ray.stages.blocking import build_attr_vocab, candidate_pairs
    from bern_ray.stages.scoring import edges_only

    normalized = extract_normalize_mentions(read_pages(SF)).materialize()
    vocab = build_attr_vocab(normalized)
    edges = (
        score_pairs(
            candidate_pairs(
                normalized, dedup=False, with_attrs=True, vocab=vocab
            ),
            None,
            vocab=vocab,
            emit="edges",
        )
        .map_batches(edges_only, batch_format="pyarrow")
        .materialize()
    )
    return normalized, edges


def test_bucket_count_changes_no_linkage_output(linkage_inputs):
    """Pair generation with its dedup, and cluster_mentions with the
    label join, contraction CC and cluster assignment, give the same
    rows at one bucket, at the planned count and at the old 256."""
    from bern_ray.pipelines.linkage import cluster_mentions, pass_buckets
    from bern_ray.stages.blocking import candidate_pairs

    normalized, edges = linkage_inputs
    planned = pass_buckets(SF)
    assert planned == 8  # 500 pages on the 4-CPU session: 2 x 4 blocks
    pairs, deduped, clusters = [], [], []
    for n in (1, planned, 256):
        pairs.append(
            _sorted_table(
                candidate_pairs(normalized, dedup=False, num_buckets=n),
                ["a_mid", "b_mid", "key"],
            )
        )
        # one row per pair, with the same surviving key at every count
        deduped.append(
            _sorted_table(
                candidate_pairs(normalized, dedup=True, num_buckets=n),
                ["a_mid", "b_mid"],
            )
        )
        clusters.append(
            _sorted_table(
                cluster_mentions(
                    normalized, edges, cc_mode="lp", num_buckets=n
                ),
                ["mention_id"],
            )
        )
    assert pairs[0].num_rows > 0
    assert clusters[0].num_rows == normalized.count()
    for t in pairs[1:]:
        assert t.equals(pairs[0])
    for t in deduped[1:]:
        assert t.equals(deduped[0])
    for t in clusters[1:]:
        assert t.equals(clusters[0])


def test_bucket_count_changes_no_neardup_output(ray_session, monkeypatch):
    """minhash (capped and not), setsim and the R-S setsim join give the
    same rows with their planned count forced to one bucket, to the
    count planned from the shingle table and to the old 128. The driver
    bound is 0, so minhash and setsim take their shuffle arms, whose
    count is the one varied."""
    import ray.data

    from bern_ray.functions import dedup
    from bern_ray.stages import partitions

    monkeypatch.setattr(partitions, "DRIVER_BYTES", 0)

    docs = ray.data.read_parquet(SF + "/documents.parquet").materialize()
    shingles = docs.map_batches(
        lambda t: dedup._shingle_list_rows(t, 3), batch_format="pyarrow"
    ).materialize()
    planned = dedup._planned_buckets(shingles)
    assert planned == 8  # 500 docs on the 4-CPU session: 2 x 4 blocks
    assert dedup._planned_buckets(shingles, shingles) == 8

    ops = {
        "minhash": lambda: dedup.minhash_neardup(docs),
        "minhash_capped": lambda: dedup.minhash_neardup(docs, band_cap=3),
        "setsim": lambda: dedup.setsim_neardup(docs, 0.85),
        "setsim_join": lambda: dedup.setsim_join(docs, docs, 0.7),
    }
    keys = ["doc_id_a", "doc_id_b"]
    got: dict[str, list] = {name: [] for name in ops}
    for n in (1, planned, 128):
        monkeypatch.setattr(dedup, "_planned_buckets", lambda *_, n=n: n)
        for name, op in ops.items():
            got[name].append(_sorted_table(op(), keys))
    for name, tables in got.items():
        assert tables[0].num_rows > 0, name
        for t in tables[1:]:
            assert t.equals(tables[0]), name


# ------------------------------------------------------- driver tables


def _two_blocks():
    import ray.data

    t = pa.table(
        {
            "a": pa.array([1, 2, 3], pa.int64()),
            "b": ["x", "y", "z"],
            "c": [0.5, 1.5, 2.5],
        }
    )
    return t, ray.data.from_arrow([t.slice(0, 2), t.slice(2)])


def test_driver_table_returns_requested_columns(ray_session):
    from bern_ray.stages.partitions import driver_table

    t, ds = _two_blocks()
    got = driver_table(ds, ["c", "a"])
    assert got.column_names == ["c", "a"]
    assert got.combine_chunks().equals(t.select(["c", "a"]))


def test_driver_table_declines_a_lazy_dataset(ray_session):
    import ray.data

    from bern_ray.stages.partitions import driver_table

    _, ds = _two_blocks()
    assert driver_table(ds.map_batches(lambda b: b), ["a"]) is None
    assert driver_table(ray.data.range(10), ["id"]) is None


def test_driver_table_bound_is_inclusive(ray_session, monkeypatch):
    """The bound is faked, not the data: at the dataset's own size the
    table comes back, one byte below it the caller gets None."""
    from bern_ray.stages import partitions

    _, ds = _two_blocks()
    size = ds.size_bytes()
    assert size > 0
    monkeypatch.setattr(partitions, "DRIVER_BYTES", size)
    assert partitions.driver_table(ds, ["a"]).num_rows == 3
    monkeypatch.setattr(partitions, "DRIVER_BYTES", size - 1)
    assert partitions.driver_table(ds, ["a"]) is None


def test_driver_table_declines_an_unknown_size(ray_session, monkeypatch):
    from bern_ray.stages.partitions import driver_table

    _, ds = _two_blocks()
    monkeypatch.setattr(ds, "size_bytes", lambda: None)
    assert driver_table(ds, ["a"]) is None


def test_driver_table_skips_zero_row_blocks(ray_session):
    import ray.data

    from bern_ray.stages.partitions import driver_table

    t, _ = _two_blocks()
    ds = ray.data.from_arrow([t.slice(0, 0), t.slice(0, 2), t.slice(2)])
    assert ds.num_blocks() == 3
    got = driver_table(ds, ["a", "b"])
    assert got.combine_chunks().equals(t.select(["a", "b"]))
    empty = driver_table(ray.data.from_arrow(t.slice(0, 0)), ["b"])
    assert empty.num_rows == 0
    assert empty.schema == pa.schema([("b", pa.string())])


@pytest.fixture(scope="module")
def exploded(linkage_inputs):
    from bern_ray.stages.blocking import explode_block_keys

    normalized, _ = linkage_inputs
    return normalized.map_batches(
        explode_block_keys, batch_format="pyarrow"
    ).materialize()


def test_both_vocab_arms_build_one_vocab(linkage_inputs, monkeypatch):
    from bern_ray.stages import partitions
    from bern_ray.stages.blocking import build_attr_vocab

    normalized, _ = linkage_inputs
    arrays = []
    for bound in (0, 1 << 40):
        monkeypatch.setattr(partitions, "DRIVER_BYTES", bound)
        arrays.append(build_attr_vocab(normalized).arrays())
    (s0, o0), (s1, o1) = arrays
    assert len(s0) > 0 and len(o0) > 0
    assert s0.tolist() == s1.tolist()
    assert o0.tolist() == o1.tolist()
    # the same bound check on both arms
    assert build_attr_vocab(normalized, max_size=len(s0) - 1) is None


@pytest.mark.parametrize(
    "threshold, shift", [(5_000, 4), (20, 4), (20, 0)]
)
def test_both_census_arms_find_the_same_hot_keys(
    exploded, monkeypatch, threshold, shift
):
    from bern_ray.stages import partitions
    from bern_ray.stages.blocking import hot_keys

    found = []
    for bound in (0, 1 << 40):
        monkeypatch.setattr(partitions, "DRIVER_BYTES", bound)
        found.append(hot_keys(exploded, threshold, sample_shift=shift))
    assert found[0] == found[1]
    # the default threshold finds nothing at this size; 20 does
    assert bool(found[0]) == (threshold == 20)


def _edge_table(src, dst):
    return pa.table(
        {
            "src": pa.array(src, pa.int64()),
            "dst": pa.array(dst, pa.int64()),
            "score": pa.array([1.0] * len(src), pa.float64()),
        }
    )


def _hand_built_mentions():
    """Six mentions: an unresolved two-mention component (SURF:), a
    mixed one whose resolved oid wins, a self-loop and a resolved
    singleton; one edge reaches a node that is no mention."""
    from bern_ray.pipelines.linkage import _MENTION_SCHEMA

    n = 6
    mentions = pa.table(
        {
            "url": [f"u{i}" for i in range(n)],
            "mention_id": list(range(10, 10 + n)),
            "etype": ["gene"] * n,
            "start": list(range(n)),
            "end": list(range(1, n + 1)),
            "surface": ["a", "b", "c", "d", "e", "f"],
            "oid": [None, None, None, "O:7", None, "O:2"],
            "ids": [[], [], [], ["O:7"], [], ["O:2"]],
            "fold_key": ["zeta", "eta", "c", "d", "e", "f"],
        },
        schema=pa.schema(_MENTION_SCHEMA),
    )
    return mentions, _edge_table([10, 12, 13, 14], [11, 13, 99, 14])


def test_both_cluster_arms_assign_the_same_ids(linkage_inputs, monkeypatch):
    """cluster_mentions gives the same rows with the driver arm and with
    the label join + assignment shuffles: over the scored sf0.001 edges
    (singletons and resolved components), an empty edge set, and a
    hand-built set with an unresolved (SURF:) component."""
    import ray.data

    from bern_ray.pipelines.linkage import cluster_mentions
    from bern_ray.stages import partitions

    normalized, edges = linkage_inputs
    hand, hand_edges = _hand_built_mentions()
    cases = [
        (normalized, edges),
        (normalized, ray.data.from_arrow(_edge_table([], []))),
        (ray.data.from_arrow(hand), ray.data.from_arrow(hand_edges)),
    ]
    for m, e in cases:
        got = []
        for bound in (0, 1 << 40):
            monkeypatch.setattr(partitions, "DRIVER_BYTES", bound)
            got.append(_sorted_table(cluster_mentions(m, e), ["mention_id"]))
        assert got[0].num_rows == m.count()
        assert got[0].equals(got[1])
    assert got[0]["cluster_id"].to_pylist() == [
        "SURF:eta",
        "SURF:eta",
        "BERN:O:7",
        "BERN:O:7",
        "SURF:e",
        "BERN:O:2",
    ]
    sizes = (
        _sorted_table(cluster_mentions(normalized, edges), ["mention_id"])
        .group_by("cluster_id")
        .aggregate([("mention_id", "count")])
    )
    assert 1 in sizes["mention_id_count"].to_pylist()
    assert 1 < max(sizes["mention_id_count"].to_pylist())
