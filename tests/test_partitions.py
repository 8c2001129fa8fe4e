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
    count planned from the shingle table and to the old 128."""
    import ray.data

    from bern_ray.functions import dedup

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
