"""Source block planner (stages/partitions.py): the formula and its
metadata input are pure; one Ray test checks read_pages follows it."""

import pyarrow as pa
import pyarrow.parquet as pq

from bern_ray.stages.partitions import (
    PAGES_PER_BLOCK,
    plan_blocks,
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
