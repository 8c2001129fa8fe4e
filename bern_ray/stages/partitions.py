"""Partition planning: size the pages source, the shuffles on a
linkage pass and the near-dup shuffles to the input.

Source blocks. The pages source gets

    blocks = clamp(ceil(rows / PAGES_PER_BLOCK), cpus, 4 * cpus)

The floor gives every CPU a block. The cap keeps >= 4 tasks per CPU on
large inputs, which avoids the wave quantisation of a few coarse tasks
per worker. ``PAGES_PER_BLOCK`` puts sf0.1 x replicate 8 (40,000 pages)
at 32 CPUs on 128 blocks, the count that headline was tuned at.

Shuffle buckets. Every bucketed shuffle makes one kernel call per
bucket, so a fixed count sized for 82k mentions on 32 CPUs pays
hundreds of calls over a few thousand rows. Two paths plan one count
instead:

    buckets = min(2 * blocks, cap)

two per planned block, never above the site's old constant ``cap``.

- A linkage pass plans once from the pages rows and passes the count
  to pair generation, pair dedup, the label join, contraction CC and
  cluster assignment (cap 256; 64 for the join and contraction). The
  headline (sf0.1 x 8 at 32 CPUs) keeps exactly 256 and 64; 1,500
  pages at 2 CPUs get 10.
- Each near-dup operator that materializes a per-doc shingle (or tf)
  table plans from its row count (functions/dedup.py): cap 128 for
  the band / posting shuffle, 64 for the two verify joins. 40,000 docs
  at 32 CPUs keep 128 and 64; 2,000 docs at 2 CPUs get 14.

Outputs never depend on the count: every kernel works per key, and a
key's rows share one bucket at any count.

The row count comes from metadata, never from a pass over the data:
the parquet footer, or the block metadata of a materialized dataset.

Driver tables. Below a byte bound a stage needs no Ray Data execution
at all: every execution costs about 0.05 s whatever its size, and a
shuffle 0.2-0.4 s, where a numpy / Arrow reduce over a few MB takes
milliseconds. ``driver_table`` hands a stage the columns of a
MATERIALIZED dataset as one driver table when its ``size_bytes()``
(block metadata) is at most ``DRIVER_BYTES``, and None otherwise; the
stage then runs today's dataset arm. On a linkage pass the held
mentions feed every stage after extraction: the vocabulary build, then
pair generation with scoring (explode, hot-key census, salting, pair
kernel and scorer; pipelines/linkage.py ``driver_edges``), then cluster
assignment over the held edge table. At sf0.1 x replicate 8 the
mentions are 13.7 MiB (82,105 rows); they explode to 410,525 key rows,
818,240 candidate pairs and ~537.6k edges (12.5 MiB), so the headline
takes the driver arms; mentions 2.4x that size take the dataset arms.
The pairs are not bounded by the mention bytes, so the driver makes
and scores them one chunk at a time and keeps only each chunk's
edges: a chunk is one key-hash bucket of about ``PREP_BATCH`` (65,536)
key rows (7 chunks of at most 123k pairs at sf0.1 x 8), and a block
key emits at most 31.5 pairs per row (all pairs up to 64 rows, a star
+ chain above), so a chunk of ``PREP_BATCH`` rows holds at most ~2.1M
pairs (~82 MB at 40 B per pair). A skewed bucket can hold more rows:
salting splits only keys above ``salt_threshold``.
Three near-dup operators take it too (functions/dedup.py): exact_dedup
on its fingerprint table, and minhash_neardup / setsim_neardup on
their shingle table (minhash then also on its band rows, 32 int64-keyed
rows per doc). At 2,000 docs these are 0.08, 1.2 and 1.5 MiB; at
40,000 docs (sf0.1 x 8) 1.7, 16.4 and 29.3 MiB, so both sizes take
every driver arm. That is the faster arm there: on a 2-CPU Ray
session (1 CPU in ``nproc``) exact took 0.43 s against 3.46 s and
minhash 7.99 s against 10.17 s, with equal rows; setsim's driver arm
took 32 s, while its dataset arm pushed the session past 6.5 GB and
was stopped unfinished. The driver arm scores the candidate pairs in
fixed-size calls, because their number is not bounded by these bytes.
A lazy dataset always takes the dataset arm (its size is unknown
without running it), so checkpointed passes, which read their stages
back lazily, keep today's shuffles.
"""

from __future__ import annotations

import math

import pyarrow as pa
import pyarrow.parquet as pq

import ray
from ray.data.dataset import MaterializedDataset

PAGES_PER_BLOCK = 313  # ceil(40,000 / 313) = 128

# Spark's broadcast-threshold rule, as a byte bound on the whole input.
# 32 MiB holds the headline's three inputs (<= 13.7 MiB each) with room;
# an edge table at the bound (24 B per src / dst / score row) has
# ~1.4M rows, under cc.DRIVER_EDGE_LIMIT (2M), so the driver CC arm
# never sees an edge list the streaming CC would hand to contraction.
DRIVER_BYTES = 32 << 20


def session_cpus() -> int:
    """CPUs of the connected Ray session (all nodes)."""
    return int(ray.cluster_resources().get("CPU", 0))


def source_rows(path: str, replicate: int = 1) -> int:
    """Rows the source yields: parquet metadata row count × replicate."""
    return pq.read_metadata(path).num_rows * replicate


def plan_blocks(rows: int, cpus: int) -> int:
    """clamp(ceil(rows / PAGES_PER_BLOCK), cpus, 4 * cpus)."""
    return min(max(math.ceil(rows / PAGES_PER_BLOCK), cpus), 4 * cpus)


def plan_buckets(rows: int, cpus: int, cap: int) -> int:
    """min(2 * plan_blocks(rows, cpus), cap)."""
    return min(2 * plan_blocks(rows, cpus), cap)


def driver_table(
    ds: "ray.data.Dataset", columns: list[str]
) -> pa.Table | None:
    """``columns`` of a materialized ``ds`` as one driver table, or None
    for a lazy dataset, an unknown size or one above ``DRIVER_BYTES``.
    The decision reads block metadata only; fetching the blocks starts
    no execution. Zero-row blocks are skipped unless every block is
    empty."""
    if not isinstance(ds, MaterializedDataset):
        return None
    size = ds.size_bytes()
    if size is None or size > DRIVER_BYTES:
        return None
    blocks = ray.get(ds.to_arrow_refs())
    held = [b for b in blocks if b.num_rows] or blocks[:1]
    if not held:
        return None
    return pa.concat_tables([b.select(columns) for b in held])
