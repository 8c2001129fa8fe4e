"""Partition planning: size the pages source and the shuffles on a
linkage pass to the input.

Source blocks. The pages source gets

    blocks = clamp(ceil(rows / PAGES_PER_BLOCK), cpus, 4 * cpus)

The floor gives every CPU a block. The cap keeps >= 4 tasks per CPU on
large inputs, which avoids the wave quantisation of a few coarse tasks
per worker. ``PAGES_PER_BLOCK`` puts sf0.1 x replicate 8 (40,000 pages)
at 32 CPUs on 128 blocks, the count that headline was tuned at.

Shuffle buckets. Every bucketed shuffle on a linkage pass (pair
generation, pair dedup, the label join, contraction CC, cluster
assignment) makes one kernel call per bucket, so a fixed count sized
for 82k mentions on 32 CPUs pays hundreds of calls over a few thousand
rows. The pass plans one count instead:

    buckets = min(2 * blocks, cap)

two per planned source block, never above the site's old constant
``cap`` (256 for pair generation and cluster assignment, 64 for the
join and contraction). The headline keeps exactly 256 and 64; 1,500
pages at 2 CPUs get 10. Outputs never depend on it: every kernel works
per key, and a key's rows share one bucket at any count.

The row count comes from parquet metadata, never from a pass over the
data.
"""

from __future__ import annotations

import math

import pyarrow.parquet as pq

import ray

PAGES_PER_BLOCK = 313  # ceil(40,000 / 313) = 128


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
