"""Source block planning: size the pages source to its input.

Every shuffle downstream of the pages source on the linkage path
(hot-key census, pair generation, the bucketed label join, cluster
assignment) runs one map task per source block and as many reduce
tasks, so the block count follows the data instead of a constant:

    blocks = clamp(ceil(rows / PAGES_PER_BLOCK), cpus, 4 * cpus)

The row count comes from parquet metadata, never from a pass over the
data. The floor gives every CPU a block. The cap keeps >= 4 tasks per
extraction actor on large inputs (a pool has at most one actor per
CPU), which avoids the wave quantisation of a few coarse tasks per
actor. ``PAGES_PER_BLOCK`` puts sf0.1 x replicate 8 (40,000 pages) at
32 CPUs on 128 blocks, the count that headline was tuned at.
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
