"""Output projections — the reference's writer formats re-expressed.

- `denotations`: PubAnnotation-style per-document output
  (reference: convert.py:467-556 get_pub_annotation): one row per url
  with a list of {span, obj, ids} denotations sorted by
  (span.begin, obj) — the reference's double sort key
  (convert.py:549-556). Runs in the bucket-and-segment shape
  (stages/bucketed.py): ONE shuffle on hash(url) % K, then a
  vectorized kernel lexsorts the whole bucket by (url, begin, obj)
  and slices per-document list offsets with run-length arithmetic —
  never one Python call per document (SURVEY.md §2.6).
- `pubtator_lines`: PubTator-style mention lines
  (reference: convert.py:559-586 get_pubtator): url \\t start \\t end
  \\t surface \\t etype \\t ids with '|'-joined ids, mentions sorted
  by start within the document.

Both consume the clusters table (pipelines/linkage.py output) and are
plain `map_batches` + `write_parquet`/`write_json` sinks.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

_DEN_TYPE = pa.struct(
    [
        ("begin", pa.int64()),
        ("end", pa.int64()),
        ("obj", pa.string()),
        ("ids", pa.list_(pa.string())),
    ]
)


def denotations_bucket(t: pa.Table) -> pa.Table:
    """ALL documents of one url-hash bucket -> one row per url.

    Fully vectorized: one lexsort over the bucket, one Arrow take, and
    the per-document denotation lists are cut from the sorted struct
    array with list OFFSETS (run-length segment starts) — no per-doc
    Python loop, no per-doc dict building."""
    n = t.num_rows
    if n == 0:
        return pa.table(
            {
                "url": pa.array([], type=pa.string()),
                "n_denotations": pa.array([], type=pa.int64()),
                "denotations": pa.array([], type=pa.list_(_DEN_TYPE)),
            }
        )
    from ..stages.bucketed import segments

    url = np.asarray(t["url"].to_pylist(), dtype=object)
    start = t["start"].to_numpy(zero_copy_only=False)
    cid = np.asarray(t["cluster_id"].to_pylist(), dtype=object)
    order = np.lexsort((cid, start, url))
    seg_starts, sizes = segments(url[order])
    s = t.take(pa.array(order, type=pa.int64()))
    dens_flat = pa.StructArray.from_arrays(
        [
            s["start"].combine_chunks().cast(pa.int64()),
            s["end"].combine_chunks().cast(pa.int64()),
            s["cluster_id"].combine_chunks(),
            s["ids"].combine_chunks(),
        ],
        names=["begin", "end", "obj", "ids"],
    )
    offsets = pa.array(
        np.append(seg_starts, n).astype(np.int32), type=pa.int32()
    )
    return pa.table(
        {
            "url": pa.array(url[order][seg_starts], type=pa.string()),
            "n_denotations": pa.array(sizes, type=pa.int64()),
            "denotations": pa.ListArray.from_arrays(offsets, dens_flat),
        }
    )


def to_denotations(
    clusters: "ray.data.Dataset", num_buckets: int = 256
) -> "ray.data.Dataset":
    from ..stages.bucketed import bucketed_apply

    return bucketed_apply(
        clusters, "url", denotations_bucket, num_buckets=num_buckets
    )


def pubtator_batch(t: pa.Table) -> pa.Table:
    """Flat PubTator-ish mention lines; '|'-joined ids
    (reference joins multi-ids with '|', convert.py:577)."""
    df = t.to_pandas().sort_values(["url", "start"], kind="mergesort")
    ids_joined = np.array(
        ["|".join(x) if x is not None else "" for x in df["ids"]],
        dtype=object,
    )
    lines = (
        df["url"].to_numpy(dtype=object)
        + "\t"
        + df["start"].to_numpy().astype(str).astype(object)
        + "\t"
        + df["end"].to_numpy().astype(str).astype(object)
        + "\t"
        + df["surface"].to_numpy(dtype=object)
        + "\t"
        + df["etype"].to_numpy(dtype=object)
        + "\t"
        + ids_joined
    )
    return pa.table(
        {
            "url": pa.array(df["url"].to_numpy(dtype=object), type=pa.string()),
            "line": pa.array(lines, type=pa.string()),
        }
    )


def to_pubtator(clusters: "ray.data.Dataset") -> "ray.data.Dataset":
    return clusters.map_batches(pubtator_batch, batch_format="pyarrow")


def parse_pubtator_batch(t: pa.Table) -> pa.Table:
    """Inverse of `pubtator_batch`: PubTator-style mention lines back
    to a flat mentions table (the reference's line PARSER,
    convert.py:9-115 pubtator2dict_list, minus the title/abstract
    header rows our writer does not emit). Closes the write->read
    round-trip so PubTator files are a first-class source format.
    """
    urls, starts, ends, surfs, etypes, ids = [], [], [], [], [], []
    for line in t["line"].to_pylist():
        parts = line.split("\t")
        if len(parts) != 6:
            continue  # malformed / header row — reference skips too
        urls.append(parts[0])
        starts.append(int(parts[1]))
        ends.append(int(parts[2]))
        surfs.append(parts[3])
        etypes.append(parts[4])
        ids.append(parts[5].split("|") if parts[5] else [])
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "start": pa.array(starts, type=pa.int64()),
            "end": pa.array(ends, type=pa.int64()),
            "surface": pa.array(surfs, type=pa.string()),
            "etype": pa.array(etypes, type=pa.string()),
            "ids": pa.array(ids, type=pa.list_(pa.string())),
        }
    )


def from_pubtator(lines: "ray.data.Dataset") -> "ray.data.Dataset":
    """PubTator line Dataset (column `line`) -> mentions Dataset."""
    return lines.map_batches(parse_pubtator_batch, batch_format="pyarrow")


def parse_denotations_batch(t: pa.Table) -> pa.Table:
    """Inverse of `denotations_bucket`: PubAnnotation-style document
    rows (url, denotations list<struct>) back to a flat table
    (url, begin, end, obj, ids) — the read half of S5, so
    PubAnnotation output is also a first-class SOURCE. Vectorized:
    one flatten + one repeat, no per-document Python."""
    if t.num_rows == 0:
        return pa.table(
            {
                "url": pa.array([], type=pa.string()),
                "begin": pa.array([], type=pa.int64()),
                "end": pa.array([], type=pa.int64()),
                "obj": pa.array([], type=pa.string()),
                "ids": pa.array([], type=pa.list_(pa.string())),
            }
        )
    dens = t["denotations"].combine_chunks()
    counts = t["n_denotations"].to_numpy(zero_copy_only=False)
    urls = np.repeat(
        np.asarray(t["url"].to_pylist(), dtype=object), counts
    )
    flat = dens.flatten()
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "begin": flat.field("begin"),
            "end": flat.field("end"),
            "obj": flat.field("obj"),
            "ids": flat.field("ids"),
        }
    )


def from_denotations(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    """PubAnnotation document Dataset -> flat denotation rows."""
    return docs.map_batches(
        parse_denotations_batch, batch_format="pyarrow"
    )


def write_outputs(
    clusters: "ray.data.Dataset",
    out_dir: str,
    fmt: str = "parquet",
    partition_by: str | None = None,
) -> None:
    """Sink: partitioned parquet (default) or json lines.

    Ray writes one file per block (natural input-shard partitioning);
    ``partition_by`` additionally hive-partitions by a column (e.g.
    'etype', or a precomputed key-range bucket) so a failed run can
    skip finished partitions and consumers can prune at the read —
    the brief's resumable-output requirement. Never one giant file.
    ``clusters`` is materialized once here: both sinks read it, and a
    lazy one would run its whole pipeline again for the second.
    """
    clusters = clusters.materialize()
    dens = to_denotations(clusters)
    if fmt == "parquet":
        if partition_by is not None:
            clusters.write_parquet(
                f"{out_dir}/clusters", partition_cols=[partition_by]
            )
        else:
            clusters.write_parquet(f"{out_dir}/clusters")
        dens.write_parquet(f"{out_dir}/denotations")
    else:
        dens.write_json(f"{out_dir}/denotations")
