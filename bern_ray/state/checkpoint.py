"""Per-stage Parquet checkpoints with lineage + metrics sidecars.

The reference has NO checkpoint/resume (outputs are deleted at server
start, server.py:641-649); the north_rule requires it. Model:

- each stage may be wrapped in ``checkpointed(name, factory, root)``;
- a completed stage lives at ``{root}/{name}/`` as partitioned Parquet
  plus ``_MANIFEST.json`` recording row count, schema, wall time, the
  upstream stage names (lineage) and a CONTENT KEY hashing the stage's
  input/config (sf_dir, thresholds, ...);
- resume-by-existence: if the manifest is present AND its content key
  matches the current config, the stage is NOT recomputed — the
  parquet is read back and streaming continues from there (FIXTURES.md
  §6 test 5). A mismatched key (different input dir, different
  parameters, changed pipeline code via ``source_digest``) recomputes
  instead of silently returning stale data;
- writes are atomic: data goes to ``{root}/.tmp-{name}`` and is
  renamed into place after the manifest is written.

Partition layout: Ray Data writes one file per block, so a stage's
directory is naturally partitioned by input shard; a failed run leaves
only the tmp dir, which is ignored and overwritten on rerun.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import shutil
import time
from typing import Callable

import ray.data


def manifest_path(root: str, name: str) -> str:
    return os.path.join(root, name, "_MANIFEST.json")


def is_complete(root: str, name: str) -> bool:
    return os.path.exists(manifest_path(root, name))


def content_key(config: dict | None) -> str | None:
    if config is None:
        return None
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


@functools.cache
def source_digest(*paths: str) -> str:
    """Digest of the ``.py`` sources under ``paths`` (files or
    directories), computed once per process. A stage whose config
    carries it recomputes after any edit to the code it runs, instead
    of trusting a hand-bumped version number."""
    h = hashlib.sha256()
    for path in paths:
        files = [path] if os.path.isfile(path) else sorted(
            glob.glob(os.path.join(path, "**", "*.py"), recursive=True)
        )
        for f in files:
            h.update(os.path.relpath(f, os.path.dirname(path)).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def checkpointed(
    name: str,
    factory: Callable[[], "ray.data.Dataset"],
    root: str | None,
    lineage: list[str] | None = None,
    config: dict | None = None,
) -> "ray.data.Dataset":
    """Run (or resume) a stage through a Parquet checkpoint.

    With ``root=None`` checkpointing is disabled and the factory's
    lazy Dataset is returned unchanged (pure streaming). ``config``
    identifies the stage's inputs/parameters; a stored checkpoint is
    only reused when its content key matches (else recomputed).
    """
    if root is None:
        return factory()
    stage_dir = os.path.join(root, name)
    key = content_key(config)
    if is_complete(root, name):
        try:
            stored = read_manifest(root, name).get("content_key")
        except (json.JSONDecodeError, OSError):
            stored = object()  # truncated/unreadable manifest: recompute
        if key is None or stored == key:
            return ray.data.read_parquet(stage_dir)
        # stale: same stage name, different input/config — recompute
    tmp_dir = os.path.join(root, f".tmp-{name}")
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)
    os.makedirs(tmp_dir, exist_ok=True)
    t0 = time.monotonic()
    ds = factory()
    ds.write_parquet(tmp_dir)
    elapsed = time.monotonic() - t0
    written = ray.data.read_parquet(tmp_dir)
    n = written.count()
    schema = written.schema()
    if os.path.exists(stage_dir):
        shutil.rmtree(stage_dir)
    os.rename(tmp_dir, stage_dir)
    # manifest write is atomic too (tmp + os.replace): a crash mid-write
    # must never leave a truncated manifest that reads as "complete"
    mpath = manifest_path(root, name)
    with open(mpath + ".tmp", "w") as f:
        json.dump(
            {
                "stage": name,
                "rows": n,
                "schema": [
                    [fname, str(ftype)]
                    for fname, ftype in zip(schema.names, schema.types)
                ],
                "wall_sec": round(elapsed, 3),
                "lineage": lineage or [],
                "content_key": key,
            },
            f,
            indent=1,
        )
    os.replace(mpath + ".tmp", mpath)
    return ray.data.read_parquet(stage_dir)


def read_manifest(root: str, name: str) -> dict:
    with open(manifest_path(root, name)) as f:
        return json.load(f)
