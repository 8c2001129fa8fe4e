"""scripts/run_linkage.py — the `ray job submit` entrypoint — runs
end-to-end in a fresh process and leaves resumable partitioned output."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.001"


def test_job_entrypoint_smoke(tmp_path):
    out = tmp_path / "out"
    env = dict(os.environ, RAY_ADDRESS="local")
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(REPO, "scripts", "run_linkage.py"),
            "--input",
            SF,
            "--output",
            str(out),
            "--max-actors",
            "4",
        ],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(
        [l for l in proc.stdout.splitlines() if l.startswith("{")][-1]
    )
    assert metrics["n_cluster_rows"] > 0
    # the plans the pass ran with
    assert metrics["source_blocks"] >= 1
    assert metrics["shuffle_buckets"] >= 1
    # partitioned parquet sinks exist (hive partition dirs for clusters)
    assert (out / "denotations").is_dir()
    cluster_parts = list((out / "clusters").glob("etype=*"))
    assert cluster_parts, "expected hive-partitioned clusters output"
    assert json.load(open(out / "_METRICS.json")) == metrics


def test_job_entrypoint_reports_caps(tmp_path):
    """A salt threshold below the corpus' hot block sizes must show up
    in the run's cap counters, in the stdout line and _METRICS.json."""
    out = tmp_path / "out"
    env = dict(os.environ, RAY_ADDRESS="local")
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(REPO, "scripts", "run_linkage.py"),
            "--input",
            SF,
            "--output",
            str(out),
            "--salt-threshold",
            "20",
        ],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(
        [l for l in proc.stdout.splitlines() if l.startswith("{")][-1]
    )
    assert metrics["caps"]["blocking_hot_keys_salted"] >= 1
    assert json.load(open(out / "_METRICS.json")) == metrics
