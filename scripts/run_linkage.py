"""Job entrypoint for the flagship linkage pipeline — the `ray job
submit` surface the deployment story runs on a multi-node cluster:

    ray job submit --working-dir . -- \
        python scripts/run_linkage.py \
            --input  /data/pages_sf        \
            --output /data/linkage_out     \
            --checkpoint /data/linkage_ckpt

Single-node / local smoke test (this sandbox):

    python scripts/run_linkage.py \
        --input /root/testdata/sf0.001 --output /tmp/linkage_out

With --checkpoint, every stage (normalized mentions, scored pairs,
clusters) lands in per-stage partitioned Parquet with a lineage
manifest (state/checkpoint.py); re-submitting the identical job after
a failure resumes from the last complete stage. Output is partitioned
Parquet (clusters + PubAnnotation-style denotations), never one giant
file. A metrics JSON line goes to stdout and ``<output>/_METRICS.json``;
it includes the planned pages source block count (``source_blocks``),
the bucket count of the pass's shuffles (``shuffle_buckets``), the
session's CPUs (``ray_cpus``) both were planned for, and the
cap/skew counters of the run (``caps``: hot keys salted, capped
segments, elided pairs; state/counters.py).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True, help="pages table root (sf dir)")
    ap.add_argument("--output", required=True, help="output directory")
    ap.add_argument("--checkpoint", default=None, help="per-stage checkpoint root")
    ap.add_argument("--salt-threshold", type=int, default=None)
    ap.add_argument("--cc-mode", default="auto", choices=["auto", "driver", "lp"])
    ap.add_argument("--from-html", action="store_true",
                    help="extract text from the html column (byte-identical rule)")
    ap.add_argument("--partition-by", default="etype",
                    help="hive-partition column for the clusters sink")
    ap.add_argument("--max-actors", type=int, default=None,
                    help="kept for existing job specs; sizes nothing "
                         "(every linkage stage is a task map, none starts "
                         "an actor pool); when given, the session must "
                         "have at least 2 CPUs")
    ap.add_argument("--lean-scored", action="store_true",
                    help="with --checkpoint: the scored_pairs checkpoint "
                         "holds every scored pair in four columns (a_mid, "
                         "b_mid, score, is_edge) instead of the decoded "
                         "attrs — skips the measured-92%% per-row attr "
                         "decode; use when it is not itself a consumed "
                         "artifact (without --checkpoint the scorer emits "
                         "the edge rows only, and runs its kernels only "
                         "on pairs that can become edges)")
    ap.add_argument("--pair-model", default=None, metavar="NPZ",
                    help="path to a trained logistic pair-model "
                         "checkpoint (scripts/train_pair_model.py); "
                         "loads once per worker process and replaces the "
                         "frozen ensemble")
    args = ap.parse_args()

    import ray

    # The job runtime (ray job submit) provides the cluster address;
    # standalone runs fall back to a local session.
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS") or "local",
                 include_dashboard=False)

    from bern_ray.pipelines.linkage import (
        DEFAULT_SALT_THRESHOLD,
        linkage_pipeline,
        pass_buckets,
    )
    from bern_ray.sources.output import write_outputs
    from bern_ray.sources.pages import pages_source_blocks
    from bern_ray.stages.partitions import session_cpus
    from bern_ray.state import counters

    counters.reset()
    t0 = time.monotonic()
    clusters = linkage_pipeline(
        args.input,
        checkpoint_root=args.checkpoint,
        salt_threshold=(
            args.salt_threshold
            if args.salt_threshold is not None
            else DEFAULT_SALT_THRESHOLD
        ),
        cc_mode=args.cc_mode,
        from_html=args.from_html,
        concurrency=None if args.max_actors is None else (1, args.max_actors),
        scored_emit="edges" if args.lean_scored else "decoded",
        pair_model_path=args.pair_model,
    )
    write_outputs(clusters, args.output, partition_by=args.partition_by)
    n = ray.data.read_parquet(f"{args.output}/clusters").count()
    metrics = {
        "job": "linkage",
        "input": args.input,
        "n_cluster_rows": n,
        "wall_sec": round(time.monotonic() - t0, 3),
        "checkpoint": args.checkpoint,
        "source_blocks": pages_source_blocks(args.input),
        "shuffle_buckets": pass_buckets(args.input),
        "ray_cpus": session_cpus(),
        "caps": counters.snapshot(),
    }
    os.makedirs(args.output, exist_ok=True)
    with open(f"{args.output}/_METRICS.json", "w") as f:
        json.dump(metrics, f)
    print(json.dumps(metrics))
    ray.shutdown()


if __name__ == "__main__":
    main()
