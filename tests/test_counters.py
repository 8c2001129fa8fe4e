"""Cap/skew observability counters (SURVEY §7.5 "log what was
dropped"): a planted oversized minhash band and a planted hot block
must surface their elision/salting counts through the metrics rollup
(state/counters.py -> state/metrics.cap_metrics_table)."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data


def test_minhash_band_cap_counter(ray_session):
    """20 identical docs with band_cap=8: every band is one oversized
    20-member segment; the duplicate-class collapse emits a 19-edge
    star per band, so pairs are elided and the counter must say so."""
    from bern_ray.functions.dedup import minhash_neardup
    from bern_ray.state import counters
    from bern_ray.state.metrics import cap_metrics_table

    counters.reset()
    n = 20
    t = pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "text": pa.array(
                ["alpha beta gamma delta epsilon zeta"] * n
            ),
        }
    )
    ds = ray.data.from_arrow(t).repartition(2)
    pairs = minhash_neardup(ds, threshold=0.9, band_cap=8).to_pandas()
    # identical contents: the star keeps the component intact
    assert len(pairs) == n - 1
    snap = counters.snapshot()
    assert snap.get("minhash_bands_capped", 0) >= 1
    # per band: C(20,2)=190 all-pairs vs 19 star edges -> 171 elided
    assert snap.get("minhash_pairs_elided", 0) >= 171
    # ...and the rollup exposes them as cap:* rows
    caps = cap_metrics_table().to_pydict()
    by_stage = dict(zip(caps["stage"], caps["rows"]))
    assert by_stage["cap:minhash_bands_capped"] >= 1
    assert by_stage["cap:minhash_pairs_elided"] >= 171


def test_uncapped_default_emits_no_counter(ray_session):
    from bern_ray.functions.dedup import minhash_neardup
    from bern_ray.state import counters

    counters.reset()
    t = pa.table(
        {
            "doc_id": pa.array(range(30), type=pa.int64()),
            "text": pa.array(["alpha beta gamma delta eps zeta"] * 30),
        }
    )
    minhash_neardup(ray.data.from_arrow(t), threshold=0.9).to_pandas()
    assert counters.snapshot().get("minhash_bands_capped", 0) == 0


def test_blocking_cap_and_salt_counters(ray_session):
    """A planted hot block (300 mentions sharing one surface) exceeds
    both the salt threshold and MAX_ALLPAIRS: the census must log the
    salted key and segment_pairs must log capped segments + elided
    pairs."""
    from bern_ray.stages.blocking import candidate_pairs
    from bern_ray.state import counters

    counters.reset()
    n = 300
    t = pa.table(
        {
            "mention_id": pa.array(range(n), type=pa.int64()),
            "surface": pa.array(["sharedsurface"] * n),
            "etype": pa.array(["gene"] * n),
            "oid": pa.array(["OID:1"] * n),
        }
    )
    ds = ray.data.from_arrow(t).repartition(2)
    candidate_pairs(ds, salt_threshold=64, dedup=False).materialize()
    snap = counters.snapshot()
    assert snap.get("blocking_hot_keys_salted", 0) >= 1
    assert snap.get("blocking_segments_capped", 0) >= 1
    assert snap.get("blocking_pairs_elided", 0) > 0


def test_report_without_an_open_counter_is_dropped(monkeypatch):
    """A worker reporting while no counter is open must neither create
    the actor (it would own it and outlive or cut short the counts) nor
    raise: the count is dropped, after one lookup per task."""
    import ray

    from bern_ray.state import counters

    lookups = []

    def no_actor(name, namespace=None):
        lookups.append(name)
        raise ValueError(f"Failed to look up actor with name '{name}'")

    class NoCreate:
        @staticmethod
        def options(**kwargs):
            pytest.fail("a report created the counter actor")

    class InTask:
        class worker:
            mode = ray.WORKER_MODE

        @staticmethod
        def get_task_id():
            return "task-1"

    monkeypatch.setattr(ray, "get_actor", no_actor)
    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "get_runtime_context", lambda: InTask)
    monkeypatch.setattr(counters, "_CounterActor", NoCreate)
    monkeypatch.setattr(counters, "_HANDLE", None)
    monkeypatch.setattr(counters, "_MISSED_IN", None)
    counters.add_many({"x": 1})
    counters.add("x", 1)
    assert len(lookups) == 1


def test_driver_report_before_reset_is_dropped_without_lookup(monkeypatch):
    """The driver opens the counter with reset(); a driver-side report
    before that (hot-key salting, canopy blocking) is dropped without
    asking for a task id or looking the actor up."""
    import ray

    from bern_ray.state import counters

    def no_lookup(*args, **kwargs):
        pytest.fail("a driver-side report looked the actor up")

    class InDriver:
        class worker:
            mode = ray.SCRIPT_MODE

        get_task_id = staticmethod(no_lookup)

    monkeypatch.setattr(ray, "get_actor", no_lookup)
    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "get_runtime_context", lambda: InDriver)
    monkeypatch.setattr(counters, "_HANDLE", None)
    pending = len(counters._PENDING)
    counters.add_many({"x": 1})
    counters.add("x", 1)
    assert len(counters._PENDING) == pending
