"""Session-global cap/skew observability counters (SURVEY §7.5:
"cap + salt + LOG WHAT WAS DROPPED").

Every bounded-emission path (minhash band caps, blocking per-block
pair caps, hot-key salting) trades recall or balance for scale; a
100-TB operator must be able to SEE that trade happening. The
counters live in one tiny named Ray actor — the canonical
shared-mutable-state case the Dataset API can't express — and
kernels report with NON-BLOCKING actor submissions: a blocking
round-trip per capped kernel call measured 10-20% of the headline
block_score phase at 32 CPUs (BASELINE.md r5), all of it actor RPC
latency inside hot data tasks. Submission from a live Ray Data
worker is reliable (the core worker owns the queue; dropping the
ObjectRef does not cancel an actor task), so the only consistency
gap is IN-FLIGHT messages at read time — `snapshot()` closes it by
settling: it re-reads until two consecutive reads agree.

Only the driver creates the actor, in `reset()` or `snapshot()`: its
lifetime is then the driver's, not that of whichever worker happened
to report first (a pool actor that exits takes the counts with it; a
long-lived task worker keeps a 122 MB actor alive after the pass).
Counts are kept only once the driver has opened the counter: in a
worker, `add` / `add_many` look the actor up by name, cache the handle
once found, and drop the count while none is open (one ~0.6 ms lookup
per task); in the driver, a report before the counter is opened is
dropped without a lookup.

Rollup surface: `snapshot()` feeds `state.metrics.stage_metrics`,
which appends one `cap:<name>` row per counter — so the flagship's
`er_stage_metrics` query exposes the elision counts next to the
per-stage wall/rows facts.
"""

from __future__ import annotations

import time
from collections import deque

import ray

_ACTOR_NAME = "bern_ray_cap_counters"


@ray.remote(num_cpus=0)
class _CounterActor:
    def __init__(self) -> None:
        self._c: dict[str, int] = {}

    def add_many(self, counts: dict) -> None:
        for name, n in counts.items():
            self._c[name] = self._c.get(name, 0) + int(n)

    def snapshot(self) -> dict[str, int]:
        return dict(self._c)

    def reset(self) -> None:
        self._c.clear()


_HANDLE = None
# the task whose lookup last missed: a task looks up at most once
# (one near-dup bucket task reports ~124 times)
_MISSED_IN = None
# bounded ref retention: keeps recent submissions alive long enough
# for error surfacing without growing per-process memory
_PENDING: deque = deque(maxlen=64)


def _open():
    """The counter actor the driver opened, or None when none is open
    (never created here: a worker that created it would own it). The
    driver opens the counter before it starts the tasks whose counts
    it reads, so a miss holds for the rest of the task. The driver
    holds the handle once it has opened the counter, so a driver-side
    report before that is dropped without a lookup."""
    global _HANDLE, _MISSED_IN
    if _HANDLE is None and ray.is_initialized():
        ctx = ray.get_runtime_context()
        if ctx.worker.mode != ray.WORKER_MODE:
            return None
        task = ctx.get_task_id()
        if task != _MISSED_IN:
            try:
                _HANDLE = ray.get_actor(_ACTOR_NAME)
            except ValueError:  # no counter open: the count is dropped
                _MISSED_IN = task
    return _HANDLE


def add(name: str, n: int) -> None:
    """Increment from a worker kernel — non-blocking (zero stall on
    the data task; the capped path used to pay a full actor RPC
    round-trip per call)."""
    add_many({name: n})


def add_many(counts: dict) -> None:
    """Increment several counters in ONE submission (a kernel call
    that capped usually reports 2-3 related counts)."""
    counts = {k: int(v) for k, v in counts.items() if v}
    if counts:
        a = _open()
        if a is not None:
            _PENDING.append(a.add_many.remote(counts))


def snapshot(settle_sec: float = 0.1, max_wait_sec: float = 2.0) -> dict:
    """Read the counters, settling in-flight worker submissions: the
    adds are async, so re-read until two consecutive snapshots agree
    (bounded by `max_wait_sec`). Callers read AFTER their dataset
    action returned, so every add was already submitted from a live
    worker — settling only waits out delivery, not generation.
    With no counter open this opens one and reads ``{}``: counts are
    kept from the first read on."""
    if not ray.is_initialized():
        return {}
    a = _driver_handle()
    prev = ray.get(a.snapshot.remote())
    deadline = time.monotonic() + max_wait_sec
    while time.monotonic() < deadline:
        time.sleep(settle_sec)
        cur = ray.get(a.snapshot.remote())
        if cur == prev:
            return cur
        prev = cur
    return prev


def _driver_handle():
    """Open the counter (driver only). The driver keeps the creating
    handle for its lifetime: a handle from ``ray.get_actor`` does not
    keep the actor alive."""
    global _HANDLE
    if _HANDLE is None:
        _HANDLE = _CounterActor.options(
            name=_ACTOR_NAME, get_if_exists=True
        ).remote()
    return _HANDLE


def reset() -> None:
    """Open the counter from the driver and zero it."""
    ray.get(_driver_handle().reset.remote())
