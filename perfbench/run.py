"""Self-checking benchmark of the bern_ray pipelines, measured from outside.

    python3 perfbench/run.py --workload er_distinct --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The run generates its inputs from the
seed (workloads.py), starts one local Ray session, runs the workload's
pass through public functions only, checks every pass's output against
gold labels and against the first pass's fingerprint (checks.py), and
prints as its last stdout line one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The line before it is
a JSON report with host facts, fingerprints and every figure the run
took, so two commits can be compared by eye. README.md lists the
metrics and why each workload exists.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a separate traced pass (layers.py), the kernel
layer (kernels.py) and ``trace.overhead_s``. Passes that raise, pass the
wall-clock limit or fail the output check are counted in ``failed``;
any failure makes the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from layers import CONCURRENCY

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

# setup_s is the median of the run's own session and these child probes
SETUP_PROBES = 1
MIN_WARM_PASSES = 2
# a median of two passes is their mean, so when they differ by more than
# this a third pass decides: one stalled pass cannot set e2e_s
PASS_AGREEMENT = 0.2
# a pass running longer than this counts as failed and ends the run
PASS_LIMIT_S = 100.0
# every run must end within 180 s: nothing starts that could cross this
RUN_BUDGET_S = 165.0
OBJECT_STORE_BYTES = 768 * 1024 * 1024
# Ray binds AF_UNIX sockets (at most 107 bytes) about 64 characters
# below its temp dir, so a longer temp dir cannot start a session
MAX_TEMP_DIR_LEN = 40


class PassTimeout(BaseException):
    """Not an Exception, so Ray's internal ``except Exception`` blocks
    cannot swallow it."""


class Deadline:
    """Raise PassTimeout in the main thread once ``seconds`` have passed,
    then again every second until it propagates: Ray code that catches
    one raise gets the next."""

    def __init__(self, seconds: float):
        self.seconds = max(seconds, 1.0)
        self.armed = False

    def _fire(self, signum, frame):
        if self.armed:
            raise PassTimeout()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._fire)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds, 1.0)

    def __exit__(self, *exc) -> bool:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def since_process_start() -> float:
    """Seconds since this process was created (/proc starttime)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def nproc() -> int:
    """What `nproc` prints: OMP_NUM_THREADS if set, else the affinity."""
    try:
        return int(subprocess.run(
            ["nproc"], capture_output=True, text=True, check=True
        ).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def ray_cpus() -> int:
    return max(2, nproc())


def start_session(temp_dir: str) -> float:
    """Start a local Ray session, import bern_ray, and return the
    seconds since process start."""
    import logging

    import ray
    import ray.data

    ray.init(
        address="local",
        num_cpus=ray_cpus(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=temp_dir,
        # workers do not inherit this script's sys.path
        runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
    )
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    import bern_ray.functions.dedup  # noqa: F401
    import bern_ray.pipelines.linkage  # noqa: F401

    return since_process_start()


def ray_temp_dir() -> str:
    """Ray's session files go under the checkout when the path is short
    enough for Ray's sockets, else under a fresh directory in /tmp."""
    local = os.path.join(WORK, f"r{os.getpid()}")
    if len(local) <= MAX_TEMP_DIR_LEN:
        os.makedirs(local, exist_ok=True)
        return local
    return tempfile.mkdtemp(prefix="perfbench-", dir="/tmp")


def host_facts() -> dict:
    import pyarrow
    import ray

    with open("/proc/meminfo") as f:
        mem_kb = int(f.readline().split()[1])
    return {
        "nproc": nproc(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "ram_mb": mem_kb // 1024,
        "ray_cpus": ray_cpus(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": platform.python_version(),
    }


def linkage_pass(data_dir: str):
    """The path scripts/run_linkage.py runs without flags, until the
    clusters are materialized."""
    from bern_ray.pipelines.linkage import linkage_pipeline

    return linkage_pipeline(data_dir, concurrency=CONCURRENCY).materialize()


def dedup_pass(data_dir: str):
    from bern_ray.functions.dedup import (
        DEFAULT_BAND_CAP,
        exact_dedup,
        minhash_neardup,
        setsim_neardup,
    )
    from bern_ray.sources.pq import read_parquet_clean

    docs = read_parquet_clean(os.path.join(data_dir, "documents.parquet"))
    return (
        exact_dedup(docs).materialize(),
        minhash_neardup(docs, band_cap=DEFAULT_BAND_CAP).materialize(),
        setsim_neardup(
            docs, 0.85, posting_cap=DEFAULT_BAND_CAP
        ).materialize(),
    )


class Runner:
    """Runs timed passes under a wall-clock limit and checks each one."""

    def __init__(self, workload: str, data_dir: str, gold, t_start: float):
        from checks import check_dedup, check_linkage

        is_dedup = workload == "neardup_docs"
        self.pass_fn = dedup_pass if is_dedup else linkage_pass
        self.check_fn = check_dedup if is_dedup else check_linkage
        self.data_dir = data_dir
        self.gold = gold
        self.t_start = t_start
        self.times: list[float] = []
        self.failures: list[str] = []
        self.first: dict | None = None
        self.attempted = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.t_start)

    def run_pass(self) -> float | None:
        n = self.attempted
        self.attempted += 1
        limit = min(PASS_LIMIT_S, self.remaining())
        t0 = time.monotonic()
        try:
            with Deadline(limit):
                out = self.pass_fn(self.data_dir)
            wall = time.monotonic() - t0
            if wall > limit:
                raise PassTimeout()
        except PassTimeout:
            self.failures.append(f"pass {n}: over {limit:.0f} s")
            return None
        except Exception as e:  # a raising pass is a counted failure
            self.failures.append(f"pass {n}: {e!r}"[:500])
            return None
        check = self.check_fn(out, self.gold)
        if self.first is None:
            self.first = check
        if not check["ok"]:
            self.failures.append(f"pass {n}: quality {check['quality']}")
        elif check["fingerprint"] != self.first["fingerprint"]:
            self.failures.append(
                f"pass {n}: fingerprint {check['fingerprint']}"
            )
        self.times.append(wall)
        return wall

    def warm(self, seconds: float, min_passes: int) -> list[float]:
        """Warm passes until ``seconds`` are measured (at least
        ``min_passes``), never starting one that could overrun the run."""
        walls: list[float] = []
        t0 = time.monotonic()
        while not self.failures:
            if (len(walls) >= min_passes
                    and time.monotonic() - t0 >= seconds
                    and median_settled(walls)):
                break
            if walls and self.remaining() < 1.5 * walls[-1] + 15:
                break
            wall = self.run_pass()
            if wall is None:
                break
            walls.append(wall)
        return walls


def median_settled(walls: list[float]) -> bool:
    """An odd count has a middle pass; an even count needs its two
    middle passes to agree."""
    w = sorted(walls)
    if len(w) % 2:
        return True
    return w[len(w) // 2] <= w[len(w) // 2 - 1] * (1 + PASS_AGREEMENT)


def layer_metrics(workload: str, data_dir: str, e2e: float) -> tuple:
    """Per-layer figures: the traced pass of the workload's own kind,
    the other kind's layers on the same input, then the kernels."""
    from kernels import kernel_rates
    from layers import traced_dedup, traced_linkage
    from spans import Tracer

    tracer = Tracer()
    if workload == "neardup_docs":
        m = traced_dedup(tracer, data_dir)
        m["trace.overhead_s"] = m.pop("dedup.wall_s") - e2e
        m.update(traced_linkage(tracer, data_dir))
        del m["linkage.wall_s"]
    else:
        m = traced_linkage(tracer, data_dir)
        m["trace.overhead_s"] = m.pop("linkage.wall_s") - e2e
        m.update(traced_dedup(tracer, data_dir))
        del m["dedup.wall_s"]
    m.update(kernel_rates(data_dir))
    return m, tracer


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def descendants() -> list[int]:
    """Pids of every live process below this one."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], list(children.get(os.getpid(), []))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and its live Ray worker
    descendants."""
    total_kb = 0
    for pid in [os.getpid()] + descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
            # workers retitle themselves "ray::<task>" once started
            is_worker = (b"default_worker.py" in cmd
                         or cmd.startswith(b"ray::"))
            if pid != os.getpid() and not is_worker:
                continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def alive(pid: int) -> bool:
    """False once the process has exited (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def start_watchdog(t_start: float, dirs: list[str]) -> None:
    """Last resort for a main thread stuck in native code past the
    run budget: kill every descendant, wait for them, and exit 1."""

    def watch() -> None:
        time.sleep(max(RUN_BUDGET_S + 10 - (time.monotonic() - t_start), 0))
        print("run budget exceeded; killing the Ray session",
              file=sys.stderr)
        pids = descendants()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            while alive(pid):
                time.sleep(0.05)
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def probe_setups(temp_dir: str, n: int) -> list[float]:
    """Setup samples from fresh child processes."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--temp-dir", temp_dir],
            capture_output=True, text=True, timeout=60, check=True,
        )
        line = [x for x in proc.stdout.splitlines()
                if x.startswith('{"setup_s"')][-1]
        out.append(json.loads(line)["setup_s"])
    return out


def run(args, t_start: float, run_dir: str, temp_dir: str) -> int:
    import ray

    import workloads
    from checks import linkage_gold, neardup_gold

    setups = [start_session(temp_dir)]
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host_facts()}
    # input generation is outside every metric
    data_dir = os.path.join(run_dir, "data")
    facts = workloads.generate(args.workload, args.seed, data_dir)
    gold = (neardup_gold(facts) if args.workload == "neardup_docs"
            else linkage_gold(facts))
    del facts

    runner = Runner(args.workload, data_dir, gold, t_start)
    cold = runner.run_pass()
    warm = []
    if cold is not None:
        # a traced run needs one untraced warm pass as its baseline
        warm = runner.warm(
            0.0 if args.trace else args.seconds,
            1 if args.trace else MIN_WARM_PASSES,
        )
    report["passes_s"] = runner.times
    report["fingerprint"] = runner.first and runner.first["fingerprint"]
    report["quality"] = runner.first and runner.first["quality"]

    metrics: dict = {}
    if args.trace and not runner.failures:
        try:
            with Deadline(runner.remaining()):
                layer, tracer = layer_metrics(
                    args.workload, data_dir, statistics.median(warm)
                )
        except PassTimeout:
            runner.failures.append("traced pass: over the run budget")
        else:
            layer["cold_pass_s"] = cold
            trace_path = os.path.join(
                WORK, f"trace-{args.workload}-s{args.seed}.json"
            )
            tracer.write(trace_path, {"report": report})
            report["trace_file"] = os.path.relpath(trace_path, ROOT)
            metrics = {k: {"value": v, "unit": unit_of(k)}
                       for k, v in layer.items()}
    rss = peak_rss_mb()
    ray.shutdown()
    if not args.trace and not runner.failures:
        setups += probe_setups(temp_dir, SETUP_PROBES)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "e2e_s": {"value": statistics.median(warm), "unit": "s"},
            "pairwise_f1": {"value": runner.first["pairwise_f1"],
                            "unit": "ratio"},
            "neardup_recall": {"value": runner.first["neardup_recall"],
                               "unit": "ratio"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    report.update(setup_samples_s=setups,
                  failed_passes=len(runner.failures),
                  failures=runner.failures, metrics=metrics)
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 1 if runner.failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--temp-dir", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.isfile(
        os.path.join(ROOT, "bern_ray", "pipelines", "linkage.py")
    ):
        print(f"no bern_ray package under {ROOT}: run from the root of "
              "a checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        import ray

        print(json.dumps({"setup_s": start_session(args.temp_dir)}))
        ray.shutdown()
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"--workload must be one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    # a terminated run still stops its Ray session (finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    t_start = time.monotonic() - since_process_start()
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    temp_dir = ray_temp_dir()
    start_watchdog(t_start, [run_dir, temp_dir])
    try:
        return run(args, t_start, run_dir, temp_dir)
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(temp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
