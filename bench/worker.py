"""One worker of a run, in one fresh process: set-up, the timed ops loop.

``run.py`` starts this script and reads the JSON object on the last line of
its standard output.  The package is imported from ``src/`` of the checkout
that holds this file, never from an installed copy.

The ops loop is a single-client closed loop: the next op starts when the
previous one and its output check have ended.  The loop stops after the
first op that ends past the deadline, once it has run at least the
workload's ``rss_ops`` ops; the peak RSS is read right after op ``rss_ops``.
Between ops the loop reads `speed_gauge`, a fixed pure-Python loop, so
that ``run.py`` can rescale the worker's times to a reference CPU speed;
the time spent in it is left out of the loop's wall time and of every op.
With ``--trace 0`` the worker reports its raw figures (set-up time, op
latencies, loop wall time, RSS, gauge readings) and ``run.py`` pools its
workers; every worker reports the samples of the workload's run-level
check.  With ``--trace 1`` the loop runs twice on fresh set-ups, untraced
and then traced, and a last untimed pass measures one dense build under
``tracemalloc``, which is never on while an ops loop runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIB = float(1 << 20)
# iterations of `speed_gauge`: 1.0 to 1.5 ms on a 2-vCPU Xeon VM
GAUGE_ITERS = 20_000
# an ops loop reads the gauge once per this much loop time, at the next op
# boundary, and at most GAUGE_BURST times at one boundary (after a long op)
GAUGE_EVERY_S = 0.05
GAUGE_BURST = 10


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path and import ``randmera``."""
    init = SRC / "randmera" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: no package source at {init}")
    sys.path.insert(0, str(SRC))
    import randmera

    if Path(randmera.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported randmera from {randmera.__file__}, expected {init}")


@dataclass
class LoopStats:
    lat: list[float]  # seconds per op, in op order
    tags: list[str]
    failed: int
    wall: float  # the whole timed phase, work between ops included, gauge left out
    rss_mib: float  # peak RSS after the first rss_ops ops
    samples: dict[str, list[float]]  # for the workload's run-level check
    gauge: list[float]  # seconds per run of `speed_gauge`, taken between ops

    @property
    def ops_per_s(self) -> float:
        return len(self.lat) / self.wall


def _checked(op, out) -> bool:
    try:
        return bool(op.check(out))
    except Exception:
        traceback.print_exc()
        return False


def speed_gauge() -> float:
    """Seconds one fixed pure-Python loop takes now: the CPU's current speed.

    The loop allocates no container, so neither the package's heap nor the
    garbage collector changes its time; only the speed of the core does.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(GAUGE_ITERS):
        s += i & 7
    return time.perf_counter() - t0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(wl, ctx, seconds: float, rec=None) -> LoopStats:
    """Run ops back to back for ``seconds`` and check every output."""
    import tracemalloc

    if tracemalloc.is_tracing():
        raise RuntimeError("tracemalloc must be off while ops are timed")
    lat: list[float] = []
    tags: list[str] = []
    failed = 0
    rss = 0.0
    gauge = [speed_gauge()]
    paused = 0.0  # time in the gauge, left out of the loop's wall time
    ops = wl.ops(ctx)
    start = last_gauge = time.perf_counter()
    deadline = start + seconds
    while True:
        if rec is not None:
            rec.where = "between"
        op = next(ops)
        if rec is not None:
            rec.where = len(lat)
        t0 = time.perf_counter()
        try:
            out = op.call()
            raised = False
        except Exception:
            raised = True
            if not failed:
                traceback.print_exc()
        t1 = time.perf_counter()
        if rec is not None:
            rec.where = "between"
        ok = not raised and _checked(op, out)
        lat.append(t1 - t0)
        tags.append(op.tag)
        failed += not ok
        if len(lat) == wl.rss_ops:
            rss = peak_rss_mib()
        now = time.perf_counter()
        due = min(int((now - last_gauge) / GAUGE_EVERY_S), GAUGE_BURST)
        if due:
            gauge += [speed_gauge() for _ in range(due)]
            last_gauge = time.perf_counter()
            paused += last_gauge - now
        if len(lat) >= wl.rss_ops and time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start - paused
    ops.close()
    return LoopStats(lat, tags, failed, wall, rss, wl.samples(ctx), gauge)


def memory_pass(ctx) -> dict[str, float]:
    """Snapshot bytes and ``tracemalloc`` peak of one untimed dense build."""
    import tracemalloc

    from randmera import simulator

    import workloads

    snap = peak = 0
    if isinstance(ctx, workloads.DenseCtx):
        seed = ctx.rng.randrange(workloads.SEED_RANGE)
        tracemalloc.start()
        try:
            traj = simulator.build_state(ctx.net, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        snap = sum(s.amplitudes.nbytes for s in traj.snapshots.values())
    return {
        "simulator.build_state.snapshot_mib": snap / MIB,
        "simulator.build_state.peak_alloc_mib": peak / MIB,
    }


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def environment(workload: str, seed: int, part: int) -> dict:
    """What a result depends on besides the code: versions, BLAS, cores."""
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "worker": part,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, default=0, help="this worker's index in its run")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    import_package()
    import tracing
    import workloads

    wl = (workloads.TINY if args.tiny else workloads.WORKLOADS)[args.workload]
    seed = f"{args.seed}.{args.part}"
    ctx = wl.setup(seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    base = run_ops(wl, ctx, args.seconds)
    out = {"attempted": len(base.lat), "failed": base.failed, "samples": [base.samples]}
    if not args.trace:
        out.update(
            setup_s=setup_s,
            wall_s=base.wall,
            lat_ms=[1e3 * x for x in base.lat],
            rss_mib=base.rss_mib,
            gauge_s=base.gauge,
        )
    else:
        rec = tracing.Recorder()
        with tracing.installed(rec):
            ctx = wl.setup(seed)
            traced = run_ops(wl, ctx, args.seconds, rec)
        states = sum(workloads.reachable_states(s) for s in getattr(ctx, "sessions", []))
        net = getattr(ctx, "net", None)
        metrics = tracing.layer_metrics(
            rec, traced.lat, traced.tags, traced.wall, net and net.levels, states
        )
        metrics["trace_overhead_frac"] = 1.0 - traced.ops_per_s / base.ops_per_s
        metrics.update(memory_pass(ctx))
        out["metrics"] = metrics
        out["attempted"] += len(traced.lat)
        out["failed"] += traced.failed
        out["samples"].append(traced.samples)
    out["environment"] = environment(args.workload, args.seed, args.part)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
