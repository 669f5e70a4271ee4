"""Benchmark for randmera: four workloads, end to end and layer by layer.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload that ``BENCHMARK.json`` lists runs, the
workloads taking turns; ``entropy-l4`` runs only when named (``metrics.json``
says why).  Every figure comes from fresh worker processes (``worker.py``)
with BLAS threads fixed to the number of usable cores, so that a parent
commit and a change run with the same settings.  ``--trace 0`` splits
the run's seconds over a few workers, each on its own draw of inputs, and
pools them.  Each worker reads a fixed pure-Python speed gauge between ops;
``ops_per_ref_s`` and ``op_p50_ref_ms`` are its throughput and median op
latency with each worker's times rescaled to the CPU speed at which the
gauge takes ``GAUGE_REF_S``, so that a slow stretch of a shared host does
not read as a slower program.  The same figures in wall time are printed
too.  ``peak_rss_mib`` is the median over the workers and ``setup_s`` the
median over set-ups spread through the run.  ``--trace 1`` gives the
per-layer metrics from one traced worker, in wall time.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``BENCHMARK.json`` names every
metric with its unit; ``metrics.json`` next to this file says what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SRC = HERE.parent / "src"
RECORD = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
GATED = [w["name"] for w in RECORD["workloads"]]
WORKLOADS = list(json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))["workloads"])
UNITS = {kind: {m["name"]: m["unit"] for m in RECORD[kind]} for kind in ("end_to_end", "per_layer")}
# timed workers per --trace 0 run.  A worker's ops see one stretch of the
# machine's speed and one draw of inputs; the median over several is steadier
# than one long worker.  sweep-d6 ops take about 2 s, so it runs fewer,
# longer workers.
WORKERS = {"entropy-l4": 4, "sweep-d6": 2, "cuts-l12": 4, "channel-spectra": 4}
# set-ups measured per --trace 0 run, each in a fresh process, spread between
# the timed workers; interpreter start and the numpy import, most of a
# set-up, vary by a quarter from one process to the next
SETUP_SAMPLES = 12
# the CPU speed that ops_per_ref_s and op_p50_ref_ms are given at: the one at
# which worker.speed_gauge takes exactly this long.  Pure-Python speed on a
# shared 2-vCPU host swings by a third for minutes at a time, and with it
# every wall time; the workers read the gauge between ops, so their times can
# be rescaled to one speed.
GAUGE_REF_S = 1.0e-3


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    # the package's default amplitude budget, whatever the caller's shell says
    env.pop("RANDMERA_MAX_AMPLITUDES", None)
    return env


def spawn(args: list[str], timeout: float) -> dict:
    """Run one worker; return the JSON object on its last stdout line."""
    env = worker_env()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args, "--spawned-at", repr(t0)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: worker {args} ran past {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench: worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def plan(
    name: str, seed: int, seconds: float, trace: int, tiny: bool
) -> list[tuple[list[str], float]]:
    """The worker processes of one workload's run, in order: (arguments, timeout)."""
    args = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    if trace:
        return [([*args, "--seconds", repr(seconds), "--trace", "1"], 2 * seconds + 120)]
    n = WORKERS[name]
    extra = SETUP_SAMPLES - n
    steps = []
    for part in range(n):
        own = [*args, "--part", str(part)]
        setup_only = ([*own, "--seconds", "1", "--setup-only"], 120)
        steps += [setup_only] * (extra // n + (part < extra % n))
        timed = [*own, "--seconds", repr(seconds / n), "--trace", "0"]
        steps.append((timed, 2 * seconds / n + 120))
    return steps


def run_ok(name: str, tiny: bool, parts: list[dict]) -> bool:
    """No op failed, and the workload's run-level check holds over all workers."""
    import worker

    worker.import_package()
    import workloads

    wl = (workloads.TINY if tiny else workloads.WORKLOADS)[name]
    samples = [s for p in parts for s in p["samples"]]
    return all(p["failed"] == 0 for p in parts) and wl.run_ok(samples)


def pool(name: str, outs: list[dict], trace: int, tiny: bool) -> dict:
    """One workload's result from the records of its worker processes."""
    parts = [o for o in outs if "samples" in o]  # not the set-up-only ones
    correct = run_ok(name, tiny, parts)
    if trace:
        (out,) = parts
        return dict(out, correct=correct)
    med = statistics.median
    lat_ms = [x for p in parts for x in p["lat_ms"]]
    ops = len(lat_ms)
    # each worker's times rescaled to a CPU on which the gauge takes GAUGE_REF_S
    scale = [GAUGE_REF_S / med(p["gauge_s"]) for p in parts]
    return {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": {
            "setup_s": med(o["setup_s"] for o in outs),
            "ops_per_ref_s": ops / sum(p["wall_s"] * k for p, k in zip(parts, scale)),
            "op_p50_ref_ms": med(x * k for p, k in zip(parts, scale) for x in p["lat_ms"]),
            "peak_rss_mib": med(p["rss_mib"] for p in parts),
        },
        # printed, not gated: the same figures in wall time
        "raw": {
            "ops_per_s": (ops / sum(p["wall_s"] for p in parts), "1/s"),
            "op_p50_ms": (med(lat_ms), "ms"),
            "gauge_ms": (1e3 * med(x for p in parts for x in p["gauge_s"]), "ms"),
        },
        # the tail is reported only where at least ten samples lie beyond it
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8] if ops >= 100 else None,
        "environment": parts[0]["environment"],
    }


def report(name: str, out: dict, trace: int) -> dict:
    """Print every metric with its unit; return them in the result format."""
    units = UNITS["per_layer" if trace else "end_to_end"]
    metrics = {m: {"value": out["metrics"][m], "unit": u} for m, u in units.items()}
    for m, v in metrics.items():
        print(f"{name:16} {m:44} {v['value']:14.6g} {v['unit']}")
    frac = out["failed"] / out["attempted"]
    print(f"{name:16} {'failed_frac':44} {frac:14.6g} frac ({out['failed']}/{out['attempted']})")
    if not trace:
        for m, (v, u) in out["raw"].items():
            print(f"{name:16} {m:44} {v:14.6g} {u} (wall time, not gated)")
        p90 = out["op_p90_ms"]
        shown = "n/a (fewer than 100 ops)" if p90 is None else f"{p90:.6g} ms"
        print(f"{name:16} {'op_p90_ms':44} {shown:>14} ({out['attempted']} ops)")
    print(json.dumps({"environment": out["environment"]}))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    # byte-compile once so that no measured set-up pays for it; a missing
    # package is reported by the worker
    for tree in (SRC, HERE):
        if tree.is_dir():
            compileall.compile_dir(str(tree), quiet=1)

    names = [args.workload] if args.workload else GATED
    plans = {n: plan(n, args.seed, args.seconds, args.trace, args.tiny) for n in names}
    outs: dict[str, list[dict]] = {n: [] for n in names}
    # workloads take turns, one worker process at a time, so that a slow
    # stretch of the machine reaches every workload rather than one
    for i in range(max(len(steps) for steps in plans.values())):
        for n in names:
            if i < len(plans[n]):
                outs[n].append(spawn(*plans[n][i]))
    results = {}
    for name in names:
        out = pool(name, outs[name], args.trace, args.tiny)
        results[name] = (out, report(name, out, args.trace))
    if args.workload:
        out, metrics = results[args.workload]
    else:
        metrics = {f"{n}.{m}": v for n, (_, ms) in results.items() for m, v in ms.items()}
        out = {
            "correct": all(o["correct"] for o, _ in results.values()),
            "attempted": sum(o["attempted"] for o, _ in results.values()),
            "failed": sum(o["failed"] for o, _ in results.values()),
        }
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
