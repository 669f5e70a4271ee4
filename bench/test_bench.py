"""Tests of the benchmark itself: python -m pytest -q bench

Every workload, the ungated entropy-l4 too, runs end to end at a tiny size
and must emit every metric that BENCHMARK.json names; wrong results
injected into the package's answers must show up as failed ops.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import worker

worker.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from randmera import cutbounds, haar, network, simulator, spectra  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
ABOUT = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(ABOUT["workloads"]))
def test_workload_emits_every_metric(name, trace):
    proc = run_bench(
        HERE.parent, "--workload", name, "--seed", "7", "--seconds", "0.3",
        "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert "failed_frac" in proc.stdout
    if trace:
        # at full size the layer spans cover at least 0.9; tiny ops spend a
        # larger share in the entry functions
        assert 0.0 < result["metrics"]["trace_coverage_frac"]["value"] <= 1.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _inflate_entropy(real):
    def fake(*args, **kwargs):
        out = real(*args, **kwargs)
        out.samples_s[0] += 100.0  # far above any cut_dp bracket
        return out

    return fake


def _break_lse(real):
    def fake(*args, **kwargs):
        b = real(*args, **kwargs)
        return dataclasses.replace(b, lse=b.min_cost + 1.0)

    return fake


def _ascending_spectrum(real):
    def fake(spec):
        out = real(spec)
        return dataclasses.replace(out, values=out.values[::-1].copy())

    return fake


def _raise(real):
    def fake(*args, **kwargs):
        raise FloatingPointError("injected")

    return fake


@pytest.mark.parametrize(
    "name, module, attr, inject",
    [
        ("entropy-l4", simulator, "mc_entropy_stats", _inflate_entropy),
        ("sweep-d6", simulator, "build_state", _raise),
        ("cuts-l12", cutbounds, "cut_dp", _break_lse),
        ("channel-spectra", spectra, "singular_spectrum", _ascending_spectrum),
    ],
)
def test_injected_wrong_result_counts_as_failed(monkeypatch, name, module, attr, inject):
    wl = workloads.TINY[name]
    ctx = wl.setup(3)
    monkeypatch.setattr(module, attr, inject(getattr(module, attr)))
    stats = worker.run_ops(wl, ctx, 0.05)
    assert len(stats.lat) >= 1
    assert stats.failed == len(stats.lat)


def test_frobenius_mass_off_the_closed_form_fails_the_run(monkeypatch):
    wl = workloads.TINY["channel-spectra"]
    workers = [worker.run_ops(wl, wl.setup(f"3.{part}"), 0.1).samples for part in range(2)]
    assert wl.run_ok(workers)
    real = spectra.singular_spectrum

    def scaled(spec):
        out = real(spec)
        return dataclasses.replace(out, values=1.5 * out.values)

    monkeypatch.setattr(spectra, "singular_spectrum", scaled)
    stats = worker.run_ops(wl, wl.setup("3.2"), 0.1)
    assert stats.failed == 0  # each op still passes its own check
    assert not wl.run_ok([*workers, stats.samples])


def test_reachable_states_match_the_package_memo():
    wl = workloads.TINY["cuts-l12"]
    ctx = wl.setup(5)
    ops = wl.ops(ctx)
    for _ in range(wl.per_session):
        next(ops).call()
    (session,) = ctx.sessions
    net = network.MeraNetwork.build(wl.leaf_dim, wl.epsilon)
    for level, stage, i, length in session:
        cutbounds.cut_dp(net, network.Interval.of_length(level, stage, i, length))
    eng = cutbounds.engine_for(net)
    if not hasattr(eng, "_min"):
        pytest.skip("the package no longer keeps a min-cost memo to compare with")
    assert workloads.reachable_states(session) == len(eng._min)


def test_tracing_wraps_every_binding_and_restores_it():
    sampler = haar.sample_isometry
    before = (simulator.sample_isometry, spectra.sample_isometry, cutbounds.cut_dp, np.linalg.svd)
    rec = tracing.Recorder()
    with tracing.installed(rec):
        assert simulator.sample_isometry is not sampler
        assert spectra.sample_isometry is not sampler
        assert np.linalg.svd is not before[-1]
        ctx = workloads.TINY["entropy-l4"].setup(1)
        simulator.build_state(ctx.net, 1)
    assert (
        simulator.sample_isometry, spectra.sample_isometry, cutbounds.cut_dp, np.linalg.svd
    ) == before
    assert haar.sample_isometry is sampler
    names = {sp.name for sp in rec.spans}
    assert {"haar.sample_isometry", "simulator.build_state", "cutbounds.cut_dp"} <= names
    self_times = rec.self_times()
    build = [i for i, sp in enumerate(rec.spans) if sp.name == "simulator.build_state"]
    assert 0.0 < self_times[build[0]] < rec.spans[build[0]].dur


def _traced_coverage(wl, ctx, seconds: float) -> float:
    rec = tracing.Recorder()
    with tracing.installed(rec):
        stats = worker.run_ops(wl, ctx, seconds, rec)
    return tracing.layer_metrics(rec, stats.lat, stats.tags, stats.wall, ctx.net.levels, 0)[
        "trace_coverage_frac"
    ]


def test_unwrapped_work_inside_an_op_lowers_the_coverage(monkeypatch):
    wl = dataclasses.replace(workloads.TINY["entropy-l4"], rss_ops=1)
    plain = _traced_coverage(wl, wl.setup(2), 0.3)
    real = simulator.EntropySamples

    def slow(**kwargs):
        time.sleep(0.02)  # inside mc_entropy_sweep, outside every layer span
        return real(**kwargs)

    monkeypatch.setattr(simulator, "EntropySamples", slow)
    slowed = _traced_coverage(wl, wl.setup(2), 0.3)
    assert slowed < 0.5 * plain


def test_rss_is_read_after_a_fixed_number_of_ops():
    wl = dataclasses.replace(workloads.TINY["cuts-l12"], rss_ops=30)
    stats = worker.run_ops(wl, wl.setup(4), 0.0)
    assert len(stats.lat) == 30
    assert stats.rss_mib > 0


def test_described_metrics_match_the_benchmark_record():
    for kind in ("end_to_end", "per_layer"):
        assert {m["name"] for m in BENCHMARK[kind]} == set(ABOUT[kind])
    assert list(ABOUT["workloads"]) == list(workloads.WORKLOADS) == list(workloads.TINY)
    gated = [w["name"] for w in BENCHMARK["workloads"]]
    assert gated == [n for n in ABOUT["workloads"] if "gated" not in ABOUT["workloads"][n]]


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        tmp_path, "--workload", "cuts-l12", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_uniformly_slower_cpu_leaves_the_rescaled_figures_unchanged():
    import run

    def record(slow: float) -> dict:
        return {
            "attempted": 3, "failed": 0, "samples": [{}], "setup_s": 0.2 * slow,
            "wall_s": 1.0 * slow, "lat_ms": [100.0 * slow, 200.0 * slow, 300.0 * slow],
            "rss_mib": 50.0, "gauge_s": [1.2e-3 * slow, 1.3e-3 * slow], "environment": {},
        }

    fast = run.pool("cuts-l12", [record(1.0), record(1.0)], 0, True)
    slow = run.pool("cuts-l12", [record(1.0), record(1.5)], 0, True)
    for m in ("ops_per_ref_s", "op_p50_ref_ms"):
        assert slow["metrics"][m] == pytest.approx(fast["metrics"][m])
    assert slow["raw"]["ops_per_s"][0] < fast["raw"]["ops_per_s"][0]
    assert fast["metrics"]["op_p50_ref_ms"] == pytest.approx(200.0 * 1.0 / 1.25)
