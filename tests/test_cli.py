"""Command-line interface: outputs and exit codes."""

from __future__ import annotations

import csv
import gc
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import build_admitted
from hypothesis import given, settings
from hypothesis import strategies as st

from randmera import Interval, MeraNetwork, Stage, cut_dp, haar, simulator, spectra, svgplot
from randmera.cli import _COMMANDS, _cmd_spectra, _int_list, _interval_arg, _spec_list, main

L3_EPS = "0.35"
L4_EPS = "0.24652950741995638"


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_schedule_writes_the_expected_table(tmp_path, capsys):
    out = tmp_path / "schedule.csv"
    svg = tmp_path / "schedule.svg"
    code = main(["schedule", "--epsilon", L4_EPS, "--out", str(out), "--svg", str(svg)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["k", "log_D_k", "log_Dprime_k", "scale", "ratio"]
    assert [r[:4] for r in rows[1:]] == [
        ["0", repr(math.log(1)), repr(math.log(1)), "16"],
        ["1", repr(math.log(4)), repr(math.log(1)), "8"],
        ["2", repr(math.log(6)), repr(math.log(3)), "4"],
        ["3", repr(math.log(4)), repr(math.log(3)), "2"],
        ["4", repr(math.log(2)), repr(math.log(2)), "1"],
    ]
    stdout = capsys.readouterr().out
    assert "levels=4" in stdout
    # the peak stage holds 2**16 amplitudes
    assert f"log_peak_amplitudes={16 * math.log(2)!r}" in stdout
    assert svg.read_text(encoding="utf-8").startswith("<svg")


@pytest.mark.parametrize(
    "leaf,eps,budget",
    [("5", "1.39", 5**2 * 2**2), ("6", "0.5777", 6**8), ("2", L4_EPS, 2**16)],
    ids=["one-level", "three-level", "four-level"],
)
def test_the_schedule_peak_is_the_smallest_budget_a_full_build_admits(leaf, eps, budget, capsys):
    # on one level the rotation isometry, dims[1]**2 x dims_v[1]**2, outgrows
    # every stage; deeper, the leaf stage is the largest array
    assert main(["schedule", "--leaf-dim", leaf, "--epsilon", eps]) == 0
    log_peak = float(capsys.readouterr().out.split("log_peak_amplitudes=")[1])
    assert round(math.exp(log_peak)) == budget
    assert math.isclose(log_peak, math.log(budget), rel_tol=1e-14)
    net = MeraNetwork.build(int(leaf), float(eps))
    assert build_admitted(net, budget) and not build_admitted(net, budget - 1)


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert (
            main(
                ["entropy", "--epsilon", L3_EPS, "--interval", "1:2",
                 "--trials", "4", "--seed", "3", "--out", str(out)]
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_entropy_reports_samples_and_bracket(tmp_path, capsys):
    out = tmp_path / "entropy.csv"
    code = main(
        ["entropy", "--epsilon", L3_EPS, "--interval", "0:1",
         "--trials", "3", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["trial", "entropy_vn", "entropy_renyi2"]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    text = capsys.readouterr().out
    for token in ("mean_S=", "mean_S2=", "dp_upper=", "dp_lse=", "dp_lower="):
        assert token in text


def test_mutual_info_brackets_each_length(tmp_path, capsys):
    out = tmp_path / "mi.csv"
    code = main(
        ["mutual-info", "--epsilon", L3_EPS, "--lengths", "1,2",
         "--trials", "3", "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["length", "i_lower", "i_upper", "mc_mean", "mc_stderr"]
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    for r in rows[1:]:
        assert float(r[1]) <= float(r[2])
    assert "bracket=" in capsys.readouterr().out


def test_an_offset_is_read_modulo_the_ring(tmp_path):
    (offset,) = [opt for opt in _COMMANDS["mutual-info"].opts if opt.flag == "--offset"]
    assert "(modular)" in offset.help
    written = set()
    for value in ("-1", "7", "15", "99999999999999999999"):  # all 7 on the ring of 8
        out = tmp_path / f"mi{value}.csv"
        argv = ["mutual-info", "--epsilon", L3_EPS, "--trials", "2", "--lengths", "1,4"]
        assert main([*argv, f"--offset={value}", "--out", str(out)]) == 0
        written.add(out.read_bytes())
    assert len(written) == 1


def test_cuts_match_the_library_and_emit_a_replayable_sequence(tmp_path):
    out = tmp_path / "cuts.csv"
    argmin = tmp_path / "argmin.json"
    code = main(
        ["cuts", "--epsilon", L4_EPS, "--interval", "1:2", "--level", "3",
         "--out", str(out), "--emit-argmin", str(argmin)]
    )
    assert code == 0
    net = MeraNetwork.build(2, float(L4_EPS))
    ref = cut_dp(net, Interval.span(3, Stage.AFTER_W, 1, 2))
    row = dict(zip(*_read_csv(out)))
    assert float(row["min_cost"]) == pytest.approx(ref.min_cost, rel=1e-12)
    assert float(row["lse"]) == pytest.approx(ref.lse, rel=1e-12)
    assert int(row["height_of_argmin"]) == ref.height_of_argmin
    doc = json.loads(argmin.read_text(encoding="utf-8"))
    assert doc["cost"] == pytest.approx(ref.min_cost, rel=1e-12)
    assert doc["height"] == len(doc["steps"]) == ref.height_of_argmin
    assert doc["steps"][0]["kind"] in ("W", "V")


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--epsilon", L3_EPS, "--interval", "3:2", "--trials", "2"],
        ["cuts", "--epsilon", L3_EPS, "--interval", "0:-1", "--level", "2"],
    ],
)
def test_an_empty_interval_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "empty interval" in err and argv[argv.index("--interval") + 1] in err
    assert not out.exists()


@pytest.mark.parametrize("lengths", [","], ids=["flag"])
def test_an_empty_length_list_is_a_usage_error_before_any_draw(
    lengths, tmp_path, monkeypatch, capsys
):
    def no_draw(*args, **kwargs):
        raise AssertionError("a network was drawn before the lengths were checked")

    monkeypatch.setattr(simulator, "build_state", no_draw)
    out = tmp_path / "mi.csv"
    # an empty entry is refused by the option's parser
    with pytest.raises(SystemExit) as exc:
        main(["mutual-info", "--epsilon", L3_EPS, "--lengths", lengths, "--out", str(out)])
    assert exc.value.code == 2
    assert "--lengths" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["mutual-info", "--epsilon", L3_EPS, "--lengths", "1,,2"],
        ["mutual-info", "--epsilon", L3_EPS, "--lengths", "1,"],
        ["collapse", "--specs", "3:3:3,"],
        ["collapse", "--specs", ",3:3:3"],
        ["collapse", "--specs", ""],
    ],
    ids=["lengths-inner", "lengths-trailing", "specs-trailing", "specs-leading", "specs-empty"],
)
def test_a_list_option_with_an_empty_entry_exits_2_before_any_draw(argv, monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("an isometry was drawn for a list with an empty entry")

    monkeypatch.setattr(haar, "sample_isometry_batch", no_draw)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: empty entry in {argv[-1]!r}" in capsys.readouterr().err


def test_cuts_level_out_of_range_is_a_usage_error(capsys):
    assert main(["cuts", "--epsilon", L3_EPS, "--interval", "0:1", "--level", "9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_spectra_lists_every_value_per_seed(tmp_path, capsys):
    out = tmp_path / "spectra.csv"
    svg = tmp_path / "spectra.svg"
    code = main(
        ["spectra", "--dA", "8", "--dB", "2", "--dE", "4", "--seeds", "2",
         "--out", str(out), "--svg", str(svg)]
    )
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["spec", "draw", "i", "lambda"]
    assert len(rows) == 1 + 2 * 4  # two draws, d_B^2 values each
    assert [r[1] for r in rows[1:]] == ["0"] * 4 + ["1"] * 4
    assert {r[0] for r in rows[1:]} == {"8:2:4"}
    assert "mean_lambda0=" in capsys.readouterr().out
    text = svg.read_text(encoding="utf-8")
    assert "<svg" in text and ">draw 1</text>" in text


@pytest.mark.parametrize("dims", [("3", "5", "2"), ("1", "3", "5")])
def test_spectra_of_a_narrow_input_end_in_zeros(dims, tmp_path, capsys):
    out = tmp_path / "spectra.csv"
    d_a, d_b, d_e = dims
    argv = ["spectra", "--dA", d_a, "--dB", d_b, "--dE", d_e, "--seeds", "1", "--out", str(out)]
    assert main(argv) == 0
    rows = _read_csv(out)[1:]
    assert len(rows) == int(d_b) ** 2
    assert all(float(r[3]) == 0.0 for r in rows[int(d_a) ** 2 :])
    assert "min_gap=" in capsys.readouterr().out


def _csv_bytes(header, rows):
    """An RFC-4180 CSV, floats written by `repr`."""
    return "".join(",".join(map(str, row)) + "\r\n" for row in [header, *rows]).encode("utf-8")


def test_spectra_and_collapse_write_the_rows_and_plot_of_each_draw(tmp_path, capsys):
    out, svg = tmp_path / "p.csv", tmp_path / "p.svg"
    argv = ["spectra", "--dA", "6", "--dB", "4", "--dE", "3", "--seeds", "3", "--seed", "5"]
    assert main([*argv, "--out", str(out), "--svg", str(svg)]) == 0
    draws = [
        spectra.singular_spectrum(spectra.SuperOperatorSpec(6, 4, 3, seed=(5, draw))).values.tolist()
        for draw in range(3)
    ]
    rows = [["6:4:3", draw, i, v] for draw, values in enumerate(draws) for i, v in enumerate(values)]
    assert out.read_bytes() == _csv_bytes(["spec", "draw", "i", "lambda"], rows)
    series = {f"draw {draw}": list(enumerate(values)) for draw, values in enumerate(draws)}
    assert svg.read_text(encoding="utf-8") == svgplot.line_plot(series, "singular spectra", "i", "lambda(i)")
    mean0, mean1 = (sum(values[i] for values in draws) / 3 for i in (0, 1))
    gap = min(values[0] - values[1] for values in draws)
    assert capsys.readouterr().out == (
        f"spectra 6:4:3 over 3 seeds: mean_lambda0={mean0:.6f} mean_lambda1={mean1:.6f} min_gap={gap:.6f}\n"
    )

    out, svg = tmp_path / "k.csv", tmp_path / "k.svg"
    assert main(["collapse", "--specs", "4:4:4,8:4:4", "--seed", "5", "--out", str(out), "--svg", str(svg)]) == 0
    rows, series = [], {}
    for idx, dims in enumerate([(4, 4, 4), (8, 4, 4)]):
        values = spectra.singular_spectrum(spectra.SuperOperatorSpec(*dims, seed=(5, idx))).values
        label, edge = ":".join(map(str, dims)), spectra.mp_edge(*dims)
        points = [(i, i / 16, float(values[i]) / edge) for i in range(1, 16)]  # x = i / d_B^2
        rows += [[label, i, x, y] for i, x, y in points]
        series[label] = [(x, y) for _, x, y in points]
    assert out.read_bytes() == _csv_bytes(["spec", "i", "x", "y"], rows)
    assert svg.read_text(encoding="utf-8") == svgplot.line_plot(series, "collapse", "i / d_B^2", "lambda / MP edge")
    first = " ".join(f"{label}:y(1)={points[0][1]:.4f}" for label, points in series.items())
    assert capsys.readouterr().out == f"collapse curves=2 {first}\n"


def test_spectra_with_one_output_dimension_is_a_usage_error(capsys):
    assert main(["spectra", "--dA", "1", "--dB", "1", "--dE", "3"]) == 2
    assert "second singular value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["collapse", "--specs", "1:1:1,4:4:4"],
        ["collapse", "--specs", "4:4:4,1:1:1"],
        ["collapse", "--specs", "2:1:2"],
        ["collapse", "--specs", "4:4:4,1:4:4"],
    ],
)
def test_collapse_with_one_output_dimension_is_a_usage_error(argv, monkeypatch, capsys):
    # the bulk below the top value needs d_A and d_B of at least 2
    def no_draw(*args, **kwargs):
        raise AssertionError("a map was drawn before every map was checked")

    monkeypatch.setattr(spectra, "sample_isometry", no_draw)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d_A and d_B must be at least 2" in captured.err


def test_collapse_reads_distinct_three_part_maps(tmp_path, monkeypatch, capsys):
    out = tmp_path / "collapse.csv"
    assert main(["collapse", "--specs", "3:3:3,8:4:4", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["spec", "i", "x", "y"]
    assert {r[0] for r in rows[1:]} == {"3:3:3", "8:4:4"}
    assert min(int(r[1]) for r in rows[1:]) == 1  # top value dropped
    assert capsys.readouterr().out.startswith("collapse curves=2 3:3:3:y(1)=")

    def no_draw(*args, **kwargs):
        raise AssertionError("a map was drawn from a refused spec list")

    monkeypatch.setattr(spectra, "sample_isometry", no_draw)
    for argv, err in (
        (["collapse"], "--specs"),
        (["collapse", "--specs", "8:4"], "expected dA:dB:dE, got '8:4'"),  # no two-part spec
        (["collapse", "--specs", "4:4:4,6:6:6,4:4:4"], "map '4:4:4' is repeated"),
        (["collapse", "--specs", "4:4:4,04:4:4"], "map '04:4:4' is repeated"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert err in capsys.readouterr().err
    assert main(["collapse", "--specs", "8:4:1"]) == 2  # no room
    assert main(["collapse", "--specs", "8:4:0"]) == 2
    assert "d_E must be a positive integer" in capsys.readouterr().err


def test_moments_check_validates_all_patterns(tmp_path, capsys):
    out = tmp_path / "moments.csv"
    code = main(
        ["moments-check", "--d1", "2", "--d2", "4", "--trials", "4000",
         "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["contraction", "closed_form", "mc_mean", "mc_stderr", "abs_dev", "within_4se"]
    names = [r[0] for r in rows[1:]]
    assert names == [
        "direct", "exchange", "direct_rows_exchange_cols", "exchange_rows_direct_cols", "mixed",
    ]
    assert all(r[5] == "True" for r in rows[1:])
    assert "all_within_4se=True" in capsys.readouterr().out


def test_moments_check_runs_at_input_width_one(capsys):
    code = main(["moments-check", "--d1", "1", "--d2", "5", "--trials", "20000"])
    assert code == 0
    assert "all_within_4se=True" in capsys.readouterr().out
    # into dimension 1 the isometry is a phase, with no Weingarten values
    assert main(["moments-check", "--d1", "1", "--d2", "1"]) == 2
    assert "no Weingarten values" in capsys.readouterr().err


def test_missing_required_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--epsilon", L3_EPS])
    assert exc.value.code == 2
    assert "--interval" in capsys.readouterr().err


def test_impossible_dense_build_exits_with_the_resource_code(capsys):
    code = main(["entropy", "--epsilon", "0.05", "--interval", "0:3", "--trials", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible:")
    assert "level" in err


def test_bad_choice_values_exit_through_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cuts", "--epsilon", L3_EPS, "--interval", "0:1", "--stage", "sideways"])
    assert exc.value.code == 2
    assert "invalid choice: 'sideways'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--epsilon", L3_EPS, "--config", "x.cfg"],
        ["entropy", "--epsilon", L3_EPS, "--interval", "0:1", "--units", "bits"],
        ["collapse", "--specs", "4:4:4", "--mode", "sqrt-d"],
    ],
    ids=["config", "units", "mode"],
)
def test_removed_flags_are_unrecognised_arguments(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["cuts", "--epsilon", L3_EPS, "--interval", "0:1", "--out", "missing/x.csv"],
        ["cuts", "--epsilon", L3_EPS, "--interval", "0:1", "--emit-argmin", "missing/x.json"],
        ["schedule", "--epsilon", L3_EPS, "--svg", "missing/x.svg"],
        # the first output is not written when the second cannot be
        ["cuts", "--epsilon", L3_EPS, "--interval", "0:1", "--emit-argmin", "ok.json", "--out", "missing/x.csv"],
        # refused before any draw
        ["entropy", "--epsilon", L3_EPS, "--interval", "0:1", "--trials", "2", "--out", "missing/x.csv"],
        ["schedule", "--epsilon", L3_EPS, "--out", "taken"],
    ],
    ids=["out", "emit-argmin", "svg", "two-outputs", "entropy", "directory"],
)
def test_an_output_path_that_cannot_be_written_exits_2(argv, tmp_path, monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("an isometry was drawn for a run whose output cannot be written")

    monkeypatch.setattr(haar, "sample_isometry_batch", no_draw)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {argv[-1]}: not a file in a writable directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["schedule", "--epsilon", L3_EPS, "--out", "x", "--svg", "x"], "--out and --svg name one path: x"),
        (
            ["cuts", "--epsilon", L3_EPS, "--interval", "0:1", "--out", "y", "--emit-argmin", "y"],
            "--out and --emit-argmin name one path: y",
        ),
        # compared as real paths, before any draw
        (
            ["spectra", "--dA", "8", "--dB", "4", "--dE", "4", "--out", "s.csv", "--svg", "./s.csv"],
            "--out and --svg name one path: ./s.csv",
        ),
    ],
    ids=["schedule", "cuts", "spectra"],
)
def test_one_path_named_by_two_outputs_exits_2(argv, message, tmp_path, monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("an isometry was drawn for a run with two outputs on one path")

    monkeypatch.setattr(haar, "sample_isometry_batch", no_draw)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "randmera", "schedule", "--epsilon", L3_EPS],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "levels=3" in proc.stdout


@pytest.mark.parametrize("seed", [str(2**128), "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--epsilon", L3_EPS, "--interval", "1:2", "--trials", "2"],
        ["mutual-info", "--epsilon", L3_EPS, "--trials", "2"],
        ["spectra", "--dA", "8", "--dB", "4", "--dE", "4"],
        ["collapse", "--specs", "4:4:4,6:6:6"],
        ["moments-check", "--d1", "2", "--d2", "4", "--trials", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_bad_seed_exits_2_before_the_budget_is_checked(argv, seed, monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("an isometry was drawn from an invalid key")

    monkeypatch.setattr(haar, "sample_isometry_batch", no_draw)
    # every command's first array is over a budget of one amplitude
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "1")
    assert main([*argv, "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: seed ({int(seed)},)")


def test_spectra_and_collapse_refuse_an_oversized_map_before_any_draw(monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("a map was drawn before its size was checked")

    monkeypatch.setattr(spectra, "sample_isometry", no_draw)
    monkeypatch.delenv("RANDMERA_MAX_AMPLITUDES", raising=False)
    for argv in (
        # d_E = 2e9: an 8e9 x 8 isometry
        ["collapse", "--specs", "8:4:2000000000"],
        # the second map has 1e8 entries
        ["collapse", "--specs", "10:10:10,100:100:100"],
        ["spectra", "--dA", "100", "--dB", "100", "--dE", "2"],
    ):
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("infeasible:")


@pytest.mark.parametrize(
    "dims,need",
    [
        (("4", "4", "4"), 256),  # the 16 x 16 map
        (("2", "2", "100"), 400),  # the 200 x 2 isometry
    ],
)
def test_the_map_size_cap_is_the_amplitude_budget(dims, need, monkeypatch, capsys):
    argv = ["spectra", "--dA", dims[0], "--dB", dims[1], "--dE", dims[2], "--seeds", "1"]
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", str(need))
    assert main(argv) == 0
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", str(need - 1))
    assert main(argv) == 3
    assert f"needs {need} amplitudes" in capsys.readouterr().err


def test_an_entropy_under_a_budget_below_its_unformed_leaf_stage_exits_0(monkeypatch, capsys):
    # 8 leaves of dimension 6: the sweep forms 4**8 amplitudes at most for
    # sites 1:2, whose walls cut no rotation pair; the leaf stage is 6**8
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "131072")
    argv = ["entropy", "--leaf-dim", "6", "--epsilon", "0.5777", "--interval", "1:2", "--trials", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("entropy[1:2] (nats): mean_S=")
    assert main([*argv[:-3], "0:1", *argv[-2:]]) == 3
    assert capsys.readouterr().err.startswith("infeasible: dense build needs exp(")


def test_a_moments_check_batch_over_the_budget_is_refused_before_any_draw(monkeypatch, capsys):
    argv = ["moments-check", "--d1", "2", "--d2", "4", "--trials", "100"]
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "800")  # 100 isometries of 4 x 2
    assert main(argv) == 0
    capsys.readouterr()

    def no_draw(*args, **kwargs):
        raise AssertionError("a batch was drawn before its size was checked")

    monkeypatch.setattr(haar, "sample_isometry_batch", no_draw)
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "799")
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("infeasible: a batch of 100 isometries")


def test_a_one_level_rotation_isometry_over_the_budget_exits_3_before_any_draw(monkeypatch, capsys):
    # leaf 5000, split bond 13: the largest state, 5000**2 amplitudes, is under
    # the default budget, while the rotation isometry is 5000**2 x 13**2 (67 GB)
    def no_draw(*args, **kwargs):
        raise AssertionError("an isometry was drawn before it was admitted")

    monkeypatch.setattr(haar, "sample_isometry_batch", no_draw)
    monkeypatch.delenv("RANDMERA_MAX_AMPLITUDES", raising=False)
    argv = ["entropy", "--leaf-dim", "5000", "--epsilon", "6", "--interval", "0:0", "--trials", "1"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "infeasible: dense build needs exp(22.16) amplitudes for a level 1 rotation isometry, "
        "budget is 67108864\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["entropy", "--epsilon", L3_EPS, "--interval", "0:1"], ["mutual-info", "--epsilon", L3_EPS]],
    ids=["entropy", "mutual-info"],
)
def test_a_trial_count_over_the_budget_exits_3_before_any_draw(argv, tmp_path, monkeypatch, capsys):
    # 10**20 trials: numpy cannot even form a region's two arrays of entropies
    def no_draw(*args, **kwargs):
        raise AssertionError("an isometry was drawn before the trial count was admitted")

    monkeypatch.setattr(simulator, "sample_isometry", no_draw)
    monkeypatch.delenv("RANDMERA_MAX_AMPLITUDES", raising=False)
    out, trials = tmp_path / "x.csv", "99999999999999999999"
    assert main([*argv, "--trials", trials, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"infeasible: a sweep keeps two arrays of {trials} entropies per region, budget is 67108864\n"
    )
    assert not out.exists()


def test_a_schedule_deeper_than_128_levels_exits_with_the_resource_code(capsys):
    assert main(["schedule", "--epsilon", "0.003"]) == 3
    assert capsys.readouterr().err == "infeasible: no termination within 128 levels\n"


def test_schedule_and_cuts_answer_at_96_levels(capsys):
    assert main(["schedule", "--epsilon", "0.005"]) == 0
    assert "levels=96" in capsys.readouterr().out
    assert main(["cuts", "--epsilon", "0.005", "--interval", "1:1099511627776"]) == 0
    assert "@level 96 after_W" in capsys.readouterr().out


def test_a_deep_dense_build_exits_with_the_resource_code_under_any_budget(monkeypatch):
    # its site dimensions pass 2**53, so no budget admits it
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", str(10**40))
    proc = subprocess.run(
        [sys.executable, "-m", "randmera", "entropy", "--epsilon", "0.01", "--interval", "0:3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("infeasible: dense build needs exp(")
    assert "Traceback" not in proc.stderr


def test_moments_check_admits_its_batch_before_it_forms_a_closed_form(monkeypatch, capsys):
    # a closed form turns d2 into a float; 10**200 does not fit one
    def no_draw(*args, **kwargs):
        raise AssertionError("a batch was drawn before its size was checked")

    monkeypatch.setattr(haar, "sample_isometry_batch", no_draw)
    monkeypatch.delenv("RANDMERA_MAX_AMPLITUDES", raising=False)
    d2 = 10**200
    assert main(["moments-check", "--d1", "1", "--d2", str(d2), "--trials", "100"]) == 3
    assert capsys.readouterr().err == (
        f"infeasible: a batch of 100 isometries {d2}x1 needs {100 * d2} amplitudes, budget is 67108864\n"
    )
    for dims, message in (("1", "1"), "no Weingarten values"), (("5", "3"), "no isometry into a smaller space"):
        assert main(["moments-check", "--d1", dims[0], "--d2", dims[1], "--trials", "100"]) == 2
        assert message in capsys.readouterr().err


def test_spectra_admits_the_values_it_keeps_before_any_draw(tmp_path, monkeypatch, capsys):
    # each 3:3:3 map, 81 amplitudes, is under the budget; 11 spectra keep 99 values, 12 keep 108
    argv = ["spectra", "--dA", "3", "--dB", "3", "--dE", "3"]
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "99")
    assert main([*argv, "--seeds", "11"]) == 0
    capsys.readouterr()

    def no_draw(*args, **kwargs):
        raise AssertionError("a map was drawn before the kept values were admitted")

    monkeypatch.setattr(haar, "sample_isometry_batch", no_draw)
    out = tmp_path / "x.csv"
    assert main([*argv, "--seeds", "12", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "infeasible: 12 spectra keep 108 singular values, budget is 99\n"
    # no map is formed ahead of its draw, so a huge count is refused at once
    monkeypatch.delenv("RANDMERA_MAX_AMPLITUDES")
    seeds = 99999999999999999999
    assert main([*argv, "--seeds", str(seeds), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"infeasible: {seeds} spectra keep {9 * seeds} singular values, budget is 67108864\n"
    )
    assert not out.exists()


def test_spectra_holds_each_kept_value_as_one_float(monkeypatch):
    # the values are admitted as amplitudes, so the report may hold at most 16
    # bytes for each; rows and plot series are formed only as they are written
    monkeypatch.delenv("RANDMERA_MAX_AMPLITUDES", raising=False)

    def held(seeds):
        gc.collect()
        tracemalloc.start()
        try:
            report = _cmd_spectra({"dA": 2, "dB": 2, "dE": 2, "seeds": seeds, "seed": 0})
            gc.collect()
            return tracemalloc.get_traced_memory()[0], report
        finally:
            tracemalloc.stop()

    held(500)  # numpy and the seed tree warm up
    (small, _), (large, report) = held(500), held(2500)
    assert (large - small) / (2000 * 4) <= 16  # measured 8.0; 304 with lists of rows and series
    assert callable(report.plot) and not isinstance(report.rows, (list, tuple))


def test_moments_check_refuses_a_single_trial_before_any_draw(monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("a batch was drawn for a check that has no standard error")

    monkeypatch.setattr(haar, "sample_isometry_batch", no_draw)
    monkeypatch.setenv("RANDMERA_MAX_AMPLITUDES", "1")  # admission would exit 3
    assert main(["moments-check", "--d1", "2", "--d2", "4", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials of at least 2" in captured.err


def _drawn_keys(monkeypatch, module, name):
    keys = []
    sampler = getattr(module, name)

    def spy(*args):
        keys.append(args[-1])
        return sampler(*args)

    monkeypatch.setattr(module, name, spy)
    return keys


def test_each_map_and_pattern_draws_from_the_seed_and_its_index(monkeypatch, capsys):
    maps = _drawn_keys(monkeypatch, spectra, "sample_isometry")
    assert main(["spectra", "--dA", "4", "--dB", "2", "--dE", "2", "--seeds", "3", "--seed", "9"]) == 0
    assert main(["collapse", "--specs", "2:2:2,3:3:3", "--seed", "9"]) == 0
    assert maps == [(9, 0), (9, 1), (9, 2), (9, 0), (9, 1)]
    batches = _drawn_keys(monkeypatch, haar, "sample_isometry_batch")
    assert main(["moments-check", "--d1", "1", "--d2", "2", "--trials", "8", "--seed", "9"]) == 0
    assert batches == [(9, idx) for idx in range(5)]
    # pattern 0 no longer draws the bare seed's stream
    first = haar.sample_isometry_batch(1, 2, 8, (9, 0))
    assert np.max(np.abs(first - haar.sample_isometry_batch(1, 2, 8, 9))) > 1e-3


def test_spectra_runs_under_neighbouring_seeds_share_no_map(tmp_path, capsys):
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / f"spectra{seed}.csv"
        argv = ["spectra", "--dA", "8", "--dB", "4", "--dE", "4", "--seeds", "2", "--seed", seed]
        assert main([*argv, "--out", str(out)]) == 0
        rows = _read_csv(out)[1:]
        runs.append([tuple(r[3] for r in rows if r[1] == draw) for draw in ("0", "1")])
    assert not set(runs[0]) & set(runs[1])


def test_a_master_seed_of_2_to_the_128_exits_2(monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("a network was drawn from an invalid key")

    monkeypatch.setattr(simulator, "sample_isometry", no_draw)
    argv = ["entropy", "--epsilon", L3_EPS, "--interval", "1:2", "--trials", "1", "--seed", str(2**128)]
    assert main(argv) == 2
    assert "seed (340282366920938463463374607431768211456,)" in capsys.readouterr().err


class _Drawn(Exception):
    """Raised by the patched sampler: the run reached its first draw."""


_SCALARS = ["nan", "inf", "-inf", "-1", "0", "1e400", "1e-300", "", "1.5", str(2**64), str(10**20 - 1), str(10**200)]
# for each parser, values that parse and values that should not
_POOLS = {
    int: (["1", "2", "3", "4"], _SCALARS),
    float: ([L3_EPS, L4_EPS, "1.39"], _SCALARS),
    str: (["after_W", "after_V"], [*_SCALARS, "sideways"]),
    _interval_arg: (["0:1", "1:2", "3:2", "0:-1", f"0:{10**200}"], [*_SCALARS, "1:", ":", "a:b", "1:2:3"]),
    _int_list: (["1", "1,2", "2,1,4", str(10**200)], [*_SCALARS, ",", "1,,2", "2,", ",1", "1;2", "1:2"]),
    _spec_list: (
        ["4:4:4", "4:4:4,8:4:4", "1:1:1", "8:4:0", "2:2:1"],
        [*_SCALARS, "3:3:3,", "8:4", "4:4:4,4:4:4", "a:b:c"],
    ),
}
_OUTPUTS = ("--out", "--svg", "--emit-argmin")


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_any_argv_drawn_from_the_command_table_exits_cleanly(data, tmp_path_factory):
    # one option of a command is unset or set from its parser's whole pool, the others
    # from its valid pool; each output is unset, a new file, a file in a missing
    # directory or one path that other outputs may name too
    name = data.draw(st.sampled_from(sorted(_COMMANDS)), label="command")
    opts = _COMMANDS[name].opts
    hostile = data.draw(st.sampled_from([o.flag for o in opts if o.flag not in _OUTPUTS]), label="hostile")
    run_dir = tmp_path_factory.mktemp("run")
    paths = {"file": None, "missing": run_dir / "missing" / "x", "shared": run_dir / "shared"}
    argv = [name]
    for opt in opts:
        if opt.flag in _OUTPUTS:
            where = data.draw(st.sampled_from(["unset", *paths]), label=opt.flag)
            value = run_dir / opt.flag.strip("-") if where == "file" else paths.get(where)
        else:
            valid, invalid = _POOLS[opt.type]
            if opt.flag == hostile:
                values = st.sampled_from([None, *valid, *invalid])
            else:
                values = st.sampled_from(valid) if opt.required else st.none() | st.sampled_from(valid)
            value = data.draw(values, label=opt.flag)
        if value is not None:
            argv.append(f"{opt.flag}={value}")
    draws = []

    def sampler(*args):
        draws.append(args)
        raise _Drawn

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(haar, "sample_isometry_batch", sampler)
        mp.setenv("RANDMERA_MAX_AMPLITUDES", "4096")
        try:
            code = main(argv)
        except SystemExit as exc:  # refused by the parser
            code = exc.code
            assert code == 2, argv
        except _Drawn:
            code = None
    assert code in (None, 0, 1, 2, 3), argv
    if code in (None, 2, 3):
        assert list(run_dir.rglob("*")) == [], argv
    if code in (2, 3):
        assert draws == [], argv
