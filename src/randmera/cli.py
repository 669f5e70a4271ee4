"""Command-line front end.

Subcommands cover the full workbench: dimension schedules, Monte Carlo
interval entropies with their dynamic-programming brackets, mutual
information sweeps, reduction-sequence bounds with argmin export, channel
singular spectra, their collapse, and the isometry-moment self check.
``collapse`` reads one ``--specs`` list of distinct ``dA:dB:dE`` maps and
divides each spectrum by its Marchenko-Pastur edge (`spectra.mp_edge`),
with no fitted parameter.

A command is one `_COMMANDS` entry: its help, its options and a run
function that returns a `_Report` and opens no file.  `main` is the only
writer: it parses, checks, runs the command, streams its rows once into
``--out``, forms its plot only for ``--svg``, and exits.  ``spectra`` holds
each value it keeps as one float64, ``collapse`` one array per map.

Conventions shared by every command:

* all randomness flows from ``--seed`` (an integer in [0, 2**128); runs are
  reproducible byte for byte): Monte Carlo trial, map or ``moments-check``
  pattern ``i`` draws from the `haar.seed_key` key ``(seed, i)``; a seed
  outside those bounds exits 2 before any amplitude-budget check,
* ``--out`` writes a UTF-8 CSV with a header row and RFC-4180 quoting, and
  a one-line summary always goes to stdout,
* a list option (``--lengths``, ``--specs``) refuses an empty entry, and
  ring positions are modular (``--interval``, ``--offset``),
* entropic quantities (entropies, cut costs, mutual-information brackets)
  are printed and written in nats,
* exit codes: 0 success, 2 usage problem, one path named by two of
  ``--out``, ``--svg`` and ``--emit-argmin``, or an output file that cannot
  be written (before the run if it is a directory or its directory is
  missing or read-only), 3 feasibility limit: a schedule over 128 levels,
  or a dense state or isometry (never past 2**53 per site), a count of
  trials, a map, the values ``spectra`` keeps or a ``moments-check`` batch
  of isometries over the amplitude budget.

The library holds every dense state, map, moment batch, drawn isometry and
Monte Carlo accumulator to the amplitude budget (`errors.admit`) before its
first draw; the CLI admits only the singular values ``spectra`` keeps over
its draws, and orders its checks, the seed and the output paths first.  The
budget can be overridden through the ``RANDMERA_MAX_AMPLITUDES``
environment variable.  ``schedule`` prints as ``log_peak_amplitudes`` the
largest array that the simulator admits for a full dense build
(`simulator.build_rows`): the leaf stage, or on one level the rotation
isometry.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import cutbounds, haar, simulator, spectra, svgplot
from .errors import FeasibilityError, UsageError, admit
from .network import Interval, MeraNetwork, Stage
from .schedule import schedule_report, solve_schedule

__all__ = ["main"]


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------


class _Opt(NamedTuple):
    """One option: its flag, then its `add_argument` keywords."""

    flag: str
    type: Callable
    default: object
    help: str
    required: bool = False
    choices: tuple | None = None


def _ints(text: str, shape: str) -> tuple[int, ...]:
    """The integers of ``text`` laid out as ``shape``, e.g. ``"i:j"``."""
    parts = text.split(":")
    if len(parts) != shape.count(":") + 1:
        raise argparse.ArgumentTypeError(f"expected {shape}, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}") from exc


def _interval_arg(text: str) -> tuple[int, int]:
    return _ints(text, "i:j")


def _split(text: str) -> list[str]:
    """The comma-separated entries of a list option; an empty entry is refused."""
    tokens = text.split(",")
    if "" in tokens:
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    return tokens


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(_ints(tok, "an integer")[0] for tok in _split(text))


def _spec_list(text: str) -> tuple[tuple[int, int, int], ...]:
    out = []
    for tok in _split(text):
        dims = _ints(tok, "dA:dB:dE")
        if dims in out:  # curves are keyed by their label
            raise argparse.ArgumentTypeError(f"map {tok!r} is repeated")
        out.append(dims)
    return tuple(out)


_SEED = _Opt("--seed", int, 0, "master seed; all randomness derives from it")
_OUT = _Opt("--out", str, None, "write results to this CSV file")
_LEAF = _Opt("--leaf-dim", int, 2, "leaf site dimension (>= 2)")
_EPS = _Opt("--epsilon", float, None, "per-scale contraction rate (> 0)", required=True)
_TRIALS = _Opt("--trials", int, 200, "number of Monte Carlo trials")
_SVG = _Opt("--svg", str, None, "also write a line plot to this SVG file")


# ---------------------------------------------------------------------------
# commands: each returns a report and opens no file
# ---------------------------------------------------------------------------


class _Report(NamedTuple):
    """What a command hands `main`, the only writer."""

    summary: str
    header: list[str]  # of the --out CSV
    rows: Iterable  # streamed once into --out
    plot: Callable[[], tuple] | None = None  # `svgplot.line_plot`'s arguments, called for --svg only
    argmin: dict | None = None  # for --emit-argmin
    code: int = 0


def _ring_interval(level: int, stage: Stage, ij: tuple[int, int]) -> Interval:
    """The nonempty interval ``i:j`` (inclusive, modular) on one ring."""
    interval = Interval.span(level, stage, *ij)
    if not interval.length:
        raise UsageError(
            f"--interval {ij[0]}:{ij[1]} is the empty interval on the level {level} "
            f"ring of {interval.n_sites} sites (i = j+1 mod {interval.n_sites})"
        )
    return interval


def _cmd_schedule(args: dict) -> _Report:
    sched = solve_schedule(args["leaf_dim"], args["epsilon"])
    rows = schedule_report(sched)
    _, build = simulator.build_rows(MeraNetwork(sched))
    log_peak = max(log_count for log_count, *_ in build)
    return _Report(
        f"schedule: levels={sched.levels} sites={1 << sched.levels} "
        f"leaf_dim={sched.leaf_dim} epsilon={sched.epsilon!r} "
        f"log_peak_amplitudes={log_peak!r}",
        ["k", "log_D_k", "log_Dprime_k", "scale", "ratio"],
        rows,
        lambda: ({"log D_k": [(k, log_d) for k, log_d, *_ in rows]}, "dimension schedule", "level", "log dim"),
    )


def _cmd_entropy(args: dict) -> _Report:
    network = MeraNetwork.build(args["leaf_dim"], args["epsilon"])
    interval = _ring_interval(network.levels, Stage.AFTER_W, args["interval"])
    stats = simulator.mc_entropy_stats(network, interval, args["trials"], args["seed"])
    bounds = cutbounds.cut_dp(network, interval)
    return _Report(
        f"entropy[{args['interval'][0]}:{args['interval'][1]}] (nats): "
        f"mean_S={stats.mean_s:.6f} mean_S2={stats.mean_s2:.6f} "
        f"dp_upper={bounds.min_cost:.6f} dp_lse={bounds.lse:.6f} "
        f"dp_lower={max(0.0, bounds.lower_bound):.6f} trials={args['trials']}",
        ["trial", "entropy_vn", "entropy_renyi2"],
        ([t, float(s), float(s2)] for t, (s, s2) in enumerate(zip(stats.samples_s, stats.samples_s2))),
    )


def _cmd_mutual_info(args: dict) -> _Report:
    network = MeraNetwork.build(args["leaf_dim"], args["epsilon"])
    n = network.n_leaves
    level, stage = network.levels, Stage.AFTER_W
    pairs = []
    predictions = []
    for length in args["lengths"]:
        if not 1 <= length <= n // 2:
            raise UsageError(f"length {length} not in [1, {n // 2}]")
        left = Interval.of_length(level, stage, args["offset"] % n, length)
        right = Interval.of_length(level, stage, (args["offset"] + length) % n, length)
        pairs.append((left, right))
        predictions.append(cutbounds.mi_prediction(network, left, right))
    mc = simulator.mc_mutual_information(network, pairs, args["trials"], args["seed"])
    rows = [
        [length, pred.i_lower, pred.i_upper, samples.mean, samples.stderr]
        for length, pred, samples in zip(args["lengths"], predictions, mc)
    ]
    last = rows[-1]
    return _Report(
        f"mutual-info (nats): lengths={list(args['lengths'])} trials={args['trials']} "
        f"last: l={last[0]} bracket=[{last[1]:.6f}, {last[2]:.6f}] mc={last[3]:.6f}±{last[4]:.6f}",
        ["length", "i_lower", "i_upper", "mc_mean", "mc_stderr"],
        rows,
    )


def _cmd_cuts(args: dict) -> _Report:
    network = MeraNetwork.build(args["leaf_dim"], args["epsilon"])
    level = args["level"] if args["level"] is not None else network.levels
    if not 1 <= level <= network.levels:
        raise UsageError(f"level {level} not in [1, {network.levels}]")
    stage = Stage(args["stage"])
    interval = _ring_interval(level, stage, args["interval"])
    bounds = cutbounds.cut_dp(network, interval)
    header = ["i", "j", "level", "stage", "min_cost", "lse", "lower_bound", "height_of_argmin"]
    return _Report(
        f"cuts[{interval.i}:{interval.j}]@level {level} {stage.value} (nats): "
        f"min_cost={bounds.min_cost:.6f} lse={bounds.lse:.6f} "
        f"lower={max(0.0, bounds.lower_bound):.6f} height={bounds.height_of_argmin}",
        header,
        [[interval.i, interval.j, level, stage.value, *(getattr(bounds, name) for name in header[4:])]],
        argmin=bounds.argmin.to_json_dict(),
    )


def _cmd_spectra(args: dict) -> _Report:
    d_a, d_b, d_e, seeds = args["dA"], args["dB"], args["dE"], args["seeds"]
    if seeds < 1:
        raise UsageError("--seeds must be positive")
    if d_b < 2:
        raise UsageError("--dB must be at least 2: the summary reads the second singular value")
    # before the first draw: the dimensions, the values every draw keeps, the last draw's key
    label = spectra.SuperOperatorSpec(d_a, d_b, d_e).label
    n_kept = seeds * d_b * d_b
    admit(math.log(n_kept), [(n_kept, 1)], f"{seeds} spectra keep {n_kept} singular values")
    haar.seed_key((args["seed"], seeds - 1))
    kept = np.empty((seeds, d_b * d_b))  # one float64 per kept value, a row per draw
    for draw in range(seeds):
        spec = spectra.SuperOperatorSpec(d_a, d_b, d_e, seed=(args["seed"], draw))
        kept[draw] = spectra.singular_spectrum(spec).values
    mean0, mean1 = (sum(kept[:, i].tolist()) / seeds for i in (0, 1))  # Python sums, in draw order
    return _Report(
        f"spectra {label} over {seeds} seeds: mean_lambda0={mean0:.6f} mean_lambda1={mean1:.6f} "
        f"min_gap={(kept[:, 0] - kept[:, 1]).min():.6f}",
        ["spec", "draw", "i", "lambda"],
        ([label, draw, i, v] for draw, values in enumerate(kept) for i, v in enumerate(values.tolist())),
        lambda: (
            {f"draw {draw}": list(enumerate(values.tolist())) for draw, values in enumerate(kept)},
            "singular spectra", "i", "lambda(i)",
        ),
    )


def _cmd_collapse(args: dict) -> _Report:
    specs = [
        spectra.SuperOperatorSpec(*dims, seed=(args["seed"], idx))
        for idx, dims in enumerate(args["specs"])
    ]
    curves = [(spec.label, spec.d_B**2, ys) for spec, ys in zip(specs, spectra.collapse_experiment(specs))]
    return _Report(
        f"collapse curves={len(curves)} " + " ".join(f"{label}:y(1)={ys[0]:.4f}" for label, _, ys in curves),
        ["spec", "i", "x", "y"],
        ([label, i, i / d_sq, y] for label, d_sq, ys in curves for i, y in enumerate(ys.tolist(), 1)),
        lambda: (
            {label: [(i / d_sq, y) for i, y in enumerate(ys.tolist(), 1)] for label, d_sq, ys in curves},
            "collapse", "i / d_B^2", "lambda / MP edge",
        ),
    )


def _cmd_moments_check(args: dict) -> _Report:
    d1, d2, trials = args["d1"], args["d2"], args["trials"]
    if trials < 2:
        raise UsageError("moments-check needs --trials of at least 2: one sample has no standard error")
    c, c_prime = haar.moment_constants(d2)
    rows = []
    worst = 0.0
    patterns = {**haar.CANONICAL_CONTRACTIONS, "mixed": haar.MIXED_CONTRACTION}
    for idx, (name, contraction) in enumerate(patterns.items()):
        # the Monte Carlo admits its batch before it draws, so a d2 past a float's range is
        # refused before the closed form reads it
        est = haar.fourth_moment_mc(d1, d2, contraction, trials, (args["seed"], idx))
        exact = haar.fourth_moment_exact(d1, d2, contraction)
        dev = abs(est.value - exact)
        ok = dev <= 4.0 * est.stderr + 1e-9
        if est.stderr > 1e-12:
            worst = max(worst, dev / est.stderr)
        rows.append([name, exact, est.value, est.stderr, dev, ok])
    all_ok = all(r[5] for r in rows)
    return _Report(
        f"moments-check d1={d1} d2={d2} trials={trials}: c={c!r} "
        f"c_prime={c_prime!r} max_sigma={worst:.3f} all_within_4se={all_ok}",
        ["contraction", "closed_form", "mc_mean", "mc_stderr", "abs_dev", "within_4se"],
        rows,
        code=0 if all_ok else 1,
    )


class _Command(NamedTuple):
    """The one statement of a command: its help, its options and its run function."""

    help: str
    opts: list[_Opt]
    run: Callable[[dict], _Report]


_COMMANDS: dict[str, _Command] = {
    "schedule": _Command(
        "solve the level-dimension recursion and report the schedule",
        [_LEAF, _EPS, _OUT, _SVG],
        _cmd_schedule,
    ),
    "entropy": _Command(
        "Monte Carlo interval entropies with their DP bracket",
        [
            _LEAF,
            _EPS,
            _Opt("--interval", _interval_arg, None, "leaf interval i:j (inclusive, modular)", required=True),
            _TRIALS,
            _SEED,
            _OUT,
        ],
        _cmd_entropy,
    ),
    "mutual-info": _Command(
        "mutual information of adjacent leaf intervals vs DP brackets",
        [
            _LEAF,
            _EPS,
            _Opt("--lengths", _int_list, (1, 2, 4), "comma-separated interval lengths"),
            _Opt("--offset", int, 0, "left interval start site (modular)"),
            _TRIALS,
            _SEED,
            _OUT,
        ],
        _cmd_mutual_info,
    ),
    "cuts": _Command(
        "reduction-sequence bounds for one interval",
        [
            _LEAF,
            _EPS,
            _Opt("--interval", _interval_arg, None, "interval i:j on the chosen ring", required=True),
            _Opt("--level", int, None, "ring level (default: leaf level)"),
            _Opt("--stage", str, "after_W", "ring stage", choices=("after_W", "after_V")),
            _Opt("--emit-argmin", str, None, "write the argmin sequence to this JSON file"),
            _OUT,
        ],
        _cmd_cuts,
    ),
    "spectra": _Command(
        "singular spectra of the random coarse-graining channel",
        [
            _Opt("--dA", int, None, "input dimension", required=True),
            _Opt("--dB", int, None, "kept output dimension", required=True),
            _Opt("--dE", int, None, "traced output dimension", required=True),
            _Opt("--seeds", int, 10, "number of independent draws"),
            _SEED,
            _OUT,
            _SVG,
        ],
        _cmd_spectra,
    ),
    "collapse": _Command(
        "overlay of spectra across sizes, each divided by its Marchenko-Pastur edge",
        [
            _Opt("--specs", _spec_list, None, "distinct dA:dB:dE maps, dA and dB >= 2", required=True),
            _SEED,
            _OUT,
            _SVG,
        ],
        _cmd_collapse,
    ),
    "moments-check": _Command(
        "Monte Carlo check of the isometry fourth-moment closed forms",
        [
            _Opt("--d1", int, None, "input dimension", required=True),
            _Opt("--d2", int, None, "output dimension", required=True),
            _Opt("--trials", int, 100_000, "number of sampled isometries"),
            _SEED,
            _OUT,
        ],
        _cmd_moments_check,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randmera",
        description="Workbench for random multiscale isometry networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.opts:
            keywords = opt._asdict()
            p.add_argument(keywords.pop("flag"), **keywords)
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    try:
        if "seed" in args:  # a bad seed is a usage error, before any budget check
            haar.seed_key(args["seed"])
        flags: dict[str, str] = {}  # real path -> the flag that named it
        for name in ("out", "svg", "emit_argmin"):  # all outputs or none
            path = args.get(name)
            if not path:
                continue
            flag, real = "--" + name.replace("_", "-"), os.path.realpath(path)
            if real in flags:
                raise UsageError(f"{flags[real]} and {flag} name one path: {path}")
            flags[real] = flag
            parent = os.path.dirname(path) or "."
            if os.path.isdir(path) or not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
                raise UsageError(f"cannot write {path}: not a file in a writable directory")
        report = _COMMANDS[args["command"]].run(args)
        for name in ("emit_argmin", "out", "svg"):
            if not args.get(name):
                continue
            with open(args[name], "w", encoding="utf-8", newline="") as fh:
                if name == "emit_argmin":
                    json.dump(report.argmin, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                elif name == "out":
                    writer = csv.writer(fh)
                    writer.writerow(report.header)
                    writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in report.rows)
                else:
                    fh.write(svgplot.line_plot(*report.plot()))
        print(report.summary)
        return report.code
    except (UsageError, OSError) as exc:  # an OSError is an output write
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
