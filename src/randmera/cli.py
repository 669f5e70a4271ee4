"""Command-line front end.

Subcommands cover the full workbench: dimension schedules, Monte Carlo
interval entropies with their dynamic-programming brackets, mutual
information sweeps, reduction-sequence bounds with argmin export, channel
singular spectra, their collapse, and the isometry-moment self check.
``collapse`` reads one ``--specs`` list of distinct ``dA:dB:dE`` maps and
divides each spectrum by its Marchenko-Pastur edge (`spectra.mp_edge`),
with no fitted parameter.

Conventions shared by every command:

* all randomness flows from ``--seed`` (an integer in [0, 2**128); runs are
  reproducible byte for byte): Monte Carlo trial, map or ``moments-check``
  pattern ``i`` draws from the `haar.seed_key` key ``(seed, i)``; a seed
  outside those bounds exits 2 before any amplitude-budget check,
* ``--out`` writes a UTF-8 CSV with a header row and RFC-4180 quoting, and
  a one-line summary always goes to stdout,
* entropic quantities (entropies, cut costs, mutual-information brackets)
  are printed and written in nats,
* exit codes: 0 success, 2 usage problem, one path named by two of
  ``--out``, ``--svg`` and ``--emit-argmin``, or an output file that cannot
  be written (before the run if it is a directory or its directory is
  missing or read-only), 3 feasibility limit: a schedule over 128 levels,
  or a dense state or isometry (never past 2**53 per site), a count of
  trials, a map or a ``moments-check`` batch of isometries over the
  amplitude budget.

The library holds every dense state, map, moment batch, drawn isometry and
Monte Carlo accumulator to the amplitude budget (`errors.admit`) before its
first draw; the CLI only orders its checks, the seed and the output paths
first.  The budget can be overridden through the ``RANDMERA_MAX_AMPLITUDES``
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
from typing import Callable, NamedTuple

from . import cutbounds, simulator, spectra, svgplot
from .errors import FeasibilityError, UsageError
from .haar import (
    CANONICAL_CONTRACTIONS,
    MIXED_CONTRACTION,
    fourth_moment_exact,
    fourth_moment_mc,
    moment_constants,
    seed_key,
)
from .network import Interval, MeraNetwork, Stage
from .schedule import schedule_report, solve_schedule

__all__ = ["main"]


# ---------------------------------------------------------------------------
# option table
# ---------------------------------------------------------------------------


class _Opt(NamedTuple):
    flag: str
    type: Callable
    default: object
    help: str
    required: bool = False
    choices: tuple | None = None


def _interval_arg(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected i:j, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _spec_list(text: str) -> tuple[tuple[int, int, int], ...]:
    out = []
    for tok in text.split(","):
        if not tok:
            continue
        parts = tok.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected dA:dB:dE, got {tok!r}")
        try:
            dims = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected integers in {tok!r}") from exc
        if dims in out:  # curves are keyed by their label
            raise argparse.ArgumentTypeError(f"map {tok!r} is repeated")
        out.append(dims)
    if not out:
        raise argparse.ArgumentTypeError("empty spec list")
    return tuple(out)


_SEED = _Opt("--seed", int, 0, "master seed; all randomness derives from it")
_OUT = _Opt("--out", str, None, "write results to this CSV file")
_LEAF = _Opt("--leaf-dim", int, 2, "leaf site dimension (>= 2)")
_EPS = _Opt("--epsilon", float, None, "per-scale contraction rate (> 0)", required=True)
_TRIALS = _Opt("--trials", int, 200, "number of Monte Carlo trials")
_SVG = _Opt("--svg", str, None, "also write a line plot to this SVG file")


_COMMANDS: dict[str, dict] = {
    "schedule": {
        "help": "solve the level-dimension recursion and report the schedule",
        "opts": [_LEAF, _EPS, _OUT, _SVG],
    },
    "entropy": {
        "help": "Monte Carlo interval entropies with their DP bracket",
        "opts": [
            _LEAF,
            _EPS,
            _Opt("--interval", _interval_arg, None, "leaf interval i:j (inclusive, modular)", required=True),
            _TRIALS,
            _SEED,
            _OUT,
        ],
    },
    "mutual-info": {
        "help": "mutual information of adjacent leaf intervals vs DP brackets",
        "opts": [
            _LEAF,
            _EPS,
            _Opt("--lengths", _int_list, (1, 2, 4), "comma-separated interval lengths"),
            _Opt("--offset", int, 0, "left interval start site"),
            _TRIALS,
            _SEED,
            _OUT,
        ],
    },
    "cuts": {
        "help": "reduction-sequence bounds for one interval",
        "opts": [
            _LEAF,
            _EPS,
            _Opt("--interval", _interval_arg, None, "interval i:j on the chosen ring", required=True),
            _Opt("--level", int, None, "ring level (default: leaf level)"),
            _Opt("--stage", str, "after_W", "ring stage", choices=("after_W", "after_V")),
            _Opt("--emit-argmin", str, None, "write the argmin sequence to this JSON file"),
            _OUT,
        ],
    },
    "spectra": {
        "help": "singular spectra of the random coarse-graining channel",
        "opts": [
            _Opt("--dA", int, None, "input dimension", required=True),
            _Opt("--dB", int, None, "kept output dimension", required=True),
            _Opt("--dE", int, None, "traced output dimension", required=True),
            _Opt("--seeds", int, 10, "number of independent draws"),
            _SEED,
            _OUT,
            _SVG,
        ],
    },
    "collapse": {
        "help": "overlay of spectra across sizes, each divided by its Marchenko-Pastur edge",
        "opts": [
            _Opt("--specs", _spec_list, None, "distinct dA:dB:dE maps, dA and dB >= 2", required=True),
            _SEED,
            _OUT,
            _SVG,
        ],
    },
    "moments-check": {
        "help": "Monte Carlo check of the isometry fourth-moment closed forms",
        "opts": [
            _Opt("--d1", int, None, "input dimension", required=True),
            _Opt("--d2", int, None, "output dimension", required=True),
            _Opt("--trials", int, 100_000, "number of sampled isometries"),
            _SEED,
            _OUT,
        ],
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randmera",
        description="Workbench for random multiscale isometry networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, info in _COMMANDS.items():
        p = sub.add_parser(name, help=info["help"])
        for opt in info["opts"]:
            p.add_argument(
                opt.flag,
                type=opt.type,
                default=opt.default,
                help=opt.help,
                required=opt.required,
                choices=opt.choices,
            )
    return parser


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_svg(path: str, series, title, x_label, y_label) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svgplot.line_plot(series, title=title, x_label=x_label, y_label=y_label))


def _network(args: dict) -> MeraNetwork:
    return MeraNetwork.build(args["leaf_dim"], args["epsilon"])


def _ring_interval(level: int, stage: Stage, ij: tuple[int, int]) -> Interval:
    """The nonempty interval ``i:j`` (inclusive, modular) on one ring."""
    interval = Interval.span(level, stage, *ij)
    if not interval.length:
        raise UsageError(
            f"--interval {ij[0]}:{ij[1]} is the empty interval on the level {level} "
            f"ring of {interval.n_sites} sites (i = j+1 mod {interval.n_sites})"
        )
    return interval


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_schedule(args: dict) -> int:
    sched = solve_schedule(args["leaf_dim"], args["epsilon"])
    rows = [list(row) for row in schedule_report(sched)]
    _, build = simulator.build_rows(MeraNetwork(sched))
    log_peak = max(log_count for log_count, *_ in build)
    if args["out"]:
        _write_csv(args["out"], ["k", "log_D_k", "log_Dprime_k", "scale", "ratio"], rows)
    if args["svg"]:
        series = {"log D_k": [(k, log_d) for k, log_d, *_ in rows]}
        _write_svg(args["svg"], series, "dimension schedule", "level", "log dim")
    print(
        f"schedule: levels={sched.levels} sites={1 << sched.levels} "
        f"leaf_dim={sched.leaf_dim} epsilon={sched.epsilon!r} "
        f"log_peak_amplitudes={log_peak!r}"
    )
    return 0


def _cmd_entropy(args: dict) -> int:
    network = _network(args)
    interval = _ring_interval(network.levels, Stage.AFTER_W, args["interval"])
    stats = simulator.mc_entropy_stats(network, interval, args["trials"], args["seed"])
    bounds = cutbounds.cut_dp(network, interval)
    if args["out"]:
        rows = [
            [t, float(s), float(s2)]
            for t, (s, s2) in enumerate(zip(stats.samples_s, stats.samples_s2))
        ]
        _write_csv(args["out"], ["trial", "entropy_vn", "entropy_renyi2"], rows)
    print(
        f"entropy[{args['interval'][0]}:{args['interval'][1]}] (nats): "
        f"mean_S={stats.mean_s:.6f} mean_S2={stats.mean_s2:.6f} "
        f"dp_upper={bounds.min_cost:.6f} dp_lse={bounds.lse:.6f} "
        f"dp_lower={max(0.0, bounds.lower_bound):.6f} trials={args['trials']}"
    )
    return 0


def _cmd_mutual_info(args: dict) -> int:
    if not args["lengths"]:
        raise UsageError("--lengths needs at least one length")
    network = _network(args)
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
    if args["out"]:
        _write_csv(args["out"], ["length", "i_lower", "i_upper", "mc_mean", "mc_stderr"], rows)
    last = rows[-1]
    print(
        f"mutual-info (nats): lengths={list(args['lengths'])} trials={args['trials']} "
        f"last: l={last[0]} bracket=[{last[1]:.6f}, {last[2]:.6f}] mc={last[3]:.6f}±{last[4]:.6f}"
    )
    return 0


def _cmd_cuts(args: dict) -> int:
    network = _network(args)
    level = args["level"] if args["level"] is not None else network.levels
    if not 1 <= level <= network.levels:
        raise UsageError(f"level {level} not in [1, {network.levels}]")
    stage = Stage(args["stage"])
    interval = _ring_interval(level, stage, args["interval"])
    bounds = cutbounds.cut_dp(network, interval)
    if args["emit_argmin"]:
        with open(args["emit_argmin"], "w", encoding="utf-8") as fh:
            json.dump(bounds.argmin.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args["out"]:
        _write_csv(
            args["out"],
            ["i", "j", "level", "stage", "min_cost", "lse", "lower_bound", "height_of_argmin"],
            [
                [
                    interval.i,
                    interval.j,
                    level,
                    stage.value,
                    bounds.min_cost,
                    bounds.lse,
                    bounds.lower_bound,
                    bounds.height_of_argmin,
                ]
            ],
        )
    print(
        f"cuts[{interval.i}:{interval.j}]@level {level} {stage.value} (nats): "
        f"min_cost={bounds.min_cost:.6f} lse={bounds.lse:.6f} "
        f"lower={max(0.0, bounds.lower_bound):.6f} height={bounds.height_of_argmin}"
    )
    return 0


def _cmd_spectra(args: dict) -> int:
    if args["seeds"] < 1:
        raise UsageError("--seeds must be positive")
    if args["dB"] < 2:
        raise UsageError("--dB must be at least 2: the summary reads the second singular value")
    specs = [
        spectra.SuperOperatorSpec(d_A=args["dA"], d_B=args["dB"], d_E=args["dE"], seed=(args["seed"], i))
        for i in range(args["seeds"])
    ]
    rows = []
    series = {}
    lam0, lam1, min_gap = [], [], math.inf
    for draw, spec in enumerate(specs):
        values = spectra.singular_spectrum(spec).values
        lam0.append(float(values[0]))
        lam1.append(float(values[1]))
        min_gap = min(min_gap, float(values[0] - values[1]))
        rows.extend([spec.label, draw, i, float(v)] for i, v in enumerate(values))
        series[f"draw {draw}"] = [(i, float(v)) for i, v in enumerate(values)]
    if args["out"]:
        _write_csv(args["out"], ["spec", "draw", "i", "lambda"], rows)
    if args["svg"]:
        _write_svg(args["svg"], series, "singular spectra", "i", "lambda(i)")
    print(
        f"spectra {args['dA']}:{args['dB']}:{args['dE']} over {args['seeds']} seeds: "
        f"mean_lambda0={sum(lam0) / len(lam0):.6f} mean_lambda1={sum(lam1) / len(lam1):.6f} "
        f"min_gap={min_gap:.6f}"
    )
    return 0


def _cmd_collapse(args: dict) -> int:
    specs = [
        spectra.SuperOperatorSpec(*dims, seed=(args["seed"], idx))
        for idx, dims in enumerate(args["specs"])
    ]
    rows = spectra.collapse_experiment(specs)
    if args["out"]:
        _write_csv(
            args["out"],
            ["spec", "i", "x", "y"],
            [[r.label, r.index, r.x, r.y] for r in rows],
        )
    if args["svg"]:
        series: dict[str, list[tuple[float, float]]] = {}
        for r in rows:
            series.setdefault(r.label, []).append((r.x, r.y))
        _write_svg(args["svg"], series, "collapse", "i / d_B^2", "lambda / MP edge")
    first = {r.label: r.y for r in rows if r.index == 1}  # labels are distinct
    summary = " ".join(f"{label}:y(1)={y:.4f}" for label, y in first.items())
    print(f"collapse curves={len(first)} {summary}")
    return 0


def _cmd_moments_check(args: dict) -> int:
    d1, d2, trials = args["d1"], args["d2"], args["trials"]
    rows = []
    worst = 0.0
    patterns = {**CANONICAL_CONTRACTIONS, "mixed": MIXED_CONTRACTION}
    exacts = [fourth_moment_exact(d1, d2, contraction) for contraction in patterns.values()]
    if trials < 2:
        raise UsageError("moments-check needs --trials of at least 2: one sample has no standard error")
    for idx, ((name, contraction), exact) in enumerate(zip(patterns.items(), exacts)):
        est = fourth_moment_mc(d1, d2, contraction, trials, (args["seed"], idx))
        dev = abs(est.value - exact)
        ok = dev <= 4.0 * est.stderr + 1e-9
        if est.stderr > 1e-12:
            worst = max(worst, dev / est.stderr)
        rows.append([name, exact, est.value, est.stderr, dev, ok])
    if args["out"]:
        _write_csv(
            args["out"],
            ["contraction", "closed_form", "mc_mean", "mc_stderr", "abs_dev", "within_4se"],
            rows,
        )
    all_ok = all(r[5] for r in rows)
    c, c_prime = moment_constants(d2)
    print(
        f"moments-check d1={d1} d2={d2} trials={trials}: c={c!r} "
        f"c_prime={c_prime!r} max_sigma={worst:.3f} all_within_4se={all_ok}"
    )
    return 0 if all_ok else 1


_DISPATCH = {
    "schedule": _cmd_schedule,
    "entropy": _cmd_entropy,
    "mutual-info": _cmd_mutual_info,
    "cuts": _cmd_cuts,
    "spectra": _cmd_spectra,
    "collapse": _cmd_collapse,
    "moments-check": _cmd_moments_check,
}


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    try:
        if "seed" in args:  # a bad seed is a usage error, before any budget check
            seed_key(args["seed"])
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
        return _DISPATCH[args["command"]](args)
    except (UsageError, OSError) as exc:  # an OSError is an output write
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
