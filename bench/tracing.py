"""Spans around the package's layer boundaries, recorded from outside.

`installed` replaces every binding of a wrapped function in the loaded
``randmera`` modules, so a call is traced however its caller reaches it:
``simulator`` and ``spectra`` each bind ``sample_isometry`` by name,
``network`` binds ``solve_schedule``, and callers go through module
attributes such as ``cutbounds.cut_dp``.  Leaving the ``with`` block puts
every original binding back.  The package itself is never edited.

The wrapped functions are the public module-level functions (the ``__all__``
entries) of ``haar``, ``schedule``, ``simulator``, ``cutbounds`` and
``spectra``, plus ``CutEngine.argmin_sequence`` and ``numpy.linalg.svd``,
which ``spectra`` reaches through ``np.linalg``.  The DP's own memoised
recursion is left unwrapped: a span per memo lookup would cost more than the
lookup.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Iterator

LAYERS = ("haar", "schedule", "simulator", "cutbounds", "spectra")
SVD = "numpy.linalg.svd"
# the spans the per-layer metrics are read from.  `layer_metrics` reports the
# share of the timed phase they cover; the ops' entry functions
# (mc_entropy_sweep, singular_spectrum) are left out, so time an op spends
# outside these spans lowers the figure.  The op of cuts-l12 is cut_dp
# itself, so there the spans must cover the work between ops.
LAYER_SPANS = frozenset({
    "haar.sample_isometry",
    "schedule.solve_schedule",
    "simulator.build_state",
    "simulator.interval_spectrum",
    "cutbounds.cut_dp",
    "cutbounds.argmin_sequence",
    "spectra.build_superop",
    SVD,
})


@dataclass
class Span:
    name: str
    attr: tuple
    where: object  # "setup", "between" (ops loop, outside an op) or the op index
    parent: int  # index of the enclosing span, -1 at top level
    t0: float
    t1: float = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


@dataclass
class Recorder:
    """Spans kept in memory, in start order, with the op they belong to."""

    spans: list[Span] = field(default_factory=list)
    where: object = "setup"
    _stack: list[int] = field(default_factory=list)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.dur
        return [sp.dur - c for sp, c in zip(self.spans, child)]


def _spectrum_attr(args, kwargs) -> tuple:
    """``(ring level, sites on the smaller side of the cut)``."""
    state = kwargs.get("state", args[0] if args else None)
    region = kwargs.get("region", args[1] if len(args) > 1 else None)
    m = len(region.sites()) if hasattr(region, "sites") else len(list(region))
    return (state.level, min(m, state.n_sites - m))


_ATTRS = {"simulator.interval_spectrum": _spectrum_attr}


def _wrap(name: str, fn, rec: Recorder):
    attr_of = _ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = len(rec.spans)
        parent = rec._stack[-1] if rec._stack else -1
        attr = attr_of(args, kwargs) if attr_of else ()
        sp = Span(name, attr, rec.where, parent, time.perf_counter())
        rec.spans.append(sp)
        rec._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            sp.t1 = time.perf_counter()
            rec._stack.pop()

    return traced


def targets() -> dict[object, str]:
    """Every function to wrap, mapped to its span name ``layer.function``."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"randmera.{layer}"]
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[obj] = f"{layer}.{attr}"
    engine = sys.modules["randmera.cutbounds"].CutEngine
    out[engine.argmin_sequence] = "cutbounds.argmin_sequence"
    out[sys.modules["numpy.linalg"].svd] = SVD
    return out


@contextlib.contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every binding of every target while the block runs."""
    # keyed by id: module namespaces also hold unhashable values
    wrappers = {id(fn): (fn, _wrap(name, fn, rec)) for fn, name in targets().items()}
    owners = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "randmera"]
    owners += [sys.modules["randmera.cutbounds"].CutEngine, sys.modules["numpy.linalg"]]
    replaced = []
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            fn, wrapper = wrappers.get(id(obj), (None, None))
            if fn is obj:
                replaced.append((owner, attr, obj))
                setattr(owner, attr, wrapper)
    try:
        yield rec
    finally:
        for owner, attr, obj in replaced:
            setattr(owner, attr, obj)


def layer_metrics(
    rec: Recorder,
    op_lat: list[float],
    op_tags: list[str],
    wall: float,
    leaf_level: int | None,
    dp_states: int,
) -> dict[str, float]:
    """Per-layer figures of one traced ops loop, 0 where a layer did no work.

    ``op_lat`` and ``op_tags`` are indexed like the ``where`` of the spans
    recorded inside ops; ``wall`` is the loop's whole timed phase.
    ``*_ms_per_op`` figures add up everything the ops loop spent in a
    function, work between ops included, and divide by the number of ops;
    ``schedule.solve_schedule.ms`` is the same sum over one set-up.
    ``dp_states`` counts the reduction-DP states the loop's ``cut_dp``
    queries had to visit.
    """
    ops = max(len(op_lat), 1)
    selfs = rec.self_times()
    loop = [(sp, st) for sp, st in zip(rec.spans, selfs) if sp.where != "setup"]
    setup_solves = [
        sp.dur for sp in rec.spans if sp.where == "setup" and sp.name == "schedule.solve_schedule"
    ]

    def ms_per_op(name: str, self_time: bool = False) -> float:
        return 1e3 * sum(st if self_time else sp.dur for sp, st in loop if sp.name == name) / ops

    def layer_span(sp: Span) -> bool:
        if sp.name == SVD:  # the SVD of a channel spectrum, not of an interval
            return sp.parent >= 0 and rec.spans[sp.parent].name == "spectra.singular_spectrum"
        return sp.name in LAYER_SPANS

    def mean_ms(durs: list[float]) -> float:
        return 1e3 * sum(durs) / len(durs) if durs else 0.0

    cuts: dict[int, list[float]] = {k: [] for k in range(1, 5)}
    dp: dict[str, list[float]] = {"first": [], "later": []}
    for sp, _ in loop:
        if sp.name == "simulator.interval_spectrum" and sp.attr[0] == leaf_level:
            cuts.setdefault(sp.attr[1], []).append(sp.dur)
        elif sp.name == "cutbounds.cut_dp" and isinstance(sp.where, int):
            dp.setdefault(op_tags[sp.where], []).append(sp.dur)
    dp_busy = sum(dp["first"]) + sum(dp["later"])
    # time in the outermost layer spans of the loop
    counted = [layer_span(sp) for sp in rec.spans]
    inside = [False] * len(rec.spans)
    covered = 0.0
    for i, sp in enumerate(rec.spans):
        if sp.parent >= 0:
            inside[i] = inside[sp.parent] or counted[sp.parent]
        if counted[i] and not inside[i] and sp.where != "setup":
            covered += sp.dur
    out = {
        "haar.sample_isometry.calls": sum(sp.name == "haar.sample_isometry" for sp, _ in loop)
        / ops,
        "haar.sample_isometry.ms_per_op": ms_per_op("haar.sample_isometry"),
        "schedule.solve_schedule.ms": 1e3 * sum(setup_solves),
        "schedule.solve_schedule.ms_per_op": ms_per_op("schedule.solve_schedule"),
        "simulator.build_state.ms_per_op": ms_per_op("simulator.build_state"),
        "simulator.build_state.self_ms_per_op": ms_per_op("simulator.build_state", True),
        "cutbounds.cut_dp.first_mean_ms": mean_ms(dp["first"]),
        "cutbounds.cut_dp.later_mean_ms": mean_ms(dp["later"]),
        "cutbounds.argmin_sequence.ms_per_op": ms_per_op("cutbounds.argmin_sequence"),
        "cutbounds.states_per_s": dp_states / dp_busy if dp_busy else 0.0,
        "spectra.build_superop.ms_per_op": ms_per_op("spectra.build_superop"),
        "spectra.svd.ms_per_op": 1e3
        * sum(sp.dur for sp, _ in loop if sp.name == SVD and layer_span(sp))
        / ops,
        "trace_coverage_frac": covered / wall if wall > 0 else 0.0,
    }
    for k in range(1, 5):
        out[f"simulator.interval_spectrum.cut{k}.mean_ms"] = mean_ms(cuts[k])
    return out
