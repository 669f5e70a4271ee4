"""Numerical workbench for random multiscale isometry networks.

The package builds layered random-isometry states on rings with
level-dependent site dimensions, measures their interval entanglement
exactly at small scale, computes combinatorial two-sided bounds on those
entropies by dynamic programming over endpoint-reduction sequences, and
studies the singular spectra of the random coarse-graining channel that
controls correlation decay.

Modules
-------
haar       - Haar isometry sampling and fourth-moment closed forms.
schedule   - the log-dimension recursion, its report and scaling.
network    - ring geometry: stages, rotation pairs, intervals.
simulator  - exact dense states, reduced spectra, entropies, Monte Carlo.
cutbounds  - reduction-sequence dynamic programs and entropy brackets.
spectra    - coarse-graining channel spectra, their Marchenko-Pastur edge and collapse.
svgplot    - dependency-free SVG line plots.
cli        - the ``randmera`` command-line front end.
"""

from .errors import FeasibilityError, UsageError
from .haar import (
    CANONICAL_CONTRACTIONS,
    MIXED_CONTRACTION,
    McEstimate,
    fourth_moment_exact,
    fourth_moment_mc,
    moment_constants,
    sample_isometry,
    sample_isometry_batch,
)
from .network import Interval, MeraNetwork, Stage
from .schedule import (
    DimensionSchedule,
    find_epsilon,
    schedule_report,
    solve_schedule,
)
from .simulator import (
    DenseState,
    StateTrajectory,
    build_state,
    entropy_renyi2,
    entropy_vn,
    interval_spectrum,
    mc_entropy_stats,
    mc_entropy_sweep,
    mc_mutual_information,
)
from .cutbounds import (
    CutBounds,
    ReductionSequence,
    ReductionStep,
    cut_dp,
    mi_prediction,
)
from .spectra import (
    SingularSpectrum,
    SuperOperatorSpec,
    collapse_experiment,
    frobenius_exact,
    mp_edge,
    singular_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_CONTRACTIONS",
    "MIXED_CONTRACTION",
    "FeasibilityError",
    "UsageError",
    "McEstimate",
    "fourth_moment_exact",
    "fourth_moment_mc",
    "moment_constants",
    "sample_isometry",
    "sample_isometry_batch",
    "Interval",
    "MeraNetwork",
    "Stage",
    "DimensionSchedule",
    "find_epsilon",
    "schedule_report",
    "solve_schedule",
    "DenseState",
    "StateTrajectory",
    "build_state",
    "entropy_renyi2",
    "entropy_vn",
    "interval_spectrum",
    "mc_entropy_stats",
    "mc_entropy_sweep",
    "mc_mutual_information",
    "CutBounds",
    "ReductionSequence",
    "ReductionStep",
    "cut_dp",
    "mi_prediction",
    "SingularSpectrum",
    "SuperOperatorSpec",
    "collapse_experiment",
    "frobenius_exact",
    "mp_edge",
    "singular_spectrum",
    "__version__",
]
