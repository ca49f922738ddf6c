"""Random periodic solutions of monotone-drift stochastic systems.

The library builds random periodic paths by pulling a semi-implicit Euler
discretisation back from the distant past on a shared two-sided noise
lattice, and ships the estimators used to verify the construction: moment
bounds, two-path contraction, strong convergence order, and convergence of
the empirical periodic law.

Modules
-------
``noise``     deterministic two-sided increment lattice and grid alignment
``model``     coefficient containers, built-in benchmark, assumption checks
``stepper``   backward and forward Euler steps with a monotone solver
``pullback``  path construction, coalescence, shift-periodicity checks
``analysis``  Monte Carlo error tables, moments, empirical measures
``cli``       command-line entry points wrapping the above; the only module
              that writes files
"""

from .analysis import (
    EmpiricalMeasure,
    ErrorRow,
    ErrorTable,
    MeasurePair,
    MeasureStudy,
    MomentEstimate,
    OrderFit,
    bootstrap_noise_floor,
    fit_order,
    measure_convergence_study,
    moment_estimate,
    periodic_measure,
    strong_error,
    weak_distance,
)
from .model import (
    BUILTIN_MODELS,
    AssumptionCheck,
    AssumptionReport,
    ConstantDiffusion,
    InitialCondition,
    ModelSpec,
    PolyTrigDrift,
    builtin_benchmark,
    check_assumptions,
    load_model,
    model_from_config,
    with_diffusion_amplitude,
)
from .noise import (
    AlignmentError,
    GridSpec,
    NoiseLattice,
    coarse_increment,
    coarse_increments,
    derive_seeds,
    shift,
)
from .pullback import (
    DIVERGENCE_THRESHOLD,
    SCHEMES,
    CoalescenceReport,
    PathResult,
    PinnedPullbackResult,
    ShiftPeriodicityReport,
    SolverSummary,
    coalescence,
    default_pullback_periods,
    make_grid,
    pullback_pinned_path,
    random_periodic_path,
    simulate,
    verify_shift_periodicity,
)
from .stepper import (
    NonConvergenceError,
    NonFiniteEvaluationError,
    StepStats,
    bem_step,
    em_step,
    implicit_solve,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "AssumptionCheck",
    "AssumptionReport",
    "BUILTIN_MODELS",
    "CoalescenceReport",
    "ConstantDiffusion",
    "DIVERGENCE_THRESHOLD",
    "EmpiricalMeasure",
    "ErrorRow",
    "ErrorTable",
    "GridSpec",
    "InitialCondition",
    "MeasurePair",
    "MeasureStudy",
    "ModelSpec",
    "MomentEstimate",
    "NoiseLattice",
    "NonConvergenceError",
    "NonFiniteEvaluationError",
    "OrderFit",
    "PathResult",
    "PinnedPullbackResult",
    "PolyTrigDrift",
    "SCHEMES",
    "ShiftPeriodicityReport",
    "SolverSummary",
    "StepStats",
    "bem_step",
    "bootstrap_noise_floor",
    "builtin_benchmark",
    "check_assumptions",
    "coalescence",
    "coarse_increment",
    "coarse_increments",
    "default_pullback_periods",
    "derive_seeds",
    "em_step",
    "fit_order",
    "implicit_solve",
    "load_model",
    "make_grid",
    "measure_convergence_study",
    "model_from_config",
    "moment_estimate",
    "periodic_measure",
    "pullback_pinned_path",
    "random_periodic_path",
    "shift",
    "simulate",
    "strong_error",
    "verify_shift_periodicity",
    "weak_distance",
    "with_diffusion_amplitude",
    "__version__",
]
