"""Mean-field analysis of large station-based bike sharing systems.

Three mutually validating routes to the steady state of an N-station
system: exact event-driven simulation of the Markov chain, integration of
the mean-field occupancy dynamics, and direct solution of the stationary
fixed point, plus the performance metrics and design-search tools built on
top of them.
"""

from . import errors
from .analysis import (
    Metrics,
    ProfitPrices,
    SweepRecord,
    compute_metrics,
    evaluate_design_grid,
    optimize_profit,
    optimize_weighted,
    sweep,
    sweep_to_csv,
)
from .core import (
    RatePair,
    SystemParams,
    build_generator,
    fraction_vector,
    limiting_rates,
    mean_bikes,
)
from .dynamics import (
    OdeConfig,
    Trajectory,
    column_sum_norm,
    default_step,
    drift_finite_n,
    drift_limiting,
    integrate,
    jacobian,
    lipschitz_bound,
    sample_domain_points,
)
from .fixed_point import (
    FixedPointResult,
    birth_death_stationary,
    geometric_form,
    nonlinear_residual,
    self_map_residual,
    solve_fixed_point,
    stationary_from_load,
    uniqueness_probe,
)
from .simulator import (
    SimConfig,
    SimReport,
    SimState,
    Walker,
    empirical_vs_ode,
    independence_statistic,
    simulate,
)

__all__ = [
    "errors",
    "Metrics",
    "ProfitPrices",
    "SweepRecord",
    "compute_metrics",
    "evaluate_design_grid",
    "optimize_profit",
    "optimize_weighted",
    "sweep",
    "sweep_to_csv",
    "RatePair",
    "SystemParams",
    "build_generator",
    "fraction_vector",
    "limiting_rates",
    "mean_bikes",
    "OdeConfig",
    "Trajectory",
    "column_sum_norm",
    "default_step",
    "drift_finite_n",
    "drift_limiting",
    "integrate",
    "jacobian",
    "lipschitz_bound",
    "sample_domain_points",
    "FixedPointResult",
    "birth_death_stationary",
    "geometric_form",
    "nonlinear_residual",
    "self_map_residual",
    "solve_fixed_point",
    "stationary_from_load",
    "uniqueness_probe",
    "SimConfig",
    "SimReport",
    "SimState",
    "Walker",
    "empirical_vs_ode",
    "independence_statistic",
    "simulate",
]

__version__ = "0.1.0"
