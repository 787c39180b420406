"""Steady-state performance metrics, parameter sweeps and design search.

Five quantities summarize a solved system: the empty-station probability
p0, the full-station probability pK, their sum (the problematic-station
probability), the mean parked-bike count E[Q], and the station profit
R = -c E[Q] + psi (C - E[Q]).  Sweeps vary one model constant over a grid
and solve the fixed point at every grid node; the design optimizers search
exhaustively over (C, K, mu) grids, which is cheap because one solve takes
milliseconds.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .core import _JSON_FIELDS, SystemParams, _as_float, _as_int
from .errors import BikeShareError, ConfigError, EmptyFeasibleSetError, InvariantViolationError
from .fixed_point import solve_fixed_point

SWEEP_CSV_HEADER = "vary_name,value,p0,pK,p0_plus_pK,eq,profit"


@dataclass(frozen=True)
class ProfitPrices:
    """Per-bike per-time prices: parking cost and rental benefit."""

    cost_c: float = 0.0
    benefit_psi: float = 0.0

    def __post_init__(self):
        for name in ("cost_c", "benefit_psi"):
            value = _as_float(name, getattr(self, name))
            if value < 0:
                raise ConfigError(f"{name} must be nonnegative, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Metrics:
    """The five steady-state performance numbers."""

    p0: float
    pK: float
    p_problematic: float
    mean_bikes: float
    profit: float

    def to_dict(self) -> dict:
        """The metrics under their output names (the CSV column order)."""
        return {"p0": self.p0, "pK": self.pK, "p0_plus_pK": self.p_problematic,
                "eq": self.mean_bikes, "profit": self.profit}


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated point of a sweep or design grid."""

    params: SystemParams
    metrics: Metrics | None
    vary: str | None = None
    value: float | None = None
    error: str | None = None


def compute_metrics(p, params: SystemParams, prices: ProfitPrices) -> Metrics:
    """All five metrics of a stationary occupancy vector."""
    p = np.asarray(p, dtype=float)
    eq = float(np.arange(p.size) @ p)
    profit = -prices.cost_c * eq + prices.benefit_psi * (params.capacity_c - eq)
    return Metrics(
        p0=float(p[0]),
        pK=float(p[-1]),
        p_problematic=float(p[0]) + float(p[-1]),
        mean_bikes=eq,
        profit=profit,
    )


def _as_values(name: str, values) -> list:
    """The entries of a list, tuple, 1-D array or other iterable of values."""
    try:
        return list(values)
    except TypeError:
        raise ConfigError(f"{name} must be a list of values, got {values!r}") from None


def _solve_record(params: SystemParams, prices: ProfitPrices, **where) -> SweepRecord:
    """Solve one node; a domain failure is recorded on the record instead of raised.

    An ``InvariantViolationError`` is an internal bug, not a property of the
    node, and propagates.
    """
    try:
        metrics = compute_metrics(solve_fixed_point(params).p, params, prices)
    except InvariantViolationError:
        raise
    except BikeShareError as exc:
        return SweepRecord(params=params, metrics=None, error=str(exc), **where)
    return SweepRecord(params=params, metrics=metrics, **where)


def _metric_cells(metrics: Metrics | None) -> str:
    """The five metric cells of a CSV row, ``nan`` for a node that failed to solve."""
    if metrics is None:
        return ",".join(["nan"] * 5)
    return ",".join(f"{v:.17g}" for v in metrics.to_dict().values())


def sweep(base: SystemParams, vary: str, grid, prices: ProfitPrices) -> list[SweepRecord]:
    """Solve the fixed point along a one-parameter grid.

    ``vary`` is a parameter key of the JSON configuration (``lam`` is
    accepted for ``lambda``).  Solver failures at single grid points are
    recorded on the affected record instead of aborting the sweep.
    """
    field = {**_JSON_FIELDS, "lam": "lam"}.get(vary) if isinstance(vary, str) else None
    if field is None:
        raise ConfigError(f"unknown parameter name {vary!r}")
    grid = _as_values("grid", grid)
    if not grid:
        raise ConfigError("sweep grid must not be empty")
    return [_solve_record(replace(base, **{field: value}), prices, vary=vary, value=float(value))
            for value in grid]


def sweep_to_csv(records: list[SweepRecord], path, base: SystemParams) -> None:
    """Write the params line of ``base``, then sweep records as plot-ready CSV rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(base.csv_params_line())
        fh.write(SWEEP_CSV_HEADER + "\n")
        for rec in records:
            fh.write(f"{rec.vary},{rec.value:.17g},{_metric_cells(rec.metrics)}\n")


def evaluate_design_grid(
    search: dict,
    base: SystemParams,
    prices: ProfitPrices,
) -> list[SweepRecord]:
    """Solve every feasible (C, K, mu) candidate of an exhaustive design grid.

    ``search`` maps any of "capacity_c", "capacity_k", "mu" to value lists;
    omitted dimensions keep the base value.  Candidates must satisfy
    0 < gamma < mu and 1 <= C < K; none feasible raises
    ``EmptyFeasibleSetError``.  Candidates are visited in lexicographic
    (C, K, mu) order so ties resolve deterministically.
    """
    if not isinstance(search, Mapping):
        raise ConfigError(f"design search must map parameter names to value lists, got {search!r}")
    unknown = set(search) - {"capacity_c", "capacity_k", "mu"}
    if unknown:
        raise ConfigError("design search only covers capacity_c, capacity_k, mu; "
                          f"got {', '.join(sorted(map(str, unknown)))}")
    c_grid, k_grid, mu_grid = (
        sorted(read(key, v) for v in _as_values(key, search.get(key, [getattr(base, key)])))
        for key, read in (("capacity_c", _as_int), ("capacity_k", _as_int), ("mu", _as_float)))
    records = [_solve_record(replace(base, capacity_c=c, capacity_k=k, mu=mu), prices)
               for c, k, mu in itertools.product(c_grid, k_grid, mu_grid)
               if 0 < base.gamma < mu and 1 <= c < k]
    if not records:
        raise EmptyFeasibleSetError(
            "no design candidate satisfies 0 < gamma < mu and 1 <= C < K"
        )
    return records


def _pick_minimum(records: list[SweepRecord], objective) -> SweepRecord:
    best = None
    best_value = math.inf
    for rec in records:
        if rec.metrics is None:
            continue
        value = objective(rec.metrics)
        if value < best_value:
            best = rec
            best_value = value
    if best is None:
        raise EmptyFeasibleSetError("every feasible design candidate failed to solve")
    return best


def _weighted_objective(beta):
    """Validate the weights and return beta1*p0 + beta2*pK + beta3*(p0 + pK)."""
    beta = [_as_float("beta", b) for b in _as_values("beta", beta)]
    if len(beta) != 3 or any(b < 0 for b in beta):
        raise ConfigError("beta must be three nonnegative weights")
    if abs(sum(beta) - 1.0) > 1e-9:
        raise ConfigError(f"beta must sum to 1, got {sum(beta)}")
    return lambda m: beta[0] * m.p0 + beta[1] * m.pK + beta[2] * m.p_problematic


def _profit_objective(m: Metrics) -> float:
    return -m.profit


def optimize_weighted(search: dict, base: SystemParams, beta) -> SweepRecord:
    """Minimize beta1*p0 + beta2*pK + beta3*(p0 + pK) over the design grid.

    The weights must be nonnegative and sum to one.  Ties go to the
    lexicographically smallest (C, K, mu).
    """
    objective = _weighted_objective(beta)
    records = evaluate_design_grid(search, base, ProfitPrices())
    return _pick_minimum(records, objective)


def optimize_profit(search: dict, base: SystemParams, prices: ProfitPrices) -> SweepRecord:
    """Maximize the station profit over the design grid; ties as above."""
    return _pick_minimum(evaluate_design_grid(search, base, prices), _profit_objective)


def grid_to_csv(records: list[SweepRecord], path) -> None:
    """Write a design grid table: one row per candidate with its metrics."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("capacity_c,capacity_k,mu,p0,pK,p0_plus_pK,eq,profit,error\n")
        for rec in records:
            err = "" if rec.error is None else rec.error.replace(",", ";")
            fh.write(f"{rec.params.capacity_c},{rec.params.capacity_k},{rec.params.mu:.17g},"
                     f"{_metric_cells(rec.metrics)},{err}\n")
