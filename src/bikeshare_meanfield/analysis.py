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
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import SystemParams
from .errors import BikeShareError, ConfigError, EmptyFeasibleSetError
from .fixed_point import solve_fixed_point

SWEEP_CSV_HEADER = "vary_name,value,p0,pK,p0_plus_pK,eq,profit"

_VARY_FIELDS = {
    "lambda": "lam",
    "lam": "lam",
    "mu": "mu",
    "gamma": "gamma",
    "omega": "omega",
    "capacity_c": "capacity_c",
    "capacity_k": "capacity_k",
    "n_stations": "n_stations",
    "delta": "delta",
}

_INT_FIELDS = {"omega", "capacity_c", "capacity_k", "n_stations"}


@dataclass(frozen=True)
class ProfitPrices:
    """Per-bike per-time prices: parking cost and rental benefit."""

    cost_c: float = 0.0
    benefit_psi: float = 0.0

    def __post_init__(self):
        for name, value in (("cost_c", self.cost_c), ("benefit_psi", self.benefit_psi)):
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class Metrics:
    """The five steady-state performance numbers."""

    p0: float
    pK: float
    p_problematic: float
    mean_bikes: float
    profit: float


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated point of a sweep or design grid."""

    params: SystemParams
    metrics: Metrics | None
    source: str = "fixed_point"
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


def _with_value(base: SystemParams, field: str, value) -> SystemParams:
    if field in _INT_FIELDS:
        if float(value) != int(value):
            raise ConfigError(f"{field} grid values must be integers, got {value}")
        value = int(value)
    else:
        value = float(value)
    return replace(base, **{field: value})


def sweep(base: SystemParams, vary: str, grid, prices: ProfitPrices) -> list[SweepRecord]:
    """Solve the fixed point along a one-parameter grid.

    Solver failures at single grid points are recorded on the affected
    record instead of aborting the sweep.
    """
    field = _VARY_FIELDS.get(vary)
    if field is None:
        raise ConfigError(f"unknown parameter name {vary!r}")
    grid = list(grid)
    if not grid:
        raise ConfigError("sweep grid must not be empty")
    records = []
    for value in grid:
        params = _with_value(base, field, value)
        try:
            result = solve_fixed_point(params)
            metrics = compute_metrics(result.p, params, prices)
            records.append(SweepRecord(params=params, metrics=metrics,
                                       vary=vary, value=float(value)))
        except BikeShareError as exc:
            records.append(SweepRecord(params=params, metrics=None, vary=vary,
                                       value=float(value), error=str(exc)))
    return records


def sweep_to_csv(records: list[SweepRecord], path, base: SystemParams | None = None) -> None:
    """Write sweep records as plot-ready CSV rows."""
    with open(path, "w", encoding="utf-8") as fh:
        if base is not None:
            fh.write(f"# params: {json.dumps(base.to_dict(), sort_keys=True)}\n")
        fh.write(SWEEP_CSV_HEADER + "\n")
        for rec in records:
            m = rec.metrics
            if m is None:
                cells = ["nan"] * 5
            else:
                cells = [f"{v:.17g}" for v in
                         (m.p0, m.pK, m.p_problematic, m.mean_bikes, m.profit)]
            fh.write(f"{rec.vary},{rec.value:.17g}," + ",".join(cells) + "\n")


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
    unknown = set(search) - {"capacity_c", "capacity_k", "mu"}
    if unknown:
        raise ConfigError(f"design search only covers capacity_c, capacity_k, mu; got {unknown}")
    c_grid = sorted(int(v) for v in search.get("capacity_c", [base.capacity_c]))
    k_grid = sorted(int(v) for v in search.get("capacity_k", [base.capacity_k]))
    mu_grid = sorted(float(v) for v in search.get("mu", [base.mu]))
    records = []
    for c, k, mu in itertools.product(c_grid, k_grid, mu_grid):
        if not (0 < base.gamma < mu and 1 <= c < k):
            continue
        params = replace(base, capacity_c=c, capacity_k=k, mu=mu)
        try:
            result = solve_fixed_point(params)
            metrics = compute_metrics(result.p, params, prices)
            records.append(SweepRecord(params=params, metrics=metrics, source="fixed_point"))
        except BikeShareError as exc:
            records.append(SweepRecord(params=params, metrics=None, error=str(exc)))
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
    beta = [float(b) for b in beta]
    if len(beta) != 3 or any(b < 0 for b in beta):
        raise ConfigError("beta must be three nonnegative weights")
    if abs(sum(beta) - 1.0) > 1e-9:
        raise ConfigError(f"beta must sum to 1, got {sum(beta)}")
    return lambda m: beta[0] * m.p0 + beta[1] * m.pK + beta[2] * m.p_problematic


def _profit_objective(m: Metrics) -> float:
    return -m.profit


def optimize_weighted(search: dict, base: SystemParams, beta,
                      prices: ProfitPrices | None = None) -> SweepRecord:
    """Minimize beta1*p0 + beta2*pK + beta3*(p0 + pK) over the design grid.

    The weights must be nonnegative and sum to one.  Ties go to the
    lexicographically smallest (C, K, mu).
    """
    objective = _weighted_objective(beta)
    records = evaluate_design_grid(search, base, prices or ProfitPrices())
    return _pick_minimum(records, objective)


def optimize_profit(search: dict, base: SystemParams, prices: ProfitPrices) -> SweepRecord:
    """Maximize the station profit over the design grid; ties as above."""
    return _pick_minimum(evaluate_design_grid(search, base, prices), _profit_objective)


def grid_to_csv(records: list[SweepRecord], path) -> None:
    """Write a design grid table: one row per candidate with its metrics."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("capacity_c,capacity_k,mu,p0,pK,p0_plus_pK,eq,profit,error\n")
        for rec in records:
            m = rec.metrics
            cells = (["nan"] * 5 if m is None else
                     [f"{v:.17g}" for v in (m.p0, m.pK, m.p_problematic, m.mean_bikes, m.profit)])
            err = "" if rec.error is None else rec.error.replace(",", ";")
            fh.write(
                f"{rec.params.capacity_c},{rec.params.capacity_k},{rec.params.mu:.17g},"
                + ",".join(cells) + f",{err}\n"
            )
