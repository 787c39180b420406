"""Steady-state performance metrics, parameter sweeps and design search.

Five quantities summarize a solved system: the empty-station probability
p0, the full-station probability pK, their sum (the problematic-station
probability), the mean parked-bike count E[Q], and the station profit
R = -c E[Q] + psi (C - E[Q]).  Sweeps vary one model constant over a grid
and solve the fixed point at every grid node; the design optimizers search
exhaustively over (C, K, mu) grids.  The nodes of a sweep or grid are solved
together, in lockstep wherever they share K and omega; each solved node then
takes its metrics from its own vector, on Python floats.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .core import _JSON_FIELDS, SystemParams, _as_float, _as_int, _level_sum, _one_vector
from .csvrows import write_text
from .errors import BikeShareError, ConfigError, EmptyFeasibleSetError, InvariantViolationError
from .fixed_point import _solve_many, solve_fixed_point  # noqa: F401 - still importable here

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


#: CSV data rows (``"%.17g" % v`` is ``f"{v:.17g}"``, byte for byte) and a failed node's metrics
_SWEEP_ROW = "%s,%.17g" + ",%.17g" * 5 + "\n"
_GRID_ROW = "%s,%s,%.17g" + ",%.17g" * 5 + ",%s\n"
_UNSOLVED = Metrics(*[math.nan] * 5)


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated point of a sweep or design grid."""

    params: SystemParams
    metrics: Metrics | None
    vary: str | None = None
    value: float | None = None
    error: str | None = None


def _metrics(p: np.ndarray, params: SystemParams, prices: ProfitPrices) -> Metrics:
    """The five metrics of one float occupancy vector of ``params``, on Python floats."""
    eq = float(_level_sum(params.capacity_k)(p))
    p0, pk = p.item(0), p.item(-1)
    profit = -prices.cost_c * eq + prices.benefit_psi * (params.capacity_c - eq)
    return Metrics(p0, pk, p0 + pk, eq, profit)


def compute_metrics(p, params: SystemParams, prices: ProfitPrices) -> Metrics:
    """All five metrics of a stationary occupancy vector, checked as one vector of
    ``params``: the routine every sweep and design-grid node runs on its solved vector."""
    return _metrics(_one_vector("compute_metrics", p, params), params, prices)


def _as_values(name: str, values) -> list:
    """The entries of a list, tuple, 1-D array or other iterable of values."""
    try:
        return list(values)
    except TypeError:
        raise ConfigError(f"{name} must be a list of values, got {values!r}") from None


def _solve_records(nodes: list[SystemParams], prices: ProfitPrices, vary: str | None,
                   values: list) -> list[SweepRecord]:
    """Solve every node, node i recorded at ``vary`` and ``values[i]`` with the metrics of
    its vector; a domain failure is recorded instead of raised.

    An ``InvariantViolationError`` is an internal bug, not a property of the
    node: the first one in node order propagates.
    """
    records = []
    for params, outcome, value in zip(nodes, _solve_many(nodes), values):
        if isinstance(outcome, InvariantViolationError):
            raise outcome
        if isinstance(outcome, BikeShareError):
            records.append(SweepRecord(params, None, vary, value, str(outcome)))
        else:
            records.append(SweepRecord(params, _metrics(outcome.p, params, prices), vary, value))
    return records


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
    fields = vars(base)
    return _solve_records([SystemParams(**{**fields, field: value}) for value in grid], prices,
                          vary, [float(value) for value in grid])


def sweep_to_csv(records: list[SweepRecord], path, base: SystemParams) -> None:
    """Write the params line of ``base``, then sweep records as plot-ready CSV rows; the
    table is formatted whole before ``path`` is touched, so an error leaves its bytes."""
    rows = [base.csv_params_line(), SWEEP_CSV_HEADER + "\n"]
    for rec in records:
        m = rec.metrics or _UNSOLVED
        rows.append(_SWEEP_ROW % (rec.vary, rec.value, m.p0, m.pK, m.p_problematic,
                                  m.mean_bikes, m.profit))
    write_text(path, "".join(rows))


def evaluate_design_grid(
    search: dict,
    base: SystemParams,
    prices: ProfitPrices,
) -> list[SweepRecord]:
    """Solve every feasible (C, K, mu) candidate of an exhaustive design grid.

    ``search`` maps any of "capacity_c", "capacity_k", "mu" to value lists;
    omitted dimensions keep the base value.  The feasible candidates are those
    ``SystemParams`` accepts, 0 < gamma <= mu and 1 <= C < K; none feasible
    raises ``EmptyFeasibleSetError``.  Candidates are visited in lexicographic
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
    nodes, fields = [], vars(base)
    for c, k, mu in itertools.product(c_grid, k_grid, mu_grid):
        try:
            nodes.append(SystemParams(**{**fields, "capacity_c": c, "capacity_k": k, "mu": mu}))
        except ConfigError:
            pass  # infeasible: SystemParams owns the rule
    if not nodes:
        raise EmptyFeasibleSetError(
            "no design candidate satisfies 0 < gamma <= mu and 1 <= C < K"
        )
    return _solve_records(nodes, prices, None, [None] * len(nodes))


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
    """Write a design grid table, one row per candidate, as ``sweep_to_csv`` writes."""
    rows = ["capacity_c,capacity_k,mu,p0,pK,p0_plus_pK,eq,profit,error\n"]
    for rec in records:
        params, m = rec.params, rec.metrics or _UNSOLVED
        err = "" if rec.error is None else rec.error.replace(",", ";")
        rows.append(_GRID_ROW % (params.capacity_c, params.capacity_k, params.mu, m.p0, m.pK,
                                 m.p_problematic, m.mean_bikes, m.profit, err))
    write_text(path, "".join(rows))
