"""Cross-checks tying the three computation routes to each other.

Each check compares independent routes to the same quantity: the scalar
fixed-point solve against its three stationary characterizations, a scan
of its scalar defect for a single root, the two closed forms of the
stationary vector, the ODE terminal state against the solved fixed point,
the sampled drift-Jacobian norm against its analytic bound, and the
simulated time averages against the fixed point.  The CLI
``validate`` command runs all of them and reports one pass/fail line each.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import RatePair, SystemParams, _as_seed, mean_bikes
from .dynamics import (
    OdeConfig,
    _all_at_c,
    _rk4_blocks,
    column_sum_norm,
    jacobian,
    lipschitz_bound,
    sample_domain_points,
)
from .fixed_point import (
    FixedPointResult,
    _defect_kernel,
    birth_death_stationary,
    geometric_form,
    nonlinear_residual,
    rho_upper_bound,
    self_map_residual,
    solve_fixed_point,
)
from .simulator import SimConfig, simulate


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def check_fixed_point_characterizations(params: SystemParams,
                                        result: FixedPointResult) -> CheckResult:
    """The solved point ``result`` must satisfy all three stationary formulations.

    The generator and cleared-denominator residuals carry the units of a
    rate, so they are taken relative to birth + death at the solved point
    (as in ``solve_fixed_point``); the self-map residual is dimensionless.
    """
    tol = 1e-10
    scale = result.rates.birth + result.rates.death
    sta2 = result.residual / scale
    sta4 = self_map_residual(result.p, params)
    uniq = float(np.max(np.abs(nonlinear_residual(result.p, params)))) / scale
    worst = max(sta2, sta4, uniq)
    return CheckResult(
        name="fixed-point-characterizations",
        passed=bool(worst < tol),
        detail=f"residuals generator={sta2:.2e} cleared-denominator={uniq:.2e} "
               f"(per unit of birth + death) self-map={sta4:.2e} (tol {tol:.0e})",
    )


#: loads per kernel call of the root-count scan, which bounds its (loads, K+1) blocks
_SCAN_SLICE = 256


def check_defect_root_count(params: SystemParams) -> CheckResult:
    """The defect must change sign exactly once on 2,001 loads spanning [0, mu*C/(delta*lambda)].

    The bracketed solve returns one root; more sign changes would mean more
    fixed points, which it would not report.  Loads where the defect is
    exactly zero are dropped, so a root on a grid point counts once.
    """
    grid = np.linspace(0.0, rho_upper_bound(params), 2001)
    rows = _defect_kernel([params])
    signs = np.concatenate([np.sign(rows(loads, [0] * loads.size)[0]) for loads in
                            np.split(grid, range(_SCAN_SLICE, grid.size, _SCAN_SLICE))])
    signs = signs[signs != 0]
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    return CheckResult(
        name="defect-root-count",
        passed=changes == 1,
        detail=f"defect sign changes {changes} on {grid.size} loads "
               f"in [0, {grid[-1]:.6g}] (want exactly 1)",
    )


def check_geometric_form(params: SystemParams, result: FixedPointResult) -> CheckResult:
    """Two closed forms of the stationary vector must coincide, at ``result``'s rates too."""
    rng = np.random.default_rng(7)
    tol = 1e-12
    worst = 0.0
    pairs = [(result.rates.birth, result.rates.death, params.capacity_k)]
    for _ in range(200):
        a, b = 10.0 ** rng.uniform(-2, 2, size=2)
        if abs(a - b) < 1e-9 * (a + b):
            continue
        pairs.append((a, b, int(rng.integers(1, 60))))
    for a, b, k in pairs:
        if abs(a - b) < 1e-12 * (a + b):
            continue
        rates = RatePair(float(a), float(b))
        gap = float(np.max(np.abs(geometric_form(rates, k)
                                  - birth_death_stationary(rates, k))))
        worst = max(worst, gap)
    return CheckResult(
        name="geometric-form-equivalence",
        passed=bool(worst < tol),
        detail=f"max gap {worst:.2e} over {len(pairs)} rate pairs (tol {tol:.0e})",
    )


def check_ode_terminal(params: SystemParams, result: FixedPointResult) -> CheckResult:
    """Integration from the all-stations-at-C start must reach the solved point ``result``."""
    config = OdeConfig(initial=_all_at_c(params), t_end=5000.0, stationarity_tol=1e-11)
    (last,) = deque(_rk4_blocks(config, params, False), maxlen=1)  # no earlier block is kept
    tol = 1e-6
    gap = float(np.max(np.abs(last[-1, 1:] - result.p)))
    return CheckResult(
        name="ode-reaches-fixed-point",
        passed=bool(gap < tol),
        detail=f"terminal gap {gap:.2e} at t={last[-1, 0]:.4g} (tol {tol:.0e})",
    )


def check_jacobian_bound(params: SystemParams) -> CheckResult:
    """Sampled drift-Jacobian norms must stay below the analytic bound.

    A bound that overflows to infinity bounds nothing, so it fails.
    """
    rng = np.random.default_rng(11)
    points = sample_domain_points(params, 200, rng)
    bound = lipschitz_bound(params)
    worst = max(column_sum_norm(jacobian(y, params)) for y in points)
    detail = f"max sampled norm {worst:.4g} vs bound {bound:.4g} over {len(points)} points"
    finite = math.isfinite(bound)
    return CheckResult(
        name="jacobian-norm-bound",
        passed=bool(finite and worst <= bound),
        detail=detail if finite else f"{detail}; the bound is not finite",
    )


def check_simulation_agreement(params: SystemParams, result: FixedPointResult,
                               seed: int = 20240, t_measure: float | None = None) -> CheckResult:
    """Simulated time averages must land near ``result`` (budget 5/sqrt(N))."""
    warmup = 200.0 / params.lam
    measure = t_measure if t_measure is not None else 500.0 / params.lam
    report = simulate(SimConfig(params=params, seed=seed,
                                t_warmup=warmup, t_measure=measure))
    budget = 5.0 / np.sqrt(params.n_stations)
    gap = float(np.max(np.abs(report.time_avg_measure - result.p)))
    eq_gap = abs(mean_bikes(report.time_avg_measure) - mean_bikes(result.p))
    return CheckResult(
        name="simulation-stationary-agreement",
        passed=bool(gap < budget),
        detail=f"max component gap {gap:.4f} vs budget {budget:.4f} "
               f"(N={params.n_stations}), E[Q] gap {eq_gap:.3f}",
    )


@np.errstate(all="ignore")
def run_all(params: SystemParams, seed: int = 20240,
            sim_t_measure: float | None = None) -> list[CheckResult]:
    """Run the full cross-check suite in a fixed order, on one solve of ``params``.
    The seed is read first, so a seed ``SimConfig`` refuses raises before any check runs."""
    seed = _as_seed(seed)
    result = solve_fixed_point(params)
    return [
        check_fixed_point_characterizations(params, result),
        check_defect_root_count(params),
        check_geometric_form(params, result),
        check_ode_terminal(params, result),
        check_jacobian_bound(params),
        check_simulation_agreement(params, result, seed=seed, t_measure=sim_t_measure),
    ]
