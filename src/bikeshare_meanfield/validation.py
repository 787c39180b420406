"""Cross-checks tying the three computation routes to each other.

Each check compares independent routes to the same quantity: the scalar
fixed-point solve against its three stationary characterizations, the two
closed forms of the stationary vector, the ODE terminal state against the
solved fixed point, the sampled drift-Jacobian norm against its analytic
bound, and the simulated time averages against the fixed point.  The CLI
``validate`` command runs all of them and reports one pass/fail line each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import ProfitPrices, compute_metrics
from .core import RatePair, SystemParams
from .dynamics import (
    OdeConfig,
    column_sum_norm,
    integrate,
    jacobian_fd,
    lipschitz_bound,
    sample_domain_points,
)
from .fixed_point import (
    birth_death_stationary,
    geometric_form,
    nonlinear_residual,
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


def check_fixed_point_characterizations(params: SystemParams) -> CheckResult:
    """The solved point must satisfy all three stationary formulations.

    The generator and cleared-denominator residuals carry the units of a
    rate, so they are taken relative to birth + death at the solved point
    (as in ``solve_fixed_point``); the self-map residual is dimensionless.
    """
    tol = 1e-10
    result = solve_fixed_point(params)
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


def check_geometric_form(params: SystemParams) -> CheckResult:
    """Two closed forms of the stationary vector must coincide."""
    rng = np.random.default_rng(7)
    tol = 1e-12
    worst = 0.0
    result = solve_fixed_point(params)
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


def check_ode_terminal(params: SystemParams) -> CheckResult:
    """Integration from the all-stations-at-C start must reach the fixed point."""
    result = solve_fixed_point(params)
    g = np.zeros(params.capacity_k + 1)
    g[params.capacity_c] = 1.0
    traj = integrate(OdeConfig(initial=g, t_end=5000.0, stationarity_tol=1e-11), params)
    tol = 1e-6
    gap = float(np.max(np.abs(traj.terminal - result.p)))
    return CheckResult(
        name="ode-reaches-fixed-point",
        passed=bool(gap < tol),
        detail=f"terminal gap {gap:.2e} at t={traj.times[-1]:.4g} (tol {tol:.0e})",
    )


def check_jacobian_bound(params: SystemParams) -> CheckResult:
    """Sampled drift-Jacobian norms must stay below the analytic bound."""
    rng = np.random.default_rng(11)
    points = sample_domain_points(params, 200, rng)
    bound = lipschitz_bound(params)
    worst = max(column_sum_norm(jacobian_fd(y, params)) for y in points)
    return CheckResult(
        name="jacobian-norm-bound",
        passed=bool(worst <= bound),
        detail=f"max sampled norm {worst:.4g} vs bound {bound:.4g} over {len(points)} points",
    )


def check_simulation_agreement(params: SystemParams, seed: int = 20240,
                               t_measure: float | None = None) -> CheckResult:
    """Simulated time averages must land near the fixed point (budget 5/sqrt(N))."""
    result = solve_fixed_point(params)
    warmup = 200.0 / params.lam
    measure = t_measure if t_measure is not None else 500.0 / params.lam
    report = simulate(SimConfig(params=params, seed=seed,
                                t_warmup=warmup, t_measure=measure))
    budget = 5.0 / np.sqrt(params.n_stations)
    gap = float(np.max(np.abs(report.time_avg_measure - result.p)))
    sim_metrics = compute_metrics(report.time_avg_measure, params, ProfitPrices())
    fp_metrics = compute_metrics(result.p, params, ProfitPrices())
    eq_gap = abs(sim_metrics.mean_bikes - fp_metrics.mean_bikes)
    return CheckResult(
        name="simulation-stationary-agreement",
        passed=bool(gap < budget),
        detail=f"max component gap {gap:.4f} vs budget {budget:.4f} "
               f"(N={params.n_stations}), E[Q] gap {eq_gap:.3f}",
    )


def run_all(params: SystemParams, seed: int = 20240,
            sim_t_measure: float | None = None) -> list[CheckResult]:
    """Run the full cross-check suite in a fixed order."""
    return [
        check_fixed_point_characterizations(params),
        check_geometric_form(params),
        check_ode_terminal(params),
        check_jacobian_bound(params),
        check_simulation_agreement(params, seed=seed, t_measure=sim_t_measure),
    ]
