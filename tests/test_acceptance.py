"""Acceptance suite: one test (or test group) per numbered criterion.

Every test prints one ``ACCEPTANCE PASS/FAIL`` line (visible with
``pytest -s``) and pins the stated tolerance.  Shared heavy runs (the
N=1000 stationary simulation) are computed once per session.

Criterion 11's empty-probability-versus-walk-rate direction is asserted
exactly as stated even though the model's own equations give the opposite
sign (see tests and the failure message): the service rate grows with the
walk rate, so the empty fraction grows too, both in the solved fixed point
and in the exact microscopic chain.  That single sub-criterion is expected
to fail; everything else passes.
"""

import dataclasses
import time
import warnings

import numpy as np
import pytest

import bikeshare_meanfield as bm
from bikeshare_meanfield import (
    OdeConfig,
    ProfitPrices,
    RatePair,
    SimConfig,
    SystemParams,
)
from bikeshare_meanfield.errors import BikeShareError, MultipleFixedPointsError

FIG5 = SystemParams(lam=15.0, mu=8.0, gamma=0.25, omega=1, capacity_c=30,
                    capacity_k=50, n_stations=1000, delta=0.1)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {status}: criterion {number} - {detail}")


def random_valid_parameter_sets(count: int, seed: int = 12345) -> list:
    """Deterministic stream of solvable parameter records."""
    rng = np.random.default_rng(seed)
    sets = []
    while len(sets) < count:
        params = SystemParams(
            lam=float(10 ** rng.uniform(-0.3, 1.3)),
            mu=(mu := float(10 ** rng.uniform(-0.3, 1.3))),
            gamma=float(mu * rng.uniform(0.05, 1.0)),
            omega=int(rng.integers(0, 4)),
            capacity_c=(c := int(rng.integers(1, 31))),
            capacity_k=c + int(rng.integers(1, 31)),
            n_stations=1000,
            delta=0.05,
        )
        try:
            bm.solve_fixed_point(params)
        except BikeShareError:
            continue
        sets.append(params)
    return sets


@pytest.fixture(scope="module")
def stationary_run():
    """Criterion 9/10/12 share one full N=1000 run."""
    config = SimConfig(params=FIG5, seed=1, t_warmup=500.0 / FIG5.lam,
                       t_measure=2000.0 / FIG5.lam)
    return bm.simulate(config)


@pytest.fixture(scope="module")
def fig5_fixed_point():
    return bm.solve_fixed_point(FIG5)


def test_criterion_1_analytic_fixed_point():
    params = SystemParams(lam=1.0, mu=1.0, gamma=0.5, omega=0, capacity_c=1,
                          capacity_k=2, n_stations=100, delta=0.2)
    result = bm.solve_fixed_point(params)
    elapsed = min(_timed_solve(params) for _ in range(7))
    expected = np.array([4 / 7, 2 / 7, 1 / 7])
    gap = float(np.max(np.abs(result.p - expected)))
    ok = gap < 1e-10 and abs(result.rho - 0.5) < 1e-10 and elapsed < 1e-3
    report(1, ok, f"analytic point gap {gap:.2e}, rho err "
                  f"{abs(result.rho - 0.5):.2e}, solve {elapsed * 1e3:.3f} ms")
    assert gap < 1e-10
    assert abs(result.rho - 0.5) < 1e-10
    assert elapsed < 1e-3


def _timed_solve(params):
    start = time.perf_counter()
    bm.solve_fixed_point(params)
    return time.perf_counter() - start


def test_criterion_2_uniform_fixed_point():
    params = SystemParams(lam=5.0, mu=4.0, gamma=1.0, omega=0, capacity_c=3,
                          capacity_k=4, n_stations=100, delta=0.2)
    result = bm.solve_fixed_point(params)
    elapsed = min(_timed_solve(params) for _ in range(7))
    gap = float(np.max(np.abs(result.p - 0.2)))
    ok = gap < 1e-10 and elapsed < 1e-3
    report(2, ok, f"uniform gap {gap:.2e}, solve {elapsed * 1e3:.3f} ms")
    assert gap < 1e-10
    assert elapsed < 1e-3


def test_criterion_3_geometric_representation_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    worst = 0.0
    cases = 0
    while cases < 10_000:
        a, b = 10.0 ** rng.uniform(-3, 3, size=2)
        if abs(a - b) < 1e-9 * (a + b):
            continue
        k = int(rng.integers(1, 101))
        rates = RatePair(float(a), float(b))
        gap = float(np.max(np.abs(bm.geometric_form(rates, k)
                                  - bm.birth_death_stationary(rates, k))))
        worst = max(worst, gap)
        cases += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    report(3, ok, f"max route gap {worst:.2e} over 10^4 rate pairs "
                  f"({elapsed:.1f} s)")
    assert worst < 1e-12
    assert elapsed < 5.0


def test_criterion_4_triple_characterization():
    start = time.perf_counter()
    worst_gen = worst_map = worst_poly = 0.0
    for params in random_valid_parameter_sets(50):
        result = bm.solve_fixed_point(params)
        gen = bm.build_generator(bm.limiting_rates(result.p, params),
                                 params.capacity_k)
        worst_gen = max(worst_gen, float(np.max(np.abs(result.p @ gen))))
        worst_map = max(worst_map, bm.self_map_residual(result.p, params))
        worst_poly = max(worst_poly,
                         float(np.max(np.abs(bm.nonlinear_residual(result.p, params)))))
    elapsed = time.perf_counter() - start
    ok = max(worst_gen, worst_map, worst_poly) < 1e-10 and elapsed < 5.0
    report(4, ok, f"50 sets: generator {worst_gen:.2e}, self-map {worst_map:.2e}, "
                  f"cleared-denominator {worst_poly:.2e} ({elapsed:.1f} s)")
    assert worst_gen < 1e-10
    assert worst_map < 1e-10
    assert worst_poly < 1e-10
    assert elapsed < 5.0


def test_criterion_5_uniqueness_probe():
    start = time.perf_counter()
    worst = 0.0
    for params in random_valid_parameter_sets(50):
        reference = bm.solve_fixed_point(params).p
        try:
            results = bm.uniqueness_probe(params, 20, seed=1)
        except MultipleFixedPointsError as exc:  # pragma: no cover - would falsify uniqueness
            report(5, False, f"multiple fixed points at {params}: {exc}")
            raise
        worst = max(worst, max(float(np.max(np.abs(r.p - reference)))
                               for r in results))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    report(5, ok, f"20 starts x 50 sets all agree; worst spread {worst:.2e} "
                  f"({elapsed:.1f} s)")
    assert worst < 1e-8
    assert elapsed < 30.0


def test_criterion_6_ode_reaches_fixed_point():
    start = time.perf_counter()
    family = [dataclasses.replace(FIG5, lam=lam, mu=mu)
              for lam, mu in ((10.0, 8.0), (15.0, 8.0), (30.0, 8.0), (12.0, 1.0))]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for params in family:
        reference = bm.solve_fixed_point(params).p
        for y in bm.sample_domain_points(params, 5, rng):
            traj = bm.integrate(OdeConfig(initial=y, t_end=5000.0, step=0.01,
                                          stationarity_tol=1e-9), params)
            worst = max(worst, float(np.max(np.abs(traj.terminal - reference))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    report(6, ok, f"20 random starts reach the fixed point; worst terminal gap "
                  f"{worst:.2e} ({elapsed:.1f} s)")
    assert worst < 1e-6
    assert elapsed < 60.0


LIPSCHITZ_SETS = [
    FIG5,
    dataclasses.replace(FIG5, lam=25.0, mu=12.0, delta=0.2),
    dataclasses.replace(FIG5, lam=10.0, mu=4.0, gamma=0.5, omega=2),
    SystemParams(lam=5.0, mu=7.0, gamma=1.0, omega=0, capacity_c=25,
                 capacity_k=50, n_stations=100, delta=0.3),
    SystemParams(lam=1.0, mu=4.0, gamma=0.5, omega=1, capacity_c=3,
                 capacity_k=4, n_stations=100, delta=0.2),
    SystemParams(lam=1.0, mu=1.0, gamma=0.5, omega=0, capacity_c=1,
                 capacity_k=2, n_stations=100, delta=0.2),
    SystemParams(lam=2.0, mu=3.0, gamma=1.0, omega=2, capacity_c=5,
                 capacity_k=8, n_stations=100, delta=0.15),
    SystemParams(lam=8.0, mu=6.0, gamma=2.0, omega=3, capacity_c=10,
                 capacity_k=12, n_stations=100, delta=0.25),
    SystemParams(lam=20.0, mu=10.0, gamma=0.1, omega=1, capacity_c=40,
                 capacity_k=50, n_stations=100, delta=0.05),
    SystemParams(lam=3.0, mu=2.0, gamma=0.5, omega=2, capacity_c=35,
                 capacity_k=60, n_stations=100, delta=0.4),
]


def test_criterion_7_lipschitz_bound():
    start = time.perf_counter()
    details = []
    ok = True
    for params in LIPSCHITZ_SETS:
        rng = np.random.default_rng(99)
        points = bm.sample_domain_points(params, 10_000, rng)
        bound = bm.lipschitz_bound(params)
        worst = max(bm.column_sum_norm(bm.jacobian(y, params)) for y in points)
        details.append(f"C={params.capacity_c},K={params.capacity_k}: "
                       f"{worst:.3g}<={bound:.3g}")
        ok = ok and worst <= bound
        assert worst <= bound, (
            f"sampled norm {worst} above bound {bound} for {params}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(7, ok, f"10^4 points x 10 sets under the bound ({elapsed:.1f} s); "
                  + "; ".join(details[:3]) + "; ...")
    assert elapsed < 120.0


def test_criterion_8_mean_field_limit():
    start = time.perf_counter()
    horizon = 50.0 / FIG5.lam
    medians = {}
    for n in (250, 500, 1000, 2000):
        params = dataclasses.replace(FIG5, n_stations=n)
        gaps = [bm.empirical_vs_ode(SimConfig(params=params, seed=seed,
                                              t_measure=horizon,
                                              sample_interval=0.05))
                for seed in (1, 2, 3, 4, 5)]
        medians[n] = float(np.median(gaps))
    elapsed = time.perf_counter() - start
    decreasing = (medians[250] > medians[500] > medians[1000] > medians[2000])
    ok = medians[2000] < 0.05 and decreasing and elapsed < 600.0
    report(8, ok, "median sup-gap per N: "
                  + ", ".join(f"{n}: {medians[n]:.4f}" for n in sorted(medians))
                  + f" ({elapsed:.1f} s)")
    assert medians[2000] < 0.05
    assert decreasing
    assert elapsed < 600.0


def test_criterion_9_stationary_agreement(stationary_run, fig5_fixed_point):
    budget = 5.0 / np.sqrt(FIG5.n_stations)
    gaps = np.abs(stationary_run.time_avg_measure - fig5_fixed_point.p)
    ok = float(gaps.max()) < budget and gaps[0] < 0.02 and gaps[-1] < 0.02
    report(9, ok, f"max component gap {gaps.max():.4f} (budget {budget:.4f}), "
                  f"empty gap {gaps[0]:.4f}, full gap {gaps[-1]:.4f}")
    assert float(gaps.max()) < budget
    assert gaps[0] < 0.02
    assert gaps[-1] < 0.02


def test_criterion_10_asymptotic_independence(stationary_run):
    start = time.perf_counter()
    stat_big = bm.independence_statistic(stationary_run)
    tiny = dataclasses.replace(FIG5, n_stations=2)
    config = SimConfig(params=tiny, seed=1, t_warmup=500.0 / FIG5.lam,
                       t_measure=2000.0 / FIG5.lam)
    stat_tiny = bm.independence_statistic(bm.simulate(config))
    elapsed = time.perf_counter() - start
    ok = stat_big < 0.02 and stat_tiny > stat_big
    report(10, ok, f"independence statistic N=1000: {stat_big:.4f} < 0.02; "
                   f"N=2: {stat_tiny:.4f} (larger)")
    assert stat_big < 0.02
    assert stat_tiny > stat_big
    assert elapsed < 600.0


def _lambda_curves(base, curve_field, curve_values, lam_lo, lam_hi, metric):
    grid = np.linspace(lam_lo, lam_hi, 41)
    curves = {}
    for value in curve_values:
        varied = dataclasses.replace(base, **{curve_field: value})
        records = bm.sweep(varied, "lambda", grid, ProfitPrices())
        failures = [r.error for r in records if r.error]
        assert not failures, f"sweep failed at {curve_field}={value}: {failures[:1]}"
        curves[value] = np.array([getattr(r.metrics, metric) for r in records])
    return curves


def _strictly(direction, values):
    diffs = np.diff(values)
    return bool(np.all(diffs > 0)) if direction == "up" else bool(np.all(diffs < 0))


def test_criterion_11_figure5_lambda_and_mu_directions():
    curves = _lambda_curves(FIG5, "mu", [0.3, 1.0, 8.0], 10.0, 30.0, "p0")
    up_in_lambda = all(_strictly("up", v) for v in curves.values())
    down_in_mu = bool(np.all(curves[8.0] < curves[1.0])
                      and np.all(curves[1.0] < curves[0.3]))
    ok = up_in_lambda and down_in_mu
    report(11, ok, "figure-5 left: p0 strictly up in lambda on all three "
                   "curves, down in mu at every grid point")
    assert up_in_lambda
    assert down_in_mu


def test_criterion_11_figure5_gamma_direction():
    """Empty probability versus walk rate, asserted as stated.

    The model's service rate lambda + gamma*y0*(...) grows with the walk
    rate, which empties stations: the solved p0 is increasing in gamma
    (and the exact microscopic chain agrees in regimes where the effect is
    resolvable).  The claimed decreasing direction therefore cannot hold;
    this test documents the defect by failing honestly.
    """
    base = dataclasses.replace(FIG5, mu=4.0)
    curves = _lambda_curves(base, "gamma", [0.05, 0.5, 1.0], 5.0, 15.0, "p0")
    up_in_lambda = all(_strictly("up", v) for v in curves.values())
    down_in_gamma = bool(np.all(curves[1.0] < curves[0.5])
                         and np.all(curves[0.5] < curves[0.05]))
    largest_sep = float(np.max(np.abs(curves[1.0] - curves[0.05])))
    ok = up_in_lambda and down_in_gamma
    report(11, ok, "figure-5 right: p0 up in lambda "
                   f"({'yes' if up_in_lambda else 'no'}); p0 down in gamma "
                   f"({'yes' if down_in_gamma else 'no'}; curve separation "
                   f"{largest_sep:.1e}, computed direction is increasing)")
    assert up_in_lambda
    assert down_in_gamma, (
        "p0 is increasing in the walk rate under the model's own equations "
        f"(separation {largest_sep:.1e}); the claimed decreasing direction "
        "does not hold"
    )


def test_criterion_11_figure6_directions():
    curves = _lambda_curves(FIG5, "mu", [4.0, 8.0, 12.0], 10.0, 30.0, "pK")
    down_in_lambda = all(_strictly("down", v) for v in curves.values())
    # advisory direction: full probability grows with the return rate
    mu_direction = bool(np.all(curves[12.0] > curves[8.0])
                        and np.all(curves[8.0] > curves[4.0]))
    if not mu_direction:
        warnings.warn("advisory: pK-versus-mu ordering not monotone on the "
                      "figure-6 grid", stacklevel=1)
    base = dataclasses.replace(FIG5, mu=7.0)
    gcurves = _lambda_curves(base, "gamma", [0.05, 0.5, 3.0], 10.0, 30.0, "pK")
    gamma_down = bool(np.all(gcurves[3.0] < gcurves[0.5])
                      and np.all(gcurves[0.5] < gcurves[0.05]))
    ok = down_in_lambda and gamma_down
    report(11, ok, "figure-6: pK strictly down in lambda, down in gamma "
                   f"(mu direction advisory: {'holds' if mu_direction else 'violated'})")
    assert down_in_lambda
    assert gamma_down


def test_criterion_11_figure7_directions():
    curves = _lambda_curves(FIG5, "mu", [6.0, 8.0, 10.0], 10.0, 30.0,
                            "p_problematic")
    down_in_lambda = all(_strictly("down", v) for v in curves.values())
    mu_up = bool(np.all(curves[10.0] > curves[8.0])
                 and np.all(curves[8.0] > curves[6.0]))
    base = dataclasses.replace(FIG5, mu=12.0)
    gcurves = _lambda_curves(base, "gamma", [0.05, 0.5, 1.0], 15.0, 30.0,
                             "p_problematic")
    gamma_down = bool(np.all(gcurves[1.0] < gcurves[0.5])
                      and np.all(gcurves[0.5] < gcurves[0.05]))
    ok = down_in_lambda and mu_up and gamma_down
    report(11, ok, "figure-7: problematic probability strictly down in lambda, "
                   "up in mu, down in gamma")
    assert down_in_lambda
    assert mu_up
    assert gamma_down


def test_criterion_11_figure8_directions():
    start = time.perf_counter()
    curves = _lambda_curves(FIG5, "mu", [2.0, 5.0, 8.0], 10.0, 30.0, "mean_bikes")
    down_in_lambda = all(_strictly("down", v) for v in curves.values())
    mu_up = bool(np.all(curves[8.0] > curves[5.0])
                 and np.all(curves[5.0] > curves[2.0]))
    base = dataclasses.replace(FIG5, capacity_c=20, mu=7.0)
    gcurves = _lambda_curves(base, "gamma", [0.05, 0.1, 6.0], 10.0, 30.0,
                             "mean_bikes")
    gamma_down = bool(np.all(gcurves[6.0] < gcurves[0.1])
                      and np.all(gcurves[0.1] < gcurves[0.05]))
    elapsed = time.perf_counter() - start
    ok = down_in_lambda and mu_up and gamma_down
    report(11, ok, "figure-8: mean parked bikes strictly down in lambda, up in "
                   f"mu, down in gamma ({elapsed:.1f} s)")
    assert down_in_lambda
    assert mu_up
    assert gamma_down
    assert elapsed < 60.0


def test_criterion_12_simulator_invariants(stationary_run):
    # the full N=1000 run asserts conservation and capacity at every event;
    # a second, shorter pair establishes bitwise determinism
    state = stationary_run.final_state
    state.validate(FIG5)
    counts = stationary_run.event_counts
    budget_ok = counts["walk_starts"] == (counts["abandonments"]
                                          + counts["walk_rentals"]
                                          + counts["walkers_in_flight"])
    config = SimConfig(params=FIG5, seed=77, t_measure=50.0 / FIG5.lam,
                       sample_interval=0.1)
    rep_a = bm.simulate(config)
    rep_b = bm.simulate(config)
    bitwise = (
        np.array_equal(rep_a.time_avg_measure, rep_b.time_avg_measure)
        and np.array_equal(rep_a.joint_counts, rep_b.joint_counts)
        and rep_a.event_counts == rep_b.event_counts
        and rep_a.final_state == rep_b.final_state
        and np.array_equal(rep_a.trajectory.states, rep_b.trajectory.states)
    )
    ok = budget_ok and bitwise
    report(12, ok, f"conservation and capacity held over {counts['events']} "
                   f"events; walker accounting exact; reports bitwise equal: {bitwise}")
    assert budget_ok
    assert bitwise
