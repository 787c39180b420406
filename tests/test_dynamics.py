"""Drift, integration, Jacobian and the analytic norm bound."""

import dataclasses

import numpy as np
import pytest

from bikeshare_meanfield import (
    OdeConfig,
    SystemParams,
    Trajectory,
    build_generator,
    column_sum_norm,
    drift_finite_n,
    drift_limiting,
    geometric_walk_factor,
    integrate,
    jacobian_fd,
    limiting_rates,
    lipschitz_bound,
    sample_domain_points,
    solve_fixed_point,
    weighted_sup_distance,
)
from bikeshare_meanfield.errors import ConfigError, DomainExitError

FIG5 = SystemParams(lam=15.0, mu=8.0, gamma=0.25, omega=1, capacity_c=30,
                    capacity_k=50, n_stations=1000, delta=0.1)
SMALL = SystemParams(lam=1.0, mu=4.0, gamma=0.5, omega=2, capacity_c=3,
                     capacity_k=4, n_stations=100, delta=0.2)


def componentwise_drift(y, params):
    """Independent route: the explicit level equations instead of y @ V."""
    a, b = limiting_rates(y, params)
    k1 = y.size - 1
    f = np.empty_like(y)
    f[0] = -y[0] * a + y[1] * b
    for i in range(1, k1):
        f[i] = (y[i - 1] - y[i]) * a + (y[i + 1] - y[i]) * b
    f[k1] = y[k1 - 1] * a - y[k1] * b
    return f


def domain_points(params, n, seed=0):
    return sample_domain_points(params, n, np.random.default_rng(seed))


class TestDrift:
    def test_matrix_route_matches(self):
        for y in domain_points(SMALL, 50):
            gen = build_generator(limiting_rates(y, SMALL), SMALL.capacity_k)
            assert np.max(np.abs(drift_limiting(y, SMALL) - y @ gen)) < 1e-12

    def test_componentwise_route_matches(self):
        for params in (SMALL, FIG5):
            for y in domain_points(params, 30):
                gap = np.max(np.abs(drift_limiting(y, params)
                                    - componentwise_drift(y, params)))
                assert gap < 1e-12

    def test_block_equals_stacked_vectors(self):
        # the fleet term sum_k k*y_k is a BLAS dot product whose summation
        # order differs between one vector and a block, so random fractions
        # can differ in the last bit there; fractions on the 2**-30 grid make
        # that sum exact, and then every other operation must agree bitwise
        from bikeshare_meanfield.dynamics import _drift_limiting_arrays

        for params in (SMALL, FIG5):
            points = domain_points(params, 40, seed=3)
            counts = np.floor(points * 2.0 ** 30)
            rows = np.arange(len(counts))
            counts[rows, np.argmax(counts, axis=1)] += 2.0 ** 30 - counts.sum(axis=1)
            block = counts / 2.0 ** 30
            stacked = np.vstack([drift_limiting(y, params) for y in block])
            assert np.array_equal(_drift_limiting_arrays(block, params), stacked)
            random = np.vstack([drift_limiting(y, params) for y in points])
            assert np.allclose(_drift_limiting_arrays(points, params), random,
                               rtol=1e-13, atol=1e-13)

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(1)
        pts = sample_domain_points(SMALL, 1000, rng)
        for y in pts:
            assert abs(drift_limiting(y, SMALL).sum()) < 1e-13

    def test_zero_at_fixed_point(self):
        result = solve_fixed_point(FIG5)
        assert np.max(np.abs(drift_limiting(result.p, FIG5))) < 1e-10

    def test_finite_n_sum_zero(self):
        for y in domain_points(SMALL, 50):
            assert abs(drift_finite_n(y, SMALL).sum()) < 1e-13

    def test_finite_n_converges_to_limiting(self):
        big = dataclasses.replace(FIG5, n_stations=10 ** 6)
        for y in domain_points(big, 20):
            gap = np.max(np.abs(drift_finite_n(y, big) - drift_limiting(y, big)))
            assert gap < 1e-4

    def test_top_level_outflow_is_death_only(self):
        # with no mass at K-1 the top level can only drain through rentals,
        # at exactly the service rate
        from bikeshare_meanfield import finite_service_rate

        y = np.array([0.5, 0.3, 0.1, 0.0, 0.1])
        f = drift_finite_n(y, SMALL)
        assert f[-1] == pytest.approx(-finite_service_rate(y, SMALL) * y[-1], rel=1e-14)
        assert f[-1] < 0.0


class TestIntegrate:
    def test_stays_at_fixed_point(self):
        result = solve_fixed_point(FIG5)
        t_end = 100.0 / FIG5.lam
        traj = integrate(OdeConfig(initial=result.p, t_end=t_end,
                                   stationarity_tol=1e-300), FIG5)
        assert traj.times[-1] == pytest.approx(t_end)
        assert np.max(np.abs(traj.states - result.p)) < 1e-8

    def test_converges_from_start_at_c(self):
        result = solve_fixed_point(SMALL)
        g = np.zeros(5)
        g[SMALL.capacity_c] = 1.0
        traj = integrate(OdeConfig(initial=g, t_end=4000.0, stationarity_tol=1e-12),
                         SMALL)
        assert np.max(np.abs(traj.terminal - result.p)) < 1e-8

    def test_simplex_preserved(self):
        g = np.zeros(5)
        g[3] = 1.0
        traj = integrate(OdeConfig(initial=g, t_end=5.0), SMALL)
        sums = traj.states.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9
        assert traj.states.min() >= 0.0

    def test_self_convergence_order(self):
        # Richardson-style: error against a step/16 reference shrinks by
        # ~16x when the step halves (observed 16.5: classical 4th order)
        g = np.zeros(5)
        g[3] = 1.0
        t_end = 2.0
        ref = integrate(OdeConfig(initial=g, t_end=t_end, step=1 / 512,
                                  stationarity_tol=1e-300), SMALL).terminal
        errs = []
        for step in (1 / 32, 1 / 64):
            term = integrate(OdeConfig(initial=g, t_end=t_end, step=step,
                                       stationarity_tol=1e-300), SMALL).terminal
            errs.append(np.max(np.abs(term - ref)))
        assert errs[0] / errs[1] > 12.0

    def test_max_time_caps_horizon(self):
        g = np.zeros(5)
        g[3] = 1.0
        traj = integrate(OdeConfig(initial=g, t_end=100.0, max_time=2.0,
                                   stationarity_tol=1e-300), SMALL)
        assert traj.times[-1] == pytest.approx(2.0)

    def test_unstable_step_fails_loudly(self):
        # a step far beyond the stability limit must abort, not return junk;
        # in this model the implied bikes-in-transit count goes negative
        # before the simplex-repair budget trips
        from bikeshare_meanfield.errors import BikeShareError

        y0 = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
        with pytest.raises(BikeShareError):
            integrate(OdeConfig(initial=y0, t_end=30.0, step=0.8,
                                stationarity_tol=1e-300), SMALL)

    def test_repair_budget_aborts(self, monkeypatch):
        import bikeshare_meanfield.dynamics as dyn
        from bikeshare_meanfield.errors import StepInstabilityError

        monkeypatch.setattr(dyn, "STEP_REPAIR_BUDGET", -1.0)
        g = np.zeros(5)
        g[3] = 1.0
        with pytest.raises(StepInstabilityError) as err:
            integrate(OdeConfig(initial=g, t_end=1.0), SMALL)
        assert err.value.correction >= 0.0
        assert err.value.time > 0.0

    def test_domain_exit_reported(self):
        params = dataclasses.replace(SMALL, delta=0.9)
        g = np.zeros(5)
        g[3] = 1.0
        with pytest.raises(DomainExitError) as err:
            integrate(OdeConfig(initial=g, t_end=50.0), params)
        assert err.value.time >= 0.0

    def test_unique_attractor(self):
        result = solve_fixed_point(SMALL)
        pts = domain_points(SMALL, 20, seed=7)
        terminals = []
        for y in pts:
            traj = integrate(OdeConfig(initial=y, t_end=4000.0,
                                       stationarity_tol=1e-12), SMALL)
            terminals.append(traj.terminal)
        for term in terminals:
            assert np.max(np.abs(term - result.p)) < 1e-6

    def test_finite_n_terminal_approaches_limiting(self):
        g = np.zeros(5)
        g[SMALL.capacity_c] = 1.0
        lim = integrate(OdeConfig(initial=g, t_end=4000.0, stationarity_tol=1e-12),
                        SMALL).terminal
        gaps = []
        for n in (10, 100, 1000, 10000):
            params = dataclasses.replace(SMALL, n_stations=n)
            term = integrate(OdeConfig(initial=g, t_end=4000.0,
                                       stationarity_tol=1e-12),
                             params, finite_n=True).terminal
            gaps.append(np.max(np.abs(term - lim)))
        assert all(gaps[i] > gaps[i + 1] for i in range(3))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            OdeConfig(initial=[0.5, 0.5], t_end=-1.0)
        with pytest.raises(ConfigError):
            OdeConfig(initial=[0.5, 0.5], t_end=1.0, step=2.0)
        with pytest.raises(ConfigError):
            OdeConfig(initial=[0.5, 0.6], t_end=1.0)


class TestTrajectory:
    def test_csv_round_trip(self, tmp_path):
        g = np.zeros(5)
        g[3] = 1.0
        traj = integrate(OdeConfig(initial=g, t_end=1.0), SMALL)
        path = tmp_path / "traj.csv"
        traj.to_csv(path, params=SMALL)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# params:")
        assert lines[1] == "t,y0,y1,y2,y3,y4"
        data = np.loadtxt(path, delimiter=",", skiprows=2)
        assert data.shape == (traj.times.size, 6)
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1:], traj.states)

    def test_times_must_increase(self):
        with pytest.raises(ConfigError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)))


class TestJacobian:
    def test_row_sums_vanish(self):
        # d/dy_i of sum_j F_j(y) = 0: summing each variable's derivatives
        # across all components gives zero
        for y in domain_points(FIG5, 10):
            j = jacobian_fd(y, FIG5)
            assert np.max(np.abs(j.sum(axis=1))) < 1e-6

    def test_hand_coded_entry(self):
        # dF_0/dy_1 = y0 * mu / (1 - yK) + lambda + gamma * y0 * sum(y0^k, k<omega)
        params = SMALL
        for y in domain_points(params, 10, seed=3):
            j = jacobian_fd(y, params)
            fleet = params.capacity_c - np.arange(5) @ y
            expected = (y[0] * params.mu / (1 - y[-1]) + params.lam
                        + params.gamma * y[0]
                        * geometric_walk_factor(y[0], params.omega))
            assert j[1, 0] == pytest.approx(expected, rel=1e-6, abs=1e-6)
            del fleet

    def test_step_robustness(self):
        y = domain_points(FIG5, 1, seed=9)[0]
        j5 = jacobian_fd(y, FIG5, h=1e-5)
        j6 = jacobian_fd(y, FIG5, h=1e-6)
        assert np.max(np.abs(j5 - j6)) < 1e-5

    def test_step_domain(self):
        y = domain_points(SMALL, 1)[0]
        with pytest.raises(ConfigError):
            jacobian_fd(y, SMALL, h=1e-2)


class TestLipschitzBound:
    def test_hand_value(self):
        params = SystemParams(lam=1.0, mu=1.0, gamma=1.0, omega=1, capacity_c=1,
                              capacity_k=2, n_stations=2, delta=0.5)
        assert lipschitz_bound(params) == pytest.approx(17.0)

    def test_omega_zero_drops_walk_term(self):
        params = SystemParams(lam=2.0, mu=1.0, gamma=0.5, omega=0, capacity_c=2,
                              capacity_k=3, n_stations=2, delta=0.25)
        expected = 2 * 2.0 + (1.0 / 0.25) * ((1 + 1 / 0.25) * 2 + 3 * 4 / 2)
        assert lipschitz_bound(params) == pytest.approx(expected)

    def test_bounds_sampled_norms(self):
        for params in (SMALL, FIG5):
            bound = lipschitz_bound(params)
            for y in domain_points(params, 50, seed=11):
                assert column_sum_norm(jacobian_fd(y, params)) <= bound


class TestWeightedSupDistance:
    def test_zero_on_equal(self):
        x = np.array([0.25, 0.25, 0.5])
        assert weighted_sup_distance(x, x) == 0.0

    def test_hand_value(self):
        assert weighted_sup_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_bounded_on_simplex(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            x = rng.dirichlet(np.ones(6))
            y = rng.dirichlet(np.ones(6))
            assert weighted_sup_distance(x, y) <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            weighted_sup_distance([0.5, 0.5], [0.2, 0.3, 0.5])
