"""Drift, integration, Jacobian and the analytic norm bound."""

import dataclasses
import json

import numpy as np
import pytest

from bikeshare_meanfield import (
    OdeConfig,
    SystemParams,
    Trajectory,
    build_generator,
    column_sum_norm,
    default_step,
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
from bikeshare_meanfield.errors import (
    ConfigError,
    DomainExitError,
    FullSystemError,
    NegativeFleetError,
)

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

    @pytest.mark.parametrize("drift", [
        drift_limiting, drift_finite_n, jacobian_fd,
        pytest.param(lambda y, params: integrate(OdeConfig(initial=y, t_end=1.0), params),
                     id="integrate"),
    ])
    @pytest.mark.parametrize("length", [5, 50, 52])
    def test_length_must_be_k_plus_one(self, drift, length):
        y = np.full(length, 1.0 / length)
        with pytest.raises(ConfigError, match="length K\\+1 = 51"):
            drift(y, FIG5)

    @pytest.mark.parametrize("drift", [drift_limiting, drift_finite_n, jacobian_fd])
    def test_block_rejected(self, drift):
        with pytest.raises(ConfigError, match="one vector"):
            drift(np.full((2, 5), 0.2), SMALL)

    def test_top_level_outflow_is_death_only(self):
        # with no mass at K-1 the top level can only drain through rentals,
        # at exactly the service rate
        y = np.array([0.5, 0.3, 0.1, 0.0, 0.1])
        f = drift_finite_n(y, SMALL)
        assert f[-1] == pytest.approx(-limiting_rates(y, SMALL).death * y[-1], rel=1e-14)
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


def _frozen_rates(y, params):
    """The limiting (birth, death) rates as computed before the fused stepper."""
    y0, yk = y[..., 0], y[..., -1]
    fleet = params.capacity_c - y @ np.arange(y.shape[-1], dtype=float)
    if np.any(yk >= 1.0 - np.finfo(float).eps):
        raise FullSystemError("full")
    if np.any(fleet < -1e-9):
        raise NegativeFleetError("fleet")
    fleet = np.maximum(fleet, 0.0)
    walk = y0 * 0.0
    power = walk + 1.0
    for bit in format(params.omega, "b"):
        walk = walk + power * walk
        power = power * power
        if bit == "1":
            walk = walk + power
            power = power * y0
    return params.mu * fleet / (1.0 - yk), params.lam + params.gamma * y0 * walk


def _frozen_drift_limiting(y, params):
    a, b = _frozen_rates(y, params)
    f = np.empty_like(y)
    f[0] = -a * y[0] + b * y[1]
    np.multiply(y[:-2] - y[1:-1], a, out=f[1:-1])
    f[1:-1] += b * (y[2:] - y[1:-1])
    f[-1] = a * y[-2] - b * y[-1]
    return f


def _frozen_drift_finite_n(y, params):
    n, c = params.n_stations, params.capacity_c
    yk = float(y[-1])
    if yk >= 1.0 - np.finfo(float).eps:
        raise FullSystemError("full")
    fleet = c - float(np.arange(y.size) @ y)
    if fleet < -1e-9:
        raise NegativeFleetError("fleet")
    fleet = max(fleet, 0.0)
    levels = np.arange(params.capacity_k, dtype=float)
    own = np.where(levels <= c - 1, c - levels, 0.0)
    xi = (params.mu / n) * (own + (n - 1) * fleet) / (1.0 - yk)
    eta = float(_frozen_rates(y, params)[1])
    f = np.empty_like(y)
    f[0] = -xi[0] * y[0] + eta * y[1]
    f[1:-1] = xi[:-1] * y[:-2] - (xi[1:] + eta) * y[1:-1] + eta * y[2:]
    f[-1] = xi[-1] * y[-2] - eta * y[-1]
    return f


def _frozen_integrate(config, params, finite_n):
    """The RK4 loop as it stood before the fused stepper, allocation by allocation."""
    drift = _frozen_drift_finite_n if finite_n else _frozen_drift_limiting
    y = config.initial.copy()
    h = config.step if config.step is not None else default_step(params)
    horizon = config.t_end
    times, states = [0.0], [y.copy()]
    t, step_index, k1 = 0.0, 0, drift(y, params)
    while t < horizon * (1.0 - 1e-15):
        t_next = min((step_index + 1) * h, horizon)
        hs = t_next - t
        k2 = drift(y + 0.5 * hs * k1, params)
        k3 = drift(y + 0.5 * hs * k2, params)
        k4 = drift(y + hs * k3, params)
        raw = y + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y = np.maximum(raw, 0.0)
        y /= y.sum()
        t = t_next
        step_index += 1
        times.append(t)
        states.append(y.copy())
        k1 = drift(y, params)
        if float(np.max(np.abs(k1))) < config.stationarity_tol:
            break
    return np.array(times), np.array(states)


class TestFusedStepper:
    @pytest.mark.parametrize("finite_n", [False, True], ids=["limiting", "finite-n"])
    @pytest.mark.parametrize("params,t_end", [(SMALL, 5.0), (FIG5, 3.0)],
                             ids=["small", "fig5"])
    def test_bit_identical_to_frozen_loop(self, params, t_end, finite_n):
        at_c = np.zeros(params.capacity_k + 1)
        at_c[params.capacity_c] = 1.0
        for initial in (at_c, domain_points(params, 1, seed=5)[0]):
            config = OdeConfig(initial=initial, t_end=t_end, stationarity_tol=1e-300)
            traj = integrate(config, params, finite_n=finite_n)
            times, states = _frozen_integrate(config, params, finite_n)
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.states, states)

    def test_stops_at_the_same_step(self):
        result = solve_fixed_point(SMALL)
        for finite_n in (False, True):
            config = OdeConfig(initial=0.5 * (result.p + np.full(5, 0.2)), t_end=4000.0,
                               stationarity_tol=1e-9)
            traj = integrate(config, SMALL, finite_n=finite_n)
            times, states = _frozen_integrate(config, SMALL, finite_n)
            assert traj.times[-1] < 4000.0
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.states, states)

    def test_public_drifts_match_frozen_bodies(self):
        for params in (SMALL, FIG5):
            for y in domain_points(params, 30, seed=2):
                assert np.array_equal(drift_limiting(y, params),
                                      _frozen_drift_limiting(y, params))
                assert np.array_equal(drift_finite_n(y, params),
                                      _frozen_drift_finite_n(y, params))

    def test_guards_keep_their_messages(self):
        from bikeshare_meanfield.dynamics import _drift_body

        full = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        crowded = np.array([0.0, 0.0, 0.0, 0.5, 0.5])  # mean bikes 3.5 > C = 3
        out = np.empty(5)
        for finite_n, drift in ((False, drift_limiting), (True, drift_finite_n)):
            for y, error in ((full, FullSystemError), (crowded, NegativeFleetError)):
                with pytest.raises(error) as public:
                    drift(y, SMALL)
                with pytest.raises(error) as fused:
                    _drift_body(SMALL, finite_n)(y, out)
                assert str(fused.value) == str(public.value)
        for drift in (drift_limiting, drift_finite_n):
            with pytest.raises(NegativeFleetError, match=r"negative \(deficit -5\.000e-01\)$"):
                drift(crowded, SMALL)
        with pytest.raises(FullSystemError, match="persistent-return rate undefined"):
            drift_finite_n(full, SMALL)


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

    def test_csv_bytes_match_per_value_formatting(self, tmp_path):
        # 1,031 rows: two full 512-row blocks and a partial one
        rng = np.random.default_rng(17)
        special = np.array([-0.0, 5e-324, 1e300, 0.1, 1.0, -1.5e-300, 2.0 / 3.0])
        states = rng.random((1031, 6))
        picks = rng.random(states.shape) < 0.5
        states[picks] = rng.choice(special, size=int(picks.sum()))
        states[:len(special), 0] = special
        traj = Trajectory(np.cumsum(rng.random(1031)) + 5e-324, states)
        path = tmp_path / "traj.csv"
        traj.to_csv(path, params=SMALL)
        expected = [f"# params: {json.dumps(SMALL.to_dict(), sort_keys=True)}\n",
                    "t,y0,y1,y2,y3,y4,y5\n"]
        for t, row in zip(traj.times, traj.states):
            expected.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
        assert path.read_bytes() == "".join(expected).encode("utf-8")
        assert "-0," in path.read_text()

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
