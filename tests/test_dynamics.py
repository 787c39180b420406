"""Drift, integration, Jacobian and the analytic norm bound."""

import dataclasses
import functools
import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_acceptance import LIPSCHITZ_SETS, random_valid_parameter_sets

from bikeshare_meanfield import (
    OdeConfig,
    SystemParams,
    Trajectory,
    build_generator,
    column_sum_norm,
    default_step,
    drift_finite_n,
    drift_limiting,
    integrate,
    jacobian,
    limiting_rates,
    lipschitz_bound,
    sample_domain_points,
    solve_fixed_point,
)
from bikeshare_meanfield.core import SIMPLEX_TOL, _geom_series
from bikeshare_meanfield.errors import (
    ConfigError,
    DomainExitError,
    FullSystemError,
    NegativeFleetError,
    StepInstabilityError,
)
from bikeshare_meanfield.validation import check_jacobian_bound

FIG5 =SystemParams(lam=15.0, mu=8.0, gamma=0.25, omega=1, capacity_c=30,
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
        drift_limiting, drift_finite_n, jacobian,
        pytest.param(lambda y, params: integrate(OdeConfig(initial=y, t_end=1.0), params),
                     id="integrate"),
    ])
    @pytest.mark.parametrize("length", [5, 50, 52])
    def test_length_must_be_k_plus_one(self, drift, length):
        y = np.full(length, 1.0 / length)
        with pytest.raises(ConfigError, match="length K\\+1 = 51"):
            drift(y, FIG5)

    @pytest.mark.parametrize("drift", [drift_limiting, drift_finite_n, jacobian])
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

    @pytest.mark.parametrize("finite_n", [False, True], ids=["limiting", "finite-n"])
    def test_every_stored_state_is_on_the_simplex(self, finite_n):
        # 30 solvable draws from the all-at-C start and the uniform start on
        # 0..C, at the default step and at three times it, where raw RK4
        # states go negative and the clamp acts or the step fails loudly
        checked = 0
        for params in random_valid_parameter_sets(30, seed=16):
            spread = np.zeros(params.capacity_k + 1)
            spread[:params.capacity_c + 1] = 1.0 / (params.capacity_c + 1)
            for initial, step in itertools.product((all_at_c(params), spread), (1.0, 3.0)):
                step *= default_step(params)
                config = OdeConfig(initial=initial, t_end=300 * step, step=step,
                                   stationarity_tol=1e-300)
                try:
                    states = integrate(config, params, finite_n=finite_n).states
                except (DomainExitError, StepInstabilityError):
                    continue
                assert states.min() >= 0.0
                assert np.max(np.abs(states.sum(axis=1) - 1.0)) <= SIMPLEX_TOL
                checked += 1
        assert checked >= 100

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

    @pytest.mark.parametrize("numbers", [
        dict(t_end=True), dict(t_end=1.0, step=True), dict(t_end=1.0, stationarity_tol=True),
        dict(t_end="5"), dict(t_end=float("inf")), dict(t_end=float("nan")),
        dict(t_end=1.0, step=float("nan")), dict(t_end=1.0, stationarity_tol=float("inf")),
    ])
    def test_numbers_read_strictly(self, numbers):
        # an infinite horizon would integrate until a stationarity that may never come
        with pytest.raises(ConfigError, match="must be a finite number"):
            OdeConfig(initial=[0.5, 0.5], **numbers)

    def test_numbers_stored_as_floats(self):
        config = OdeConfig(initial=[0.5, 0.5], t_end=2, step=np.float32(0.5))
        assert (config.t_end, config.step, config.stationarity_tol) == (2.0, 0.5, 1e-10)
        assert all(type(v) is float for v in (config.t_end, config.step))


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


def _frozen_limiting_rates(y, params):
    """``limiting_rates`` as it stood on the vectorized rate path."""
    a, b = _frozen_rates(y, params)
    return float(a), float(b)


def _frozen_stencil(yt, a, b):
    """y V(a, b) for levels along the first axis, as the stencil stood before
    it took one difference vector."""
    f = np.empty_like(yt)
    f[0] = -a * yt[0] + b * yt[1]
    np.multiply(yt[:-2] - yt[1:-1], a, out=f[1:-1])
    f[1:-1] += b * (yt[2:] - yt[1:-1])
    f[-1] = a * yt[-2] - b * yt[-1]
    return f


def _frozen_drift_limiting(y, params):
    """The vectorized limiting drift of one vector (K+1,) or a block (n, K+1),
    as it stood before the drift ran through the stepper body."""
    a, b = _frozen_rates(y, params)
    return _frozen_stencil(y.T, a, b).T


def _frozen_jacobian(y, params):
    """``jacobian`` as it stood before the stencil took one difference vector."""
    from bikeshare_meanfield.core import RatePair, _walk_slope

    birth, death = _frozen_limiting_rates(y, params)
    scale = 1.0 - y.item(-1)
    grad_birth = np.arange(y.size, dtype=float) * (-params.mu / scale)
    grad_birth[-1] += birth / scale
    jac = build_generator(RatePair(birth, death), params.capacity_k)
    jac += np.outer(grad_birth, _frozen_stencil(y, 1.0, 0.0))
    jac[0] += (params.gamma * _walk_slope(y.item(0), params.omega)
               * _frozen_stencil(y, 0.0, 1.0))
    return jac


def _central_difference_jacobian(y, params, h=1e-6):
    """Reference: the retired central-difference Jacobian on the frozen block drift."""
    n = y.size
    pts = np.vstack([np.tile(y, (n, 1)) + h * np.eye(n),
                     np.tile(y, (n, 1)) - h * np.eye(n)])
    f = _frozen_drift_limiting(pts, params)
    return (f[:n] - f[n:]) / (2.0 * h)


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


def all_at_c(params):
    """Every station holding C bikes: the CLI ``ode`` start."""
    start = np.zeros(params.capacity_k + 1)
    start[params.capacity_c] = 1.0
    return start


@functools.cache
def _frozen_run_to_rest(params, finite_n):
    """The frozen loop from the all-at-C start to stationarity at 1e-11, with the
    sup-norm of the frozen drift at every state it accepted."""
    config = OdeConfig(initial=all_at_c(params), t_end=5000.0, stationarity_tol=1e-11)
    times, states = _frozen_integrate(config, params, finite_n)
    drift = _frozen_drift_finite_n if finite_n else _frozen_drift_limiting
    norms = np.array([np.max(np.abs(drift(y, params))) for y in states])
    return times, states, norms


def assert_same_bits(actual, expected):
    """Equal shape, dtype and bytes: unlike ``np.array_equal``, this tells -0 from 0,
    which the trajectory CSV prints differently."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestFusedStepper:
    @pytest.mark.parametrize("finite_n", [False, True], ids=["limiting", "finite-n"])
    @pytest.mark.parametrize("params,t_end,step", [
        (SMALL, 5.0, None),
        (FIG5, 3.0, None),
        # horizons that are not a multiple of the step: the last step is short
        (SMALL, 3.3333, 0.0071),
        (FIG5, 7.77, None),
    ], ids=["small", "fig5", "small-short-last-step", "fig5-short-last-step"])
    def test_bit_identical_to_frozen_loop(self, params, t_end, step, finite_n):
        at_c = all_at_c(params)
        for initial in (at_c, domain_points(params, 1, seed=5)[0]):
            config = OdeConfig(initial=initial, t_end=t_end, step=step,
                               stationarity_tol=1e-300)
            traj = integrate(config, params, finite_n=finite_n)
            times, states = _frozen_integrate(config, params, finite_n)
            assert traj.times[-1] == t_end
            assert_same_bits(traj.times, times)
            assert_same_bits(traj.states, states)

    @pytest.mark.parametrize("finite_n", [False, True], ids=["limiting", "finite-n"])
    def test_bit_identical_over_several_state_blocks(self, finite_n):
        from bikeshare_meanfield.csvrows import block_rows

        at_c = all_at_c(FIG5)
        config = OdeConfig(initial=at_c, t_end=40.0, stationarity_tol=1e-300)
        traj = integrate(config, FIG5, finite_n=finite_n)
        times, states = _frozen_integrate(config, FIG5, finite_n)
        assert times.size > 9000 > 17 * block_rows(at_c.size + 1)
        assert_same_bits(traj.times, times)
        assert_same_bits(traj.states, states)

    def test_stops_at_the_same_step(self):
        result = solve_fixed_point(SMALL)
        for finite_n in (False, True):
            config = OdeConfig(initial=0.5 * (result.p + np.full(5, 0.2)), t_end=4000.0,
                               stationarity_tol=1e-9)
            traj = integrate(config, SMALL, finite_n=finite_n)
            times, states = _frozen_integrate(config, SMALL, finite_n)
            assert traj.times[-1] < 4000.0
            assert_same_bits(traj.times, times)
            assert_same_bits(traj.states, states)

    @pytest.mark.parametrize("finite_n", [False, True], ids=["limiting", "finite-n"])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11])
    @pytest.mark.parametrize("params", [SMALL, FIG5], ids=["small", "fig5"])
    def test_boundary_screen_stops_at_the_frozen_step(self, params, tol, finite_n):
        # the stepper takes the full max|k1| only when both boundary components
        # lie below the tolerance.  From all-at-C on figure 5 both are exactly 0
        # for the first steps while the interior moves, so the screen must hand
        # those steps to the full test; on the small set k[K] is not 0 at once.
        # The frozen loop stops at the first accepted state whose drift sup-norm
        # is below the tolerance, so its 1e-11 run holds the runs at 1e-6 and 1e-9
        times, states, norms = _frozen_run_to_rest(params, finite_n)
        stop = 1 + int(np.argmax(norms[1:] < tol))
        assert norms[stop] < tol <= norms[1:stop].min()
        config = OdeConfig(initial=all_at_c(params), t_end=5000.0, stationarity_tol=tol)
        traj = integrate(config, params, finite_n=finite_n)
        assert_same_bits(traj.times, times[:stop + 1])
        assert_same_bits(traj.states, states[:stop + 1])
        drift = _frozen_drift_finite_n if finite_n else _frozen_drift_limiting
        first = drift(states[1], params)
        if params is FIG5:
            assert first[0] == first[-1] == 0.0 < np.max(np.abs(first))
        else:
            assert abs(first[-1]) > 1e-2

    @pytest.mark.parametrize("finite_n", [False, True], ids=["limiting", "finite-n"])
    def test_interior_component_decides_the_stop(self, finite_n):
        # near rest on figure 5, a second difference at levels 19-21 leaves the
        # mean bikes, y0 and yK, and so the rates and the boundary components,
        # as they were; the screen passes every step to the full test, and an
        # interior component is the last to fall below the tolerance
        rest = integrate(OdeConfig(initial=all_at_c(FIG5), t_end=5000.0,
                                   stationarity_tol=1e-9), FIG5, finite_n=finite_n).terminal
        start = rest.copy()
        start[19:22] += [1e-4, -2e-4, 1e-4]
        config = OdeConfig(initial=start, t_end=5000.0, stationarity_tol=1e-6)
        traj = integrate(config, FIG5, finite_n=finite_n)
        times, states = _frozen_integrate(config, FIG5, finite_n)
        assert traj.times[-1] < 5000.0
        assert_same_bits(traj.times, times)
        assert_same_bits(traj.states, states)
        drift = _frozen_drift_finite_n if finite_n else _frozen_drift_limiting
        before, last = drift(states[-2], FIG5), drift(states[-1], FIG5)
        assert max(abs(before[0]), abs(before[-1])) < 1e-6 <= np.max(np.abs(before[1:-1]))
        assert np.max(np.abs(last)) < 1e-6

    @pytest.mark.parametrize("finite_n,correction", [
        (False, 2.282377694084645e-06), (True, 2.351150507948868e-06),
    ], ids=["limiting", "finite-n"])
    def test_repair_failure_keeps_its_report(self, finite_n, correction):
        # a step of 0.05 on figure 5 clamps too much mass on the third step
        at_c = all_at_c(FIG5)
        config = OdeConfig(initial=at_c, t_end=30.0, step=0.05, stationarity_tol=1e-300)
        with pytest.raises(StepInstabilityError) as err:
            integrate(config, FIG5, finite_n=finite_n)
        assert str(err.value) == (f"simplex repair {correction:.3e} exceeded budget 1.0e-07 "
                                  "at t=0.15; reduce the step")
        assert err.value.time == 0.15000000000000002
        assert err.value.correction == correction

    @pytest.mark.parametrize("finite_n", [False, True], ids=["limiting", "finite-n"])
    def test_nan_state_fails_the_repair_test(self, finite_n):
        # a step of 1e200 overflows the stages and leaves a NaN state, for which
        # the repair, domain and rate guards would all be False; the warnings are
        # silenced because pytest would raise the overflow before the step ends
        config = OdeConfig(initial=all_at_c(FIG5), t_end=5e200, step=1e200)
        with np.errstate(all="ignore"), pytest.raises(StepInstabilityError) as err:
            integrate(config, FIG5, finite_n=finite_n)
        assert str(err.value) == ("simplex repair nan exceeded budget 1.0e-07 "
                                  "at t=1e+200; reduce the step")
        assert err.value.time == 1e200
        assert np.isnan(err.value.correction)

    @pytest.mark.parametrize("finite_n,t,shown", [
        (False, 0.021505376344086023, "0.0215054"), (True, 0.025806451612903226, "0.0258065"),
    ], ids=["limiting", "finite-n"])
    def test_renormalisation_counts_toward_the_repair(self, monkeypatch, finite_n, t, shown):
        # with a zero budget the first step whose sum is not exactly 1 fails,
        # before any entry is clamped: the budget is read at call time and
        # measured against the renormalized state
        import bikeshare_meanfield.dynamics as dyn

        monkeypatch.setattr(dyn, "STEP_REPAIR_BUDGET", 0.0)
        at_c = all_at_c(FIG5)
        config = OdeConfig(initial=at_c, t_end=30.0, stationarity_tol=1e-300)
        with pytest.raises(StepInstabilityError) as err:
            integrate(config, FIG5, finite_n=finite_n)
        assert str(err.value) == (f"simplex repair 1.110e-16 exceeded budget 0.0e+00 "
                                  f"at t={shown}; reduce the step")
        assert err.value.time == t
        assert err.value.correction == 2.0 ** -53

    @pytest.mark.parametrize("finite_n,y0,yk", [
        (False, "0.0037491", "0.10148"), (True, "0.00368304", "0.100439"),
    ], ids=["limiting", "finite-n"])
    def test_domain_exit_keeps_its_report(self, finite_n, y0, yk):
        g = np.zeros(5)
        g[3] = 1.0
        config = OdeConfig(initial=g, t_end=50.0)
        with pytest.raises(DomainExitError) as err:
            integrate(config, dataclasses.replace(SMALL, delta=0.9), finite_n=finite_n)
        assert str(err.value) == (f"trajectory left the assumed domain at t=0.32 "
                                  f"(y0={y0}, yK={yk}, bound=0.1)")
        assert err.value.time == 0.32

    def test_public_drifts_match_frozen_bodies(self):
        for params in (SMALL, FIG5):
            for y in domain_points(params, 30, seed=2):
                assert_same_bits(drift_limiting(y, params), _frozen_drift_limiting(y, params))
                assert_same_bits(drift_finite_n(y, params), _frozen_drift_finite_n(y, params))

    def test_public_rates_and_drift_match_frozen_vectorized_path(self):
        # 454 domain points on each criterion-7 set and on the walk-heavy set
        walk_heavy = SystemParams(lam=15.0, mu=8.0, gamma=2.0, omega=3, capacity_c=3,
                                  capacity_k=5, n_stations=1000, delta=0.1)
        for params in [*LIPSCHITZ_SETS, walk_heavy]:
            for y in domain_points(params, 5000 // 11, seed=4):
                assert_same_bits(drift_limiting(y, params), _frozen_drift_limiting(y, params))
                assert tuple(limiting_rates(y, params)) == _frozen_limiting_rates(y, params)

    def test_jacobian_matches_frozen_body_on_criterion_7_points(self):
        for params in LIPSCHITZ_SETS:
            points = sample_domain_points(params, 10_000, np.random.default_rng(99))
            for y in points[::100]:
                assert_same_bits(jacobian(y, params), _frozen_jacobian(y, params))

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
                    _drift_body(SMALL, finite_n)(y, out)()
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

    def test_interrupted_export_leaves_the_target_as_it_was(self, tmp_path, monkeypatch):
        # 4,651 rows of 52 values: the export is cut while it builds its second block
        traj = Trajectory(np.arange(4651.0), np.full((4651, 51), 1.0 / 51))
        path = tmp_path / "traj.csv"
        path.write_bytes(b"earlier bytes\n")
        stack, calls = np.column_stack, []

        def interrupted(arrays):
            calls.append(len(arrays[0]))
            if len(calls) == 2:
                raise KeyboardInterrupt
            return stack(arrays)

        monkeypatch.setattr(np, "column_stack", interrupted)
        with pytest.raises(KeyboardInterrupt):
            traj.to_csv(path, params=FIG5)
        monkeypatch.undo()
        assert calls == [512, 512]
        assert path.read_bytes() == b"earlier bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]
        traj.to_csv(path, params=FIG5)
        assert len(path.read_text().splitlines()) == 2 + 4651
        assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]

    def test_times_must_increase(self):
        with pytest.raises(ConfigError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)))


class TestJacobian:
    def test_row_sums_vanish(self):
        # d/dy_i of sum_j F_j(y) = 0: summing each variable's derivatives
        # across all components gives zero
        for y in domain_points(FIG5, 10):
            j = jacobian(y, FIG5)
            assert np.max(np.abs(j.sum(axis=1))) < 1e-10

    def test_hand_coded_entry(self):
        # dF_0/dy_1 = y0 * mu / (1 - yK) + lambda + gamma * y0 * sum(y0^k, k<omega)
        params = SMALL
        for y in domain_points(params, 10, seed=3):
            j = jacobian(y, params)
            expected = (y[0] * params.mu / (1 - y[-1]) + params.lam
                        + params.gamma * y[0]
                        * _geom_series(params.omega)(float(y[0])))
            assert j[1, 0] == pytest.approx(expected, rel=1e-12)

    def test_matches_central_differences_on_criterion_7_points(self):
        for params in LIPSCHITZ_SETS:
            points = sample_domain_points(params, 10_000, np.random.default_rng(99))
            for y in points[::500]:
                reference = _central_difference_jacobian(y, params)
                gap = np.max(np.abs(jacobian(y, params) - reference))
                assert gap <= 1e-8 * np.max(np.abs(reference))

    @given(lam=st.floats(0.1, 30.0), mu=st.floats(0.1, 30.0), gamma_share=st.floats(0.01, 1.0),
           omega=st.integers(0, 5), k=st.integers(2, 60), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_central_differences_property(self, lam, mu, gamma_share, omega, k, seed):
        # C is the smallest capacity that leaves at least 1e-3 bikes in transit at y
        y = np.random.default_rng(seed).dirichlet(np.ones(k + 1))
        capacity_c = max(1, int(np.ceil(y @ np.arange(k + 1) + 1e-3)))
        assume(capacity_c < k)
        params = SystemParams(lam=lam, mu=mu, gamma=gamma_share * mu, omega=omega,
                              capacity_c=capacity_c, capacity_k=k, n_stations=100)
        reference = _central_difference_jacobian(y, params)
        gap = np.max(np.abs(jacobian(y, params) - reference))
        assert gap <= 1e-8 * np.max(np.abs(reference))

    def test_walk_slope_at_large_omega(self):
        # d/dx [x + x^2 + ... + x^w] = (1 - (w+1) x^w + w x^(w+1)) / (1 - x)^2,
        # and w (w+1) / 2 at x = 1
        from bikeshare_meanfield.core import _walk_slope

        w = 10 ** 5
        for x in (0.0, 0.3, 0.9, 0.9999):
            closed = (1.0 - (w + 1) * x ** w + w * x ** (w + 1)) / (1.0 - x) ** 2
            assert _walk_slope(x, w) == pytest.approx(closed, rel=1e-9)
        assert _walk_slope(1.0, w) == w * (w + 1) / 2


class TestSampleDomainPoints:
    @pytest.mark.parametrize("n", [0, -5, 2.5, True, "3"])
    def test_count_must_be_a_positive_integer(self, n):
        # -5 used to return 248 points, 0 an empty block and 2.5 a raw TypeError
        with pytest.raises(ConfigError, match="sample count must be"):
            sample_domain_points(FIG5, n, np.random.default_rng(0))

    def test_same_points_as_the_frozen_gemv_filter(self):
        # the mean-bikes filter now sums each row on its own instead of by one gemv;
        # the 200 points of validate's sample stay the same on figure 5 and the criterion-7 sets
        for params in LIPSCHITZ_SETS:
            for seed in range(10):
                got = sample_domain_points(params, 200, np.random.default_rng(seed))
                want = _frozen_sample_domain_points(params, 200, np.random.default_rng(seed))
                assert got.tobytes() == want.tobytes(), (params, seed)

    @pytest.mark.parametrize("capacity_c, capacity_k", [(20, 100), (1, 200), (3, 400)])
    def test_many_docks_fall_back_to_levels_up_to_c(self, capacity_c, capacity_k):
        # a uniform point on 0..K parks about K/2 bikes, far above C: the first batch
        # accepts none, and the later ones draw on the levels 0..C only
        params = SystemParams(lam=1.0, mu=8.0, gamma=0.25, omega=1, capacity_c=capacity_c,
                              capacity_k=capacity_k, delta=0.1)
        points = sample_domain_points(params, 200, np.random.default_rng(11))
        assert points.shape == (200, capacity_k + 1)
        assert not points[:, capacity_c + 1:].any()
        assert np.allclose(points.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert points[:, 0].max() <= 0.899
        assert (points @ np.arange(capacity_k + 1)).max() <= capacity_c - 1e-3

    @pytest.mark.parametrize("seed", [20, 25])
    def test_low_acceptance_first_batch_switches_to_levels_up_to_c(self, seed):
        # here the first batch accepts one point of its 800 (the uniform draw on 0..K
        # accepts about 6e-5): too few for 200 points in 2,000 batches, so the sampler
        # switches once the rate seen cannot reach 200 (it used to give up after 0.9 s)
        params = SystemParams(lam=1.0, mu=8.0, gamma=0.25, omega=1, capacity_c=20,
                              capacity_k=56, delta=0.1)
        start = time.perf_counter()
        points = sample_domain_points(params, 200, np.random.default_rng(seed))
        elapsed = time.perf_counter() - start
        assert points.shape == (200, 57)
        assert points[:, 0].max() <= 0.899 and points[:, -1].max() <= 0.899
        assert (points @ np.arange(57)).max() <= 20 - 1e-3
        assert elapsed < 1.0

    def test_jacobian_check_passes_with_many_more_docks_than_bikes(self):
        # it raised ConfigError after 2,000 batches (2 s) when the sampler drew on 0..K only
        params = SystemParams(lam=1.0, mu=8.0, gamma=0.25, omega=1, capacity_c=20,
                              capacity_k=100, delta=0.1)
        start = time.perf_counter()
        check = check_jacobian_bound(params)
        elapsed = time.perf_counter() - start
        assert check.passed, check.detail
        assert check.detail.endswith("vs bound 4.216e+05 over 200 points")
        assert elapsed < 1.0


def _frozen_sample_domain_points(params, n, rng):
    """Reference: ``sample_domain_points`` filtering mean parked bikes by the gemv
    ``batch @ levels``."""
    margin = 1e-3
    bound = 1.0 - params.delta - margin
    levels = np.arange(params.capacity_k + 1, dtype=float)
    out, have = [], 0
    while have < n:
        batch = rng.dirichlet(np.ones(params.capacity_k + 1), size=max(4 * n, 256))
        good = batch[(batch[:, 0] <= bound) & (batch[:, -1] <= bound)
                     & (batch @ levels <= params.capacity_c - margin)]
        out.append(good)
        have += good.shape[0]
    return np.vstack(out)[:n]


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
                assert column_sum_norm(jacobian(y, params)) <= bound
