"""Stationary vector routes, scalar solver and uniqueness probing."""

import collections
import dataclasses
import functools
import inspect
import itertools
import math
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.optimize as scipy_optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import random_valid_parameter_sets
from test_core import _frozen_geom_sum

from bikeshare_meanfield import (
    OdeConfig,
    RatePair,
    SystemParams,
    birth_death_stationary,
    build_generator,
    geometric_form,
    integrate,
    limiting_rates,
    nonlinear_residual,
    self_map_residual,
    solve_fixed_point,
    stationary_from_load,
    uniqueness_probe,
)
from bikeshare_meanfield import core, dynamics, fixed_point, validation
from bikeshare_meanfield.errors import (
    AssumptionViolationError,
    BikeShareError,
    ConfigError,
    DegenerateCaseError,
    InvariantViolationError,
    MultipleFixedPointsError,
    NoBracketError,
)
from bikeshare_meanfield.validation import (
    check_defect_root_count,
    check_fixed_point_characterizations,
    check_ode_terminal,
)

FIG5 = SystemParams(lam=15.0, mu=8.0, gamma=0.25, omega=1, capacity_c=30,
                    capacity_k=50, n_stations=1000, delta=0.1)
FIG7 = SystemParams(lam=20.0, mu=8.0, gamma=0.25, omega=1, capacity_c=30,
                    capacity_k=50, n_stations=1000, delta=0.1)
# solves in closed form: p = (4, 2, 1) / 7 at load 1/2
ANALYTIC = SystemParams(lam=1.0, mu=1.0, gamma=0.5, omega=0, capacity_c=1,
                        capacity_k=2, n_stations=100, delta=0.2)
# the fleet C - E[Q] cancels to 5.6e-8 at the root: the best float load leaves
# a residual 78 times the relative gate, and the defect changes sign there
ILL_CONDITIONED = SystemParams(lam=0.0001992485218634334, mu=4249.814105197107,
                               gamma=0.059746640450473024, omega=1, capacity_c=286,
                               capacity_k=428, delta=0.43950317724412447)
# near the root the defect is rounding noise of a few 1e-9 of either sign (mu
# times a few ulps of E[Q]), so neither the relative gate nor the sign certificate
# accepts it; the residual 5.8e-10 is within its rounding bound 3.3e-9.  Its
# p_K = 0.49999 breaks the 1 - delta bound, so it ends in a domain error
ROUNDING_NOISE = SystemParams(lam=1.0, mu=103473.85121678609, gamma=1.0, omega=0,
                              capacity_c=144, capacity_k=145, delta=0.8125)

# the lambda-sweep families of figures 5-8: (curve field, curve values,
# overrides of the figure-5 set, lambda range), then the solves of a
# 41-node lambda sweep and of the weighted (C, K, mu) design grid on figure 5
FIGURE_FAMILIES = [
    ("mu", (0.3, 1.0, 8.0), {}, (10.0, 30.0)),
    ("gamma", (0.05, 0.5, 1.0), {"mu": 4.0}, (5.0, 15.0)),
    ("mu", (4.0, 8.0, 12.0), {}, (10.0, 30.0)),
    ("gamma", (0.05, 0.5, 3.0), {"mu": 7.0}, (10.0, 30.0)),
    ("mu", (6.0, 8.0, 10.0), {}, (10.0, 30.0)),
    ("gamma", (0.05, 0.5, 1.0), {"mu": 12.0}, (15.0, 30.0)),
    ("mu", (2.0, 5.0, 8.0), {}, (10.0, 30.0)),
    ("gamma", (0.05, 0.1, 6.0), {"capacity_c": 20, "mu": 7.0}, (10.0, 30.0)),
]
FIGURE_SETS = [
    dataclasses.replace(FIG5, **overrides, **{field: value}, lam=float(lam))
    for field, values, overrides, (lo, hi) in FIGURE_FAMILIES
    for value in values
    for lam in np.linspace(lo, hi, 5)
] + [dataclasses.replace(FIG5, lam=float(lam)) for lam in np.linspace(10.0, 30.0, 41)] + [
    dataclasses.replace(FIG5, capacity_c=c, capacity_k=k, mu=mu)
    for c in (10, 15, 20, 25, 30) for k in (35, 40, 45, 50) for mu in (2.0, 4.0, 6.0, 8.0)
]


def _frozen_stationary_and_rates(rho, params):
    """p(rho) and its unguarded (birth, death) as computed before the scalar load
    kernel: fresh level vectors and rates on 0-d arrays."""
    k = np.arange(params.capacity_k + 1, dtype=float)
    w = rho ** k if rho <= 1.0 else (1.0 / rho) ** (params.capacity_k - k)
    p = w / w.sum()
    y0, yk = p[..., 0], p[..., -1]
    fleet = params.capacity_c - p @ np.arange(p.shape[-1], dtype=float)
    death = params.lam + params.gamma * y0 * _frozen_geom_sum(y0, params.omega)
    return p, params.mu * fleet / (1.0 - yk), death


def _frozen_defect(rho, params):
    """Reference: ``_defect`` before the scalar load kernel."""
    _, a, b = _frozen_stationary_and_rates(rho, params)
    return float(a) - rho * float(b)


def _frozen_result_at(rho, params, iterations):
    """Reference: ``_result_at`` before the scalar load kernel."""
    p, a, b = _frozen_stationary_and_rates(rho, params)
    rates = RatePair(birth=float(max(a, 0.0)), death=float(b))
    residual = float(np.max(np.abs(p @ build_generator(rates, params.capacity_k))))
    return fixed_point.FixedPointResult(p=p, rho=rho, rates=rates, residual=residual,
                                        iterations=iterations)


def _frozen_point_rates(params):
    """Reference: the unguarded scalar (birth, death) of one vector before the lane
    rates, in Python floats; where 1 - y_K is 0 numpy divides with a RuntimeWarning."""
    levels = np.arange(params.capacity_k + 1, dtype=float)

    def rates(y):
        fleet, free = params.capacity_c - float(y.dot(levels)), 1.0 - y.item(-1)
        birth = (params.mu * fleet / free if free
                 else float(params.mu * fleet / np.float64(free)))
        y0 = y.item(0)
        return birth, params.lam + params.gamma * y0 * _frozen_geom_sum(y0, params.omega)

    return rates


def _gathered_kernel(group):
    """Reference: ``_defect_kernel`` as it was before one-set groups and one-sided rounds.
    Every round gathers an exponent row per load and the four rate constants per lane."""
    capacity_k = group[0].capacity_k
    levels = np.arange(capacity_k + 1, dtype=float)
    exponents = np.stack((capacity_k - levels, levels))
    constants = np.array([[params.mu, params.capacity_c, params.lam, params.gamma]
                          for params in group]).T

    def rows(loads, lanes):
        with np.errstate(all="ignore"):
            rho = np.array(loads, dtype=float)
            low = rho <= 1.0
            w = np.power(np.where(low, rho, 1.0 / rho)[:, None],
                         exponents.take(low.view(np.uint8), axis=0))
            p = np.divide(w, np.add.reduce(w, axis=1, keepdims=True), w)
            mu, c, lam, gamma = constants.take(lanes, axis=1)
            parked = np.matmul(p[:, None, :], levels[:, None])[:, 0, 0]
            birth = mu * (c - parked) / (1.0 - p[:, -1])
            y0 = p[:, 0]
            death = lam + gamma * y0 * _frozen_geom_sum(y0, group[0].omega)
            return birth - rho * death, p, birth, death

    return rows


def _brent_root(f, lo, hi, f_lo, f_hi, maxiter):
    """Root of the scalar function f on the bracket [lo, hi]: ``_brent_steps`` driven
    by calling f at each trial x.  Returns (root, iterations)."""
    steps = fixed_point._brent_steps(lo, hi, f_lo, f_hi, maxiter)
    try:
        trial = next(steps)
        while True:
            trial = steps.send(iter([f(x) for x in trial]))
    except StopIteration as stop:
        return stop.value


def _frozen_solve(params):
    """Reference: ``solve_fixed_point`` before the lockstep solve, one node at a time
    on the frozen defect and result, with the in-package Brent port."""
    defect = functools.partial(_frozen_defect, params=params)
    rho_hi = params.mu * params.capacity_c / (params.delta * params.lam)
    d_lo, d_hi = defect(0.0), defect(rho_hi)
    if d_lo == 0.0:
        rho, iterations = 0.0, 0
    elif not (d_lo < 0.0 <= d_hi or d_hi <= 0.0 < d_lo):
        raise NoBracketError(
            f"defect does not change sign between 0 ({d_lo:.6g}) and "
            f"{rho_hi:.6g} ({d_hi:.6g}); no fixed point in the assumed domain",
            lo=0.0, hi=rho_hi, defect_lo=d_lo, defect_hi=d_hi,
        )
    else:
        rho, iterations = _brent_root(defect, 0.0, rho_hi, d_lo, d_hi, maxiter=200)
    result = _frozen_result_at(rho, params, iterations)
    scale = result.rates.birth + result.rates.death
    width = 16 * (1e-15 + 8.9e-16 * abs(rho)) / 2
    s_lo, s_hi = defect(max(rho - width, 0.0)), defect(rho + width)
    certified = s_lo == 0.0 or defect(rho) == 0.0 or s_lo < 0.0 <= s_hi or s_hi <= 0.0 < s_lo
    p, free = result.p, 1.0 - result.p[-1]
    rounding = (np.finfo(float).eps * float(p @ np.arange(p.size, dtype=float)) * params.mu
                / free * p.max()) if free > 0.0 else 0.0
    if result.residual >= 1e-10 * scale and not certified and not result.residual <= rounding:
        raise InvariantViolationError(
            f"solver residual {result.residual:.3e} did not reach 1e-10 relative to "
            f"birth + death = {scale:.3e} or its rounding bound {rounding:.3e}, and the defect "
            f"keeps its sign near rho={result.rho!r}"
        )
    bound = 1.0 - params.delta
    if result.p[0] > bound or result.p[-1] > bound:
        raise AssumptionViolationError(
            "fixed point violates the problematic-station bound: "
            f"p0={result.p[0]:.6g}, pK={result.p[-1]:.6g}, bound={bound:.6g}",
            result=result,
        )
    return result


def _scalar_defect(params):
    """The defect of ``params`` at one load, as a one-lane call of the lane kernel."""
    rows = fixed_point._defect_kernel([params])
    return lambda rho: float(rows([rho], [0])[0][0])


def _wide_params(rng):
    """A parameter set with rates from 1e-6 to 1e6 and K up to 500."""
    mu, gamma = sorted(10.0 ** rng.uniform(-6, 6, size=2), reverse=True)
    k = int(rng.integers(2, 501))
    return SystemParams(lam=10.0 ** rng.uniform(-6, 6), mu=mu, gamma=gamma,
                        omega=int(rng.integers(0, 6)),
                        capacity_c=int(rng.integers(1, k)), capacity_k=k,
                        delta=rng.uniform(0.01, 0.99))


def _same_float(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


def _outcome(solve, params):
    try:
        r = solve(params)
    except BikeShareError as exc:
        return type(exc).__name__, str(exc)
    return r.p.tobytes(), r.rho, r.rates, r.residual, r.iterations


def _solve_outcome(params):
    return _outcome(solve_fixed_point, params)


def _frozen_outcome(params):
    with warnings.catch_warnings():
        # the frozen defect warns where every station is full
        warnings.simplefilter("ignore", RuntimeWarning)
        return _outcome(_frozen_solve, params)


def _grid_of_groups(rng, groups):
    """Wide draws in ``groups`` groups that share (K, omega), shuffled together."""
    nodes = []
    for _ in range(groups):
        k, omega = int(rng.integers(2, 501)), int(rng.integers(0, 6))
        for _ in range(int(rng.integers(1, 12))):
            params = _wide_params(rng)
            nodes.append(dataclasses.replace(params, capacity_k=k, omega=omega,
                                             capacity_c=min(params.capacity_c, k - 1)))
    return [nodes[i] for i in rng.permutation(len(nodes))]


def _detail(solve, params):
    """Everything a solve returns or raises: root, iterations and residual bits, or the
    error class, message and bracket."""
    try:
        r = solve(params)
    except NoBracketError as exc:
        return ("NoBracketError", str(exc), exc.lo.hex(), exc.hi.hex(),
                exc.defect_lo.hex(), exc.defect_hi.hex())
    except BikeShareError as exc:
        return type(exc).__name__, str(exc)
    return r.p.tobytes(), r.rho.hex(), r.iterations, r.residual.hex(), r.rates


def _frozen_detail(params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return _detail(_frozen_solve, params)


def _outcome_of(outcome):
    """``outcome`` of ``_solve_many`` as a function that returns or raises it."""
    def solve(_params):
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome
    return solve


class TestLoadKernel:
    def test_bit_identical_to_frozen_bodies(self):
        # groups of sets sharing (K, omega), every load in one call on mixed lanes
        rng = np.random.default_rng(2026)
        pairs = 0
        for _ in range(150):
            k, omega = int(rng.integers(2, 501)), int(rng.integers(0, 6))
            group = [dataclasses.replace(params, capacity_k=k, omega=omega,
                                         capacity_c=min(params.capacity_c, k - 1))
                     for params in (_wide_params(rng) for _ in range(4))]
            loads = [0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                     *10.0 ** rng.uniform(-6, 6, size=5)]
            loads = [float(rho) for rho in loads for _ in group]
            lanes = rng.permutation(len(loads)) % len(group)
            defects = fixed_point._defect_kernel(group)(loads, lanes)[0]
            # one lane per load for the solved points
            results = fixed_point._solved_points(
                fixed_point._defect_kernel([group[lane] for lane in lanes]),
                [(rho, 3) for rho in loads], k)
            for rho, lane, value, new in zip(loads, lanes, defects, results):
                params = group[lane]
                assert _same_float(value, _frozen_defect(rho, params))
                old = _frozen_result_at(rho, params, 3)
                assert new.p.tobytes() == old.p.tobytes()
                assert new.rates == old.rates and _same_float(new.residual, old.residual)
                pairs += 1
        assert pairs >= 5000

    @pytest.mark.parametrize("capacity_k", [1, 2, 50, 255, 256, 257, 500])
    @pytest.mark.parametrize("omega", [0, 1, 2 ** 1020])
    def test_rounds_bit_identical_to_the_gathered_kernel(self, capacity_k, omega):
        # rounds of 1-41 loads, all at most 1, all above 1 or mixed, on one set (whose
        # kernel reads no lanes, so the probe's lane numbers reach it) and on three
        # sets; the edge loads are 0, 1, 1 +- 1 ulp, 1e300 and 1e17, where p_K rounds
        # to 1.  The kernel reads six fields of a set only, so K = 1 needs no valid set
        rng = np.random.default_rng(capacity_k * 7 + omega % 5)
        sets = [types.SimpleNamespace(mu=mu, capacity_c=max(1, capacity_k // 2),
                                      capacity_k=capacity_k, lam=lam, gamma=gamma, omega=omega)
                for mu, lam, gamma in 10.0 ** rng.uniform(-6, 6, size=(3, 3))]
        below = [0.0, 1.0, float(np.nextafter(1.0, 0.0)), *10.0 ** rng.uniform(-6, 0, size=41)]
        above = [float(np.nextafter(1.0, 2.0)), 1e300, 1e17, *1.0 + 10.0 ** rng.uniform(-6, 6, size=41)]
        assert stationary_from_load(1e17, capacity_k)[-1] == 1.0
        rounds = 0
        for lanes in (1, 2, 5, 6, 17, 40, 41):
            # the edge loads come first, so a round of 6 loads or more holds them all
            for pool in (below, above, below[:3] + above[:3] + below[3:] + above[3:]):
                loads = rng.permutation(pool[:max(lanes, 6)])[:lanes].tolist()
                for group, new_lanes, old_lanes in (
                        (sets[:1], list(range(lanes)), [0] * lanes),
                        (sets, *[rng.integers(0, len(sets), size=lanes).tolist()] * 2)):
                    new = fixed_point._defect_kernel(group)(loads, new_lanes)
                    old = _gathered_kernel(group)(loads, old_lanes)
                    assert [np.asarray(a).tobytes() for a in new] == [a.tobytes() for a in old]
                    rounds += 1
        assert rounds == 42

    def test_mixed_round_with_a_zero_or_subnormal_load_does_not_warn(self):
        # the unused 1/rho of a mixed round divides by zero at 0 and overflows at 5e-324;
        # under the suite's warnings-as-errors the round keeps the bits of one load a call
        loads = [0.0, 5e-324, 2.0, 1e300]
        rows = fixed_point._defect_kernel([FIG5])
        defects, block, _, _ = rows(loads, [0] * len(loads))
        alone = [rows([rho], [0]) for rho in loads]
        assert np.array(defects).tobytes() == np.array([a[0][0] for a in alone]).tobytes()
        assert block.tobytes() == np.concatenate([a[1] for a in alone]).tobytes()

    @pytest.mark.parametrize("capacity_k", [1, 2, 50, 257])
    @pytest.mark.parametrize("omega", [0, 1, 3, 2 ** 1020])
    def test_one_load_defects_bit_identical_inside_a_many_load_call(self, capacity_k, omega):
        # a call of one load gives the bytes, NaN signs included, of the same load and
        # lane inside one call of all loads, on one set and on three, with no warning.
        # The edge loads are 0, 1, 1 +- 1 ulp, 4 (whose fleet C - E[Q] and so birth
        # rate are negative from K = 2 on) and 1e17, where p_K rounds to 1: there
        # 1 - p_K is 0, the birth rate is -inf, or 0 / 0 at K = C = 1, a NaN
        rng = np.random.default_rng(capacity_k * 11 + omega % 7)
        # Python floats, as ``SystemParams`` holds them
        sets = [types.SimpleNamespace(mu=mu, capacity_c=max(1, capacity_k // 2),
                                      capacity_k=capacity_k, lam=lam, gamma=gamma, omega=omega)
                for mu, lam, gamma in (10.0 ** rng.uniform(-6, 6, size=(3, 3))).tolist()]
        loads = [0.0, 1.0, float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0)), 4.0,
                 1e17, *10.0 ** rng.uniform(-6, 6, size=10)]
        assert stationary_from_load(1e17, capacity_k)[-1] == 1.0
        for group in (sets[:1], sets):
            rows = fixed_point._defect_kernel(group)
            lanes = [lane for lane in range(len(group)) for _ in loads]
            many, _, births, _ = map(np.asarray, rows(loads * len(group), lanes))
            one = [rows([rho], [lane])[0] for rho, lane in zip(loads * len(group), lanes)]
            assert np.array(one).tobytes() == many.tobytes()
            full = many[loads.index(1e17)::len(loads)]
            if capacity_k == 1:
                assert np.isnan(full).all() and np.signbit(full).all()
            else:
                assert (full == -np.inf).all() and (births[loads.index(4.0)::len(loads)] < 0).all()

    @pytest.mark.parametrize("params", [FIG5, ANALYTIC, ILL_CONDITIONED, ROUNDING_NOISE,
                                        dataclasses.replace(FIG5, omega=3)])
    def test_one_load_defects_bit_identical_to_the_guarded_rates(self, params):
        # the ODE's guarded scalar rates run the same float operations: wherever they
        # accept a vector (no fleet clamp, 1 - p_K above eps), the defect is the same
        guarded, level_sum = core._guarded_rates(params), core._level_sum(params.capacity_k)
        rows, compared = fixed_point._defect_kernel([params]), 0
        for rho in [0.0, 1.0, *np.linspace(0.01, 3.0, 300).tolist()]:
            p = stationary_from_load(rho, params.capacity_k)
            try:
                birth, death, fleet = guarded(p.item(0), p.item(-1), level_sum(p))
            except BikeShareError:
                continue
            if fleet > 0.0:
                assert rows([rho], [0])[0][0].hex() == (birth - rho * death).hex()
                compared += 1
        assert compared >= 50

    @pytest.mark.parametrize("omega", [0, 1, 2 ** 1020])
    def test_edge_loads_bit_identical_to_frozen_defect_without_warnings(self, omega):
        # loads 0, 1, either side of 1, where p_K rounds to 1 and 1e300; at
        # omega = 2**1020 the walk term overflows to inf and 0 * inf is NaN
        sets = [dataclasses.replace(params, omega=omega)
                for params in (FIG5, FIG7, dataclasses.replace(FIG5, mu=1e6, gamma=1e6))]
        loads = [0.0, 1.0, float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0)),
                 0.5, 1.7, 1e17, 1e200, 1e300]
        assert stationary_from_load(1e17, FIG5.capacity_k)[-1] == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = fixed_point._defect_kernel(sets)
            values = rows(loads * len(sets), [lane for lane in range(len(sets))
                                              for _ in loads])[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            frozen = [_frozen_defect(rho, params) for params in sets for rho in loads]
        assert [v.hex() for v in values] == [float(v).hex() for v in frozen]
        assert values[loads.index(1e300)] == -np.inf
        if omega == 2 ** 1020:
            assert math.isnan(values[len(loads) * 2])

    def test_lockstep_solves_equal_frozen_node_by_node_solves(self):
        # mixed-K, mixed-omega grids of wide draws, plus bracket failures, domain
        # errors and the sets that need the second and third acceptance steps
        rng = np.random.default_rng(2028)
        huge = [dataclasses.replace(FIG5, omega=2 ** 1020, mu=1e6, gamma=1e6, lam=lam)
                for lam in (1.0, 15.0)]
        nodes = (_grid_of_groups(rng, 60) + FIGURE_SETS + huge
                 + [ILL_CONDITIONED, ROUNDING_NOISE, dataclasses.replace(ROUNDING_NOISE,
                                                                        delta=0.45)])
        nodes = [nodes[i] for i in rng.permutation(len(nodes))]
        frozen = [_frozen_detail(params) for params in nodes]
        lockstep = [_detail(_outcome_of(outcome), params)
                    for params, outcome in zip(nodes, fixed_point._solve_many(nodes))]
        assert lockstep == frozen
        kinds = {detail[0] for detail in frozen if isinstance(detail[0], str)}
        assert {"NoBracketError", "AssumptionViolationError"} <= kinds
        assert sum(isinstance(detail[0], bytes) for detail in frozen) > len(nodes) // 2

    def test_solves_bit_identical_to_frozen_kernels(self):
        assert [_solve_outcome(params) for params in FIGURE_SETS] == [
            _frozen_outcome(params) for params in FIGURE_SETS]

    def test_figure5_solve_evaluates_the_defect_iterations_plus_one_times(self, monkeypatch):
        # both bracket ends in one call, then one load per root-finder iteration
        # but the last, then the solved point in one last call
        kernels, calls = [], []
        make_kernel = fixed_point._defect_kernel

        def counting_kernel(group):
            kernels.append(group)
            rows = make_kernel(group)

            def counted(loads, lanes):
                calls.append((list(loads), list(lanes)))
                return rows(loads, lanes)

            return counted

        monkeypatch.setattr(fixed_point, "_defect_kernel", counting_kernel)
        result = solve_fixed_point(FIG5)
        assert kernels == [[FIG5]]
        assert result.iterations == 11
        assert calls[0] == ([0.0, fixed_point.rho_upper_bound(FIG5)], [0, 0])
        assert all(len(loads) == 1 and lanes == [0] for loads, lanes in calls[1:])
        assert sum(len(loads) for loads, _ in calls[:-1]) == result.iterations + 1 == 12
        assert calls[-1] == ([result.rho], [0])

    def test_sweep_takes_one_kernel_call_per_round(self, monkeypatch):
        # 41 nodes sharing (K, omega): one kernel, each round one call for every live node
        kernels, calls = [], []
        make_kernel = fixed_point._defect_kernel

        def counting_kernel(group):
            kernels.append(len(group))
            rows = make_kernel(group)

            def counted(loads, lanes):
                calls.append(len(loads))
                return rows(loads, lanes)

            return counted

        nodes = [dataclasses.replace(FIG5, lam=float(lam)) for lam in np.linspace(10, 30, 41)]
        monkeypatch.setattr(fixed_point, "_defect_kernel", counting_kernel)
        results = fixed_point._solve_many(nodes)
        assert kernels == [41]
        iterations = [r.iterations for r in results]
        # one bracket round, one per iteration of the slowest node but its last, one result call
        assert calls[0] == 2 * 41 and calls[-1] == 41
        assert len(calls) == 1 + max(iterations) - 1 + 1
        assert sum(calls[1:-1]) == sum(n - 1 for n in iterations)

    @pytest.mark.parametrize("rho", [1e17, 1e200])
    def test_self_map_residual_is_one_at_a_full_station_load(self, rho):
        # p_K rounds to 1, so 1 - p_K is 0 and the fleet C - E[Q] is negative: the
        # unguarded birth rate is -inf, its load is clipped to 0, and the image e_0
        # lies 1 from p
        p = stationary_from_load(rho, FIG5.capacity_k)
        assert p[-1] == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self_map_residual(p, FIG5) == 1.0

    def test_lane_rates_bit_identical_to_frozen_point_rates(self):
        # Dirichlet vectors are not p(rho): ``self_map_residual`` and the probe's
        # starts read the lane rates on arbitrary fraction vectors, here on mixed
        # lanes of groups sharing (K, omega), plus the vectors e_0 and e_K
        rng = np.random.default_rng(2029)
        checked = 0
        for _ in range(100):
            k, omega = int(rng.integers(2, 301)), int(rng.integers(0, 5))
            group = [dataclasses.replace(params, capacity_k=k, omega=omega,
                                         capacity_c=min(params.capacity_c, k - 1))
                     for params in (_wide_params(rng) for _ in range(3))]
            p = np.concatenate((rng.dirichlet(np.ones(k + 1), size=60), np.eye(k + 1)[[0, -1]]))
            lanes = rng.integers(0, len(group), size=len(p))
            birth, death = fixed_point._lane_rates(group)(p, lanes)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                frozen = [_frozen_point_rates(group[lane])(y) for y, lane in zip(p, lanes)]
            for a, b, (old_a, old_b) in zip(birth, death, frozen):
                assert (a.hex(), b.hex()) == (old_a.hex(), old_b.hex())
                checked += 1
        assert checked >= 6000

    @pytest.mark.parametrize("rho", [1e17, 1e200])
    def test_full_station_load_matches_frozen_defect_without_a_warning(self, rho):
        # p_K rounds to 1, so 1 - p_K is 0: the frozen defect divides with numpy's
        # RuntimeWarning, the lane kernel gives the same infinite rate silently
        assert stationary_from_load(rho, FIG5.capacity_k)[-1] == 1.0
        with warnings.catch_warnings(record=True) as new:
            warnings.simplefilter("always")
            value = _scalar_defect(FIG5)(rho)
        with warnings.catch_warnings(record=True) as old:
            warnings.simplefilter("always")
            frozen = _frozen_defect(rho, FIG5)
        assert value == frozen == -np.inf
        assert new == [] and [w.category for w in old] == [RuntimeWarning]


def _dense_residual(p, rates, capacity_k):
    """Reference: the residual of one solved point as a gemv on its own dense generator."""
    return float(np.abs(p @ build_generator(rates, capacity_k)).max())


def _slice_lanes(capacity_k):
    """Lanes per residual slice of ``_solved_points`` at K."""
    return max(1, fixed_point._RESIDUAL_SLICE_BYTES // (8 * (capacity_k + 1) ** 2))


class TestStackedResidual:
    def test_solve_many_residuals_equal_per_node_dense_products(self):
        # mixed-K, mixed-omega groups of wide draws, shuffled into one call; each group
        # has more lanes than a residual slice holds at its K, and K = 362 and 900 take
        # one lane per slice
        rng = np.random.default_rng(2031)
        nodes = []
        for k in [*rng.integers(60, 362, size=8).tolist(), 362, 900]:
            omega, lanes = int(rng.integers(0, 6)), _slice_lanes(k)
            for _ in range(lanes + 1 + int(rng.integers(0, lanes))):
                params = _wide_params(rng)
                nodes.append(dataclasses.replace(params, capacity_k=k, omega=omega,
                                                 capacity_c=min(params.capacity_c, k - 1)))
        nodes = [nodes[i] for i in rng.permutation(len(nodes))]
        solved = {}
        for params, outcome in zip(nodes, fixed_point._solve_many(nodes)):
            # a domain error carries the point the residual was taken on
            result = getattr(outcome, "result", outcome)
            if isinstance(result, fixed_point.FixedPointResult):
                assert result.residual.hex() == _dense_residual(
                    result.p, result.rates, params.capacity_k).hex()
                solved[params.capacity_k] = solved.get(params.capacity_k, 0) + 1
        assert len(solved) == 10 and all(count > _slice_lanes(k) for k, count in solved.items())

    def test_lanes_whose_rates_fail_keep_their_error(self):
        # every third lane gets a NaN birth rate: it keeps ``build_generator``'s typed
        # error, and the other lanes' residuals come from a picked subset of the block
        # that spans four slices.  Of the others, some have a birth rate of -0.0, which
        # max(a, 0.0) keeps and np.maximum would turn into 0.0, and some a negative one
        k = 100
        group = [dataclasses.replace(FIG5, capacity_k=k, lam=float(lam))
                 for lam in np.linspace(10, 30, 4 * _slice_lanes(k))]
        rows = fixed_point._defect_kernel(group)

        def odd_births(births):
            births = np.array(births)
            births[1::6] = -0.0
            births[4::6] = -2.5
            births[::3] = NAN
            return births.tolist()

        def nan_births(loads, lanes):
            defects, block, births, deaths = rows(loads, lanes)
            return defects, block, odd_births(births), deaths

        bracket = NoBracketError("no root", lo=0.0, hi=1.0, defect_lo=1.0, defect_hi=1.0)
        found = [bracket] + [(float(rho), 7) for rho in np.linspace(0.5, 1.5, len(group) - 1)]
        points = fixed_point._solved_points(nan_births, found, k)
        assert points[0] is bracket
        lanes = list(range(1, len(group)))
        _, block, births, deaths = rows([found[lane][0] for lane in lanes], lanes)
        signed_zeros = 0
        for lane, p, a, b in zip(lanes, block, odd_births(births), deaths):
            rates = RatePair(birth=max(a, 0.0), death=b)
            try:
                residual = _dense_residual(p, rates, k)
            except ConfigError as exc:
                assert type(points[lane]) is ConfigError and str(points[lane]) == str(exc)
                continue
            assert points[lane].p.tobytes() == p.tobytes() and points[lane].rates == rates
            # RatePair equality cannot tell -0.0 from 0.0; the bits can
            assert points[lane].rates.birth.hex() == rates.birth.hex()
            signed_zeros += rates.birth.hex() == "-0x0.0p+0"
            assert points[lane].residual.hex() == residual.hex()
            assert (points[lane].rho, points[lane].iterations) == found[lane]
        assert sum(isinstance(point, ConfigError) for point in points) == (len(lanes) + 2) // 3
        assert signed_zeros == (len(lanes) + 4) // 6

    def test_residual_memory_is_one_generator_at_large_capacity(self):
        # one dense generator at K = 2000 is 32 MB; the kernel holds a few (lanes, K+1)
        # blocks at once, and two generators at once would be 64 MB
        nodes = [dataclasses.replace(FIG5, capacity_k=2000, lam=float(lam))
                 for lam in np.linspace(10, 30, 8)]
        fixed_point._solve_many(nodes[:1])
        tracemalloc.start()
        try:
            results = fixed_point._solve_many(nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(isinstance(result, fixed_point.FixedPointResult) for result in results)
        generator, block = 8 * 2001 ** 2, 8 * len(nodes) * 2001
        assert generator < peak < generator + 4 * block


class TestOdeTerminalCheck:
    def test_keeps_the_last_block_of_the_run_only(self):
        # figure 5 integrates 21,141 steps of t and 51 fractions, 8.8 MB of rows; the
        # check reads the terminal row from the last block of 512 rows (0.2 MB)
        result = solve_fixed_point(FIG5)
        run = integrate(OdeConfig(initial=dynamics._all_at_c(FIG5), t_end=5000.0,
                                  stationarity_tol=1e-11), FIG5)
        tracemalloc.start()
        try:
            check = check_ode_terminal(FIG5, result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gap = float(np.max(np.abs(run.terminal - result.p)))
        assert check.passed and check.detail == (
            f"terminal gap {gap:.2e} at t={run.times[-1]:.4g} (tol 1e-06)")
        assert peak < 2 * 2 ** 20


def _scipy_root(f, lo, hi, maxiter=100):
    root, info = scipy_optimize.brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16,
                                       maxiter=maxiter, full_output=True)
    return root.hex(), info.iterations


def _lockstep_roots(params, brackets, maxiter=200):
    """``_brent_steps`` on each bracket of ``params`` in lockstep: per bracket its
    (root, iterations) or error, and the defect at every load the lanes evaluated."""
    rows = fixed_point._defect_kernel([params] * len(brackets))
    ends = [x for bracket in brackets for x in bracket]
    values = rows(ends, [lane for lane in range(len(brackets)) for _ in (0, 1)])[0]
    seen = dict(zip(ends, values))

    def recording(loads, lanes):
        block = rows(loads, lanes)
        seen.update(zip(loads, block[0]))
        return block

    steppers = [fixed_point._brent_steps(lo, hi, values[2 * i], values[2 * i + 1], maxiter)
                for i, (lo, hi) in enumerate(brackets)]
    return fixed_point._lockstep(steppers, recording), seen


def _port_brent(f, lo, hi, maxiter=100):
    # the package's callers evaluate both ends for their own bracket test
    return _brent_root(f, lo, hi, f(lo), f(hi), maxiter)


def _port_root(f, lo, hi, maxiter=100):
    root, iterations = _port_brent(f, lo, hi, maxiter)
    return root.hex(), iterations


def _port_lines_run(f, lo, hi):
    """Source lines of ``_brent_steps`` executed while it solves f on [lo, hi]."""
    code = fixed_point._brent_steps.__code__
    source, first = inspect.getsourcelines(fixed_point._brent_steps)
    hit = set()

    def tracer(frame, event, arg):
        if frame.f_code is code:
            hit.add(frame.f_lineno)
            return tracer
        return None

    sys.settrace(tracer)
    try:
        _port_brent(f, lo, hi)
    finally:
        sys.settrace(None)
    return {source[n - first].strip() for n in hit}


class TestBrentRoot:
    """The in-package root finder against scipy's ``brentq`` as the oracle."""

    def test_matches_scipy_on_defect_brackets(self):
        # criterion-5 sets, then wide draws: the whole bracket
        # [0, rho_upper_bound], then, in lockstep, three random sub-brackets
        # around its root and one random sub-bracket that may hold no root
        rng = np.random.default_rng(2027)
        criterion_5 = random_valid_parameter_sets(1000, seed=2027)
        solved = refused = 0

        def compare(params, brackets):
            # scipy calls the lanes' recorded values, and the kernel at any other load
            nonlocal solved, refused
            outcomes, seen = _lockstep_roots(params, brackets)
            scalar = _scalar_defect(params)
            roots = []
            for (lo, hi), outcome in zip(brackets, outcomes):
                try:
                    expected = _scipy_root(lambda x: seen[x] if x in seen else scalar(x),
                                           lo, hi, 200)
                except ValueError:
                    assert isinstance(outcome, NoBracketError)
                    refused += 1
                    roots.append(None)
                    continue
                assert (outcome[0].hex(), outcome[1]) == expected, (params, lo, hi)
                solved += 1
                roots.append(outcome[0])
            return roots

        for n in itertools.count():
            if solved >= 10_000:
                break
            params = criterion_5[n] if n < len(criterion_5) else _wide_params(rng)
            top = fixed_point.rho_upper_bound(params)
            (root,) = compare(params, [(0.0, top)])
            if root is None:
                continue
            compare(params, [(rng.uniform(0.0, root), rng.uniform(root, top)) for _ in range(3)]
                    + [tuple(sorted(rng.uniform(0.0, top, 2)))])
        assert refused > 0

    @pytest.mark.parametrize("lo,hi", [(1.0, 3.0), (-1.0, 1.0)], ids=["lo", "hi"])
    def test_exact_zero_at_an_end(self, lo, hi):
        # scipy returns before its iteration counter is set, so only the
        # root is compared; the port reports 0 iterations
        assert _port_root(lambda x: x - 1.0, lo, hi) == ((1.0).hex(), 0)
        assert _scipy_root(lambda x: x - 1.0, lo, hi)[0] == (1.0).hex()

    @pytest.mark.parametrize("f,lo,hi,root,iterations", [
        pytest.param(lambda x: x, -1.0, 3.0, 0.0, 2, id="secant"),
        pytest.param(lambda x: x - 1.0, 0.0, 2.0, 1.0, 2, id="bisection"),
    ])
    def test_exact_zero_inside(self, f, lo, hi, root, iterations):
        assert _port_root(f, lo, hi) == _scipy_root(f, lo, hi) == (root.hex(), iterations)

    def test_extrapolation_branch(self):
        def f(x):
            return x ** 3 - 0.3

        assert "dpre = (fpre - fcur) / (xpre - xcur)" in _port_lines_run(f, 0.0, 1.0)
        assert _port_root(f, 0.0, 1.0) == _scipy_root(f, 0.0, 1.0)

    def test_division_by_zero_bisects_like_c(self):
        # the extrapolation denominator underflows to 0.0: C gets a
        # non-finite trial step and bisects
        def f(x):
            return 1e-200 * (x ** 3 - 0.3)

        assert "stry = math.inf" in _port_lines_run(f, 0.0, 1.0)
        assert _port_root(f, 0.0, 1.0) == _scipy_root(f, 0.0, 1.0)

    def test_nonconvergence(self):
        def f(x):
            return x ** 3 - 0.3

        assert _port_root(f, 0.0, 1.0, maxiter=9) == _scipy_root(f, 0.0, 1.0, maxiter=9)
        with pytest.raises(RuntimeError):
            _scipy_root(f, 0.0, 1.0, maxiter=8)
        with pytest.raises(InvariantViolationError, match="after 8 iterations"):
            _port_root(f, 0.0, 1.0, maxiter=8)

    def test_refusals(self):
        with pytest.raises(ValueError, match="different signs"):
            _scipy_root(lambda x: x + 1.0, 0.0, 1.0)
        with pytest.raises(NoBracketError):
            _port_root(lambda x: x + 1.0, 0.0, 1.0)

        def nan_inside(x):
            return math.nan if 0.0 < x < 1.0 else x - 0.5

        with pytest.raises(ValueError, match="NaN"):
            _scipy_root(nan_inside, 0.0, 1.0)
        with pytest.raises(InvariantViolationError, match="NaN"):
            _port_root(nan_inside, 0.0, 1.0)


class TestBirthDeathStationary:
    def test_equal_rates_uniform(self):
        p = birth_death_stationary(RatePair(3.0, 3.0), 4)
        assert np.array_equal(p, np.full(5, 0.2))

    def test_rho_half(self):
        p = birth_death_stationary(RatePair(1.0, 2.0), 2)
        assert np.max(np.abs(p - np.array([4 / 7, 2 / 7, 1 / 7]))) < 1e-15

    def test_rho_two(self):
        p = birth_death_stationary(RatePair(2.0, 1.0), 1)
        assert np.max(np.abs(p - np.array([1 / 3, 2 / 3]))) < 1e-15

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = 10.0 ** rng.uniform(-3, 3, size=2)
            p = birth_death_stationary(RatePair(a, b), int(rng.integers(1, 101)))
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0.0)

    def test_is_generator_null_vector(self):
        rates = RatePair(1.7, 0.9)
        p = birth_death_stationary(rates, 6)
        gen = build_generator(rates, 6)
        assert np.max(np.abs(p @ gen)) < 1e-14

    def test_monotone_shape(self):
        low = birth_death_stationary(RatePair(1.0, 3.0), 8)
        assert np.all(np.diff(low) < 0.0)
        high = birth_death_stationary(RatePair(3.0, 1.0), 8)
        assert np.all(np.diff(high) > 0.0)


class TestGeometricRoots:
    """The root pair (r, g), r * g = 1, read off ``geometric_form``'s vector:
    r is the ratio of successive entries for birth < death, g its inverse
    for birth > death."""

    def test_example(self):
        p = geometric_form(RatePair(1.0, 2.0), 4)
        assert np.allclose(p[1:] / p[:-1], 0.5, rtol=1e-15, atol=0.0)
        q = geometric_form(RatePair(2.0, 1.0), 4)
        assert np.allclose(q[:-1] / q[1:], 0.5, rtol=1e-15, atol=0.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateCaseError):
            geometric_form(RatePair(2.0, 2.0), 4)

    @given(a=st.floats(1e-3, 1e3), b=st.floats(1e-3, 1e3))
    @settings(max_examples=1000, deadline=None)
    def test_product_is_one(self, a, b):
        # whichever root carries the weight, successive entries grow by r = a/b
        # and shrink by g = b/a = 1/r; the root's (a + b - |a - b|) / 2 loses
        # about eps * (a + b) / min(a, b) to cancellation
        if abs(a - b) < 1e-12 * (a + b):
            return
        p = geometric_form(RatePair(a, b), 3)
        rel = 1e-12 * (a + b) / min(a, b)
        assert p[1] / p[0] == pytest.approx(a / b, rel=rel)
        assert p[2] / p[3] == pytest.approx(b / a, rel=rel)

    def test_quadratics_satisfied(self):
        a, b = 0.8, 2.3
        p = geometric_form(RatePair(a, b), 5)
        r = p[1] / p[0]
        assert a - (a + b) * r + b * r ** 2 == pytest.approx(0.0, abs=1e-12)
        q = geometric_form(RatePair(b, a), 5)
        g = q[-2] / q[-1]
        assert b * g ** 2 - (a + b) * g + a == pytest.approx(0.0, abs=1e-12)


def _frozen_geometric_form(rates, capacity_k):
    """Reference: ``geometric_form`` with its root pair and both weights
    computed separately, summing both weighted sequences."""
    a, b = float(rates[0]), float(rates[1])
    minimal = (a + b - abs(a - b)) / 2.0
    if a < b:
        r = minimal / b
        g = 1.0 / r
    else:
        g = minimal / a
        r = 1.0 / g
    k = np.arange(capacity_k + 1, dtype=float)
    if r < 1.0:
        c1, c2 = 1.0 / float(np.sum(r ** k)), 0.0
    else:
        c1, c2 = 0.0, 1.0 / float(np.sum(g ** (capacity_k - k)))
    p = np.zeros(capacity_k + 1)
    if c1 != 0.0:
        p += c1 * r ** k
    if c2 != 0.0:
        p += c2 * g ** (capacity_k - k)
    return p


class TestGeometricForm:
    def test_matches_frozen_two_sequence_sum(self):
        # the rate pairs check_geometric_form draws, plus its solved pair
        rng = np.random.default_rng(7)
        result = solve_fixed_point(FIG5)
        pairs = [(result.rates.birth, result.rates.death, FIG5.capacity_k)]
        for _ in range(200):
            a, b = 10.0 ** rng.uniform(-2, 2, size=2)
            if abs(a - b) < 1e-9 * (a + b):
                continue
            pairs.append((a, b, int(rng.integers(1, 60))))
        for a, b, k in pairs:
            rates = RatePair(float(a), float(b))
            p = geometric_form(rates, k)
            assert np.array_equal(p, _frozen_geometric_form(rates, k))

    def test_matches_closed_form_example(self):
        p = geometric_form(RatePair(1.0, 2.0), 2)
        assert np.max(np.abs(p - np.array([4 / 7, 2 / 7, 1 / 7]))) < 1e-15

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = 10.0 ** rng.uniform(-2, 2, size=2)
            if abs(a - b) < 1e-9 * (a + b):
                continue
            p = geometric_form(RatePair(a, b), int(rng.integers(1, 101)))
            assert abs(p.sum() - 1.0) < 1e-12

    def test_equivalent_to_birth_death_stationary(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            a, b = 10.0 ** rng.uniform(-3, 3, size=2)
            if abs(a - b) < 1e-9 * (a + b):
                continue
            k = int(rng.integers(1, 101))
            gap = np.max(np.abs(geometric_form(RatePair(a, b), k)
                                - birth_death_stationary(RatePair(a, b), k)))
            assert gap < 1e-12

    def test_boundary_balance(self):
        # level 0 balances: -p0 a + p1 b = 0 (and so does level K)
        rng = np.random.default_rng(6)
        for _ in range(200):
            a, b = 10.0 ** rng.uniform(-1.5, 1.5, size=2)
            if abs(a - b) < 1e-9 * (a + b):
                continue
            p = geometric_form(RatePair(a, b), int(rng.integers(2, 40)))
            assert abs(-p[0] * a + p[1] * b) < 1e-12 * max(a, b)
            assert abs(p[-2] * a - p[-1] * b) < 1e-12 * max(a, b)

    def test_degenerate(self):
        with pytest.raises(DegenerateCaseError):
            geometric_form(RatePair(1.0, 1.0), 3)


NAN = float("nan")


class TestConstantRateKernels:
    @pytest.mark.parametrize("call", [
        pytest.param(lambda: stationary_from_load(NAN, 4), id="load-nan"),
        pytest.param(lambda: stationary_from_load(10 ** 400, 3), id="load-huge-int"),
        pytest.param(lambda: birth_death_stationary(RatePair(NAN, 1.0), 3), id="stationary-nan"),
        pytest.param(lambda: birth_death_stationary(RatePair(1.0, NAN), 3),
                     id="stationary-death-nan"),
        pytest.param(lambda: geometric_form(RatePair(NAN, 1.0), 3), id="geometric-nan"),
        pytest.param(lambda: geometric_form(RatePair(1.0, NAN), 3), id="geometric-death-nan"),
        pytest.param(lambda: build_generator(RatePair(NAN, 1.0), 2), id="generator-nan"),
        pytest.param(lambda: build_generator(RatePair(1.0, NAN), 2), id="generator-death-nan"),
        pytest.param(lambda: stationary_from_load(0.5, 2.5), id="load-K=2.5"),
        pytest.param(lambda: stationary_from_load(0.5, True), id="load-K=True"),
        pytest.param(lambda: stationary_from_load(0.5, "3"), id="load-K=str"),
        pytest.param(lambda: geometric_form(RatePair(1.0, 2.0), 2.5), id="geometric-K=2.5"),
        pytest.param(lambda: geometric_form(RatePair(1.0, 2.0), True), id="geometric-K=True"),
        pytest.param(lambda: build_generator(RatePair(1.0, 2.0), 2.5), id="generator-K=2.5"),
        pytest.param(lambda: build_generator(RatePair(1.0, 2.0), True), id="generator-K=True"),
    ])
    def test_rejected(self, call):
        with pytest.raises(ConfigError):
            call()

    def test_integral_capacity_accepted(self):
        assert np.array_equal(stationary_from_load(0.5, 2.0), stationary_from_load(0.5, 2))
        assert np.array_equal(build_generator(RatePair(1.0, 2.0), np.int64(2)),
                              build_generator(RatePair(1.0, 2.0), 2))


class TestStationaryFromLoad:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rho = 10.0 ** rng.uniform(-3, 3)
            k = int(rng.integers(1, 101))
            p = stationary_from_load(rho, k)
            q = geometric_form(RatePair(rho, 1.0), k)
            assert np.max(np.abs(p - q)) < 1e-12

    def test_extreme_loads(self):
        assert np.array_equal(stationary_from_load(0.0, 3), [1.0, 0, 0, 0])
        p = stationary_from_load(1e12, 3)
        assert p[-1] == pytest.approx(1.0, rel=1e-11)

    def test_smooth_through_one(self):
        below = stationary_from_load(1.0 - 1e-12, 4)
        above = stationary_from_load(1.0 + 1e-12, 4)
        assert np.max(np.abs(below - above)) < 1e-11


class TestSolveFixedPoint:
    def test_analytic_case(self):
        result = solve_fixed_point(ANALYTIC)
        assert np.max(np.abs(result.p - np.array([4 / 7, 2 / 7, 1 / 7]))) < 1e-10
        assert result.rho == pytest.approx(0.5, abs=1e-10)
        assert result.residual < 1e-10

    def test_uniform_case(self):
        params = SystemParams(lam=5.0, mu=4.0, gamma=1.0, omega=0, capacity_c=3,
                              capacity_k=4, n_stations=100, delta=0.2)
        result = solve_fixed_point(params)
        assert np.max(np.abs(result.p - 0.2)) < 1e-10
        assert result.rho == pytest.approx(1.0, abs=1e-10)

    def test_gamma_irrelevant_at_omega_zero(self):
        base = dict(lam=1.0, mu=1.0, omega=0, capacity_c=1, capacity_k=2,
                    n_stations=100, delta=0.2)
        p1 = solve_fixed_point(SystemParams(gamma=0.1, **base)).p
        p2 = solve_fixed_point(SystemParams(gamma=1.0, **base)).p
        assert np.array_equal(p1, p2)

    def test_p0_increases_with_lambda_fig5(self):
        import dataclasses

        p0s = []
        for lam in np.linspace(10.0, 30.0, 9):
            params = dataclasses.replace(FIG5, lam=float(lam))
            p0s.append(solve_fixed_point(params).p[0])
        assert all(np.diff(p0s) > 0.0)

    def test_result_matches_sta3_given_rho(self):
        for params in (FIG5, FIG7):
            result = solve_fixed_point(params)
            closed = stationary_from_load(result.rho, params.capacity_k)
            assert np.max(np.abs(result.p - closed)) < 1e-12

    def test_solved_vector_is_monotone_geometric(self):
        heavy = solve_fixed_point(FIG5)  # load above one: mass piles up
        assert heavy.rho > 1.0
        assert np.all(np.diff(heavy.p) > 0.0)
        light = solve_fixed_point(SystemParams(
            lam=1.0, mu=1.0, gamma=0.5, omega=0, capacity_c=1,
            capacity_k=2, n_stations=100, delta=0.2,
        ))
        assert light.rho < 1.0
        assert np.all(np.diff(light.p) < 0.0)

    def test_triple_characterization(self):
        result = solve_fixed_point(FIG5)
        rates = limiting_rates(result.p, FIG5)
        gen = build_generator(rates, FIG5.capacity_k)
        assert np.max(np.abs(result.p @ gen)) < 1e-10
        assert self_map_residual(result.p, FIG5) < 1e-10
        assert np.max(np.abs(nonlinear_residual(result.p, FIG5))) < 1e-10

    def test_assumption_violation_reported(self):
        # tiny delta margin forces the solved point outside the bound
        params = SystemParams(lam=1.0, mu=1.0, gamma=0.5, omega=0, capacity_c=1,
                              capacity_k=2, n_stations=100, delta=0.6)
        with pytest.raises(AssumptionViolationError) as err:
            solve_fixed_point(params)
        assert err.value.result is not None
        assert err.value.result.p[0] > 1 - params.delta

    def test_large_rates_pass_the_relative_gate(self):
        # absolute residual about 1.4e-10, relative to birth + death 1.6e-14
        params = SystemParams(lam=4319.006245057224, mu=55679.60041732922,
                              gamma=28290.903457530305, omega=0, capacity_c=192,
                              capacity_k=460, n_stations=1000, delta=0.05)
        result = solve_fixed_point(params)
        assert result.residual > 1e-10
        assert result.residual < 1e-10 * (result.rates.birth + result.rates.death)

    @pytest.mark.parametrize("params", [FIG5, FIG7])
    def test_time_rescaling_keeps_p(self, params):
        import dataclasses

        reference = solve_fixed_point(params).p
        for s in (1.0, 1e3, 1e5):
            scaled = dataclasses.replace(params, lam=params.lam * s, mu=params.mu * s,
                                         gamma=params.gamma * s)
            assert np.max(np.abs(solve_fixed_point(scaled).p - reference)) <= 1e-12

    def test_time_rescaling_by_powers_of_two_is_exact(self):
        # scaling every rate by 2**k scales the defect exactly, so the root
        # finder takes the same steps and every verdict is the same
        rng = np.random.default_rng(3)
        for params in [_wide_params(rng) for _ in range(40)] + [FIG5, ILL_CONDITIONED]:
            reference = _solve_outcome(params)
            for k in range(-10, 11):
                s = 2.0 ** k
                scaled = dataclasses.replace(params, lam=params.lam * s,
                                             mu=params.mu * s, gamma=params.gamma * s)
                outcome = _solve_outcome(scaled)
                if isinstance(reference[0], str):
                    assert outcome[0] == reference[0]
                else:
                    assert outcome[:2] == reference[:2] and outcome[4] == reference[4]

    @pytest.mark.parametrize("s", [1.0, 1e3, 1e5])
    def test_characterization_check_is_scale_free(self, s):
        import dataclasses

        scaled = dataclasses.replace(FIG5, lam=FIG5.lam * s, mu=FIG5.mu * s,
                                     gamma=FIG5.gamma * s)
        check = check_fixed_point_characterizations(scaled, solve_fixed_point(scaled))
        assert check.passed, check.detail


class TestRootCertificate:
    def test_ill_conditioned_set_solves_by_sign(self):
        result = solve_fixed_point(ILL_CONDITIONED)
        scale = result.rates.birth + result.rates.death
        assert result.residual > 50 * fixed_point.RESIDUAL_TOL * scale
        assert result.rho == pytest.approx(1.00506, abs=1e-5)
        assert fixed_point._sign_certified(fixed_point._defect_kernel([ILL_CONDITIONED]), 0,
                                           result.rho)

    def test_wide_draws_never_raise_invariant_violation(self):
        # rates 1e-6 to 1e6, K 2 to 500: every draw solves or raises a domain error
        rng = np.random.default_rng(0)
        outcomes = [_solve_outcome(_wide_params(rng))[0] for _ in range(500)]
        assert "InvariantViolationError" not in outcomes

    def test_certifies_solved_roots_and_no_moved_load(self):
        rng = np.random.default_rng(1)
        solved = 0
        for _ in range(300):
            params = _wide_params(rng)
            try:
                rho = solve_fixed_point(params).rho
            except BikeShareError:
                continue
            solved += 1
            rows = fixed_point._defect_kernel([params])
            assert fixed_point._sign_certified(rows, 0, rho)
            for shift in (1e-6, -1e-6, 1e-9, -1e-9, 1e-12):
                assert not fixed_point._sign_certified(rows, 0, rho * (1.0 + shift))
        assert solved > 100

    @pytest.mark.parametrize("delta", [0.8125, 0.45])
    def test_rounding_noise_root_is_within_its_bound(self, delta):
        params = dataclasses.replace(ROUNDING_NOISE, delta=delta)
        rows = fixed_point._defect_kernel([params])
        if delta == 0.45:
            result = solve_fixed_point(params)
        else:
            with pytest.raises(AssumptionViolationError) as err:
                solve_fixed_point(params)
            result = err.value.result
            assert result.p[-1] > 1.0 - delta
        scale = result.rates.birth + result.rates.death
        assert result.rho == pytest.approx(1.99999034, rel=1e-8)
        assert result.residual > fixed_point.RESIDUAL_TOL * scale
        assert not fixed_point._sign_certified(rows, 0, result.rho)
        assert result.residual <= fixed_point._rounding_bound(result, params) < 4e-9

    def test_rounding_bound_is_below_the_gate_on_the_figure_sets(self):
        # the third step can only accept where the first two might fail for rounding
        for params in FIGURE_SETS:
            result = solve_fixed_point(params)
            scale = result.rates.birth + result.rates.death
            assert fixed_point._rounding_bound(result, params) < fixed_point.RESIDUAL_TOL * scale

    @pytest.mark.parametrize("params", [
        FIG5, ILL_CONDITIONED, ROUNDING_NOISE,
    ], ids=["fig5", "ill", "rounding-noise"])
    @pytest.mark.parametrize("shift", [1e-6, -1e-6, 1e-9, -1e-9])
    def test_moved_root_raises(self, monkeypatch, params, shift):
        brent = fixed_point._brent_steps

        def moved(*args, **kwargs):
            root, iterations = yield from brent(*args, **kwargs)
            return root * (1.0 + shift), iterations

        monkeypatch.setattr(fixed_point, "_brent_steps", moved)
        with pytest.raises(InvariantViolationError):
            solve_fixed_point(params)


class TestNonlinearResidual:
    def test_zero_at_uniform_fixed_point(self):
        params = SystemParams(lam=5.0, mu=4.0, gamma=1.0, omega=0, capacity_c=3,
                              capacity_k=4, n_stations=100, delta=0.2)
        res = nonlinear_residual(np.full(5, 0.2), params)
        assert np.max(np.abs(res)) < 1e-12

    def test_degenerate_empty_state_zeroes_first_component(self):
        # both products of the level-0 equation carry a zero factor at
        # p = (1, 0, ..., 0); the assumed domain excludes this point
        params = SystemParams(lam=1.0, mu=2.0, gamma=0.5, omega=1, capacity_c=2,
                              capacity_k=3, n_stations=100, delta=0.1)
        p = np.array([1.0, 0.0, 0.0, 0.0])
        res = nonlinear_residual(p, params)
        assert res[0] == 0.0
        assert p[0] > 1 - params.delta

    def test_scales_with_perturbation(self):
        result = solve_fixed_point(FIG5)
        res_at_fp = np.max(np.abs(nonlinear_residual(result.p, FIG5)))
        nudged = result.p.copy()
        nudged[0] += 1e-4
        nudged[1] -= 1e-4
        res_nudged = np.max(np.abs(nonlinear_residual(nudged, FIG5)))
        assert res_nudged > 100 * max(res_at_fp, 1e-15)


def _with_defect(make_kernel, defect):
    """``make_kernel`` with its defect replaced by the elementwise function ``defect``
    of the loads; the vectors and rates stay the kernel's own."""
    def kernel(group):
        rows = make_kernel(group)

        def replaced(loads, lanes):
            _, p, birth, death = rows(loads, lanes)
            return defect(np.array(loads, dtype=float)).tolist(), p, birth, death

        return replaced

    return kernel


def _one_call_root_count_detail(params):
    """Reference: the root-count scan's detail with all 2,001 loads in one kernel call,
    one lane per load."""
    grid = np.linspace(0.0, fixed_point.rho_upper_bound(params), 2001)
    signs = np.sign(fixed_point._defect_kernel([params] * grid.size)(grid, range(grid.size))[0])
    signs = signs[signs != 0]
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    return (f"defect sign changes {changes} on {grid.size} loads "
            f"in [0, {grid[-1]:.6g}] (want exactly 1)")


def _start_loads(params, n_starts, seed=0):
    """The load of each Dirichlet start of ``uniqueness_probe``."""
    starts = np.random.default_rng(seed).dirichlet(np.ones(params.capacity_k + 1),
                                                   size=n_starts)
    birth, death = fixed_point._lane_rates([params])(starts, [0] * n_starts)
    return (np.maximum(birth, 0.0) / death).tolist()


def _probe_lane_per_start(params, n_starts, seed=0, max_iterations=60):
    """Reference: ``uniqueness_probe`` with one refinement lane and one solved point per
    start, on ``_defect_kernel([params] * n_starts)``, and the distinctness check over
    every result."""
    rows = fixed_point._defect_kernel([params] * n_starts)
    found = fixed_point._lockstep(
        [fixed_point._refine_locally(rho0, max_iterations)
         for rho0 in _start_loads(params, n_starts, seed)], rows)
    results = fixed_point._solved_points(rows, found, params.capacity_k)
    for outcome in results:
        if isinstance(outcome, BikeShareError):
            raise outcome
    distinct = [results[0]]
    for res in results[1:]:
        if all(float(np.max(np.abs(res.p - d.p))) > 1e-8 for d in distinct):
            distinct.append(res)
    if len(distinct) > 1:
        raise MultipleFixedPointsError(f"{len(distinct)} distinct fixed points", results=distinct)
    return results


def _result_bits(result):
    """Every field of a ``FixedPointResult`` as bytes and ints, so -0.0 and 0.0 differ."""
    return (result.p.tobytes(), result.p.shape,
            np.array([result.rho, *result.rates, result.residual]).tobytes(),
            type(result.rates), result.iterations)


class TestUniquenessProbe:
    def test_single_start(self):
        results = uniqueness_probe(FIG5, 1, seed=3)
        assert len(results) == 1
        reference = solve_fixed_point(FIG5)
        assert np.max(np.abs(results[0].p - reference.p)) < 1e-8

    def test_twenty_starts_agree(self):
        results = uniqueness_probe(FIG5, 20, seed=5)
        reference = solve_fixed_point(FIG5).p
        for res in results:
            assert np.max(np.abs(res.p - reference)) < 1e-8

    def test_refinement_lands_on_the_root_from_loads_across_the_bracket(self):
        # criterion 5's Dirichlet starts reach few basins: at seed 1, 540 of its
        # 1,000 starts park more than C bikes and so have load 0, and only 496
        # loads are distinct.  Here each of its 50 sets refines 20 distinct loads
        # that span the bracket, 0 and 19 log-spaced over [1e-6, 1] * rho_upper_bound,
        # through the probe's own refinement in lockstep on one kernel
        worst = 0.0
        for params in random_valid_parameter_sets(50):
            loads = [0.0, *(fixed_point.rho_upper_bound(params) * np.logspace(-6, 0, 19))]
            assert len(set(loads)) == 20
            rows = fixed_point._defect_kernel([params] * len(loads))
            found = fixed_point._lockstep(
                [fixed_point._refine_locally(rho0, 60) for rho0 in loads], rows)
            points = fixed_point._solved_points(rows, found, params.capacity_k)
            reference = solve_fixed_point(params).p
            for point in points:
                assert not isinstance(point, BikeShareError), point
                worst = max(worst, float(np.max(np.abs(point.p - reference))))
        assert worst < 1e-8

    def test_fig7_parameters(self):
        results = uniqueness_probe(FIG7, 5, seed=9)
        reference = solve_fixed_point(FIG7).p
        for res in results:
            assert np.max(np.abs(res.p - reference)) < 1e-8

    def test_rejects_a_capacity_whose_residual_cannot_be_allocated(self):
        # refused before the starts are drawn, so nothing of size K + 1 is allocated
        for capacity_k in (10 ** 13, 2 ** 62, 10 ** 400):
            params = dataclasses.replace(FIG5, capacity_k=capacity_k)
            with pytest.raises(ConfigError, match="too large to solve"):
                uniqueness_probe(params, 20)

    def test_rejects_zero_starts(self):
        with pytest.raises(ConfigError):
            uniqueness_probe(FIG5, 0)

    @pytest.mark.parametrize("n_starts,name", [(10 ** 13, "n_starts=10000000000000"),
                                               (2 ** 199 + 1, "a 200-bit n_starts")],
                             ids=["10**13", "200-bit"])
    def test_refuses_a_start_count_it_cannot_hold(self, monkeypatch, n_starts, name):
        # numpy raised MemoryError for the Dirichlet block; the refusal comes first
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ConfigError, match=rf"^{name} is too large to probe: each start "
                                              r"needs 40 \(K\+1\) \+ 2560 bytes"):
            uniqueness_probe(FIG5, n_starts)

    def test_start_refusal_follows_the_byte_limit(self, monkeypatch):
        # room for 8 starts at K = 50 (and for the 21 kB dense residual generator)
        start_bytes = 40 * (FIG5.capacity_k + 1) + 2560
        monkeypatch.setattr(core, "_array_byte_limit", lambda: 8 * start_bytes)
        assert len(uniqueness_probe(FIG5, 8)) == 8
        with pytest.raises(ConfigError, match=r"^n_starts=9 is too large to probe"):
            uniqueness_probe(FIG5, 9)

    @pytest.mark.parametrize("params,max_iterations", [
        (FIG5, 60),
        # every lane goes on to the bracketed fallback: two generator frames a lane
        (dataclasses.replace(FIG5, capacity_k=10, capacity_c=9, omega=5), 1),
    ])
    def test_peak_is_within_the_sized_bytes(self, params, max_iterations):
        n_starts = 2000
        tracemalloc.start()
        try:
            results = uniqueness_probe(params, n_starts, seed=1, max_iterations=max_iterations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == n_starts
        assert peak <= n_starts * (40 * (params.capacity_k + 1) + 2560)

    def test_max_iterations_must_be_nonnegative(self):
        # -4 used to run as 0 does; 0 goes straight to the bracketed fallback
        with pytest.raises(ConfigError, match=r"^max_iterations must be nonnegative, got -4$"):
            uniqueness_probe(FIG5, 3, max_iterations=-4)
        results = uniqueness_probe(FIG5, 3, max_iterations=0)
        reference = _probe_lane_per_start(FIG5, 3, max_iterations=0)
        assert [_result_bits(r) for r in results] == [_result_bits(r) for r in reference]

    @pytest.mark.parametrize("seed", [-1, 1.5, "a", True, 2 ** 64])
    def test_seed_read_as_simulate_reads_it(self, seed):
        # numpy raised its own ValueError or TypeError for the first three and ran True as 1
        with pytest.raises(ConfigError, match=r"^seed must be an integer"):
            uniqueness_probe(FIG5, 2, seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, 2.0, np.uint64(2 ** 64 - 1), 2 ** 64 - 1])
    def test_valid_seeds_keep_their_results(self, seed):
        results = uniqueness_probe(FIG5, 3, seed=seed)
        reference = _probe_lane_per_start(FIG5, 3, seed=int(seed))
        assert [_result_bits(r) for r in results] == [_result_bits(r) for r in reference]

    @pytest.mark.parametrize("keys", [
        {"n_starts": 2.5}, {"n_starts": True}, {"n_starts": "3"},
        {"n_starts": 2, "max_iterations": 2.5}, {"n_starts": 2, "max_iterations": True},
    ])
    def test_counts_must_be_integers(self, keys):
        with pytest.raises(ConfigError):
            uniqueness_probe(FIG5, **keys)

    def test_iterations_count_the_defect_evaluations_of_each_start(self, monkeypatch):
        # 500 starts on 100 criterion-5 sets; about half reach the bracketed
        # fallback, where Brent's last iteration evaluates nothing.  The probe
        # builds one kernel of its one set.  Starts with the same load bits share
        # one lane, in order of their first start; the kernel's last call gives
        # the first lane of each distinct root its solved point, and every start
        # counts its lane's evaluations
        sets = random_valid_parameter_sets(100, seed=5)
        calls, sizes = [], []
        make_kernel = fixed_point._defect_kernel

        def counting_kernel(group):
            sizes.append(len(group))
            rows = make_kernel(group)

            def counted(loads, lanes):
                calls.append(list(lanes))
                return rows(loads, lanes)

            return counted

        monkeypatch.setattr(fixed_point, "_defect_kernel", counting_kernel)
        shared = 0
        for params in sets:
            calls.clear()
            sizes.clear()
            results = uniqueness_probe(params, 5)
            lane_of = {}
            lanes = [lane_of.setdefault(np.float64(rho0).tobytes(), len(lane_of))
                     for rho0 in _start_loads(params, 5)]
            shared += 5 - len(lane_of)
            assert sizes == [1]
            first_at_root = {}
            for lane, res in sorted(zip(lanes, results), key=lambda pair: pair[0]):
                first_at_root.setdefault(np.float64(res.rho).tobytes(), lane)
            assert calls[-1] == sorted(first_at_root.values())
            assert all(call == sorted(call) for call in calls)
            counts = [sum(call.count(lane) for call in calls[:-1]) for lane in range(len(lane_of))]
            assert [r.iterations for r in results] == [counts[lane] for lane in lanes]
        assert shared > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_a_lane_per_start_bit_for_bit(self, seed):
        # the 50 criterion-5 sets; many starts share a load (0 for every start
        # that parks more than C bikes), and no two results share memory
        for params in random_valid_parameter_sets(50):
            results = uniqueness_probe(params, 20, seed=seed)
            reference = _probe_lane_per_start(params, 20, seed=seed)
            assert [_result_bits(r) for r in results] == [_result_bits(r) for r in reference]
            for x, y in itertools.combinations(results, 2):
                assert not np.shares_memory(x.p, y.p)

    def test_reports_every_root_of_a_cubic_defect(self, monkeypatch):
        # a defect with three roots stands in for a system with three fixed
        # points; the random starts must land in all three basins
        monkeypatch.setattr(fixed_point, "_defect_kernel", _with_defect(
            fixed_point._defect_kernel, lambda rho: -(rho - 0.5) * (rho - 1.6) * (rho - 3.0)))
        with pytest.raises(MultipleFixedPointsError) as err:
            uniqueness_probe(FIG5, 20, seed=0)
        roots = sorted(r.rho for r in err.value.results)
        assert np.allclose(roots, [0.5, 1.6, 3.0], rtol=0.0, atol=1e-12)
        # the same distinct results, in the same order, as a lane per start
        with pytest.raises(MultipleFixedPointsError) as ref:
            _probe_lane_per_start(FIG5, 20, seed=0)
        assert ([_result_bits(r) for r in err.value.results]
                == [_result_bits(r) for r in ref.value.results])

    def test_wide_draws_end_in_a_result_or_a_typed_error_without_a_guard(self):
        # rates 1e-6 to 1e6, K 2 to 500, under the suite's warnings-as-errors and with
        # no np.errstate: the probe, and the self-map on a Dirichlet vector and on the
        # solved vector, return a result or raise a BikeShareError, never a warning
        rng = np.random.default_rng(4)
        outcomes = collections.Counter()

        def tally(name, call):
            try:
                call()
            except BikeShareError as exc:
                outcomes[name, type(exc).__name__] += 1
            else:
                outcomes[name, "result"] += 1

        for i in range(300):
            params = _wide_params(rng)
            tally("probe", lambda: uniqueness_probe(params, 5, seed=i))
            vector = rng.dirichlet(np.ones(params.capacity_k + 1))
            tally("dirichlet", lambda: self_map_residual(vector, params))
            tally("solved", lambda: self_map_residual(solve_fixed_point(params).p, params))
        assert outcomes == {("probe", "result"): 300, ("dirichlet", "result"): 300,
                            ("solved", "result"): 243, ("solved", "AssumptionViolationError"): 57}

    @pytest.mark.parametrize("params", [FIG5, FIG7, ANALYTIC])
    def test_defect_changes_sign_once(self, params):
        # on ANALYTIC the defect is exactly 0.0 at the grid load 0.5
        check = check_defect_root_count(params)
        assert check.passed
        assert check.detail.startswith("defect sign changes 1 on 2001 loads")

    def test_root_on_a_grid_point_counts_once(self, monkeypatch):
        # linspace(0, 5, 2001) holds 0.5 exactly, so the defect passes + 0 -
        monkeypatch.setattr(validation, "_defect_kernel", _with_defect(
            validation._defect_kernel, lambda rho: 1.0 - 2.0 * rho))
        check = check_defect_root_count(ANALYTIC)
        assert check.passed
        assert check.detail.startswith("defect sign changes 1 on 2001 loads in [0, 5]")

    def test_root_count_check_fails_on_three_roots(self, monkeypatch):
        monkeypatch.setattr(validation, "_defect_kernel", _with_defect(
            validation._defect_kernel, lambda rho: -(rho - 0.5) * (rho - 1.7) * (rho - 3.1)))
        check = check_defect_root_count(FIG5)
        assert not check.passed
        assert check.detail.startswith("defect sign changes 3 on 2001 loads")

    def test_sliced_root_count_scan_matches_a_one_call_scan(self):
        rng = np.random.default_rng(2030)
        for params in [FIG5, FIG7, ANALYTIC, ILL_CONDITIONED, ROUNDING_NOISE,
                       *(_wide_params(rng) for _ in range(20))]:
            assert check_defect_root_count(params).detail == _one_call_root_count_detail(params)

    def test_sign_change_across_a_scan_slice_boundary_counts(self, monkeypatch):
        # the last load of the first slice and the first of the second straddle the root
        grid = np.linspace(0.0, fixed_point.rho_upper_bound(FIG5), 2001)
        root = (grid[validation._SCAN_SLICE - 1] + grid[validation._SCAN_SLICE]) / 2
        monkeypatch.setattr(validation, "_defect_kernel", _with_defect(
            validation._defect_kernel, lambda rho: root - rho))
        check = check_defect_root_count(FIG5)
        assert check.passed
        assert check.detail.startswith("defect sign changes 1 on 2001 loads")

    def test_root_count_scan_memory_is_bounded_at_large_capacity(self):
        # a one-call scan of 2,001 loads at K = 2000 peaks at about 64 MB of
        # (loads, K+1) blocks, a scan in slices of 256 loads at about 8 MB
        params = dataclasses.replace(FIG5, capacity_k=2000)
        tracemalloc.start()
        try:
            detail = check_defect_root_count(params).detail
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert detail == _one_call_root_count_detail(params)


class TestResultExport:
    def test_json_keys(self, tmp_path):
        import json

        result = solve_fixed_point(FIG5)
        path = tmp_path / "fp.json"
        result.to_json(path, params=FIG5)
        payload = json.loads(path.read_text())
        assert set(payload) == {"params", "p", "rho", "a", "b", "residual", "iterations"}
        assert payload["a"] == result.rates.birth
        assert len(payload["p"]) == FIG5.capacity_k + 1
