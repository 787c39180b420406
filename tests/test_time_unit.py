"""Time-unit covariance: every rate times s = 2**m, every time divided by it.

A power of two scales each product and quotient of rates exactly, so the three
routes keep their bits: the solver's vector, load and iteration count (its
rates and residual scale by exactly s), the uniqueness probe's results, the
simulator's time averages and event counts over a window stated in the new unit,
and the RK4 states, whose times scale by exactly 1/s once the step and horizon
are divided by s and the stationarity tolerance, a drift norm in rate units, is
multiplied by it.
"""

import dataclasses
import functools

import pytest

from bikeshare_meanfield import OdeConfig, SimConfig, SystemParams, integrate, simulate
from bikeshare_meanfield import solve_fixed_point, uniqueness_probe
from bikeshare_meanfield.dynamics import _all_at_c, default_step

SETS = {
    "figure-5": SystemParams(lam=15.0, mu=8.0, gamma=0.25, omega=1, capacity_c=30,
                             capacity_k=50, n_stations=200),
    "walk-heavy": SystemParams(lam=15.0, mu=8.0, gamma=2.0, omega=3, capacity_c=3,
                               capacity_k=5, n_stations=200),
    "K=2": SystemParams(lam=1.0, mu=2.0, gamma=1.0, omega=1, capacity_c=1, capacity_k=2,
                        n_stations=200),
}
SCALES = [2.0 ** m for m in (-12, -4, 4, 12)]


def _rescaled(params, s):
    return dataclasses.replace(params, lam=params.lam * s, mu=params.mu * s,
                               gamma=params.gamma * s)


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("name", SETS)
def test_solve_keeps_its_bits_and_scales_its_rates(name, s):
    base, scaled = solve_fixed_point(SETS[name]), solve_fixed_point(_rescaled(SETS[name], s))
    assert scaled.p.tobytes() == base.p.tobytes()
    assert (scaled.rho.hex(), scaled.iterations) == (base.rho.hex(), base.iterations)
    assert [v.hex() for v in scaled.rates] == [(v * s).hex() for v in base.rates]
    assert scaled.residual.hex() == (base.residual * s).hex()


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("name", SETS)
def test_probe_keeps_every_result(name, s):
    base = uniqueness_probe(SETS[name], 20, seed=3)
    scaled = uniqueness_probe(_rescaled(SETS[name], s), 20, seed=3)
    assert ([(r.p.tobytes(), r.rho.hex(), r.iterations) for r in scaled]
            == [(r.p.tobytes(), r.rho.hex(), r.iterations) for r in base])


@pytest.mark.parametrize("name", SETS)
def test_simulate_keeps_its_averages_and_counts(name):
    base = simulate(SimConfig(params=SETS[name], seed=3, t_warmup=1.0, t_measure=4.0))
    for s in SCALES:
        scaled = simulate(SimConfig(params=_rescaled(SETS[name], s), seed=3,
                                    t_warmup=1.0 / s, t_measure=4.0 / s))
        assert scaled.time_avg_measure.tobytes() == base.time_avg_measure.tobytes()
        assert scaled.event_counts == base.event_counts


#: rows of each set's unscaled run to stationarity at 1e-10 within t = 200
ODE_ROWS = {"figure-5": 18798, "walk-heavy": 523, "K=2": 850}


def _integrated(name, s, tol_scale):
    """``integrate`` of the set times s from every station at C: the unscaled set's
    ``default_step`` and horizon 200 divided by s, the tolerance 1e-10 times
    ``tol_scale``."""
    params = SETS[name]
    return integrate(OdeConfig(initial=_all_at_c(params), t_end=200.0 / s,
                               step=default_step(params) / s,
                               stationarity_tol=1e-10 * tol_scale), _rescaled(params, s))


@functools.lru_cache
def _unscaled(name):
    return _integrated(name, 1.0, 1.0)


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("name", SETS)
def test_integrate_keeps_its_states_and_scales_its_times(name, s):
    base, scaled = _unscaled(name), _integrated(name, s, s)
    assert base.times.size == ODE_ROWS[name]
    assert scaled.states.tobytes() == base.states.tobytes()
    assert (s * scaled.times).tobytes() == base.times.tobytes()


@pytest.mark.parametrize("name", SETS)
def test_integrate_differs_at_a_scale_that_is_no_power_of_two(name):
    base, scaled = _unscaled(name), _integrated(name, 1000.0, 1000.0)
    assert (scaled.states.tobytes() != base.states.tobytes()
            or (1000.0 * scaled.times).tobytes() != base.times.tobytes())


def test_an_unscaled_stationarity_tolerance_moves_the_stop():
    # the drift scales by s, so a fixed tolerance is met sooner or later
    assert [_integrated("figure-5", s, 1.0).times.size for s in SCALES] == [
        10332, 15976, 21620, 27244]
