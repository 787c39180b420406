"""Time-unit covariance: every rate times s = 2**m, every time divided by it.

A power of two scales each product and quotient of rates exactly, so the three
routes keep their bits: the solver's vector, load and iteration count (its
rates and residual scale by exactly s), the uniqueness probe's results, and the
simulator's time averages and event counts over a window stated in the new unit.
"""

import dataclasses

import pytest

from bikeshare_meanfield import SimConfig, SystemParams, simulate, solve_fixed_point
from bikeshare_meanfield import uniqueness_probe

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
