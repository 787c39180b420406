"""Tour of the stationary solver and its mutually checking representations.

Solves one bike-sharing system, then shows that the single answer satisfies
every formulation at once: the generator null-vector equations, the
self-consistency map, the cleared-denominator polynomial system, and the
two closed forms (pure geometric and two-root combination).
"""

import numpy as np

import bikeshare_meanfield as bm

params = bm.SystemParams(
    lam=15.0,      # customers per station per hour
    mu=8.0,        # ride-completion rate
    gamma=0.25,    # walk-completion rate
    omega=1,       # walk budget
    capacity_c=30,
    capacity_k=50,
    n_stations=1000,
    delta=0.1,
)

print("system:", params.to_dict())

result = bm.solve_fixed_point(params)
print(f"\nload rho = {result.rho:.6f} after {result.iterations} iterations")
print(f"empty-station probability   p0 = {result.p[0]:.6f}")
print(f"full-station probability    pK = {result.p[-1]:.6f}")
print(f"problematic probability        = {result.p[0] + result.p[-1]:.6f}")

# every characterization agrees on the same vector
gen = bm.build_generator(bm.limiting_rates(result.p, params), params.capacity_k)
print(f"\ngenerator residual        |p V_p|_inf = {np.max(np.abs(result.p @ gen)):.2e}")
print(f"self-map residual         |p - T(p)|  = {bm.self_map_residual(result.p, params):.2e}")
poly = np.max(np.abs(bm.nonlinear_residual(result.p, params)))
print(f"cleared-denominator form  residual    = {poly:.2e}")

# the two closed forms coincide
rates = result.rates
closed = bm.birth_death_stationary(rates, params.capacity_k)
two_root = bm.geometric_form(rates, params.capacity_k)
print(f"closed form vs two-root combination   = {np.max(np.abs(closed - two_root)):.2e}")
print(f"two-root ratio p1/p0 = {two_root[1] / two_root[0]:.6f}, "
      f"load birth/death = {rates.birth / rates.death:.6f}")

# twenty random starting vectors all land on the same point
probe = bm.uniqueness_probe(params, n_starts=20, seed=7)
spread = max(np.max(np.abs(r.p - result.p)) for r in probe)
print(f"\nuniqueness probe: 20 starts, worst spread = {spread:.2e}")

# performance metrics at chosen prices
prices = bm.ProfitPrices(cost_c=0.5, benefit_psi=2.0)
metrics = bm.compute_metrics(result.p, params, prices)
print(f"\nmean parked bikes E[Q] = {metrics.mean_bikes:.3f} of C = {params.capacity_c}")
print(f"station profit         = {metrics.profit:.3f}")
