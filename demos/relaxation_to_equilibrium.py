"""Occupancy dynamics from the opening-day state to equilibrium.

Integrates the mean-field ODE system from the all-stations-at-C start,
writes the trajectory to CSV, and shows that the terminal state matches the
directly solved fixed point.  Also contrasts the finite-N drift with its
infinite-population limit.
"""

import dataclasses

import numpy as np

import bikeshare_meanfield as bm

params = bm.SystemParams(lam=15.0, mu=8.0, gamma=0.25, omega=1,
                         capacity_c=30, capacity_k=50, n_stations=1000,
                         delta=0.1)

# opening day: every station holds exactly C bikes
start = np.zeros(params.capacity_k + 1)
start[params.capacity_c] = 1.0

config = bm.OdeConfig(initial=start, t_end=2000.0, step=0.01,
                      stationarity_tol=1e-10)
traj = bm.integrate(config, params)
print(f"integrated {len(traj.times) - 1} steps, stationary at t = {traj.times[-1]:.1f}")

traj.to_csv("relaxation.csv", params=params)
print("trajectory written to relaxation.csv (t, y0..yK)")

fp = bm.solve_fixed_point(params)
print(f"terminal state vs solved fixed point: "
      f"{np.max(np.abs(traj.terminal - fp.p)):.2e}")

# how fast do problematic stations appear?
p0_path = traj.states[:, 0]
pk_path = traj.states[:, -1]
for t_mark in (1.0, 5.0, 20.0, traj.times[-1]):
    i = np.searchsorted(traj.times, t_mark)
    i = min(i, len(traj.times) - 1)
    print(f"  t = {traj.times[i]:7.1f}: empty fraction {p0_path[i]:.5f}, "
          f"full fraction {pk_path[i]:.5f}")

# the finite-N drift converges to the limiting drift
y = fp.p
print("\nfinite-N drift against the limit at the fixed point:")
for n in (10, 100, 1000, 10000):
    finite = dataclasses.replace(params, n_stations=n)
    gap = np.max(np.abs(bm.drift_finite_n(y, finite) - bm.drift_limiting(y, finite)))
    print(f"  N = {n:>6}: sup drift gap = {gap:.3e}")

# the exact drift Jacobian's norm stays under the analytic bound on the valid domain
rng = np.random.default_rng(0)
points = bm.sample_domain_points(params, 200, rng)
worst = max(bm.column_sum_norm(bm.jacobian(p, params)) for p in points)
print(f"\nsampled Jacobian norm {worst:.1f} <= analytic bound "
      f"{bm.lipschitz_bound(params):.1f}")
