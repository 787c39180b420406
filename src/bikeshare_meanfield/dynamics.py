"""Deterministic dynamics of the occupancy-fraction vector.

The expected fraction of stations holding k bikes evolves by a first-order
ODE system dy/dt = y V_y, where V_y is the tridiagonal generator built from
the occupancy-dependent birth/death rates.  This module integrates both the
finite-N system (level-dependent birth rates) and its infinite-population
limit with a classical fixed-step fourth-order scheme, keeping the state on
the probability simplex, and provides the drift Jacobian and the analytic
bound on its norm used to certify Lipschitz continuity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SystemParams,
    _check_fleet,
    _death_rate,
    _one_vector,
    _rates_arrays,
    fraction_vector,
)
from .errors import ConfigError, DomainExitError, StepInstabilityError

#: per-step budget for the clamp-and-renormalize simplex repair
STEP_REPAIR_BUDGET = 1e-7


def default_step(params: SystemParams) -> float:
    """Fixed step size keeping the stage moves small against the total rate scale."""
    return min(0.01, 0.1 / (params.lam + params.mu + params.gamma))


@dataclass(frozen=True)
class OdeConfig:
    """Integration run description.

    initial          starting fraction vector (must sum to 1)
    t_end            requested horizon
    step             fixed step size; None picks ``default_step``
    stationarity_tol stop early once the sup-norm of the drift falls below this
    """

    initial: np.ndarray
    t_end: float
    step: float | None = None
    stationarity_tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "initial", fraction_vector(self.initial))
        if not self.t_end > 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if self.step is not None and not 0 < self.step <= self.t_end:
            raise ConfigError(f"step must lie in (0, t_end], got {self.step}")
        if not self.stationarity_tol > 0:
            raise ConfigError("stationarity_tol must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution path: times[i] maps to states[i]."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))
        if self.times.ndim != 1 or self.states.shape[0] != self.times.size:
            raise ConfigError("times and states must have matching lengths")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise ConfigError("times must be strictly increasing")

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]

    def at(self, times) -> np.ndarray:
        """States linearly interpolated at the requested times."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        cols = [np.interp(times, self.times, self.states[:, j])
                for j in range(self.states.shape[1])]
        return np.column_stack(cols)

    def to_csv(self, path, params: SystemParams) -> None:
        """Write the params line, then "t,y0,...,yK" rows at full double precision (17 digits)."""
        k = self.states.shape[1] - 1
        row = ",".join(["%.17g"] * (k + 2)) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(params.csv_params_line())
            fh.write("t," + ",".join(f"y{i}" for i in range(k + 1)) + "\n")
            # blocks of rows: formatting the whole file at once nearly doubles peak memory
            for start in range(0, self.times.size, 512):
                stop = start + 512
                block = np.column_stack((self.times[start:stop], self.states[start:stop]))
                fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def _limiting_stencil(yt, a, b, out):
    """Write y V_y at birth rate a and death rate b into ``out``; ``yt`` has the
    levels first, so the per-row rates of a block (y.T) broadcast over its rows."""
    out[0] = -a * yt[0] + b * yt[1]
    np.multiply(yt[:-2] - yt[1:-1], a, out=out[1:-1])
    out[1:-1] += b * (yt[2:] - yt[1:-1])
    out[-1] = a * yt[-2] - b * yt[-1]
    return out


def _drift_limiting_arrays(y, params: SystemParams) -> np.ndarray:
    """Vectorized limiting drift; ``y`` is one vector (K+1,) or a block (n, K+1)."""
    y = np.asarray(y, dtype=float)
    a, b = _rates_arrays(y, params, check=True)
    return _limiting_stencil(y.T, a, b, np.empty_like(y.T)).T


def _drift_body(params: SystemParams, finite_n: bool):
    """The chosen drift as ``drift(y, out)`` for one float vector: the level
    and own-fleet vectors are built once and the rates are Python floats."""
    c, n = params.capacity_c, params.n_stations
    if not finite_n:
        levels = np.arange(params.capacity_k + 1, dtype=float)

        def drift(y, out):
            yk, fleet = y.item(-1), c - float(y @ levels)
            _check_fleet(yk, fleet)
            birth = params.mu * max(fleet, 0.0) / (1.0 - yk)
            return _limiting_stencil(y, birth, _death_rate(y.item(0), params), out)

        return drift
    # birth rate of level l < K: mu/N * ((C - l)^+ + (N - 1) * fleet) / (1 - yK)
    levels = np.arange(params.capacity_k + 1)
    own = np.where(levels[:-1] <= c - 1, c - levels[:-1], 0.0)
    xi = np.empty(params.capacity_k)

    def drift(y, out):
        yk, fleet = y.item(-1), c - float(levels @ y)
        _check_fleet(yk, fleet)
        np.add(own, (n - 1) * max(fleet, 0.0), out=xi)
        np.multiply(params.mu / n, xi, out=xi)
        np.divide(xi, 1.0 - yk, out=xi)
        eta = _death_rate(y.item(0), params)
        out[0] = -xi[0] * y[0] + eta * y[1]
        out[1:-1] = xi[:-1] * y[:-2] - (xi[1:] + eta) * y[1:-1] + eta * y[2:]
        out[-1] = xi[-1] * y[-2] - eta * y[-1]
        return out

    return drift


def drift_limiting(y, params: SystemParams) -> np.ndarray:
    """Time derivative y V_y of the limiting occupancy fractions at y.

    Components sum to zero (the generator is conservative).
    """
    return _drift_limiting_arrays(_one_vector("drift_limiting", y, params), params)


def drift_finite_n(y, params: SystemParams) -> np.ndarray:
    """Time derivative of the N-station occupancy fractions at y.

    Uses the level-dependent birth rates (own-fleet term for levels below C)
    and the level-independent death rate; converges to ``drift_limiting`` as
    N grows.
    """
    y = _one_vector("drift_finite_n", y, params)
    return _drift_body(params, finite_n=True)(y, np.empty_like(y))


def integrate(config: OdeConfig, params: SystemParams, finite_n: bool = False) -> Trajectory:
    """Fixed-step classical RK4 integration of the chosen drift.

    After every step the state is clamped at zero and renormalized to sum
    one; a repair larger than ``STEP_REPAIR_BUDGET`` aborts with
    ``StepInstabilityError``.  Leaving the assumed domain (y0 or y_K above
    1 - delta) raises ``DomainExitError`` with the exit time.  Integration
    stops early once the drift sup-norm falls below the stationarity
    tolerance; the drift of that check is the next step's first stage.
    """
    y = _one_vector("integrate", config.initial, params).copy()
    drift = _drift_body(params, finite_n)
    h = config.step if config.step is not None else default_step(params)
    horizon = config.t_end
    bound = 1.0 - params.delta

    def check_domain(state, time):
        if state[0] > bound or state[-1] > bound:
            raise DomainExitError(
                f"trajectory left the assumed domain at t={time:.6g} "
                f"(y0={state[0]:.6g}, yK={state[-1]:.6g}, bound={bound:.6g})",
                time=time,
            )

    check_domain(y, 0.0)
    times = [0.0]
    states = [y]
    t = 0.0
    step_index = 0
    k1, k2, k3, k4, arg = (np.empty_like(y) for _ in range(5))
    drift(y, k1)
    while t < horizon * (1.0 - 1e-15):
        t_next = min((step_index + 1) * h, horizon)
        hs = t_next - t
        drift(np.add(y, np.multiply(0.5 * hs, k1, out=arg), out=arg), k2)
        drift(np.add(y, np.multiply(0.5 * hs, k2, out=arg), out=arg), k3)
        drift(np.add(y, np.multiply(hs, k3, out=arg), out=arg), k4)
        raw = y + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        repaired = np.maximum(raw, 0.0)
        repaired /= repaired.sum()
        correction = float(np.abs(np.subtract(repaired, raw, out=k3), out=k3).max())
        if correction > STEP_REPAIR_BUDGET:
            raise StepInstabilityError(
                f"simplex repair {correction:.3e} exceeded budget "
                f"{STEP_REPAIR_BUDGET:.1e} at t={t_next:.6g}; reduce the step",
                time=t_next,
                correction=correction,
            )
        y = repaired
        t = t_next
        step_index += 1
        check_domain(y, t)
        times.append(t)
        states.append(y)
        if float(np.abs(drift(y, k1), out=k4).max()) < config.stationarity_tol:
            break
    return Trajectory(np.array(times), np.array(states))


def jacobian_fd(y, params: SystemParams, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the limiting drift at y.

    Entry (i, j) is the derivative of drift component j with respect to
    y_i.  Meant for bound checks and tests, not for stepping.
    """
    if not 1e-8 <= h <= 1e-4:
        raise ConfigError(f"finite-difference step must lie in [1e-8, 1e-4], got {h}")
    y = _one_vector("jacobian_fd", y, params)
    n = y.size
    pts = np.vstack([np.tile(y, (n, 1)) + h * np.eye(n),
                     np.tile(y, (n, 1)) - h * np.eye(n)])
    f = _drift_limiting_arrays(pts, params)
    return (f[:n] - f[n:]) / (2.0 * h)


def column_sum_norm(matrix: np.ndarray) -> float:
    """Matrix norm max_j sum_i |m_ij| (largest column absolute sum)."""
    return float(np.max(np.abs(matrix).sum(axis=0)))


def lipschitz_bound(params: SystemParams) -> float:
    """Analytic bound on the column-sum norm of the drift Jacobian.

    Valid on the restricted domain where the empty and full fractions stay
    below 1 - delta:
    2*lambda + gamma*omega*(omega+5)/2 + (mu/delta)*((1 + 1/delta)*C + K*(K+1)/2).
    """
    c = params.capacity_c
    k = params.capacity_k
    return (
        2.0 * params.lam
        + params.gamma * params.omega * (params.omega + 5) / 2.0
        + (params.mu / params.delta)
        * ((1.0 + 1.0 / params.delta) * c + k * (k + 1) / 2.0)
    )


def weighted_sup_distance(x, y) -> float:
    """sup_k |x_k - y_k| / (k + 1); at most 1 for two points on the simplex."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ConfigError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.max(np.abs(x - y) / (np.arange(x.size) + 1.0)))


def sample_domain_points(params: SystemParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random simplex points inside the model's valid domain.

    Rejection-samples Dirichlet(1, ..., 1) points until ``n`` satisfy
    y0, y_K <= 1 - delta - margin and mean parked bikes <= C - margin with
    margin = 1e-3 (so the drift and its finite differences are defined at
    every returned point).  Raises ``ConfigError`` if 2,000 batches do not
    give ``n`` points.
    """
    k = params.capacity_k
    margin = 1e-3
    bound = 1.0 - params.delta - margin
    levels = np.arange(k + 1, dtype=float)
    out = []
    have = 0
    for _ in range(2000):
        batch = rng.dirichlet(np.ones(k + 1), size=max(4 * n, 256))
        ok = (
            (batch[:, 0] <= bound)
            & (batch[:, -1] <= bound)
            & (batch @ levels <= params.capacity_c - margin)
        )
        good = batch[ok]
        if good.size:
            out.append(good)
            have += good.shape[0]
        if have >= n:
            return np.vstack(out)[:n]
    raise ConfigError(
        "could not sample the valid domain for these parameters "
        f"(C={params.capacity_c}, K={params.capacity_k}); acceptance too low"
    )
