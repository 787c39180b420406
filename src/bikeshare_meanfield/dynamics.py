"""Deterministic dynamics of the occupancy-fraction vector.

The expected fraction of stations holding k bikes evolves by a first-order
ODE system dy/dt = y V_y, where V_y is the tridiagonal generator built from
the occupancy-dependent birth/death rates.  This module integrates both the
finite-N system (level-dependent birth rates) and its infinite-population
limit with a classical fixed-step fourth-order scheme, keeping the state on
the probability simplex, through one drift body per route on guarded scalar
rates.  A step allocates nothing, and its drifts make no slice view: each
run binds its four drifts once, each to the buffer it reads (the accepted
state or the stage argument) and to the row of the 4 x (K+1) stage block it
writes, and each accepted state is copied with its time into the next row of
a preallocated block, yielded as it fills.  A drift returns its two boundary
components, and the stepper computes the full sup-norm of the stationarity
test only when both lie below the tolerance, which decides every step as the
full test would.  Every operation keeps the textbook step's order.  The
module also provides the exact Jacobian of the limiting drift and the
analytic bound on its norm used to certify Lipschitz continuity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    RatePair,
    SystemParams,
    _as_float,
    _as_int,
    _capacity_error,
    _guarded_rates,
    _level_sum,
    _level_sums,
    _levels,
    _one_vector,
    _walk_slope,
    build_generator,
    fraction_vector,
)
from .csvrows import block_rows, write_csv
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
    t_end            requested horizon; the three numbers must be finite
    step             fixed step size; None picks ``default_step``
    stationarity_tol stop early once the sup-norm of the drift falls below this
    """

    initial: np.ndarray
    t_end: float
    step: float | None = None
    stationarity_tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "initial", fraction_vector(self.initial))
        for name in ("t_end", "stationarity_tol") + (() if self.step is None else ("step",)):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
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
        """Write the params line, then "t,y0,...,yK" rows at full double precision
        (17 digits) in this process, by ``csvrows.write_csv``: ``path`` is
        replaced only once every row is written, or else keeps its bytes."""
        times, states = self.times, self.states
        width = states.shape[1] + 1
        rows = block_rows(width)
        # blocks of rows: formatting the whole file at once nearly doubles peak memory
        write_csv(path, _csv_head(params, width - 2), width,
                  (np.column_stack((times[i:i + rows], states[i:i + rows]))
                   for i in range(0, times.size, rows)))


def _all_at_c(params: SystemParams) -> np.ndarray:
    """The fractions of the start with every station at C bikes: 1 at level C."""
    y = np.zeros(params.capacity_k + 1)
    y[params.capacity_c] = 1.0
    return y


def _csv_head(params: SystemParams, capacity_k: int) -> str:
    """The params line and the "t,y0,...,yK" header that open a trajectory CSV."""
    return (params.csv_params_line()
            + "t," + ",".join(f"y{i}" for i in range(capacity_k + 1)) + "\n")


# The drift and step bodies run tens of thousands of times on short vectors,
# where a numpy call costs far more than its arithmetic.  They write into
# preallocated buffers and pass ``out`` positionally to element-wise ufuncs
# (cheaper than the keyword, which ``np.maximum`` alone requires).  Per-call
# scalars reach ufuncs as 0-d arrays (``slot[()] = value``), which numpy takes
# without converting a Python float each time, and reductions write into 0-d
# outputs for the same reason.  The slice views a body reads are made once,
# when it is bound to its buffers.  No operation or its order changes.


def _limiting_stencil(capacity_k: int):
    """``bind(y, out)``: the stencil that writes y V_y at birth rate a and death
    rate b into ``out``, bound to the float vectors ``y`` and ``out`` as
    ``stencil(a, b, y0, yk) -> (out[0], out[K])``, where y0 and yk are y's end
    entries, read by the caller.

    The interior is d[:-1] * (-a) + d[1:] * b for the forward differences
    d = y[1:] - y[:-1], held in one scratch vector that every bound stencil of
    this call shares: bit for bit (y[k-1] - y[k]) * a + b * (y[k+1] - y[k]).
    A difference and its reverse differ only in the sign of an exact zero.
    That sign can reach the result only if y holds -0.0, which the stepper's
    clamp never leaves in a state, or if b is 0, as in ``jacobian``, which adds
    the result to entries that are nonzero or +0.0, where the sign vanishes.
    """
    diff = np.empty(capacity_k)
    fall, rise = diff[:-1], diff[1:]
    minus_a, death = np.empty(()), np.empty(())
    add, multiply, subtract = np.add, np.multiply, np.subtract

    def bind(y, out):
        upper, lower, inner, item = y[1:], y[:-1], out[1:-1], y.item

        def stencil(a, b, y0, yk):
            minus_a[()] = -a
            death[()] = b
            subtract(upper, lower, diff)
            multiply(fall, minus_a, inner)
            multiply(rise, death, rise)
            add(inner, rise, inner)
            out[0] = first = -a * y0 + b * item(1)
            out[-1] = last = a * item(-2) - b * yk
            return first, last

        return stencil

    return bind


def _drift_body(params: SystemParams, finite_n: bool):
    """``bind(y, out)``: the chosen drift bound to the float vector ``y`` it reads
    and the vector ``out`` it writes, as ``drift() -> (out[0], out[K])``.

    The guarded rates of ``params``, the own-fleet vector and the scratch
    vectors are built once and shared by every drift bound from this call;
    ``bind`` makes the slice views of its two vectors once.  A call reads each
    end entry of y once, passes y0 and yK to the rates, which are Python
    floats, allocates nothing and returns the two boundary components as
    Python floats.
    """
    level_sum, rates = _level_sum(params.capacity_k), _guarded_rates(params)
    if not finite_n:
        stencil_on = _limiting_stencil(params.capacity_k)

        def bind(y, out):
            stencil, item = stencil_on(y, out), y.item

            def drift():
                y0, yk = item(0), item(-1)
                birth, death, _ = rates(y0, yk, level_sum(y))
                return stencil(birth, death, y0, yk)

            return drift

        return bind
    # birth rate of level l < K: mu/N * ((C - l)^+ + (N - 1) * fleet) / (1 - yK)
    c, n, levels = params.capacity_c, params.n_stations, _levels(params.capacity_k)[0]
    own = np.where(levels[:-1] <= c - 1, c - levels[:-1], 0.0)
    xi = np.empty(params.capacity_k)
    xi_lo, xi_hi, xi_item = xi[:-1], xi[1:], xi.item
    term = np.empty(params.capacity_k - 1)
    scale = np.array(params.mu / n)
    shared, free, death = np.empty(()), np.empty(()), np.empty(())
    add, multiply, subtract, divide = np.add, np.multiply, np.subtract, np.divide

    def bind(y, out):
        low, mid, high, inner = y[:-2], y[1:-1], y[2:], out[1:-1]
        item = y.item

        def drift():
            y0, yk = item(0), item(-1)
            _, eta, fleet = rates(y0, yk, level_sum(y))
            shared[()] = (n - 1) * fleet
            free[()] = 1.0 - yk
            death[()] = eta
            add(own, shared, xi)
            multiply(scale, xi, xi)
            divide(xi, free, xi)
            # xi[:-1] * y[:-2] - (xi[1:] + eta) * y[1:-1] + eta * y[2:], in that order
            multiply(xi_lo, low, inner)
            add(xi_hi, death, term)
            multiply(term, mid, term)
            subtract(inner, term, inner)
            multiply(high, death, term)
            add(inner, term, inner)
            out[0] = first = -xi_item(0) * y0 + eta * item(1)
            out[-1] = last = xi_item(-1) * item(-2) - eta * yk
            return first, last

        return drift

    return bind


def _fresh_drift(params: SystemParams, finite_n: bool, y) -> np.ndarray:
    """One drift evaluation into a new vector."""
    out = np.empty_like(y)
    _drift_body(params, finite_n)(y, out)()
    return out


def drift_limiting(y, params: SystemParams) -> np.ndarray:
    """Time derivative y V_y of the limiting occupancy fractions at y.

    Components sum to zero (the generator is conservative).
    """
    return _fresh_drift(params, False, _one_vector("drift_limiting", y, params))


def drift_finite_n(y, params: SystemParams) -> np.ndarray:
    """Time derivative of the N-station occupancy fractions at y.

    Uses the level-dependent birth rates (own-fleet term for levels below C)
    and the level-independent death rate; converges to ``drift_limiting`` as
    N grows.
    """
    return _fresh_drift(params, True, _one_vector("drift_finite_n", y, params))


def _ode_capacity_error(capacity_k: int, finite_n: bool) -> ConfigError | None:
    """The ``ConfigError`` of a capacity whose ``ode`` run cannot be held, or None:
    the larger of its stepping phase and its terminal JSON, each named in the message.
    The drift's scratch is the stencil's differences, or the finite-N drift's own-fleet,
    xi and term vectors.  A block's text takes 64 bytes a value (its tuple of floats,
    format string and lines) and the JSON 152 a level (a list of floats, the encoder's
    chunks and the text).  A caller that builds the initial vector from K asks first."""
    vectors = 14 if finite_n else 12
    values = block_rows(capacity_k + 2) * (capacity_k + 2)
    nbytes = max(8 * vectors * (capacity_k + 1) + 80 * values,
                 176 * (capacity_k + 1) + 8 * values)
    return _capacity_error(capacity_k, nbytes, "integrate",
                           f"the run needs {8 * vectors} (K+1) bytes for {vectors} vectors (the "
                           "initial state and its copy, 4 stages, arg, raw, scratch, 2 level "
                           "vectors and the drift's scratch) and 80 bytes a value for two blocks "
                           "of rows and the text of one, or at its end 176 (K+1) bytes and one "
                           "block for the terminal state's JSON")


def _domain_exit(state, time: float, bound: float) -> DomainExitError:
    """The error of a state whose y0 or y_K lies above ``bound`` at ``time``."""
    y0, yk = state.item(0), state.item(-1)
    return DomainExitError(
        f"trajectory left the assumed domain at t={time:.6g} "
        f"(y0={y0:.6g}, yK={yk:.6g}, bound={bound:.6g})",
        time=time,
    )


def _rk4_blocks(config: OdeConfig, params: SystemParams, finite_n: bool):
    """The rows ``(t, y0, ..., yK)`` of ``integrate``'s run, yielded in blocks.

    Each block is a new C-contiguous array of ``csvrows.block_rows(K + 2)``
    rows, yielded once it is full and the next state needs a row; the last
    block holds the rows left when the run ends.  An error is raised where
    ``integrate`` raises it, after the blocks completed before it.
    """
    initial = _one_vector("integrate", config.initial, params)
    bind = _drift_body(params, finite_n)
    h = config.step if config.step is not None else default_step(params)
    horizon, stationarity_tol, budget = config.t_end, config.stationarity_tol, STEP_REPAIR_BUDGET
    bound = 1.0 - params.delta
    width = initial.size
    block_size = block_rows(width + 1)
    block = np.empty((block_size, width + 1))
    times, states = block[:, 0], block[:, 1:]
    times[0] = 0.0
    # the accepted state keeps one buffer, copied into the next row of a block
    y = initial.copy()
    states[0] = y
    used = 1
    if y.item(0) > bound or y.item(-1) > bound:
        raise _domain_exit(y, 0.0, bound)
    t = 0.0
    step_index = 0
    stages = np.empty((4, width))
    k1, k2, k3, k4 = stages
    doubled = stages[1:3]
    arg, raw, scratch = np.empty(width), np.empty(width), np.empty(width)
    # each drift bound once to the buffer it reads and the stage row it writes
    stage1, stage2, stage3, stage4 = bind(y, k1), bind(arg, k2), bind(arg, k3), bind(arg, k4)
    half, full, sixth, total, worst = (np.empty(()) for _ in range(5))
    two, zero = np.array(2.0), np.array(0.0)
    add, multiply, subtract, divide, maximum, absolute = (
        np.add, np.multiply, np.subtract, np.divide, np.maximum, np.abs)
    add_reduce, max_reduce = np.add.reduce, np.maximum.reduce
    stage1()
    while t < horizon * (1.0 - 1e-15):
        t_next = (step_index + 1) * h
        if horizon < t_next:
            t_next = horizon
        hs = t_next - t
        half[()] = 0.5 * hs
        full[()] = hs
        sixth[()] = hs / 6.0
        add(y, multiply(half, k1, arg), arg)
        stage2()
        add(y, multiply(half, k2, arg), arg)
        stage3()
        add(y, multiply(full, k3, arg), arg)
        stage4()
        # y + (hs/6) * (((k1 + 2 k2) + 2 k3) + k4): the row reduction adds in row order
        multiply(doubled, two, doubled)
        add_reduce(stages, axis=0, out=raw)
        add(y, multiply(sixth, raw, raw), raw)
        if used == block_size:
            yield block
            block = np.empty((block_size, width + 1))
            times, states = block[:, 0], block[:, 1:]
            used = 0
        maximum(raw, zero, out=y)
        add_reduce(y, out=total)
        divide(y, total, y)
        max_reduce(absolute(subtract(y, raw, scratch), scratch), out=worst)
        correction = worst.item()
        if not correction <= budget:  # a NaN state too: every later guard is False for NaN
            raise StepInstabilityError(
                f"simplex repair {correction:.3e} exceeded budget "
                f"{budget:.1e} at t={t_next:.6g}; reduce the step",
                time=t_next,
                correction=correction,
            )
        t = t_next
        step_index += 1
        if y.item(0) > bound or y.item(-1) > bound:
            raise _domain_exit(y, t, bound)
        states[used] = y
        times[used] = t
        used += 1
        # max|k1| is at least either boundary component, so the full reduction
        # runs only when both already lie below the tolerance
        first, last = stage1()
        if abs(first) < stationarity_tol and abs(last) < stationarity_tol:
            max_reduce(absolute(k1, scratch), out=worst)
            if worst.item() < stationarity_tol:
                break
    yield block[:used]


def integrate(config: OdeConfig, params: SystemParams, finite_n: bool = False) -> Trajectory:
    """Fixed-step classical RK4 integration of the chosen drift.

    After every step the state is clamped at zero and renormalized to sum
    one; a repair larger than ``STEP_REPAIR_BUDGET``, or a state that is not
    a number, aborts with ``StepInstabilityError``.  Leaving the assumed
    domain (y0 or y_K above 1 - delta) raises ``DomainExitError`` with the
    exit time.  Integration stops early once the drift sup-norm falls below
    the stationarity tolerance; the drift of that check is the next step's
    first stage.

    A step allocates nothing: the four stage derivatives are the rows of one
    4 x (K+1) block, each stage argument is built in one buffer, the four
    drifts are bound to their buffers once per run, and every accepted state
    and its time are copied into the next row of a block of at most 512 rows,
    the blocks of ``_rk4_blocks``, joined once at the end.  The stationarity
    sup-norm is taken only when both boundary components of the drift are
    already below the tolerance.  The arithmetic is the textbook step's,
    operation by operation and in the same order.
    """
    rows = np.concatenate(list(_rk4_blocks(config, params, finite_n)))
    return Trajectory(rows[:, 0], rows[:, 1:])


def jacobian(y, params: SystemParams) -> np.ndarray:
    """Exact Jacobian of the limiting drift at y.

    Entry (i, j) is the derivative of drift component j with respect to
    y_i.  The drift y V(a, b) is linear in y at fixed rates and linear in
    each rate, so J = V(a, b) + grad(a) (x) y V(1, 0) + grad(b) (x) y V(0, 1),
    where grad(a) = -mu k / (1 - yK) plus a / (1 - yK) at level K, and
    grad(b) is gamma d[y0 S(y0)]/dy0 at level 0 and zero elsewhere.
    """
    y = _one_vector("jacobian", y, params)
    y0, yk = y.item(0), y.item(-1)
    birth, death, _ = _guarded_rates(params)(y0, yk, _level_sum(params.capacity_k)(y))
    scale = 1.0 - yk
    grad_birth = _levels(params.capacity_k)[0] * (-params.mu / scale)
    grad_birth[-1] += birth / scale
    jac = build_generator(RatePair(birth, death), params.capacity_k)
    out = np.empty_like(y)
    stencil = _limiting_stencil(params.capacity_k)(y, out)
    stencil(1.0, 0.0, y0, yk)
    jac += np.outer(grad_birth, out)
    stencil(0.0, 1.0, y0, yk)
    jac[0] += params.gamma * _walk_slope(y0, params.omega) * out
    return jac


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


def sample_domain_points(params: SystemParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random simplex points inside the model's valid domain.

    Rejection-samples Dirichlet(1, ..., 1) points until ``n`` satisfy
    y0, y_K <= 1 - delta - margin and mean parked bikes <= C - margin with
    margin = 1e-3 (so the drift and its Jacobian are defined at
    every returned point).  A uniform point parks about K/2 bikes, so with
    many more docks than bikes a batch can accept few or none: once the
    points accepted so far, at the rate seen, cannot reach ``n`` in the
    batches left (at once if the first batch accepts none), every later batch
    draws Dirichlet(1, ..., 1) on the levels 0..C, leaves the levels above C
    empty and filters by the same conditions.  Raises ``ConfigError`` unless
    ``n`` is an integer of at least 1, and if 2,000 batches do not give ``n`` points.
    """
    n = _as_int("sample count", n)
    if n < 1:
        raise ConfigError(f"sample count must be at least 1, got {n}")
    k = params.capacity_k
    margin = 1e-3
    bound = 1.0 - params.delta - margin
    out = []
    have, levels, batches = 0, k + 1, 2000
    for done in range(1, batches + 1):
        batch = rng.dirichlet(np.ones(levels), size=max(4 * n, 256))
        if levels <= k:
            batch = np.pad(batch, ((0, 0), (0, k + 1 - levels)))
        ok = (
            (batch[:, 0] <= bound)
            & (batch[:, -1] <= bound)
            & (_level_sums(batch) <= params.capacity_c - margin)
        )
        good = batch[ok]
        if good.size:
            out.append(good)
            have += good.shape[0]
        if have >= n:
            return np.vstack(out)[:n]
        if have * batches < n * done:
            levels = params.capacity_c + 1
    raise ConfigError(
        "could not sample the valid domain for these parameters "
        f"(C={params.capacity_c}, K={params.capacity_k}); acceptance too low"
    )
