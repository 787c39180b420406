"""Stationary solution of the occupancy dynamics.

The long-run occupancy fractions p solve p V_p = 0, p e = 1: p is the
stationary vector of a constant-rate birth-death queue whose rates are
themselves functions of p.  Given the load rho = birth/death the whole
vector is the (truncated) geometric distribution in rho, so the problem
reduces to one scalar equation; the solver exploits that reduction, and the
two closed-form representations (pure geometric, and the two-root geometric
combination) are implemented as mutually checking routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import (
    _EPS,
    RatePair,
    SystemParams,
    _as_int,
    _as_seed,
    _capacity_error,
    _generator_writer,
    _geom_series,
    _level_sum,
    _level_sums,
    _levels,
    _one_vector,
    _queue_capacity,
    _rate_error,
    _rate_pair,
    _write_json,
    fraction_vector,
)
from .errors import (
    AssumptionViolationError,
    BikeShareError,
    ConfigError,
    DegenerateCaseError,
    InvariantViolationError,
    MultipleFixedPointsError,
    NoBracketError,
)

#: relative |birth - death| gap below which the load counts as exactly 1
UNIFORM_THRESHOLD = 1e-13

#: residual of p V_p, relative to birth + death, that accepts a solved point outright
RESIDUAL_TOL = 1e-10

#: absolute and relative step tolerances of the bracketed root finder
#: (8.9e-16 is just above 4 eps, the smallest rtol scipy's ``brentq`` accepts)
_XTOL = 1e-15
_RTOL = 8.9e-16

#: 1.0 as a read-only 0-d array, which a ufunc takes without converting a Python float
_ONE = np.array(1.0)
_ONE.flags.writeable = False


@dataclass(frozen=True)
class FixedPointResult:
    """Solved stationary point with its diagnostics.

    p           occupancy fractions (length K+1)
    rho         load birth/death at p
    rates       the birth/death pair evaluated at p
    residual    sup-norm of p V_p
    iterations  scalar root-finder iterations
    """

    p: np.ndarray
    rho: float
    rates: RatePair
    residual: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "p": [float(v) for v in self.p],
            "rho": self.rho,
            "a": self.rates.birth,
            "b": self.rates.death,
            "residual": self.residual,
            "iterations": self.iterations,
        }

    def to_json(self, path, params: SystemParams) -> None:
        _write_json(path, {"params": params.to_dict(), **self.to_dict()})


def _stationary_rows(loads: np.ndarray, capacity_k: int) -> np.ndarray:
    """The (n, K+1) block whose row i is p(loads[i]) for a float array of loads: rho**k,
    or (1/rho)**(K-k) for rho > 1 (smooth in rho and safe for extreme loads), normalized.

    A row's bits do not depend on the other rows: a one-sided round broadcasts its
    exponents over the rows, and a round with loads on both sides of 1 fills one block
    in place, the rows of the loads at most 1 and then the inverses of the others (only
    those are divided, so a load of 0 never is), with the same powers.  The loads are
    not validated, and no step warns.
    """
    low, (k, down) = loads <= _ONE, _levels(capacity_k)
    n_low = np.count_nonzero(low)
    if n_low == low.size:  # every load at most 1: the exponents k, broadcast over the rows
        w = np.power(loads[:, None], k)
    elif not n_low:  # every load above 1: K - k
        w = np.power((_ONE / loads)[:, None], down)
    else:  # k or K - k per load, into one block
        high, w = ~low, np.empty((loads.size, k.size))
        np.power(loads[:, None], k, out=w, where=low[:, None])
        inverse = np.divide(_ONE, loads, out=np.ones_like(loads), where=high)
        np.power(inverse[:, None], down, out=w, where=high[:, None])
    return np.divide(w, np.add.reduce(w, 1, None, None, True), w)


def _lane_rates(group: list[SystemParams]):
    """The unguarded rates ``rates(p, lanes) -> (births, deaths)``, two lists of Python
    floats, of the rows of a block p of fraction vectors, row i under the set
    ``group[lanes[i]]`` (the sets share K, omega); a one-set group reads no lanes.

    Row i reads p_0, p_K and its E[Q] from ``_level_sums``.  The birth rate has no
    nonnegative-fleet guard, so trial loads with more parked bikes than C give a smoothly
    negative defect; where 1 - p_K is 0 it is x * inf, the IEEE quotient x / +0.0 of
    x = mu (C - E[Q]): +-inf, or the default NaN, sign bit included.  Nothing warns.
    """
    # omega = 1 drops the walk factor S(y0) = 1: gamma * y0 * 1.0 is gamma * y0, NaN or not
    series = None if group[0].omega == 1 else _geom_series(group[0].omega)
    constants = [tuple(map(float, (params.mu, params.capacity_c, params.lam, params.gamma)))
                 for params in group]

    def rates(p, lanes):
        births, deaths = [], []
        sets = repeat(constants[0]) if len(constants) == 1 else map(constants.__getitem__, lanes)
        for (mu, c, lam, gamma), y0, yk, parked in zip(
                sets, p[:, 0].tolist(), p[:, -1].tolist(), _level_sums(p).tolist()):
            flow, free = mu * (c - parked), 1.0 - yk
            births.append(flow / free if free else flow * math.inf)
            walk = gamma * y0
            deaths.append(lam + (walk if series is None else walk * series(y0)))
        return births, deaths

    return rates


def stationary_from_load(rho: float, capacity_k: int) -> np.ndarray:
    """Stationary vector of the constant-rate birth-death queue with load rho.

    The one-row, validated case of ``_stationary_rows``: rho**k, or
    (1/rho)**(K-k) for rho > 1, normalized.
    """
    if not rho >= 0:
        raise ConfigError(f"load must be nonnegative, got {rho}")
    try:
        loads = np.array([rho], dtype=float)
    except OverflowError:
        raise ConfigError(f"load must fit in a float, got {rho!r}") from None
    with np.errstate(all="ignore"):
        return _stationary_rows(loads, _queue_capacity(capacity_k))[0]


def birth_death_stationary(rates: RatePair, capacity_k: int) -> np.ndarray:
    """Stationary vector p_k = rho^k (1-rho) / (1-rho^(K+1)) at load rho = birth/death.

    The rates are validated, then the vector is ``stationary_from_load``.
    """
    a, b = _rate_pair(rates)
    return stationary_from_load(a / b, capacity_k)


def geometric_form(rates: RatePair, capacity_k: int) -> np.ndarray:
    """Stationary vector as the two-root combination c1 r^k + c2 g^(K-k).

    An independent route to the same vector as ``stationary_from_load``.
    For birth < death, r is the minimal nonnegative root of
    birth - (birth+death) r + death r^2 = 0; for birth > death, g is the
    minimal nonnegative root of birth g^2 - (birth+death) g + death = 0; and
    r * g = 1.  So the two geometric sequences are proportional, the two
    boundary balance equations hold for every split of the weights, and only
    the normalization constrains them: the whole weight is carried by the
    bounded sequence (powers <= 1).  Equal rates raise ``DegenerateCaseError``
    (both roots collapse to 1; use the uniform branch).
    """
    a, b = float(rates[0]), float(rates[1])
    if not (a > 0 and b > 0):
        raise ConfigError(f"rates must be positive, got birth={a}, death={b}")
    if abs(a - b) < UNIFORM_THRESHOLD * (a + b):
        raise DegenerateCaseError(
            "equal birth and death rates: both roots collapse to 1"
        )
    minimal = (a + b - abs(a - b)) / 2.0
    k, down = _levels(_queue_capacity(capacity_k))
    w = (minimal / b) ** k if a < b else (minimal / a) ** down
    return 1.0 / float(np.sum(w)) * w


def _defect_kernel(group: list[SystemParams]):
    """The defect rho -> birth(p(rho)) - rho * death(p(rho)) of parameter sets that
    share (K, omega), for many trial loads in one call.

    The returned function ``rows(loads, lanes) -> (defects, p, births, deaths)`` takes
    trial loads (at least 0; they are not validated) and, per load, the index of its set
    in ``group`` (any lane numbers for a one-set group, as the probe's).  It returns the
    block p of ``_stationary_rows`` of the loads and, as lists of Python floats, the
    defects and the ``_lane_rates`` of p; each row has the bits of a solve of its set
    alone.  It never warns: overflow, 1 - p_K = 0 and 0 * inf give their IEEE values.
    """
    capacity_k, rates = group[0].capacity_k, _lane_rates(group)

    def rows(loads, lanes):
        rho = np.array(loads, dtype=float)
        p = _stationary_rows(rho, capacity_k)
        births, deaths = rates(p, lanes)
        return [a - x * b for x, a, b in zip(rho.tolist(), births, deaths)], p, births, deaths

    return rows


def _straddles(f_lo: float, f_hi: float) -> bool:
    """Whether a nonzero f_lo and f_hi bracket a root: opposite signs, or f_hi
    a zero.  A NaN has no sign, so it never brackets."""
    return f_lo < 0.0 <= f_hi or f_hi <= 0.0 < f_lo


def _brent_steps(lo: float, hi: float, f_lo: float, f_hi: float, maxiter: int):
    """Brent's method for a root of f on the bracket [lo, hi], as a generator.

    ``f_lo`` and ``f_hi`` are f(lo) and f(hi), which the caller has already
    evaluated for its own bracket test.  The generator yields each trial x
    inside the bracket as a 1-tuple, reads f(x) from the iterator it is
    sent and returns (root, iterations).  A step-for-step port of scipy's ``brentq``
    (``Zeros/brentq.c``) at the tolerances ``_XTOL`` and ``_RTOL``, in
    Python floats: it returns the same root bits after the same number of
    iterations, as the oracle test pins.  A zero at an end is returned
    after 0 iterations, where scipy leaves its count unset.  Where scipy
    raises ``ValueError`` for ends of one sign this raises
    ``NoBracketError``; where it raises ``ValueError`` for a NaN value or
    ``RuntimeError`` after ``maxiter`` iterations, this raises
    ``InvariantViolationError``.
    """
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = float(f_lo), float(f_hi)
    for x, fx in ((xpre, fpre), (xcur, fcur)):
        if fx != fx:
            raise InvariantViolationError(f"root finder got NaN at x={x!r}")
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if (fpre < 0.0) == (fcur < 0.0):
        raise NoBracketError(
            f"f does not change sign between {xpre:.6g} ({fpre:.6g}) "
            f"and {xcur:.6g} ({fcur:.6g})",
            lo=xpre, hi=xcur, defect_lo=fpre, defect_hi=fcur,
        )
    xtol, rtol = _XTOL, _RTOL
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        # each magnitude once per iteration; a swap moves fblk's into fcur's place
        abs_fcur, abs_fblk = abs(fcur), abs(fblk)
        if abs_fblk < abs_fcur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            abs_fcur = abs_fblk
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        abs_sbis = abs(sbis)
        if fcur == 0.0 or abs_sbis < delta:
            return xcur, iterations
        abs_spre = abs(spre)
        if abs_spre > delta and abs_fcur < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to +-inf or NaN there, and a non-finite trial
                # step always fails the short-step test below
                stry = math.inf
            limit = 3 * abs_sbis - delta
            if 2 * abs(stry) < (abs_spre if abs_spre < limit else limit):  # C's MIN
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(next((yield (xcur,))))
        if fcur != fcur:
            raise InvariantViolationError(f"root finder got NaN at x={xcur!r}")
    raise InvariantViolationError(
        f"root finder did not converge after {maxiter} iterations, value is {xcur!r}"
    )


def _lockstep(steppers: list, rows) -> list:
    """Run step generators side by side on one ``_defect_kernel``.

    Generator i is lane i of ``rows``: it yields a tuple of trial loads and is
    sent an iterator over the round's defects, from which it reads the defects
    of its own loads, in order, before it yields again, returns or raises.
    Each round evaluates the loads of every live lane in one call of ``rows``.
    Returns, per lane, the generator's return value, or the ``BikeShareError``
    it raised; a lane that raises stops, and the others go on.
    """
    outcomes: list = [None] * len(steppers)
    live, values = list(enumerate(steppers)), None
    while live:
        asked, loads, lanes = [], [], []
        for lane, stepper in live:
            try:
                trial = stepper.send(values)
            except StopIteration as stop:
                outcomes[lane] = stop.value
                continue
            except BikeShareError as exc:
                outcomes[lane] = exc
                continue
            asked.append((lane, stepper))
            loads += trial
            if len(trial) == 1:
                lanes.append(lane)
            else:
                lanes += (lane,) * len(trial)
        # the lanes read this round's defects in the order they asked for them
        live, values = asked, iter(rows(loads, lanes)[0] if loads else ())
    return outcomes


def _solved_points(rows, found: list, capacity_k: int) -> list:
    """The outcomes ``found`` of a ``_lockstep`` run on ``rows``, with each lane's
    (root, iterations) replaced by its ``FixedPointResult``, or by the
    ``BikeShareError`` its rates raise; every other entry is kept as it is.  The
    vectors and rates of all roots come from one kernel block; the residual is p V_p
    in sup-norm: one gemv per lane on the one generator of ``_generator_writer``, each
    into its row of a product block, and one reduction of that block."""
    lanes = [lane for lane, outcome in enumerate(found) if type(outcome) is tuple]
    roots = [found[lane][0] for lane in lanes]
    _, block, births, deaths = rows(roots, lanes)
    births = [max(a, 0.0) for a in births]  # -0.0 stays -0.0
    points, products, generator = list(found), np.zeros_like(block), _generator_writer(capacity_k)
    for lane, p, a, b, product in zip(lanes, block, births, deaths, products):
        if (error := _rate_error(a, b)) is None:
            np.matmul(p, generator(a, b), product)
        else:
            points[lane] = error
    residuals = np.maximum.reduce(np.abs(products, products), 1).tolist()
    for lane, p, root, a, b, residual in zip(lanes, block, roots, births, deaths, residuals):
        if points[lane] is found[lane]:
            points[lane] = FixedPointResult(p, root, RatePair(a, b), residual, found[lane][1])
    return points


def rho_upper_bound(params: SystemParams) -> float:
    """Largest load compatible with the assumed domain: mu*C/(delta*lambda)."""
    return params.mu * params.capacity_c / (params.delta * params.lam)


def _sign_certified(rows, lane: int, rho: float) -> bool:
    """Whether lane ``lane`` of ``rows`` has a defect of 0 at rho or 16 ``_brent_steps``
    tolerances to either side (0 at the least), or one that changes sign between those
    two; a NaN certifies nothing."""
    width = 16 * (_XTOL + _RTOL * abs(rho)) / 2
    d_lo, d_rho, d_hi = rows([max(rho - width, 0.0), rho, rho + width], [lane] * 3)[0]
    return d_lo == 0.0 or d_rho == 0.0 or _straddles(d_lo, d_hi)


def _rounding_bound(result: FixedPointResult, params: SystemParams) -> float:
    """First-order rounding bound eps * E[Q] * mu / (1 - p_K) * max_k p_k of the residual
    at ``result``: one rounding of E[Q] moves the birth rate by eps * E[Q] * mu / (1 - p_K),
    and a level's balance weighs that rate by at most the largest p_k."""
    p = result.p
    free = 1.0 - p.item(-1)
    if not free > 0.0:
        return 0.0
    return _EPS * float(_level_sum(params.capacity_k)(p)) * params.mu / free * p.max()


def _root_steps(rho_hi: float):
    """The load of one solve, as a generator for ``_lockstep``: the defect at 0 and at
    ``rho_hi``, then ``_brent_steps`` on that bracket.  Returns (root, iterations)."""
    defects = yield 0.0, rho_hi
    d_lo, d_hi = next(defects), next(defects)
    if d_lo == 0.0:
        return 0.0, 0
    if not _straddles(d_lo, d_hi):
        raise NoBracketError(
            f"defect does not change sign between 0 ({d_lo:.6g}) and "
            f"{rho_hi:.6g} ({d_hi:.6g}); no fixed point in the assumed domain",
            lo=0.0, hi=rho_hi, defect_lo=d_lo, defect_hi=d_hi,
        )
    return (yield from _brent_steps(0.0, rho_hi, d_lo, d_hi, maxiter=200))


def _accepted(result: FixedPointResult, params: SystemParams, rows, lane: int):
    """``result`` if ``solve_fixed_point`` accepts it, else the error it raises."""
    scale = result.rates.birth + result.rates.death
    if (result.residual >= RESIDUAL_TOL * scale and not _sign_certified(rows, lane, result.rho)
            and not result.residual <= (rounding := _rounding_bound(result, params))):
        return InvariantViolationError(
            f"solver residual {result.residual:.3e} did not reach {RESIDUAL_TOL:.0e} relative to "
            f"birth + death = {scale:.3e} or its rounding bound {rounding:.3e}, and the defect "
            f"keeps its sign near rho={result.rho!r}"
        )
    bound = 1.0 - params.delta
    if result.p[0] > bound or result.p[-1] > bound:
        return AssumptionViolationError(
            "fixed point violates the problematic-station bound: "
            f"p0={result.p[0]:.6g}, pK={result.p[-1]:.6g}, bound={bound:.6g}",
            result=result,
        )
    return result


def _residual_capacity_error(capacity_k: int) -> ConfigError | None:
    """The ``ConfigError`` of a capacity whose dense (K+1) x (K+1) residual generator
    cannot be allocated, or None."""
    return _capacity_error(capacity_k, 8 * (capacity_k + 1) ** 2, "solve",
                           "the dense (K+1) x (K+1) residual generator needs 8 (K+1)**2 bytes")


@np.errstate(all="ignore")
def _solve_many(params_list: list[SystemParams]) -> list:
    """``solve_fixed_point`` of every set in ``params_list``: per set its
    ``FixedPointResult``, or the ``BikeShareError`` its solve raises.

    Sets that share (K, omega) are solved in lockstep on one ``_defect_kernel``,
    which gives every set the bits of a solve on its own.
    """
    outcomes: list = [None] * len(params_list)
    groups: dict = {}
    for index, params in enumerate(params_list):
        groups.setdefault((params.capacity_k, params.omega), []).append(index)
    for indices in groups.values():
        group = [params_list[index] for index in indices]
        if (error := _residual_capacity_error(group[0].capacity_k)) is not None:
            for index in indices:
                outcomes[index] = error
            continue
        rows = _defect_kernel(group)
        found = _lockstep([_root_steps(rho_upper_bound(params)) for params in group], rows)
        points = _solved_points(rows, found, group[0].capacity_k)
        for lane, (index, point) in enumerate(zip(indices, points)):
            outcomes[index] = (point if isinstance(point, BikeShareError)
                               else _accepted(point, group[lane], rows, lane))
    return outcomes


def solve_fixed_point(params: SystemParams) -> FixedPointResult:
    """Solve p V_p = 0, p e = 1 by scalar reduction on the load.

    For a trial load rho the stationary vector p(rho) is explicit, so the
    fixed point solves defect(rho) = birth(p(rho)) - rho*death(p(rho)) = 0.
    The defect is bracketed on [0, mu*C/(delta*lambda)] and solved with
    Brent's method (``_brent_steps``); a NaN defect at either end brackets
    nothing and raises ``NoBracketError``.  The root is accepted if p V_p is
    below ``RESIDUAL_TOL`` times birth + death in sup-norm or, since the best
    float load can miss that where C - E[Q] cancels, if ``_sign_certified``,
    or, where the defect near the root is rounding noise of either sign, if
    the residual is within its ``_rounding_bound``.
    It is rejected loudly if p0 or pK violates the assumed 1 - delta bound.
    A capacity whose dense residual generator cannot be allocated raises
    ``ConfigError`` before anything is allocated (``_residual_capacity_error``).
    This is the one-set case of ``_solve_many``.
    """
    (outcome,) = _solve_many([params])
    if isinstance(outcome, BikeShareError):
        raise outcome
    return outcome


@np.errstate(all="ignore")
def nonlinear_residual(p, params: SystemParams) -> np.ndarray:
    """K+1 residuals of the cleared-denominator stationary equations at p.

    Level 0:      -mu p0 (1-p0) (C - sum k p_k) + p1 [lam(1-p0) + gamma p0 (1-p0^w)] (1-pK)
    Levels 1..K-1: -mu (1-p0) (C - sum) (p_{k-1}-p_k) + [...] (1-pK) (p_k - p_{k+1})
    Level K:      -mu p_{K-1} (1-p0) (C - sum) + pK [...] (1-pK)

    A true fixed point gives the zero vector.
    """
    p = _one_vector("nonlinear_residual", p, params)
    p0 = p[0]
    pk = p[-1]
    fleet = params.capacity_c - float(_level_sum(params.capacity_k)(p))
    rent = (params.lam * (1.0 - p0) + params.gamma * p0 * (1.0 - p0 ** params.omega)) * (1.0 - pk)
    res = np.empty_like(p)
    res[0] = -params.mu * p0 * (1.0 - p0) * fleet + p[1] * rent
    res[1:-1] = (-params.mu * (1.0 - p0) * fleet * (p[:-2] - p[1:-1])
                 + rent * (p[1:-1] - p[2:]))
    res[-1] = -params.mu * p[-2] * (1.0 - p0) * fleet + p[-1] * rent
    return res


def _refine_locally(rho0: float, max_steps: int):
    """Polish a load estimate with at most ``max_steps`` secant steps on the
    defect around rho0, as a generator for ``_lockstep``.

    Falls back to Brent's method on a small expanding bracket if the secant
    iteration leaves the neighbourhood; the search never restarts globally
    so distinct basins would surface as distinct answers.  Returns the load
    and the number of defect evaluations made.
    """
    x0 = max(rho0, 0.0)
    x1 = x0 * (1.0 + 1e-7) + 1e-12
    defects = yield x0, x1
    f0, f1 = next(defects), next(defects)
    used = 2
    reach = max(1.0, abs(rho0))
    for _ in range(max_steps):
        if f1 == 0.0:
            return x1, used
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not math.isfinite(x2) or x2 < 0.0 or abs(x2 - x1) > reach:
            break
        x0, f0 = x1, f1
        x1 = x2
        f1 = next((yield (x1,)))
        used += 1
        if abs(x1 - x0) <= 1e-15 * max(1.0, abs(x1)):
            return x1, used
    # expanding local bracket as a fallback
    width = max(1e-6, 1e-3 * max(1.0, rho0))
    for _ in range(60):
        lo = max(0.0, rho0 - width)
        hi = rho0 + width
        defects = yield lo, hi
        flo, fhi = next(defects), next(defects)
        used += 2
        if flo == 0.0:
            return lo, used
        if _straddles(flo, fhi):
            root, iterations = yield from _brent_steps(lo, hi, flo, fhi, maxiter=100)
            # Brent evaluates once per iteration but the last (none for a zero at an end)
            return root, used + max(iterations - 1, 0)
        width *= 2.0
    raise InvariantViolationError(
        f"local refinement failed to isolate a root near rho={rho0:.6g}"
    )


@np.errstate(all="ignore")
def uniqueness_probe(params: SystemParams, n_starts: int, seed: int = 0,
                     max_iterations: int = 60) -> list[FixedPointResult]:
    """Hunt for multiple fixed points from random starting vectors.

    The self-map sends any vector to the stationary vector at the load its rates induce,
    so fixed points are exactly the roots of the scalar defect.  Each random start (a
    Dirichlet draw on the simplex) is mapped once to that load, and the load is refined
    locally on the defect with at most ``max_iterations`` secant steps; the run never
    falls back to the global bracketed solve, so a root in another basin produces another
    answer.  A refinement reads nothing but its start load, so starts with the same load
    share one refinement (every start that parks more than C bikes on average has load
    0), and the distinct loads are refined in lockstep, one kernel call per round.
    Refinements that end on the same root share one solved point.  No load or root is
    -0.0 or NaN, so equal floats there have equal bits.  Each start still gets its own
    result and its own copy of p; its ``iterations`` counts the defect evaluations of the
    refinement it shares.  All results must agree within 1e-8 in sup-norm, otherwise
    ``MultipleFixedPointsError`` carries the distinct results, each the first start's
    result at its root.

    Before the draw, ``ConfigError`` refuses what ``solve_fixed_point`` refuses, a
    negative ``max_iterations`` (0 goes straight to the bracketed fallback) and more
    starts than ``core._array_byte_limit`` holds at 8 (K+1)**2 bytes for the residual
    generator, 1 MiB for the first call and 16 (K+1) + 2400 bytes a start.
    """
    n_starts = _as_int("n_starts", n_starts)
    max_iterations = _as_int("max_iterations", max_iterations)
    if n_starts < 1:
        raise ConfigError(f"n_starts must be at least 1, got {n_starts}")
    if max_iterations < 0:
        raise ConfigError(f"max_iterations must be nonnegative, got {max_iterations}")
    size = params.capacity_k + 1
    if (error := _residual_capacity_error(params.capacity_k)
            or _capacity_error(n_starts, 8 * size ** 2 + 2 ** 20 + n_starts * (16 * size + 2400),
                               "probe", "the probe needs 8 (K+1)**2 bytes for its residual "
                               "generator, 1 MiB for its first call and 16 (K+1) + 2400 bytes a "
                               "start (two trial rows, its lane and its result)", key="n_starts")):
        raise error
    # the start block is freed once its rates are read
    birth, death = _lane_rates([params])(np.random.default_rng(_as_seed(seed)).dirichlet(
        np.ones(size), size=n_starts), [0] * n_starts)
    lane_of: dict = {}  # start load -> lane of its refinement
    lanes = [lane_of.setdefault(max(a, 0.0) / b, len(lane_of)) for a, b in zip(birth, death)]
    rows = _defect_kernel([params])
    found = _lockstep([_refine_locally(rho0, max_iterations) for rho0 in lane_of], rows)
    root_lane: dict = {}  # root -> its first lane, whose solved point later lanes there take
    shared = [root_lane.setdefault(outcome[0], lane) if type(outcome) is tuple else lane
              for lane, outcome in enumerate(found)]
    solving = [found[lane] if first == lane else None for lane, first in enumerate(shared)]
    points = _solved_points(rows, solving, params.capacity_k)
    results, distinct, taken = [], [], set()
    for lane in lanes:
        first = shared[lane]
        point = points[first]
        if isinstance(point, BikeShareError):
            raise point
        res = FixedPointResult(point.p.copy() if first in taken else point.p, point.rho,
                               point.rates, point.residual, found[lane][1])
        results.append(res)
        # a later start at a root already seen has the same p, so it is never distinct
        if first not in taken and all(float(np.max(np.abs(res.p - d.p))) > 1e-8
                                      for d in distinct):
            distinct.append(res)
        taken.add(first)
    if len(distinct) > 1:
        raise MultipleFixedPointsError(
            f"{len(distinct)} distinct fixed points found across {n_starts} starts",
            results=distinct,
        )
    return results


@np.errstate(all="ignore")
def self_map_residual(p, params: SystemParams) -> float:
    """Sup-norm distance between p and the stationary vector its rates induce."""
    p = fraction_vector(_one_vector("self_map_residual", p, params))
    (a,), (b,) = _lane_rates([params])(p[None, :], [0])
    image = stationary_from_load(max(a, 0.0) / b, params.capacity_k)
    return float(np.max(np.abs(p - image)))
