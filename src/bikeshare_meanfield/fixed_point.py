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

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import (
    RatePair,
    SystemParams,
    _one_vector,
    _rate_pair,
    _rates_arrays,
    _write_json,
    build_generator,
    fraction_vector,
)
from .errors import (
    AssumptionViolationError,
    ConfigError,
    DegenerateCaseError,
    InvariantViolationError,
    MultipleFixedPointsError,
    NoBracketError,
)

#: relative |birth - death| gap below which the load counts as exactly 1
UNIFORM_THRESHOLD = 1e-13

#: default residual tolerance for the solver
DEFAULT_TOL = 1e-10


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


@dataclass(frozen=True)
class GeometricRoots:
    """Root pair (r, g) of the two stationary quadratics, with r * g = 1.

    For birth < death, r is the minimal nonnegative root of
    birth - (birth+death) r + death r^2 = 0 and g its reciprocal; for
    birth > death, g is the minimal nonnegative root of
    birth g^2 - (birth+death) g + death = 0 and r its reciprocal.
    """

    r: float
    g: float


def stationary_from_load(rho: float, capacity_k: int) -> np.ndarray:
    """Stationary vector of the constant-rate birth-death queue with load rho.

    Normalized powers of rho, evaluated through the smaller of rho and
    1/rho so the computation is smooth in rho and safe for extreme loads.
    """
    if rho < 0:
        raise ConfigError(f"load must be nonnegative, got {rho}")
    if capacity_k < 1:
        raise ConfigError(f"capacity_k must be at least 1, got {capacity_k}")
    k = np.arange(capacity_k + 1, dtype=float)
    if rho <= 1.0:
        w = rho ** k
    else:
        w = (1.0 / rho) ** (capacity_k - k)
    return w / w.sum()


def birth_death_stationary(rates: RatePair, capacity_k: int) -> np.ndarray:
    """Stationary vector p_k = rho^k (1-rho) / (1-rho^(K+1)) at load rho = birth/death.

    The rates are validated, then the vector is ``stationary_from_load``.
    """
    a, b = _rate_pair(rates)
    return stationary_from_load(a / b, capacity_k)


def geometric_roots(rates: RatePair) -> GeometricRoots:
    """Minimal-root pair (r, g) with r*g = 1 for unequal rates.

    Raises ``DegenerateCaseError`` when the rates are equal (the caller
    must use the uniform branch).
    """
    a, b = float(rates[0]), float(rates[1])
    if a <= 0 or b <= 0:
        raise ConfigError(f"rates must be positive, got birth={a}, death={b}")
    if abs(a - b) < UNIFORM_THRESHOLD * (a + b):
        raise DegenerateCaseError(
            "equal birth and death rates: both roots collapse to 1"
        )
    minimal = (a + b - abs(a - b)) / 2.0
    if a < b:
        r = minimal / b
        g = 1.0 / r
    else:
        g = minimal / a
        r = 1.0 / g
    return GeometricRoots(r=r, g=g)


def geometric_coefficients(roots: GeometricRoots, capacity_k: int) -> tuple[float, float]:
    """Weights (c1, c2) of the representation p_k = c1 r^k + c2 g^(K-k).

    Because r*g = 1 the two geometric sequences are proportional, the two
    boundary balance equations hold for every split, and only the
    normalization constrains the weights; the whole weight is carried by
    the bounded sequence (powers <= 1) and the diverging one gets zero.
    """
    r, g = roots.r, roots.g
    k = np.arange(capacity_k + 1, dtype=float)
    if r < 1.0:
        return 1.0 / float(np.sum(r ** k)), 0.0
    return 0.0, 1.0 / float(np.sum(g ** (capacity_k - k)))


def geometric_form(rates: RatePair, capacity_k: int) -> np.ndarray:
    """Stationary vector as the two-root combination c1 r^k + c2 g^(K-k).

    An independent route to the same vector as ``stationary_from_load``;
    requires unequal rates.
    """
    roots = geometric_roots(rates)
    c1, c2 = geometric_coefficients(roots, capacity_k)
    k = np.arange(capacity_k + 1, dtype=float)
    if c2 == 0.0:
        return c1 * roots.r ** k
    return c2 * roots.g ** (capacity_k - k)


def _defect(rho: float, params: SystemParams) -> float:
    """Scalar self-consistency defect birth(p(rho)) - rho * death(p(rho)).

    The birth rate is evaluated without the nonnegative-fleet guard: trial
    loads with mean parked bikes above C are legal probe points and must
    give a smoothly negative defect.
    """
    p = stationary_from_load(rho, params.capacity_k)
    a, b = _rates_arrays(p, params, check=False)
    return float(a) - rho * float(b)


def _result_at(rho: float, params: SystemParams, iterations: int) -> FixedPointResult:
    p = stationary_from_load(rho, params.capacity_k)
    a, b = _rates_arrays(p, params, check=False)
    rates = RatePair(birth=float(max(a, 0.0)), death=float(b))
    residual = float(np.max(np.abs(p @ build_generator(rates, params.capacity_k))))
    return FixedPointResult(p=p, rho=rho, rates=rates, residual=residual,
                            iterations=iterations)


def rho_upper_bound(params: SystemParams) -> float:
    """Largest load compatible with the assumed domain: mu*C/(delta*lambda)."""
    return params.mu * params.capacity_c / (params.delta * params.lam)


def solve_fixed_point(params: SystemParams, tol: float = DEFAULT_TOL) -> FixedPointResult:
    """Solve p V_p = 0, p e = 1 by scalar reduction on the load.

    For a trial load rho the stationary vector p(rho) is explicit, so the
    fixed point solves defect(rho) = birth(p(rho)) - rho*death(p(rho)) = 0.
    The defect is bracketed on [0, mu*C/(delta*lambda)] and solved with a
    guarded bisection/secant scheme; the result is rejected loudly if its
    empty or full fraction violates the assumed 1 - delta bound.  ``tol``
    bounds the sup-norm of p V_p relative to birth + death, so rescaling
    every rate leaves the verdict unchanged.
    """
    if not tol >= 1e-13:
        raise ConfigError(f"tolerance below 1e-13 is not attainable, got {tol}")
    rho_hi = rho_upper_bound(params)
    d_lo = _defect(0.0, params)
    d_hi = _defect(rho_hi, params)
    if d_lo == 0.0:
        rho, iterations = 0.0, 0
    elif np.sign(d_lo) == np.sign(d_hi):
        raise NoBracketError(
            f"defect has the same sign at 0 ({d_lo:.6g}) and at "
            f"{rho_hi:.6g} ({d_hi:.6g}); no fixed point in the assumed domain",
            lo=0.0, hi=rho_hi, defect_lo=d_lo, defect_hi=d_hi,
        )
    else:
        rho, info = brentq(
            _defect, 0.0, rho_hi, args=(params,),
            xtol=1e-15, rtol=8.9e-16, maxiter=200, full_output=True,
        )
        iterations = info.iterations
    result = _result_at(rho, params, iterations)
    scale = result.rates.birth + result.rates.death
    if result.residual >= tol * scale:
        raise InvariantViolationError(
            f"solver residual {result.residual:.3e} did not reach tol {tol:.1e} "
            f"relative to birth + death = {scale:.3e}"
        )
    bound = 1.0 - params.delta
    if result.p[0] > bound or result.p[-1] > bound:
        raise AssumptionViolationError(
            "fixed point violates the problematic-station bound: "
            f"p0={result.p[0]:.6g}, pK={result.p[-1]:.6g}, bound={bound:.6g}",
            result=result,
        )
    return result


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
    fleet = params.capacity_c - float(np.arange(p.size) @ p)
    rent = (params.lam * (1.0 - p0) + params.gamma * p0 * (1.0 - p0 ** params.omega)) * (1.0 - pk)
    res = np.empty_like(p)
    res[0] = -params.mu * p0 * (1.0 - p0) * fleet + p[1] * rent
    res[1:-1] = (-params.mu * (1.0 - p0) * fleet * (p[:-2] - p[1:-1])
                 + rent * (p[1:-1] - p[2:]))
    res[-1] = -params.mu * p[-2] * (1.0 - p0) * fleet + p[-1] * rent
    return res


def _refine_locally(rho0: float, params: SystemParams,
                    max_steps: int) -> tuple[float, int]:
    """Polish a load estimate with at most ``max_steps`` secant steps around rho0.

    Falls back to bisection on a small expanding bracket if the secant
    iteration leaves the neighbourhood; the search never restarts globally
    so distinct basins would surface as distinct answers.
    """
    x0 = max(rho0, 0.0)
    x1 = x0 * (1.0 + 1e-7) + 1e-12
    f0 = _defect(x0, params)
    f1 = _defect(x1, params)
    used = 2
    for _ in range(max_steps):
        if f1 == 0.0:
            return x1, used
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not np.isfinite(x2) or x2 < 0.0 or abs(x2 - x1) > max(1.0, abs(rho0)):
            break
        x0, f0 = x1, f1
        x1 = x2
        f1 = _defect(x1, params)
        used += 1
        if abs(x1 - x0) <= 1e-15 * max(1.0, abs(x1)):
            return x1, used
    # expanding local bracket as a fallback
    width = max(1e-6, 1e-3 * max(1.0, rho0))
    for _ in range(60):
        lo = max(0.0, rho0 - width)
        hi = rho0 + width
        flo = _defect(lo, params)
        fhi = _defect(hi, params)
        used += 2
        if flo == 0.0:
            return lo, used
        if np.sign(flo) != np.sign(fhi):
            root, info = brentq(_defect, lo, hi, args=(params,),
                                xtol=1e-15, rtol=8.9e-16, full_output=True)
            return root, used + info.iterations
        width *= 2.0
    raise InvariantViolationError(
        f"local refinement failed to isolate a root near rho={rho0:.6g}"
    )


def uniqueness_probe(params: SystemParams, n_starts: int, seed: int = 0,
                     max_iterations: int = 60) -> list[FixedPointResult]:
    """Hunt for multiple fixed points from random starting vectors.

    The self-map sends any vector to the stationary vector at the load its
    rates induce, so fixed points are exactly the roots of the scalar
    defect.  Each random start (a Dirichlet draw on the simplex) is mapped
    once to that load, and the load is refined locally on the defect with
    at most ``max_iterations`` secant steps; the run never falls back to the
    global bracketed solve, so a root in another basin produces another
    answer.  ``iterations`` of each result counts the defect evaluations
    of its refinement.  All results must agree within 1e-8 in sup-norm,
    otherwise ``MultipleFixedPointsError`` carries the distinct results.
    """
    if n_starts < 1:
        raise ConfigError(f"n_starts must be at least 1, got {n_starts}")
    rng = np.random.default_rng(seed)
    starts = rng.dirichlet(np.ones(params.capacity_k + 1), size=n_starts)
    a, b = _rates_arrays(starts, params, check=False)
    results: list[FixedPointResult] = []
    for rho0 in np.maximum(a, 0.0) / b:
        rho, used = _refine_locally(float(rho0), params, max_iterations)
        results.append(_result_at(rho, params, used))
    distinct = [results[0]]
    for res in results[1:]:
        if all(float(np.max(np.abs(res.p - d.p))) > 1e-8 for d in distinct):
            distinct.append(res)
    if len(distinct) > 1:
        raise MultipleFixedPointsError(
            f"{len(distinct)} distinct fixed points found across {n_starts} starts",
            results=distinct,
        )
    return results


def self_map_residual(p, params: SystemParams) -> float:
    """Sup-norm distance between p and the stationary vector its rates induce."""
    p = fraction_vector(_one_vector("self_map_residual", p, params))
    a, b = _rates_arrays(p, params, check=False)
    image = stationary_from_load(max(float(a), 0.0) / float(b), params.capacity_k)
    return float(np.max(np.abs(p - image)))
