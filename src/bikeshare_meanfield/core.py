"""System parameters and the station-level rate formulas.

The model has N identical stations, each with K docks and C bikes at time
zero (1 <= C < K).  Customers arrive at system rate N*lambda; a customer at
an empty station walks to another station (rate gamma, at most omega
consecutive walks before giving up); a riding bike completes its trip at
rate mu and bounces persistently off full stations.  Seen from one tagged
station, the bike count is a birth-death queue whose birth and death rates
are functions of the fraction of stations at each occupancy level; this
module implements those rate functions and the associated tridiagonal
generator.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .csvrows import write_text
from .errors import ConfigError, FullSystemError, NegativeFleetError

#: tolerance for "sums to one" checks on fraction vectors
SIMPLEX_TOL = 1e-9

#: negative bikes-in-transit below this magnitude are treated as round-off
FLEET_TOL = 1e-9

_EPS = float(np.finfo(float).eps)

# JSON key -> dataclass field ("lambda" is a Python keyword)
_JSON_FIELDS = {
    "lambda": "lam",
    "mu": "mu",
    "gamma": "gamma",
    "omega": "omega",
    "capacity_c": "capacity_c",
    "capacity_k": "capacity_k",
    "n_stations": "n_stations",
    "delta": "delta",
}


def _as_int(name: str, value) -> int:
    if type(value) is int:
        return value
    if isinstance(value, (bool, np.bool_, str)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc


def _as_float(name: str, value) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    number = math.nan
    if not isinstance(value, (bool, np.bool_, str)):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def _as_bool(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _as_seed(value) -> int:
    """The 64-bit seed of ``SimConfig``, ``uniqueness_probe`` and ``validate``: an integer
    in [0, 2**64)."""
    seed = _as_int("seed", value)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {value!r}")
    return seed


def _as_list(name: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return value


def _write_json(path, payload: dict) -> None:
    """Write one output JSON document whole, through ``csvrows.write_text``: two-space
    indent and a final newline.  A payload that cannot be encoded leaves ``path`` as it was."""
    write_text(path, json.dumps(payload, indent=2) + "\n")


@dataclass(frozen=True, init=False)
class SystemParams:
    """All model constants in one validated record.

    lam         per-station customer arrival rate (1/time)
    mu          ride-completion rate (1/time)
    gamma       walk-completion rate (1/time)
    omega       maximal number of consecutive walks (>= 0)
    capacity_c  bikes initially parked at each station
    capacity_k  parking positions at each station (C < K)
    n_stations  number of stations (only finite-N objects use it)
    delta       problematic-station margin in (0, 1): the analysis assumes
                the empty and full fractions stay below 1 - delta

    The constructor converts the four floats, then the four integers, checks the
    converted values and stores all eight at once; ``repr``, ``==``, ``hash`` and
    ``dataclasses.replace`` are the dataclass's.
    """

    lam: float
    mu: float
    gamma: float
    omega: int
    capacity_c: int
    capacity_k: int
    n_stations: int = 1000
    delta: float = 0.1

    def __init__(self, lam: float, mu: float, gamma: float, omega: int, capacity_c: int,
                 capacity_k: int, n_stations: int = 1000, delta: float = 0.1):
        lam, mu, gamma, delta = (_as_float("lambda", lam), _as_float("mu", mu),
                                 _as_float("gamma", gamma), _as_float("delta", delta))
        omega, capacity_c, capacity_k, n_stations = (
            _as_int("omega", omega), _as_int("capacity_c", capacity_c),
            _as_int("capacity_k", capacity_k), _as_int("n_stations", n_stations))
        if not lam > 0:
            raise ConfigError(f"lambda must be positive, got {lam}")
        if not 0 < gamma <= mu:
            raise ConfigError(f"rates must satisfy 0 < gamma <= mu, got gamma={gamma}, mu={mu}")
        if omega < 0:
            raise ConfigError(f"omega must be nonnegative, got {omega}")
        try:
            float(omega)
        except OverflowError:
            raise ConfigError(
                f"omega must fit in a float, got a {omega.bit_length()}-bit integer"
            ) from None
        if not 1 <= capacity_c < capacity_k:
            raise ConfigError(
                f"capacities must satisfy 1 <= C < K, got C={capacity_c}, K={capacity_k}"
            )
        if n_stations < 2:
            raise ConfigError(f"n_stations must be at least 2, got {n_stations}")
        if not 0 < delta < 1:
            raise ConfigError(f"delta must lie in (0, 1), got {delta}")
        self.__dict__.update(lam=lam, mu=mu, gamma=gamma, omega=omega, capacity_c=capacity_c,
                             capacity_k=capacity_k, n_stations=n_stations, delta=delta)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemParams":
        """Build from a flat mapping with keys lambda, mu, gamma, omega,
        capacity_c, capacity_k, n_stations, delta.

        Unknown keys are ignored so that run configurations can carry
        command-specific entries next to the model constants.
        """
        kwargs = {}
        for key, field_name in _JSON_FIELDS.items():
            if key in data:
                kwargs[field_name] = data[key]
        missing = [k for k, f in _JSON_FIELDS.items()
                   if f not in kwargs and f not in ("n_stations", "delta")]
        if missing:
            raise ConfigError(f"missing parameter keys: {', '.join(sorted(missing))}")
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in _JSON_FIELDS.items()}

    def csv_params_line(self) -> str:
        """The ``# params: {...}`` line that opens a CSV output."""
        return f"# params: {json.dumps(self.to_dict(), sort_keys=True)}\n"


class RatePair(NamedTuple):
    """Coupled birth/death rates of the tagged-station queue.

    ``birth`` is the return-side rate (bikes arriving to park), ``death``
    the rental-side rate (bikes leaving).  ``death`` is always at least
    lambda; ``birth`` is nonnegative.
    """

    birth: float
    death: float


def fraction_vector(values, capacity_k: int | None = None) -> np.ndarray:
    """Validate a vector of occupancy fractions (index k = bikes at a station).

    Entries must be numbers (booleans and strings are rejected), lie in
    [0, 1] and sum to 1 within ``SIMPLEX_TOL``.  Returns a float copy.  If
    ``capacity_k`` is given the length must be K + 1.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        y = values.astype(float)
    else:
        try:
            y = np.array([_as_float("fraction entries", v) for v in values])
        except TypeError as exc:
            raise ConfigError(f"a fraction vector must be a list, got {values!r}") from exc
    if y.ndim != 1 or y.size < 2:
        raise ConfigError("a fraction vector must be one-dimensional with length >= 2")
    if capacity_k is not None and y.size != capacity_k + 1:
        raise ConfigError(f"expected length {capacity_k + 1}, got {y.size}")
    if not np.all((y >= -1e-12) & (y <= 1 + 1e-12)):
        raise ConfigError("fraction entries must lie in [0, 1]")
    total = float(y.sum())
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise ConfigError(f"fractions must sum to 1 within {SIMPLEX_TOL}, got {total!r}")
    return y


def _one_vector(name: str, y, params: SystemParams | None = None) -> np.ndarray:
    """``y`` as one float vector: of length K+1 under ``params``, the argument of a public
    rate, drift or metric, and of any length of at least 1 without.

    Entries must be numbers: booleans, strings and ragged nesting are rejected, not converted.
    """
    try:
        y = np.asarray(y)
    except ValueError as exc:
        raise ConfigError(f"{name} expects one vector of numbers, got a ragged nesting") from exc
    if params is None:
        shaped, expected = y.ndim == 1 and y.size > 0, "one nonempty vector"
    else:
        k1 = params.capacity_k + 1
        shaped, expected = y.shape == (k1,), f"one vector of length K+1 = {k1}"
    if not shaped or y.dtype.kind not in "iuf":
        raise ConfigError(
            f"{name} expects {expected} of numbers, got shape {y.shape} and dtype {y.dtype}"
        )
    return y.astype(float, copy=False)


@functools.cache
def _array_byte_limit() -> int:
    """The most bytes one array can take: what numpy can address, and at most the
    machine's physical memory where the system reports it."""
    limit = int(np.iinfo(np.intp).max)
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return limit
    return min(limit, memory) if memory > 0 else limit


def _capacity_error(value: int, nbytes: int, task: str, need: str,
                    key: str = "capacity_k") -> ConfigError | None:
    """The ``ConfigError`` of a ``key`` (by default the capacity K) too large to
    ``task``: ``need`` names the largest array the task allocates at this
    ``value``, which takes ``nbytes``, more than ``_array_byte_limit``.  Callers
    ask before they allocate anything; None when the array fits."""
    limit = _array_byte_limit()
    if nbytes <= limit:
        return None
    name = (f"{key}={value}" if value.bit_length() <= 64
            else f"a {value.bit_length()}-bit {key}")
    return ConfigError(f"{name} is too large to {task}: {need}, more than the {limit} bytes "
                       "one array can take here")


def mean_bikes(y) -> float:
    """Mean number of parked bikes per station under occupancy fractions y."""
    y = _one_vector("mean_bikes", y)
    return float(_level_sum(y.size - 1)(y))


def _geom_series(omega: int):
    """The function x -> 1 + x + ... + x**(omega-1), the sum of the first ``omega`` powers.

    Elementwise for arrays; the empty sum (omega = 0) is 0.  This is the
    finite form of (1 - x**omega) / (1 - x) and is exact at x = 1.  The bits
    of omega are walked from the top by doubling, S(2n) = S(n) + x**n S(n)
    and S(2n+1) = S(2n) + x**(2n), so the cost is O(log omega).  The walk
    of the leading bit 1 from S(0) = 0 and x**0 = 1 leaves S(1) = 1 and
    x**1 = x, or NaN for a non-finite x (whose x * 0.0 is NaN), so the walk
    starts there, with S(0) = x * 0.0 returned for omega = 0 and S(1) for
    omega = 1, which has no bit left to walk.  For a float
    0 <= x < 1 the walk stops once the power underflows to 0, after which
    every step would leave the sum as it is (total + 0.0 * total is total).
    """
    rest = format(omega, "b")[1:]

    def series(x):
        total = x * 0.0
        if omega:
            total = total + 1.0
        if not rest:
            return total
        power = total * x
        underflows = type(x) is float and 0.0 <= x < 1.0
        for bit in rest:
            total = total + power * total
            power = power * power
            if bit == "1":
                total = total + power
                power = power * x
            if underflows and power == 0.0:
                break
        return total

    return series


@functools.lru_cache
def _levels(capacity_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float vectors k and K - k for k = 0..K, shared by every caller."""
    k = np.arange(capacity_k + 1, dtype=float)
    down = capacity_k - k
    k.flags.writeable = down.flags.writeable = False
    return k, down


@functools.lru_cache
def _level_sum(capacity_k: int):
    """E[Q] = sum_k k y_k of a float vector y of length K+1: ``levels.dot``, one ``ddot``."""
    return _levels(capacity_k)[0].dot


def _level_sums(block: np.ndarray) -> np.ndarray:
    """``_level_sum`` of each row of an (n, K+1) block: one stacked ``ddot`` per row keeps each
    row's bits, where the gemv ``block @ k`` sums in another order."""
    return np.matmul(block[:, None, :], _levels(block.shape[1] - 1)[0])[:, 0]


def _walk_slope(y0: float, omega: int) -> float:
    """Derivative of y0 * (1 + y0 + ... + y0**(omega-1)) by a complex step through the series.

    For a real polynomial f, Im f(y0 + ih) = h f'(y0) - h**3 f'''(y0) / 6 + ...
    involves no subtraction, so at h = 2**-64 the slope is exact to rounding.
    """
    x = complex(y0, 2.0 ** -64)
    return (x * _geom_series(omega)(x)).imag * 2.0 ** 64


def _guarded_rates(params: SystemParams):
    """``rates(y0, yk, parked)``: the scalar (birth, death, fleet) of one float
    vector y of ``params`` under the full-system and negative-fleet guards, from
    its end entries y0 and yK and its mean parked bikes ``_level_sum(K)(y)``, which
    the caller reads once; a round-off-sized negative fleet is clamped to zero."""
    mu, c = params.mu, params.capacity_c
    lam, gamma, series = params.lam, params.gamma, _geom_series(params.omega)
    full = 1.0 - _EPS

    def rates(y0, yk, parked):
        fleet = c - float(parked)
        if yk >= full:
            raise FullSystemError("full-station fraction reached 1: persistent-return rate "
                                  "undefined")
        if fleet < -FLEET_TOL:
            raise NegativeFleetError("mean parked bikes exceed C: bikes in transit would be "
                                     f"negative (deficit {fleet:.3e})")
        fleet = max(fleet, 0.0)
        return mu * fleet / (1.0 - yk), lam + gamma * y0 * series(y0), fleet

    return rates


def limiting_rates(y, params: SystemParams) -> RatePair:
    """Birth/death rates of the infinite-population dynamics at fractions y.

    death = lambda + gamma * y0 * (1 + y0 + ... + y0**(omega-1));
    birth = mu * (C - sum_k k*y_k) / (1 - y_K).
    """
    y = _one_vector("limiting_rates", y, params)
    birth, death, _ = _guarded_rates(params)(y.item(0), y.item(-1),
                                             _level_sum(params.capacity_k)(y))
    return RatePair(birth=birth, death=death)


def _rate_error(a: float, b: float) -> ConfigError | None:
    """The ``ConfigError`` of floats (a, b) that are not the (birth, death) pair of a
    constant-rate queue, birth >= 0 and death > 0 (NaN fails), or None."""
    if not a >= 0:
        return ConfigError(f"birth rate must be nonnegative, got {a}")
    if not b > 0:
        return ConfigError(f"death rate must be positive, got {b}")
    return None


def _rate_pair(rates) -> tuple[float, float]:
    """The (birth, death) pair of a constant-rate queue, checked by ``_rate_error``."""
    a, b = float(rates[0]), float(rates[1])
    if (error := _rate_error(a, b)) is not None:
        raise error
    return a, b


def _queue_capacity(capacity_k) -> int:
    """The capacity K of a constant-rate queue: an integer of at least 1."""
    capacity_k = _as_int("capacity_k", capacity_k)
    if capacity_k < 1:
        raise ConfigError(f"capacity_k must be at least 1, got {capacity_k}")
    return capacity_k


def _generator_writer(capacity_k: int):
    """``write(a, b)``, which writes the tridiagonal generator of ``build_generator``
    with the float rates a, b (not validated) into the three diagonals of one zeroed
    (K+1)x(K+1) matrix and returns that matrix.  Every call rewrites the same matrix,
    whose entries off the three diagonals stay zero, so a caller that needs one
    generator at a time allocates and zeroes its memory once."""
    n = capacity_k + 1
    gen = np.zeros((n, n))
    # strided views of the flat matrix: entry (i, j) sits at i * n + j
    flat = gen.reshape(-1)
    upper, lower, diagonal = flat[1::n + 1], flat[n::n + 1], flat[::n + 1]

    def write(a: float, b: float) -> np.ndarray:
        upper.fill(a)
        lower.fill(b)
        diagonal.fill(-(a + b))
        diagonal[0] = -a
        diagonal[-1] = -b
        return gen

    return write


def build_generator(rates: RatePair, capacity_k: int) -> np.ndarray:
    """(K+1)x(K+1) tridiagonal generator with constant birth/death rates.

    Birth rate on the superdiagonal, death rate on the subdiagonal, and
    diagonal entries -birth, -(birth+death), ..., -death so that every row
    sums to zero up to one rounding of the diagonal.  The validated one-call
    case of ``_generator_writer``.
    """
    a, b = _rate_pair(rates)
    return _generator_writer(_queue_capacity(capacity_k))(a, b)
