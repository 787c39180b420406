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

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    if isinstance(value, (bool, np.bool_, str)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc


def _as_float(name: str, value) -> float:
    number = math.nan
    if not isinstance(value, (bool, np.bool_, str)):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def _as_bool(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _as_list(name: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return value


def _read_json_object(path) -> dict:
    """Parse a file that must hold one JSON object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return data


def _write_json(path, payload: dict) -> None:
    """Write one output JSON document: two-space indent and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
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
    """

    lam: float
    mu: float
    gamma: float
    omega: int
    capacity_c: int
    capacity_k: int
    n_stations: int = 1000
    delta: float = 0.1

    def __post_init__(self):
        for key, name in (("lambda", "lam"), ("mu", "mu"), ("gamma", "gamma"),
                          ("delta", "delta")):
            object.__setattr__(self, name, _as_float(key, getattr(self, name)))
        for name in ("omega", "capacity_c", "capacity_k", "n_stations"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if not self.lam > 0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")
        if not 0 < self.gamma <= self.mu:
            raise ConfigError(
                f"rates must satisfy 0 < gamma <= mu, got gamma={self.gamma}, mu={self.mu}"
            )
        if self.omega < 0:
            raise ConfigError(f"omega must be nonnegative, got {self.omega}")
        if not 1 <= self.capacity_c < self.capacity_k:
            raise ConfigError(
                "capacities must satisfy 1 <= C < K, got "
                f"C={self.capacity_c}, K={self.capacity_k}"
            )
        if self.n_stations < 2:
            raise ConfigError(f"n_stations must be at least 2, got {self.n_stations}")
        if not 0 < self.delta < 1:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")

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

    @classmethod
    def from_json(cls, path) -> "SystemParams":
        return cls.from_dict(_read_json_object(path))

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


def _one_vector(name: str, y, params: SystemParams) -> np.ndarray:
    """``y`` as one float vector of length K+1, the argument of a public rate or drift.

    Entries must be numbers: booleans, strings and ragged nesting are rejected, not converted.
    """
    try:
        y = np.asarray(y)
    except ValueError as exc:
        raise ConfigError(f"{name} expects one vector of numbers, got a ragged nesting") from exc
    if y.shape != (params.capacity_k + 1,) or y.dtype.kind not in "iuf":
        raise ConfigError(
            f"{name} expects one vector of length K+1 = {params.capacity_k + 1} "
            f"of numbers, got shape {y.shape} and dtype {y.dtype}"
        )
    return y.astype(float, copy=False)


def mean_bikes(y) -> float:
    """Mean number of parked bikes per station under occupancy fractions y."""
    y = np.asarray(y, dtype=float)
    return float(np.arange(y.size) @ y)


def _geom_sum(x, omega: int):
    """Sum of the first ``omega`` powers of x: 1 + x + ... + x**(omega-1).

    Elementwise for arrays; the empty sum (omega = 0) is 0.  This is the
    finite form of (1 - x**omega) / (1 - x) and is exact at x = 1.  The bits
    of omega are walked from the top by doubling, S(2n) = S(n) + x**n S(n)
    and S(2n+1) = S(2n) + x**(2n), so the cost is O(log omega).
    """
    total = x * 0.0
    power = total + 1.0
    for bit in format(omega, "b"):
        total = total + power * total
        power = power * power
        if bit == "1":
            total = total + power
            power = power * x
    return total


def geometric_walk_factor(p0: float, omega: int) -> float:
    """Walk multiplier sum(p0**k for k < omega); equals omega at p0 = 1."""
    if not 0.0 <= p0 <= 1.0:
        raise ConfigError(f"p0 must lie in [0, 1], got {p0}")
    if omega < 0:
        raise ConfigError(f"omega must be nonnegative, got {omega}")
    return float(_geom_sum(float(p0), omega))


def _death_rate(y0, params: SystemParams):
    """Rental-side rate lambda + gamma * y0 * (1 + y0 + ... + y0**(omega-1))."""
    return params.lam + params.gamma * y0 * _geom_sum(y0, params.omega)


def _check_fleet(yk, fleet) -> None:
    """Full-system and negative-fleet guards (a block passes its largest yK, smallest fleet)."""
    if yk >= 1.0 - _EPS:
        raise FullSystemError("full-station fraction reached 1: persistent-return rate undefined")
    if fleet < -FLEET_TOL:
        raise NegativeFleetError("mean parked bikes exceed C: bikes in transit would be "
                                 f"negative (deficit {float(fleet):.3e})")


def _rates_arrays(y, params: SystemParams, check: bool = True):
    """Vectorized (birth, death) rates; ``y`` has shape (..., K+1).

    With ``check`` the full-system and negative-fleet guards are applied and
    round-off-sized negative fleets are clamped to zero.
    """
    y = np.asarray(y, dtype=float)
    y0 = y[..., 0]
    yk = y[..., -1]
    levels = np.arange(y.shape[-1], dtype=float)
    fleet = params.capacity_c - y @ levels
    if check:
        _check_fleet(np.max(yk), np.min(fleet))
        fleet = np.maximum(fleet, 0.0)
    death = _death_rate(y0, params)
    birth = params.mu * fleet / (1.0 - yk)
    return birth, death


def limiting_rates(y, params: SystemParams) -> RatePair:
    """Birth/death rates of the infinite-population dynamics at fractions y.

    death = lambda + gamma * y0 * (1 + y0 + ... + y0**(omega-1));
    birth = mu * (C - sum_k k*y_k) / (1 - y_K).
    """
    birth, death = _rates_arrays(_one_vector("limiting_rates", y, params), params, check=True)
    return RatePair(birth=float(birth), death=float(death))


def _rate_pair(rates) -> tuple[float, float]:
    """The (birth, death) pair of a constant-rate queue: birth >= 0, death > 0."""
    a, b = float(rates[0]), float(rates[1])
    if a < 0:
        raise ConfigError(f"birth rate must be nonnegative, got {a}")
    if b <= 0:
        raise ConfigError(f"death rate must be positive, got {b}")
    return a, b


def build_generator(rates: RatePair, capacity_k: int) -> np.ndarray:
    """(K+1)x(K+1) tridiagonal generator with constant birth/death rates.

    Birth rate on the superdiagonal, death rate on the subdiagonal, and
    diagonal entries -birth, -(birth+death), ..., -death so that every row
    sums to zero up to one rounding of the diagonal.
    """
    a, b = _rate_pair(rates)
    if capacity_k < 1:
        raise ConfigError(f"capacity_k must be at least 1, got {capacity_k}")
    gen = np.zeros((capacity_k + 1, capacity_k + 1))
    idx = np.arange(capacity_k)
    gen[idx, idx + 1] = a
    gen[idx + 1, idx] = b
    gen[idx, idx] = -(a + b)
    gen[0, 0] = -a
    gen[capacity_k, capacity_k] = -b
    return gen
