"""Core rate formulas and the generator construction."""

import copy
import dataclasses
import itertools
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikeshare_meanfield import (
    RatePair,
    SystemParams,
    build_generator,
    fraction_vector,
    limiting_rates,
    mean_bikes,
    nonlinear_residual,
    self_map_residual,
)
from bikeshare_meanfield.core import _geom_series, _level_sum, _level_sums, _levels
from bikeshare_meanfield.errors import (
    ConfigError,
    FullSystemError,
    NegativeFleetError,
)


def make_params(**kwargs):
    base = dict(lam=1.0, mu=4.0, gamma=0.5, omega=1, capacity_c=3,
                capacity_k=4, n_stations=100, delta=0.2)
    base.update(kwargs)
    return SystemParams(**base)


def _frozen_as_int(name, value):
    """Reference: ``_as_int`` before its fast path for an exact ``int``."""
    if isinstance(value, (bool, np.bool_, str)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from exc


def _frozen_as_float(name, value):
    """Reference: ``_as_float`` before its fast path for a finite exact ``float``, when
    an integer too large for a float raised a bare ``OverflowError``."""
    number = math.nan
    if not isinstance(value, (bool, np.bool_, str)):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def _conversion(convert, value):
    """The type and repr of ``convert("x", value)``, its ``ConfigError`` message, or
    "OverflowError"."""
    try:
        out = convert("x", value)
    except ConfigError as exc:
        return "ConfigError", str(exc)
    except OverflowError:
        return "OverflowError"
    return type(out), repr(out)


def _input_id(value):
    return f"{type(value).__name__}-{str(value)[:12]}"


class _Float(float):
    pass


class _Int(int):
    pass


CONVERSION_INPUTS = [
    True, False, np.bool_(True), np.bool_(False),
    0, 3, -7, 2 ** 53 + 1, 2 ** 1023, 2 ** 1024, 10 ** 400, -(10 ** 400), _Int(4),
    0.0, -0.0, 2.0, 2.5, -3.0, 1e308, 5e-324, math.nan, math.inf, -math.inf, _Float(2.0),
    _Float(2.5), _Float(math.inf), np.float64(2.0), np.float64(2.5), np.float64(math.nan),
    np.float32(1.5), np.int64(5), np.uint8(3), Fraction(3, 2), Fraction(10 ** 400),
    Decimal("2.5"), Decimal("NaN"), "7", "2.5", " 7 ", "nan", "", None, [1], 1 + 0j,
]


class TestSystemParams:
    def test_valid_round_trip(self):
        p = make_params()
        assert SystemParams.from_dict(p.to_dict()) == p

    def test_json_keys(self):
        d = make_params().to_dict()
        assert set(d) == {"lambda", "mu", "gamma", "omega", "capacity_c",
                          "capacity_k", "n_stations", "delta"}

    @pytest.mark.parametrize("bad", [
        dict(lam=0.0),
        dict(lam=-1.0),
        dict(gamma=0.0),
        dict(gamma=5.0),          # gamma > mu
        dict(omega=-1),
        dict(omega=2 ** 1024 - 2 ** 970),  # rounds up past the largest float
        dict(omega=10 ** 400),
        dict(capacity_c=0),
        dict(capacity_c=4),       # C == K
        dict(capacity_c=5),       # C > K
        dict(n_stations=1),
        dict(delta=0.0),
        dict(delta=1.0),
    ])
    def test_invariants_rejected(self, bad):
        with pytest.raises(ConfigError):
            make_params(**bad)

    def test_largest_float_omega_accepted(self):
        largest = 2 ** 1024 - 2 ** 971
        assert float(largest) == np.finfo(float).max
        assert make_params(omega=largest).omega == largest

    def test_non_integer_capacity_rejected(self):
        with pytest.raises(ConfigError):
            make_params(capacity_c=2.5)

    @pytest.mark.parametrize("bad", [
        dict(lam="15"),
        dict(lam=" 1 "),
        dict(mu=True),
        dict(gamma=np.True_),
        dict(delta="0.2"),
        dict(omega="1"),
        dict(capacity_c=" 3 "),
        dict(n_stations=True),
        dict(lam=None),
    ])
    def test_strings_and_booleans_rejected(self, bad):
        with pytest.raises(ConfigError, match="must be"):
            make_params(**bad)

    def test_numbers_of_any_type_accepted(self):
        p = make_params(lam=np.float32(1.0), mu=4, omega=np.int64(1), capacity_c=3.0)
        assert (p.lam, p.mu, p.omega, p.capacity_c) == (1.0, 4.0, 1, 3)
        assert type(p.mu) is float and type(p.omega) is int

    @pytest.mark.parametrize("value", ["7", " 7 ", True, 7.5, None])
    def test_as_int_rejects_coercions(self, value):
        from bikeshare_meanfield.core import _as_int

        with pytest.raises(ConfigError, match="seed must be an integer"):
            _as_int("seed", value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1e400,
                                       np.float64("nan")])
    def test_as_float_rejects_non_finite(self, value):
        from bikeshare_meanfield.core import _as_float

        with pytest.raises(ConfigError, match="lambda must be a finite number"):
            _as_float("lambda", value)

    @pytest.mark.parametrize("value", CONVERSION_INPUTS, ids=_input_id)
    def test_as_int_gives_the_frozen_value_or_message(self, value):
        from bikeshare_meanfield.core import _as_int

        assert _conversion(_as_int, value) == _conversion(_frozen_as_int, value)

    @pytest.mark.parametrize("value", CONVERSION_INPUTS, ids=_input_id)
    def test_as_float_gives_the_frozen_value_or_message(self, value):
        from bikeshare_meanfield.core import _as_float

        expected = _conversion(_frozen_as_float, value)
        if expected == "OverflowError":
            # an integer too large for a float is a configuration error, not a crash
            assert abs(value) >= 2 ** 1024
            expected = ("ConfigError", f"x must be a finite number, got {value!r}")
        assert _conversion(_as_float, value) == expected

    @pytest.mark.parametrize("bad", [dict(lam=float("inf")), dict(mu=float("nan")),
                                     dict(delta=float("nan")), dict(capacity_k=float("inf"))])
    def test_non_finite_constants_rejected(self, bad):
        with pytest.raises(ConfigError, match="must be"):
            make_params(**bad)

    def test_missing_key_rejected(self):
        d = make_params().to_dict()
        del d["mu"]
        with pytest.raises(ConfigError):
            SystemParams.from_dict(d)

    def test_extra_keys_ignored(self):
        d = make_params().to_dict()
        d["t_end"] = 10.0
        assert SystemParams.from_dict(d) == make_params()


# SystemParams' contract, as a table: (field, value, the exact ConfigError text) of
# make_params(**{field: value}), and the phase and rank that pick the message when two
# fields are bad.  Conversions come first, the floats lambda, mu, gamma, delta and then
# the integers omega, C, K, N; the range checks follow in the order lambda, gamma and mu,
# omega, omega as a float, C and K, N, delta, on the converted values.
_FLOAT_KEYS = {"lam": "lambda", "mu": "mu", "gamma": "gamma", "delta": "delta"}
_CONVERSION_RANK = ["lam", "mu", "gamma", "delta", "omega", "capacity_c", "capacity_k",
                    "n_stations"]


def _conversion_cases():
    cases = []
    for field in _CONVERSION_RANK:
        if field in _FLOAT_KEYS:
            values = [True, "1", math.nan, math.inf]
            text = f"{_FLOAT_KEYS[field]} must be a finite number"
        else:
            values, text = [True, "1", math.nan, math.inf, 2.5], f"{field} must be an integer"
        for value in values:
            cases.append((field, value, f"{text}, got {value!r}", 0,
                          _CONVERSION_RANK.index(field)))
    return cases


_RANGE_CASES = [  # (field, value, message, range-check rank)
    ("lam", 0.0, "lambda must be positive, got 0.0", 0),
    ("lam", -1, "lambda must be positive, got -1.0", 0),
    ("mu", 0.25, "rates must satisfy 0 < gamma <= mu, got gamma=0.5, mu=0.25", 1),
    ("mu", -4.0, "rates must satisfy 0 < gamma <= mu, got gamma=0.5, mu=-4.0", 1),
    ("gamma", 0, "rates must satisfy 0 < gamma <= mu, got gamma=0.0, mu=4.0", 1),
    ("gamma", -0.5, "rates must satisfy 0 < gamma <= mu, got gamma=-0.5, mu=4.0", 1),
    ("gamma", 5.0, "rates must satisfy 0 < gamma <= mu, got gamma=5.0, mu=4.0", 1),
    ("omega", -1, "omega must be nonnegative, got -1", 2),
    ("omega", -1.0, "omega must be nonnegative, got -1", 2),
    ("omega", 2 ** 1100, "omega must fit in a float, got a 1101-bit integer", 3),
    ("omega", 10 ** 400, "omega must fit in a float, got a 1329-bit integer", 3),
    ("capacity_c", 0, "capacities must satisfy 1 <= C < K, got C=0, K=4", 4),
    ("capacity_c", 4, "capacities must satisfy 1 <= C < K, got C=4, K=4", 4),
    ("capacity_c", 5.0, "capacities must satisfy 1 <= C < K, got C=5, K=4", 4),
    ("capacity_k", 3, "capacities must satisfy 1 <= C < K, got C=3, K=3", 4),
    ("capacity_k", 0, "capacities must satisfy 1 <= C < K, got C=3, K=0", 4),
    ("n_stations", 1, "n_stations must be at least 2, got 1", 5),
    ("n_stations", -3, "n_stations must be at least 2, got -3", 5),
    ("delta", 0, "delta must lie in (0, 1), got 0.0", 6),
    ("delta", 1.0, "delta must lie in (0, 1), got 1.0", 6),
    ("delta", -0.5, "delta must lie in (0, 1), got -0.5", 6),
]

_CONTRACT_CASES = _conversion_cases() + [(f, v, m, 1, rank) for f, v, m, rank in _RANGE_CASES]


def _config_error(**fields):
    with pytest.raises(ConfigError) as err:
        make_params(**fields)
    return str(err.value)


class TestSystemParamsContract:
    @pytest.mark.parametrize("field,value,message", [case[:3] for case in _CONTRACT_CASES],
                             ids=[f"{f}-{str(v)[:12]}" for f, v, *_ in _CONTRACT_CASES])
    def test_one_bad_field_gives_its_message(self, field, value, message):
        assert _config_error(**{field: value}) == message

    def test_two_bad_fields_give_the_message_of_the_first_check(self):
        # a conversion before any range check, and each phase in its own order; two range
        # cases of one check (gamma and mu, C and K) share a message and are skipped
        pairs = 0
        for first, second in itertools.combinations(_CONTRACT_CASES, 2):
            if first[0] == second[0] or (first[3] == second[3] == 1 and first[4] == second[4]):
                continue
            expected = min(first, second, key=lambda case: case[3:])[2]
            assert _config_error(**{first[0]: first[1], second[0]: second[1]}) == expected, (
                first[:2], second[:2])
            pairs += 1
        assert pairs > 1000

    @pytest.mark.parametrize("field,value,expected", [
        ("lam", np.float64(1.5), 1.5), ("lam", 2, 2.0), ("mu", np.float32(4.5), 4.5),
        ("gamma", np.int64(1), 1.0), ("delta", np.float16(0.25), 0.25),
        ("omega", np.int64(2), 2), ("omega", 3.0, 3), ("capacity_c", np.uint8(2), 2),
        ("capacity_k", np.float64(6.0), 6), ("n_stations", np.int32(50), 50),
    ])
    def test_numpy_scalars_stored_as_exact_python_numbers(self, field, value, expected):
        stored = getattr(make_params(**{field: value}), field)
        assert stored == expected and type(stored) is type(expected)

    def test_repr_eq_and_hash_are_the_dataclass_ones(self):
        p = make_params()
        assert repr(p) == ("SystemParams(lam=1.0, mu=4.0, gamma=0.5, omega=1, capacity_c=3, "
                           "capacity_k=4, n_stations=100, delta=0.2)")
        same = make_params(lam=np.float64(1.0), mu=4, omega=1.0, capacity_c=np.int64(3))
        assert p == same and hash(p) == hash(same)
        assert hash(p) == hash((1.0, 4.0, 0.5, 1, 3, 4, 100, 0.2))
        assert p != make_params(delta=0.25)
        assert p != (1.0, 4.0, 0.5, 1, 3, 4, 100, 0.2)
        assert vars(p) == {"lam": 1.0, "mu": 4.0, "gamma": 0.5, "omega": 1, "capacity_c": 3,
                           "capacity_k": 4, "n_stations": 100, "delta": 0.2}

    def test_fields_defaults_and_positional_arguments(self):
        assert [(f.name, f.default) for f in dataclasses.fields(SystemParams)] == [
            ("lam", dataclasses.MISSING), ("mu", dataclasses.MISSING),
            ("gamma", dataclasses.MISSING), ("omega", dataclasses.MISSING),
            ("capacity_c", dataclasses.MISSING), ("capacity_k", dataclasses.MISSING),
            ("n_stations", 1000), ("delta", 0.1)]
        p = SystemParams(1.0, 4.0, 0.5, 1, 3, 4)
        assert (p.n_stations, p.delta) == (1000, 0.1)
        assert SystemParams(1.0, 4.0, 0.5, 1, 3, 4, 100, 0.2) == make_params()
        with pytest.raises(TypeError):
            SystemParams(1.0, 4.0, 0.5)
        with pytest.raises(TypeError):
            make_params(stations=10)

    def test_frozen(self):
        p = make_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.lam = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del p.mu
        assert p == make_params()

    def test_pickle_and_copies_round_trip(self):
        p = make_params(omega=2 ** 1000, lam=np.float64(0.5))
        for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert twin == p and repr(twin) == repr(p) and hash(twin) == hash(p)
            assert [type(getattr(twin, f)) for f in vars(p)] == [type(v) for v in vars(p).values()]

    def test_replace_validates_the_changed_record(self):
        p = make_params()
        moved = dataclasses.replace(p, lam=2, capacity_c=np.int64(2))
        assert moved == make_params(lam=2.0, capacity_c=2) and type(moved.lam) is float
        assert type(moved.capacity_c) is int
        for field, value, message, *_ in _CONTRACT_CASES:
            with pytest.raises(ConfigError) as err:
                dataclasses.replace(p, **{field: value})
            assert str(err.value) == message


class TestFractionVector:
    def test_accepts_simplex(self):
        y = fraction_vector([0.25, 0.25, 0.5])
        assert y.sum() == 1.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ConfigError):
            fraction_vector([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            fraction_vector([-0.1, 0.6, 0.5])

    def test_length_check(self):
        with pytest.raises(ConfigError):
            fraction_vector([0.5, 0.25, 0.25], capacity_k=4)

    @pytest.mark.parametrize("values", [
        "abc",
        [0.5, "0.5"],
        [True, False],
        [0.5, 0.5, None],
        [[0.5, 0.5]],
        [0.5, float("nan"), 0.5],
        np.array(["0.5", "0.5"]),
        np.array([True, False]),
        7,
        None,
    ])
    def test_non_numeric_entries_rejected(self, values):
        with pytest.raises(ConfigError):
            fraction_vector(values)

    def test_numeric_arrays_accepted(self):
        for values in (np.array([1, 0]), np.array([0.5, 0.5], dtype=np.float32),
                       (0.25, 0.75), [np.float64(0.5), 0.5]):
            y = fraction_vector(values)
            assert y.dtype == float and y.sum() == 1.0


class TestLimitingRates:
    def test_no_empty_stations_gives_lambda(self):
        params = make_params(omega=3)
        y = np.array([0.0, 0.5, 0.3, 0.1, 0.1])
        rates = limiting_rates(y, params)
        assert rates.death == params.lam

    def test_omega_zero_gives_lambda(self):
        params = make_params(omega=0)
        y = np.array([0.4, 0.3, 0.2, 0.05, 0.05])
        assert limiting_rates(y, params).death == params.lam

    def test_uniform_hand_value(self):
        # a = 4 * (3 - 2) / (1 - 0.2) = 5 with the uniform vector on K = 4
        params = make_params()
        y = np.full(5, 0.2)
        rates = limiting_rates(y, params)
        assert rates.birth == pytest.approx(5.0, rel=1e-14)

    def test_death_rate_hand_value(self):
        # b = 1 + 0.5 * 0.5 * (1 + 0.5) with two walks allowed
        params = make_params(lam=1.0, gamma=0.5, mu=1.0, omega=2)
        y = np.array([0.5, 0.2, 0.1, 0.1, 0.1])
        assert limiting_rates(y, params).death == pytest.approx(1.375, rel=1e-14)

    def test_full_system_error(self):
        params = make_params()
        y = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        with pytest.raises(FullSystemError):
            limiting_rates(y, params)

    def test_negative_fleet_error(self):
        params = make_params(capacity_c=1, capacity_k=4, n_stations=100)
        y = np.array([0.0, 0.0, 0.0, 0.0 + 0.5, 0.5])  # mean bikes = 3.5 > C = 1
        with pytest.raises(NegativeFleetError):
            limiting_rates(y, params)

    def test_tiny_negative_fleet_clamped(self):
        params = make_params(capacity_c=2, capacity_k=4)
        y = np.zeros(5)
        y[2] = 1.0  # mean bikes exactly C
        rates = limiting_rates(y - 0.0, params)
        assert rates.birth >= 0.0

    def test_rate_bounds_on_domain(self):
        params = make_params()
        rng = np.random.default_rng(3)
        for _ in range(300):
            y = rng.dirichlet(np.ones(5))
            if y[-1] > 1 - params.delta or mean_bikes(y) > params.capacity_c:
                continue
            rates = limiting_rates(y, params)
            assert 0.0 <= rates.birth <= params.mu * params.capacity_c / params.delta
            assert params.lam <= rates.death <= params.lam + params.gamma * params.omega


class TestVectorLength:
    FIG5 = make_params(lam=15.0, mu=8.0, gamma=0.25, omega=1, capacity_c=30,
                       capacity_k=50, n_stations=1000, delta=0.1)

    @pytest.mark.parametrize("rate", [limiting_rates, nonlinear_residual, self_map_residual])
    @pytest.mark.parametrize("length", [5, 50, 52])
    def test_length_must_be_k_plus_one(self, rate, length):
        # unchecked, the uniform 5-vector reads as 28 bikes in transit and
        # limiting_rates returns (280.0, 15.05) for a K = 50 system
        y = np.full(length, 1.0 / length)
        with pytest.raises(ConfigError, match="length K\\+1 = 51"):
            rate(y, self.FIG5)

    @pytest.mark.parametrize("rate", [limiting_rates, nonlinear_residual, self_map_residual])
    def test_block_rejected(self, rate):
        with pytest.raises(ConfigError, match="one vector"):
            rate(np.full((2, 5), 0.2), make_params())

    @pytest.mark.parametrize("rate", [limiting_rates, nonlinear_residual, self_map_residual])
    @pytest.mark.parametrize("entries", [
        pytest.param(["0.02"] * 50 + ["0.0"], id="strings"),
        pytest.param([True] + [False] * 50, id="booleans"),
        pytest.param([[0.5, 0.5]] + [0.0] * 50, id="ragged"),
    ])
    def test_entries_must_be_numbers(self, rate, entries):
        # converted, the strings would read as a valid vector and the booleans as y0 = 1
        with pytest.raises(ConfigError, match="one vector"):
            rate(entries, self.FIG5)

    @pytest.mark.parametrize("y", [
        pytest.param("ab", id="string"),
        pytest.param([[0.5, 0.5]], id="one-row-block"),
        pytest.param([], id="empty"),
        pytest.param([True, False], id="booleans"),
    ])
    def test_mean_bikes_reads_one_vector_of_numbers(self, y):
        # numpy's ValueError escaped for the first two; [] read as 0 bikes and the booleans as 0
        with pytest.raises(ConfigError, match="mean_bikes expects one nonempty vector"):
            mean_bikes(y)


def _frozen_tridiagonal_generator(births, deaths):
    """Reference: the per-level generator ``build_generator`` filled from
    ``np.full`` rate vectors before it wrote the constant band directly."""
    n = births.size + 1
    gen = np.zeros((n, n))
    idx = np.arange(n - 1)
    gen[idx, idx + 1] = births
    gen[idx + 1, idx] = deaths
    gen[0, 0] = -births[0]
    gen[n - 1, n - 1] = -deaths[-1]
    if n > 2:
        inner = np.arange(1, n - 1)
        gen[inner, inner] = -(births[1:] + deaths[:-1])
    return gen


def _frozen_geom_sum(x, omega):
    """Reference: the geometric sum walking every bit of omega, before it could stop early."""
    total = x * 0.0
    power = total + 1.0
    for bit in format(omega, "b"):
        total = total + power * total
        power = power * power
        if bit == "1":
            total = total + power
            power = power * x
    return total


def _walk_factor(p0, omega):
    """The walk multiplier sum(p0**k for k < omega) of a float p0, through ``_geom_series``."""
    return _geom_series(omega)(p0)


def _same_bits(x, y):
    return np.array(x).tobytes() == np.array(y).tobytes()


class TestGeomSeries:
    OMEGAS = [0, 1, 2, 3, 5, 64, 1000, 2 ** 53 + 1, 10 ** 100, 2 ** 1020, 2 ** 1023 + 12345]

    @pytest.mark.parametrize("omega", OMEGAS)
    def test_bit_identical_to_full_bit_walk(self, omega):
        rng = np.random.default_rng(omega % 2 ** 32)
        xs = [0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1e-160, 1e-20, 0.5, 0.9,
              float(np.nextafter(1.0, 0.0)), 1.0, *rng.random(20).tolist()]
        series = _geom_series(omega)
        for x in xs:
            got, want = series(x), _frozen_geom_sum(x, omega)
            assert type(got) is float
            assert got == want and np.signbit(got) == np.signbit(want), x

    @pytest.mark.parametrize("omega", [0, 1, 2, 7, 2 ** 1020])
    def test_arrays_and_complex_keep_the_full_walk(self, omega):
        # elementwise for arrays, and the complex step of the walk slope
        x = np.array([0.0, 0.3, 1.0, 0.999999])
        assert _geom_series(omega)(x).tobytes() == _frozen_geom_sum(x, omega).tobytes()
        for z in (complex(0.3, 2.0 ** -64), complex(0.0, 2.0 ** -64), complex(1.0, 2.0 ** -64)):
            assert _same_bits(_geom_series(omega)(z), _frozen_geom_sum(z, omega)), z

    @pytest.mark.parametrize("omega", [0, 1, 2, 7, 2 ** 1020])
    def test_signed_and_non_finite_entries_keep_the_full_walk(self, omega):
        # starting after the leading bit keeps the sign of zero and the NaN of inf and NaN
        x = np.array([-0.0, -0.5, -1.0, -2.0, 1.5, np.inf, -np.inf, np.nan])
        with np.errstate(all="ignore"):
            got, want = _geom_series(omega)(x), _frozen_geom_sum(x, omega)
        assert got.tobytes() == want.tobytes()
        for value in x.tolist():
            got, want = _geom_series(omega)(value), _frozen_geom_sum(value, omega)
            assert _same_bits(got, want), value

    def test_empty_sum(self):
        assert _walk_factor(0.5, 0) == 0.0

    def test_at_one_equals_omega(self):
        assert _walk_factor(1.0, 3) == 3.0
        assert _walk_factor(1.0, 10**6) == 10**6

    def test_direct_value(self):
        # 1 + 0.5, cross-checked against the closed form (1 - 0.25)/(1 - 0.5)
        assert _walk_factor(0.5, 2) == pytest.approx(1.5, abs=1e-15)
        assert _walk_factor(0.5, 2) == pytest.approx((1 - 0.25) / (1 - 0.5))
        assert _walk_factor(0.5, 3) == 1.75

    @given(p0=st.floats(0.0, 1.0), omega=st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_rational_sum(self, p0, omega):
        value = _walk_factor(p0, omega)
        exact = float(sum(Fraction(p0) ** k for k in range(omega)))
        assert value == pytest.approx(exact, rel=1e-14, abs=1e-14)

    @given(p0=st.floats(0.0, 0.99), omega=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_matches_closed_form_away_from_one(self, p0, omega):
        # the quotient form is only well conditioned away from p0 = 1;
        # at p0 -> 1 the finite sum is the accurate one
        value = _walk_factor(p0, omega)
        closed = (1 - p0 ** omega) / (1 - p0)
        assert value == pytest.approx(closed, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("omega", [13, 100, 1_000, 100_000])
    def test_large_omega_matches_closed_form(self, omega):
        for p0 in np.linspace(0.0, 0.9, 91).tolist():
            closed = (1 - p0 ** omega) / (1 - p0)
            assert _walk_factor(p0, omega) == pytest.approx(closed, rel=1e-13)

    def test_continuous_at_one(self):
        # removable singularity: approach 1 from below
        for omega in (1, 2, 5):
            near = _walk_factor(1 - 1e-9, omega)
            assert near == pytest.approx(float(omega), abs=1e-7)


class TestLevels:
    def test_values(self):
        k, down = _levels(4)
        assert np.array_equal(k, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(down, [4.0, 3.0, 2.0, 1.0, 0.0])
        assert k.dtype == down.dtype == np.float64

    def test_shared_vectors_are_read_only(self):
        # every solve with this K reads the same two arrays: one write would corrupt them all
        k, down = _levels(50)
        assert _levels(50)[0] is k
        for vector in (k, down):
            assert not vector.flags.writeable
            with pytest.raises(ValueError):
                vector[0] = 1.0


def _level_sum_cases():
    """Float vectors of length K+1 for the level-sum kernel: Dirichlet draws at K 1-130,
    255-257, 500, 1,000, 2,000 and 4,096, a single 1 at level 0 or K, and subnormal entries."""
    rng = np.random.default_rng(4096)
    for k in [*range(1, 131), 255, 256, 257, 500, 1000, 2000, 4096]:
        draws = rng.dirichlet(np.ones(k + 1) * rng.uniform(0.05, 5.0, size=1), size=8)
        ends = np.zeros((2, k + 1))
        ends[0, 0] = ends[1, -1] = 1.0
        tiny = rng.dirichlet(np.ones(k + 1), size=2)
        tiny[0, ::2] = 5e-324
        tiny[1] = rng.uniform(0.0, 2.2e-308, size=k + 1)
        yield k, np.vstack([draws, ends, tiny])


class TestLevelSum:
    def test_vector_form_has_the_bits_of_the_old_level_sums(self):
        # mean_bikes and nonlinear_residual summed ``np.arange(n) @ y``, the rates and
        # drifts ``y.dot(levels)``
        for k, block in _level_sum_cases():
            level_sum, levels = _level_sum(k), _levels(k)[0]
            for y in block:
                got = level_sum(y)
                assert type(got) is np.float64
                assert _same_bits(got, np.arange(k + 1) @ y), k
                assert _same_bits(got, y.dot(levels)), k
                assert _same_bits(mean_bikes(y), float(got)), k

    def test_block_rows_have_the_bits_of_their_vector_alone(self):
        for k, block in _level_sum_cases():
            sums = _level_sums(block)
            assert sums.shape == (len(block),)
            assert sums.tobytes() == np.array([_level_sum(k)(y) for y in block]).tobytes(), k
            for row in range(len(block)):
                assert _same_bits(_level_sums(block[row:row + 1])[0], sums[row]), k

    def test_bound_once_per_capacity(self):
        assert _level_sum(50) is _level_sum(50)
        assert _level_sum(50).__self__ is _levels(50)[0]
        assert _level_sum(3)(np.array([0.0, 0.5, 0.25, 0.25])) == 1.75


class TestBuildGenerator:
    @pytest.mark.parametrize("k", [1, 2, 5, 50, 300, 500])
    def test_matches_frozen_per_level_generator(self, k):
        rng = np.random.default_rng(k)
        pairs = [(0.0, 1.0), (0.0, 3.7), (2.5, 2.5), (1e-3, 1e-3)]
        pairs += [tuple(10.0 ** rng.uniform(-6, 6, size=2)) for _ in range(20)]
        for a, b in pairs:
            gen = build_generator(RatePair(a, b), k)
            ref = _frozen_tridiagonal_generator(np.full(k, a), np.full(k, b))
            assert np.array_equal(gen, ref)
            assert gen.tobytes() == ref.tobytes()

    def test_two_state(self):
        gen = build_generator(RatePair(0.0, 1.0), 1)
        assert np.array_equal(gen, np.array([[0.0, 0.0], [1.0, -1.0]]))

    def test_three_state_example(self):
        gen = build_generator(RatePair(1.0, 2.0), 2)
        expected = np.array([[-1.0, 1.0, 0.0], [2.0, -3.0, 1.0], [0.0, 2.0, -2.0]])
        assert np.array_equal(gen, expected)
        assert np.all(gen.sum(axis=1) == 0.0)

    def test_band_structure(self):
        gen = build_generator(RatePair(0.7, 1.3), 5)
        assert np.all(np.triu(gen, 2) == 0.0)
        assert np.all(np.tril(gen, -2) == 0.0)

    @given(a=st.floats(0.0, 1e6), b=st.floats(1e-6, 1e6), k=st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_conservative_generator(self, a, b, k):
        gen = build_generator(RatePair(a, b), k)
        off = gen - np.diag(np.diag(gen))
        assert np.all(off >= 0.0)
        # row sums vanish up to one rounding of the diagonal magnitude
        assert np.max(np.abs(gen.sum(axis=1))) <= 4 * np.finfo(float).eps * (a + b)

    def test_rejects_bad_rates(self):
        with pytest.raises(ConfigError):
            build_generator(RatePair(-0.1, 1.0), 2)
        with pytest.raises(ConfigError):
            build_generator(RatePair(1.0, 0.0), 2)
