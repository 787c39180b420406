"""Core rate formulas and the generator construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikeshare_meanfield import (
    RatePair,
    SystemParams,
    build_generator,
    fraction_vector,
    geometric_walk_factor,
    limiting_rates,
    mean_bikes,
    nonlinear_residual,
    self_map_residual,
)
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


class TestGeometricWalkFactor:
    def test_empty_sum(self):
        assert geometric_walk_factor(0.5, 0) == 0.0

    def test_at_one_equals_omega(self):
        assert geometric_walk_factor(1.0, 3) == 3.0
        assert geometric_walk_factor(1.0, 10**6) == 10**6

    def test_direct_value(self):
        # 1 + 0.5, cross-checked against the closed form (1 - 0.25)/(1 - 0.5)
        assert geometric_walk_factor(0.5, 2) == pytest.approx(1.5, abs=1e-15)
        assert geometric_walk_factor(0.5, 2) == pytest.approx((1 - 0.25) / (1 - 0.5))

    def test_domain_checks(self):
        with pytest.raises(ConfigError):
            geometric_walk_factor(1.5, 2)
        with pytest.raises(ConfigError):
            geometric_walk_factor(0.5, -1)

    @given(p0=st.floats(0.0, 1.0), omega=st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_rational_sum(self, p0, omega):
        from fractions import Fraction

        value = geometric_walk_factor(p0, omega)
        exact = float(sum(Fraction(p0) ** k for k in range(omega)))
        assert value == pytest.approx(exact, rel=1e-14, abs=1e-14)

    @given(p0=st.floats(0.0, 0.99), omega=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_matches_closed_form_away_from_one(self, p0, omega):
        # the quotient form is only well conditioned away from p0 = 1;
        # at p0 -> 1 the finite sum is the accurate one
        value = geometric_walk_factor(p0, omega)
        closed = (1 - p0 ** omega) / (1 - p0)
        assert value == pytest.approx(closed, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("omega", [13, 100, 1_000, 100_000])
    def test_large_omega_matches_closed_form(self, omega):
        for p0 in np.linspace(0.0, 0.9, 91):
            closed = (1 - p0 ** omega) / (1 - p0)
            assert geometric_walk_factor(p0, omega) == pytest.approx(closed, rel=1e-13)

    def test_continuous_at_one(self):
        # removable singularity: approach 1 from below
        for omega in (1, 2, 5):
            near = geometric_walk_factor(1 - 1e-9, omega)
            assert near == pytest.approx(float(omega), abs=1e-7)


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


class TestBuildGenerator:
    @pytest.mark.parametrize("k", [1, 2, 5, 50, 300])
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
