"""Metrics, sweeps and the design-grid optimizers."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from bikeshare_meanfield import (
    Metrics,
    ProfitPrices,
    SweepRecord,
    SystemParams,
    compute_metrics,
    evaluate_design_grid,
    mean_bikes,
    optimize_profit,
    optimize_weighted,
    solve_fixed_point,
    sweep,
    sweep_to_csv,
)
from bikeshare_meanfield import analysis
from bikeshare_meanfield.analysis import SWEEP_CSV_HEADER, grid_to_csv
from bikeshare_meanfield.errors import (
    AssumptionViolationError,
    ConfigError,
    EmptyFeasibleSetError,
    InvariantViolationError,
)

FIG5 = SystemParams(lam=15.0, mu=8.0, gamma=0.25, omega=1, capacity_c=30,
                    capacity_k=50, n_stations=1000, delta=0.1)
SMALL = SystemParams(lam=1.0, mu=4.0, gamma=0.5, omega=1, capacity_c=3,
                     capacity_k=4, n_stations=100, delta=0.2)

# metrics no solve gives, to pin the bytes of the CSV writers
ODD_METRICS = (Metrics(-0.0, 5e-324, 1e300, 2.0, -3.0),
               Metrics(0.1, 1.0, 1e16, 123456789012345678.0, -1e-300))


def _frozen_metrics(p, params, prices):
    """Reference: ``compute_metrics`` before the metrics of a solved block, one vector
    at a time in Python floats."""
    p = np.asarray(p, dtype=float)
    eq = mean_bikes(p)
    profit = -prices.cost_c * eq + prices.benefit_psi * (params.capacity_c - eq)
    return Metrics(p0=float(p[0]), pK=float(p[-1]), p_problematic=float(p[0]) + float(p[-1]),
                   mean_bikes=eq, profit=profit)


def _bits(metrics):
    return [float(value).hex() for value in metrics.to_dict().values()]


class TestNodeMetrics:
    # every sweep and grid node takes its metrics from its own vector on Python floats,
    # E[Q] one dot product (``_level_sum``) and the profit in one operation order; a
    # gemv ``block @ k`` or another profit order differs from ``mean_bikes`` in the last
    # bits for most K, so these compare bits, not values within a tolerance

    def test_sweep_and_grid_metrics_equal_frozen_per_node_metrics(self):
        rng = np.random.default_rng(2032)
        records = []
        for k in (2, 5, 50, 137, 500, 1000):
            prices = ProfitPrices(*rng.uniform(0.0, 3.0, size=2))
            base = SystemParams(lam=15.0, mu=8.0, gamma=0.25, omega=int(rng.integers(0, 4)),
                                capacity_c=min(30, k - 1), capacity_k=k)
            records += [(rec, prices) for rec in sweep(base, "lambda", np.linspace(
                1.0, 40.0, 21).tolist(), prices)]
        prices = ProfitPrices(0.5, 2.0)
        records += [(rec, prices) for rec in evaluate_design_grid(
            {"capacity_c": [10, 30], "capacity_k": [40, 300, 1000],
             "mu": [0.5, 2.0, 8.0, 12.0]}, FIG5, prices)]
        solved = 0
        for rec, prices in records:
            if rec.metrics is None:
                continue
            p = solve_fixed_point(rec.params).p
            assert _bits(rec.metrics) == _bits(_frozen_metrics(p, rec.params, prices))
            solved += 1
        assert solved >= 100

    def test_compute_metrics_equals_frozen_metrics_on_any_vector(self):
        # fraction vectors that are not p(rho), as ``validate`` passes from the simulator
        rng = np.random.default_rng(2033)
        for _ in range(400):
            k = int(rng.integers(2, 1001))
            params = SystemParams(lam=1.0, mu=4.0, gamma=0.5, omega=1,
                                  capacity_c=int(rng.integers(1, k)), capacity_k=k)
            p = rng.dirichlet(np.ones(k + 1) * rng.uniform(0.05, 5.0))
            prices = ProfitPrices(*rng.uniform(0.0, 3.0, size=2))
            assert _bits(compute_metrics(p, params, prices)) == _bits(
                _frozen_metrics(p, params, prices))


class TestComputeMetrics:
    def test_uniform_vector(self):
        m = compute_metrics(np.full(5, 0.2), SMALL, ProfitPrices())
        assert m.mean_bikes == pytest.approx(2.0)
        assert m.p0 == pytest.approx(0.2)
        assert m.pK == pytest.approx(0.2)
        assert m.p_problematic == m.p0 + m.pK

    def test_profit_extremes(self):
        prices = ProfitPrices(cost_c=2.0, benefit_psi=3.0)
        all_parked = np.zeros(SMALL.capacity_k + 1)
        all_parked[SMALL.capacity_c] = 1.0  # E[Q] = C
        m = compute_metrics(all_parked, SMALL, prices)
        assert m.profit == pytest.approx(-2.0 * SMALL.capacity_c)
        all_out = np.zeros(SMALL.capacity_k + 1)
        all_out[0] = 1.0  # E[Q] = 0
        m = compute_metrics(all_out, SMALL, prices)
        assert m.profit == pytest.approx(3.0 * SMALL.capacity_c)

    @pytest.mark.parametrize("p", [
        pytest.param([0.5, 0.5], id="short"),
        pytest.param(np.full((1, 51), 1 / 51), id="one-row-block"),
        pytest.param(["0.02"] * 50 + ["0.0"], id="strings"),
    ])
    def test_vector_of_length_k_plus_one(self, p):
        # [0.5, 0.5] at K = 50 read as p0 = pK = 0.5 and E[Q] = 0.5
        with pytest.raises(ConfigError, match="compute_metrics expects one vector of length"):
            compute_metrics(p, FIG5, ProfitPrices())

    def test_prices_validated(self):
        with pytest.raises(ConfigError):
            ProfitPrices(cost_c=-1.0)
        with pytest.raises(ConfigError):
            ProfitPrices(benefit_psi=float("inf"))
        with pytest.raises(ConfigError):
            ProfitPrices(cost_c="0.5")
        assert ProfitPrices(cost_c=1, benefit_psi=np.float32(2.0)) == ProfitPrices(1.0, 2.0)


class TestSweep:
    def test_records_ordered_by_grid(self):
        grid = [12.0, 15.0, 18.0]
        records = sweep(FIG5, "lambda", grid, ProfitPrices())
        assert [r.value for r in records] == grid
        assert all(r.metrics is not None for r in records)
        assert all(r.params.lam == v for r, v in zip(records, grid))

    def test_p0_strictly_increasing_in_lambda(self):
        records = sweep(FIG5, "lambda", np.linspace(10, 30, 11), ProfitPrices())
        p0 = [r.metrics.p0 for r in records]
        assert all(np.diff(p0) > 0)

    def test_errors_attached_not_fatal(self):
        # the middle grid point solves to a fixed point outside the assumed
        # domain (empty fraction above 1 - delta); the sweep carries on
        records = sweep(SMALL, "lambda", [1.0, 100.0, 2.0], ProfitPrices())
        assert records[0].error is None
        assert records[1].error is not None and records[1].metrics is None
        assert records[2].error is None

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            sweep(SMALL, "speed", [1.0], ProfitPrices())

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            sweep(SMALL, "mu", [], ProfitPrices())

    def test_scalar_grid_rejected(self):
        with pytest.raises(ConfigError, match="grid must be a list of values"):
            sweep(SMALL, "mu", 5.0, ProfitPrices())

    def test_csv_format(self, tmp_path):
        records = sweep(SMALL, "lambda", [0.8, 1.0], ProfitPrices())
        path = tmp_path / "sweep.csv"
        sweep_to_csv(records, path, base=SMALL)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# params:")
        assert lines[1] == SWEEP_CSV_HEADER
        assert len(lines) == 4
        first = lines[2].split(",")
        assert first[0] == "lambda"
        assert float(first[1]) == 0.8

    def test_failed_node_row_bytes(self, tmp_path):
        # lambda = 100 solves outside the assumed domain (see above)
        records = sweep(SMALL, "lambda", [100.0, 1.0], ProfitPrices())
        path = tmp_path / "sweep.csv"
        sweep_to_csv(records, path, base=SMALL)
        m = records[1].metrics
        cells = ",".join(f"{v:.17g}" for v in (m.p0, m.pK, m.p_problematic,
                                               m.mean_bikes, m.profit))
        assert path.read_bytes() == (
            '# params: {"capacity_c": 3, "capacity_k": 4, "delta": 0.2, "gamma": 0.5, '
            '"lambda": 1.0, "mu": 4.0, "n_stations": 100, "omega": 1}\n'
            f"{SWEEP_CSV_HEADER}\n"
            "lambda,100,nan,nan,nan,nan,nan\n"
            f"lambda,1,{cells}\n"
        ).encode()
        # signed zero, the least subnormal, huge and integral values, in every column
        # that holds a float: the rows of the f"{v:.17g}" writer
        records = [SweepRecord(SMALL, ODD_METRICS[0], "lambda", -0.0),
                   SweepRecord(SMALL, ODD_METRICS[1], "mu", 5e-324),
                   SweepRecord(SMALL, None, "gamma", 1e300),
                   SweepRecord(SMALL, ODD_METRICS[0], "lambda", 2.0)]
        sweep_to_csv(records, path, base=SMALL)
        assert path.read_bytes().split(b"\n", 2)[2] == (
            "lambda,-0,-0,4.9406564584124654e-324,1.0000000000000001e+300,2,-3\n"
            "mu,4.9406564584124654e-324,0.10000000000000001,1,10000000000000000,"
            "1.2345678901234568e+17,-1e-300\n"
            "gamma,1.0000000000000001e+300,nan,nan,nan,nan,nan\n"
            "lambda,2,-0,4.9406564584124654e-324,1.0000000000000001e+300,2,-3\n"
        ).encode()

    def test_failed_export_keeps_the_old_bytes(self, tmp_path):
        # a value of None cannot be formatted: the table fails before its target
        # is touched, so no params line, header or first rows replace the old bytes
        solved = sweep(FIG5, "lambda", [12.0, 15.0], ProfitPrices())
        path = tmp_path / "sweep.csv"
        path.write_bytes(b"old bytes")
        with pytest.raises(TypeError):
            sweep_to_csv([*solved, SweepRecord(FIG5, solved[0].metrics, "lambda", None)],
                         path, base=FIG5)
        assert path.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_integer_fields_take_integral_values_only(self):
        records = sweep(SMALL, "capacity_c", [2.0, np.int64(3)], ProfitPrices())
        assert [type(r.params.capacity_c) for r in records] == [int, int]
        with pytest.raises(ConfigError, match="capacity_c must be an integer"):
            sweep(SMALL, "capacity_c", [2.5], ProfitPrices())

    @pytest.mark.parametrize("vary", [["lambda"], None, 1])
    def test_vary_must_be_a_name(self, vary):
        with pytest.raises(ConfigError, match="unknown parameter name"):
            sweep(SMALL, vary, [1.0], ProfitPrices())

    def test_idempotent_output(self, tmp_path):
        records = sweep(SMALL, "lambda", [0.8, 1.0], ProfitPrices())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep_to_csv(records, p1, base=SMALL)
        sweep_to_csv(records, p2, base=SMALL)
        assert p1.read_bytes() == p2.read_bytes()


class TestNodeBuilder:
    """Each node of a sweep or design grid is ``replace(base, ...)``: equal, of the same
    field types (so the same repr), and refused with the same ``ConfigError``."""

    @staticmethod
    def _same_records(nodes, expected):
        assert nodes == expected
        assert [repr(node) for node in nodes] == [repr(node) for node in expected]

    @pytest.mark.parametrize("vary,grid", [
        ("lambda", np.linspace(10.0, 30.0, 41)), ("lam", [15, np.float32(16.5)]),
        ("mu", [0.25, 4, np.float64(8.5)]), ("gamma", [0.1, 8.0, np.int64(1)]),
        ("omega", [0, 1, 3.0, np.int64(2)]), ("capacity_c", [1, 20.0, np.uint8(49)]),
        ("capacity_k", [31, 50.0, np.int32(200)]), ("n_stations", [2, 10 ** 6]),
        ("delta", [0.05, np.float64(0.5)]),
    ])
    def test_sweep_nodes_equal_replace(self, vary, grid):
        field = "lam" if vary == "lambda" else vary
        records = sweep(FIG5, vary, grid, ProfitPrices())
        self._same_records([r.params for r in records],
                           [replace(FIG5, **{field: value}) for value in grid])

    @pytest.mark.parametrize("vary,value", [("omega", -1), ("mu", 0.1), ("capacity_c", 50),
                                            ("delta", "0.5"), ("lambda", np.nan),
                                            ("omega", 2 ** 1100)])
    def test_invalid_sweep_value_refused_as_replace_refuses_it(self, vary, value):
        field = "lam" if vary == "lambda" else vary
        with pytest.raises(ConfigError) as expected:
            replace(FIG5, **{field: value})
        with pytest.raises(ConfigError) as err:
            sweep(FIG5, vary, [getattr(FIG5, field), value], ProfitPrices())
        assert str(err.value) == str(expected.value)

    def test_grid_nodes_equal_replace_with_the_infeasible_ones_skipped(self):
        # C >= K and mu < gamma are infeasible; so is mu = 0
        c_grid, k_grid, mu_grid = [1, 10, 30, 60], [5, 31, 50], [0.0, 0.1, 0.25, 8]
        expected = []
        for c, k, mu in itertools.product(c_grid, k_grid, mu_grid):
            try:
                expected.append(replace(FIG5, capacity_c=c, capacity_k=k, mu=mu))
            except ConfigError:
                continue
        assert 0 < len(expected) < len(c_grid) * len(k_grid) * len(mu_grid)
        records = evaluate_design_grid(
            {"capacity_c": c_grid, "capacity_k": k_grid, "mu": mu_grid}, FIG5, ProfitPrices())
        self._same_records([r.params for r in records], expected)


class TestOptimizers:
    SEARCH = {"capacity_c": [2, 3], "capacity_k": [4, 6], "mu": [2.0, 4.0]}

    def test_weighted_reduces_to_p0(self):
        records = evaluate_design_grid(self.SEARCH, SMALL, ProfitPrices())
        by_p0 = min((r for r in records if r.metrics), key=lambda r: r.metrics.p0)
        winner = optimize_weighted(self.SEARCH, SMALL, beta=(1.0, 0.0, 0.0))
        assert winner.params == by_p0.params

    def test_weighted_selects_pk_and_sum(self):
        records = evaluate_design_grid(self.SEARCH, SMALL, ProfitPrices())
        solved = [r for r in records if r.metrics]
        for beta, key in (((0.0, 1.0, 0.0), lambda m: m.pK),
                          ((0.0, 0.0, 1.0), lambda m: m.p_problematic)):
            winner = optimize_weighted(self.SEARCH, SMALL, beta=beta)
            assert key(winner.metrics) == min(key(r.metrics) for r in solved)

    def test_single_candidate(self):
        search = {"capacity_c": [3]}
        winner = optimize_weighted(search, SMALL, beta=(1.0, 0.0, 0.0))
        assert winner.params.capacity_c == 3

    def test_dominated_candidate_never_wins(self):
        records = evaluate_design_grid(self.SEARCH, SMALL, ProfitPrices())
        solved = [r for r in records if r.metrics]
        dominated = [
            r for r in solved
            if any(o.metrics.p0 < r.metrics.p0 and o.metrics.pK < r.metrics.pK
                   for o in solved)
        ]
        rng = np.random.default_rng(0)
        for _ in range(25):
            raw = rng.dirichlet(np.ones(3))
            winner = optimize_weighted(self.SEARCH, SMALL, beta=raw)
            assert all(winner.params != d.params for d in dominated)

    def test_zero_prices_tie_breaks_lexicographically(self):
        winner = optimize_profit(self.SEARCH, SMALL, ProfitPrices(0.0, 0.0))
        assert winner.params.capacity_c == 2
        assert winner.params.capacity_k == 4
        assert winner.params.mu == 2.0

    def test_pure_cost_minimizes_mean_bikes(self):
        records = evaluate_design_grid(self.SEARCH, SMALL, ProfitPrices(cost_c=1.0))
        solved = [r for r in records if r.metrics]
        winner = optimize_profit(self.SEARCH, SMALL, ProfitPrices(cost_c=1.0))
        assert winner.metrics.mean_bikes == min(r.metrics.mean_bikes for r in solved)

    def test_pure_benefit_maximizes_circulation(self):
        prices = ProfitPrices(benefit_psi=1.0)
        records = evaluate_design_grid(self.SEARCH, SMALL, prices)
        solved = [r for r in records if r.metrics]
        winner = optimize_profit(self.SEARCH, SMALL, prices)
        best = max(r.metrics.mean_bikes * -1 + r.params.capacity_c for r in solved)
        assert (winner.params.capacity_c - winner.metrics.mean_bikes
                == pytest.approx(best))

    def test_infeasible_candidates_skipped(self):
        # C >= K candidates are not part of the feasible set
        search = {"capacity_c": [3, 9], "capacity_k": [4]}
        records = evaluate_design_grid(search, SMALL, ProfitPrices())
        assert all(r.params.capacity_c < r.params.capacity_k for r in records)

    def test_mu_equal_to_gamma_is_feasible(self):
        # the model's rule is 0 < gamma <= mu: mu = gamma is a candidate, and it
        # solves as a sweep solves it
        records = evaluate_design_grid({"mu": [0.25, 8.0]}, FIG5, ProfitPrices())
        assert [r.params.mu for r in records] == [0.25, 8.0]
        (node,) = sweep(FIG5, "mu", [0.25], ProfitPrices())
        assert records[0].metrics == node.metrics and records[0].error is None

    def test_empty_feasible_set(self):
        # gamma <= mu fails for every mu in the grid
        with pytest.raises(EmptyFeasibleSetError):
            optimize_weighted({"mu": [0.1, 0.2]}, SMALL, beta=(1.0, 0.0, 0.0))

    def test_beta_validation(self):
        with pytest.raises(ConfigError):
            optimize_weighted(self.SEARCH, SMALL, beta=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            optimize_weighted(self.SEARCH, SMALL, beta=(-0.5, 1.5, 0.0))
        with pytest.raises(ConfigError, match="beta must be a finite number"):
            optimize_weighted(self.SEARCH, SMALL, beta=(0.5, 0.5, float("nan")))

    def test_grid_csv(self, tmp_path):
        records = evaluate_design_grid(self.SEARCH, SMALL, ProfitPrices())
        path = tmp_path / "grid.csv"
        grid_to_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("capacity_c,capacity_k,mu,")
        assert len(lines) == len(records) + 1

    def test_grid_csv_failed_row_bytes(self, tmp_path):
        failed = SweepRecord(params=SMALL, metrics=None,
                             error="no bracket, defect 1.5 at 0, 2.5 at 3")
        solved = evaluate_design_grid({"capacity_c": [2]}, SMALL, ProfitPrices())[0]
        path = tmp_path / "grid.csv"
        grid_to_csv([failed, solved], path)
        m = solved.metrics
        cells = ",".join(f"{v:.17g}" for v in (m.p0, m.pK, m.p_problematic,
                                               m.mean_bikes, m.profit))
        assert path.read_bytes() == (
            "capacity_c,capacity_k,mu,p0,pK,p0_plus_pK,eq,profit,error\n"
            "3,4,4,nan,nan,nan,nan,nan,no bracket; defect 1.5 at 0; 2.5 at 3\n"
            f"2,4,4,{cells},\n"
        ).encode()
        # commas anywhere in an error, an error beside metrics, and the values of
        # ``test_failed_node_row_bytes`` in the float columns
        records = [
            SweepRecord(replace(SMALL, mu=0.7), None,
                        error="no bracket, defect 1.5 at 0, 2.5 at 3,,end,"),
            SweepRecord(replace(SMALL, mu=1e300, capacity_k=10**20), ODD_METRICS[0]),
            SweepRecord(SMALL, ODD_METRICS[1], error="kept, with a metric"),
        ]
        grid_to_csv(records, path)
        assert path.read_bytes() == (
            "capacity_c,capacity_k,mu,p0,pK,p0_plus_pK,eq,profit,error\n"
            "3,4,0.69999999999999996,nan,nan,nan,nan,nan,"
            "no bracket; defect 1.5 at 0; 2.5 at 3;;end;\n"
            "3,100000000000000000000,1.0000000000000001e+300,"
            "-0,4.9406564584124654e-324,1.0000000000000001e+300,2,-3,\n"
            "3,4,4,0.10000000000000001,1,10000000000000000,1.2345678901234568e+17,-1e-300,"
            "kept; with a metric\n"
        ).encode()

    def test_failed_grid_export_keeps_the_old_bytes(self, tmp_path):
        solved = evaluate_design_grid({"capacity_c": [2]}, SMALL, ProfitPrices())
        path = tmp_path / "grid.csv"
        path.write_bytes(b"old bytes")
        with pytest.raises(TypeError):
            grid_to_csv([*solved, SweepRecord(SMALL, replace(ODD_METRICS[0], p0=None))], path)
        assert path.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]

    def test_fractional_capacity_rejected(self):
        with pytest.raises(ConfigError, match="capacity_c must be an integer"):
            evaluate_design_grid({"capacity_c": [2.7]}, SMALL, ProfitPrices())

    def test_scalar_grid_rejected(self):
        with pytest.raises(ConfigError, match="capacity_c must be a list of values"):
            evaluate_design_grid({"capacity_c": 10}, SMALL, ProfitPrices())
        as_list = evaluate_design_grid(self.SEARCH, SMALL, ProfitPrices())
        for container in (tuple, np.array):
            search = {key: container(values) for key, values in self.SEARCH.items()}
            assert evaluate_design_grid(search, SMALL, ProfitPrices()) == as_list

    @pytest.mark.parametrize("search", [5, None, [("mu", [8.0])], "mu"])
    def test_search_must_be_a_mapping(self, search):
        with pytest.raises(ConfigError, match="design search must map parameter names"):
            evaluate_design_grid(search, SMALL, ProfitPrices())
        with pytest.raises(ConfigError, match="design search must map parameter names"):
            optimize_weighted(search, SMALL, beta=[0.0, 0.0, 1.0])
        with pytest.raises(ConfigError, match="design search must map parameter names"):
            optimize_profit(search, SMALL, ProfitPrices())

    def test_unknown_keys_listed_in_order(self):
        with pytest.raises(ConfigError, match="mu; got gamma, lam$"):
            evaluate_design_grid({"lam": [1.0], "mu": [4.0], "gamma": [2.0]}, SMALL,
                                 ProfitPrices())
        with pytest.raises(ConfigError, match="mu; got 5, x$"):
            evaluate_design_grid({"x": [1.0], 5: [4.0]}, SMALL, ProfitPrices())

    def test_scalar_beta_rejected(self):
        with pytest.raises(ConfigError, match="beta must be a list of values"):
            optimize_weighted(self.SEARCH, SMALL, beta=5)
        winners = {optimize_weighted(self.SEARCH, SMALL, beta=beta)
                   for beta in ([0.0, 0.0, 1.0], (0.0, 0.0, 1.0), np.array([0.0, 0.0, 1.0]))}
        assert len(winners) == 1


class TestSolveFailures:
    SEARCH = {"capacity_c": [2, 3]}

    @staticmethod
    def failing_solve(error):
        # every node's outcome is the error its solve raised
        def solve_many(nodes):
            return [error("solver broke") for _ in nodes]
        return solve_many

    def test_invariant_violation_propagates(self, monkeypatch):
        monkeypatch.setattr(analysis, "_solve_many",
                            self.failing_solve(InvariantViolationError))
        with pytest.raises(InvariantViolationError, match="solver broke"):
            sweep(SMALL, "lambda", [0.8, 1.0], ProfitPrices())
        with pytest.raises(InvariantViolationError, match="solver broke"):
            evaluate_design_grid(self.SEARCH, SMALL, ProfitPrices())

    def test_domain_error_recorded_per_node(self, monkeypatch):
        monkeypatch.setattr(analysis, "_solve_many", self.failing_solve(
            AssumptionViolationError))
        records = (sweep(SMALL, "lambda", [0.8, 1.0], ProfitPrices())
                   + evaluate_design_grid(self.SEARCH, SMALL, ProfitPrices()))
        assert len(records) == 4
        assert all(r.metrics is None and r.error == "solver broke" for r in records)


class TestMetricsType:
    def test_fields(self):
        m = Metrics(p0=0.1, pK=0.2, p_problematic=0.3, mean_bikes=2.0, profit=1.0)
        assert m.p_problematic == pytest.approx(m.p0 + m.pK)

    def test_to_dict_uses_the_csv_column_names(self):
        m = Metrics(p0=0.1, pK=0.2, p_problematic=0.3, mean_bikes=2.0, profit=1.0)
        assert ",".join(m.to_dict()) == SWEEP_CSV_HEADER.split(",", 2)[2]
        assert list(m.to_dict().values()) == [0.1, 0.2, 0.3, 2.0, 1.0]
