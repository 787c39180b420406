"""Command-line interface: outputs, exit codes, idempotence."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikeshare_meanfield.cli import main

SMALL = {
    "lambda": 1.0, "mu": 4.0, "gamma": 0.5, "omega": 1,
    "capacity_c": 3, "capacity_k": 4, "n_stations": 100, "delta": 0.2,
}
ANALYTIC = {
    "lambda": 1.0, "mu": 1.0, "gamma": 0.5, "omega": 0,
    "capacity_c": 1, "capacity_k": 2, "n_stations": 100, "delta": 0.2,
}


def write_params(tmp_path, data, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestFixedPointCommand:
    def test_analytic_output(self, tmp_path):
        params = write_params(tmp_path, ANALYTIC)
        out = tmp_path / "fp.json"
        code = main(["fixed-point", "--params", str(params), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        expected = [4 / 7, 2 / 7, 1 / 7]
        assert np.max(np.abs(np.array(payload["p"]) - expected)) < 1e-10
        assert payload["rho"] == pytest.approx(0.5, abs=1e-10)
        assert payload["params"]["lambda"] == 1.0

    def test_missing_params_file(self, tmp_path, capsys):
        out = tmp_path / "fp.json"
        code = main(["fixed-point", "--params", str(tmp_path / "nope.json"),
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["fixed-point", "--params", str(path),
                     "--out", str(tmp_path / "o.json")])
        assert code == 3

    def test_domain_error_exit_code(self, tmp_path, capsys):
        bad = dict(ANALYTIC, delta=0.6)  # solved p0 = 4/7 > 1 - delta
        params = write_params(tmp_path, bad)
        code = main(["fixed-point", "--params", str(params),
                     "--out", str(tmp_path / "o.json")])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "AssumptionViolationError"

    def test_set_override(self, tmp_path):
        params = write_params(tmp_path, ANALYTIC)
        out = tmp_path / "fp.json"
        code = main(["fixed-point", "--params", str(params), "--out", str(out),
                     "--set", "lambda=5", "--set", "mu=4", "--set", "omega=0",
                     "--set", "capacity_c=3", "--set", "capacity_k=4"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert np.max(np.abs(np.array(payload["p"]) - 0.2)) < 1e-10

    def test_idempotent(self, tmp_path):
        params = write_params(tmp_path, ANALYTIC)
        out = tmp_path / "fp.json"
        main(["fixed-point", "--params", str(params), "--out", str(out)])
        first = out.read_bytes()
        main(["fixed-point", "--params", str(params), "--out", str(out)])
        assert out.read_bytes() == first


class TestOdeCommand:
    def test_outputs(self, tmp_path):
        config = dict(SMALL, t_end=50.0)
        params = write_params(tmp_path, config)
        out = tmp_path / "traj.csv"
        code = main(["ode", "--params", str(params), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "t,y0,y1,y2,y3,y4"
        terminal = json.loads((tmp_path / "traj.terminal.json").read_text())
        assert len(terminal["y"]) == 5
        assert terminal["params"]["mu"] == 4.0

    @pytest.mark.parametrize("override", ["finite_n=False", 'finite_n="true"', "finite_n=1"])
    def test_finite_n_must_be_boolean(self, tmp_path, capsys, override):
        params = write_params(tmp_path, dict(SMALL, t_end=1.0))
        out = tmp_path / "traj.csv"
        code = main(["ode", "--params", str(params), "--out", str(out), "--set", override])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_finite_n_picks_the_route(self, tmp_path):
        params = write_params(tmp_path, dict(SMALL, t_end=1.0))
        outputs = {}
        for name, extra in (("default", []), ("false", ["--set", "finite_n=false"]),
                            ("true", ["--set", "finite_n=true"])):
            out = tmp_path / f"{name}.csv"
            assert main(["ode", "--params", str(params), "--out", str(out), *extra]) == 0
            outputs[name] = out.read_bytes()
        assert outputs["default"] == outputs["false"] != outputs["true"]

    def test_missing_t_end(self, tmp_path):
        params = write_params(tmp_path, SMALL)
        code = main(["ode", "--params", str(params),
                     "--out", str(tmp_path / "t.csv")])
        assert code == 3


class TestSimulateCommand:
    def test_report_and_trajectory(self, tmp_path):
        config = dict(SMALL, seed=7, t_warmup=1.0, t_measure=3.0,
                      sample_interval=0.5)
        params = write_params(tmp_path, config)
        out = tmp_path / "report.json"
        code = main(["simulate", "--params", str(params), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["seed"] == 7
        assert (tmp_path / "report.trajectory.csv").exists()

    def test_seed_flag_overrides(self, tmp_path):
        config = dict(SMALL, seed=7, t_measure=3.0)
        params = write_params(tmp_path, config)
        out = tmp_path / "report.json"
        code = main(["simulate", "--params", str(params), "--out", str(out),
                     "--seed", "11"])
        assert code == 0
        assert json.loads(out.read_text())["seed"] == 11

    def test_deterministic_outputs(self, tmp_path):
        config = dict(SMALL, seed=5, t_measure=2.0)
        params = write_params(tmp_path, config)
        out = tmp_path / "report.json"
        main(["simulate", "--params", str(params), "--out", str(out)])
        first = out.read_bytes()
        main(["simulate", "--params", str(params), "--out", str(out)])
        assert out.read_bytes() == first

    @pytest.mark.parametrize("command,override", [
        pytest.param("simulate", "seed=1.7", id="seed=1.7"),
        pytest.param("simulate", 'exclude_first_ride_origin="false"',
                     id='exclude_first_ride_origin="false"'),
        pytest.param("validate", "seed=1.7", id="validate-seed=1.7"),
        pytest.param("validate", "seed=true", id="validate-seed=true"),
        pytest.param("fixed-point", 'lambda="1"', id='lambda="1"'),
        pytest.param("fixed-point", "mu=true", id="mu=true"),
        pytest.param("simulate", 'seed="7"', id='seed="7"'),
        pytest.param("ode", "t_end=abc", id="t_end=abc"),
        pytest.param("ode", "initial=abc", id="initial=abc"),
        pytest.param("sweep", "grid=7", id="grid=7"),
        pytest.param("optimize", "grid_c=10", id="grid_c=10"),
        pytest.param("sweep", "vary=[1]", id="vary=[1]"),
        pytest.param("optimize", "beta=5", id="beta=5"),
        pytest.param("sweep", "grid_num=-3", id="grid_num=-3"),
        pytest.param("simulate", "sample_interval=abc", id="sample_interval=abc"),
        pytest.param("ode", 't_end="0.5"', id='t_end="0.5"'),
        pytest.param("optimize", "grid_c=[10.7]", id="grid_c=[10.7]"),
        pytest.param("fixed-point", "lambda=1e400", id="lambda=1e400"),
        pytest.param("fixed-point", "tol=NaN", id="tol=NaN"),
        pytest.param("simulate", "t_warmup=NaN", id="t_warmup=NaN"),
        pytest.param("simulate", "t_warmup=Infinity", id="t_warmup=Infinity"),
        pytest.param("ode", "max_time=-1", id="max_time=-1"),
        pytest.param("ode", "max_time=2", id="max_time=2"),
        pytest.param("ode", "initial=[0,0,0,true,false]", id="initial-booleans"),
        pytest.param("validate", "validate_t_measure=NaN", id="validate_t_measure=NaN"),
    ])
    def test_coercions_rejected(self, tmp_path, capsys, command, override):
        params = write_params(tmp_path, dict(
            SMALL, seed=1, t_measure=1.0, t_end=1.0, vary="lambda",
            grid_start=0.5, grid_stop=1.0, grid_num=2, grid_c=[2, 3]))
        out = tmp_path / "r.out"
        code = main([command, "--params", str(params), "--out", str(out), "--set", override])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()


class TestSweepCommand:
    def test_csv_output(self, tmp_path):
        config = dict(SMALL, vary="lambda", grid=[0.8, 1.0, 1.2])
        params = write_params(tmp_path, config)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--params", str(params), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "vary_name,value,p0,pK,p0_plus_pK,eq,profit"
        assert len(lines) == 5

    def test_linspace_grid(self, tmp_path):
        config = dict(SMALL, vary="lambda", grid_start=0.5, grid_stop=1.5,
                      grid_num=5)
        params = write_params(tmp_path, config)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--params", str(params), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 7


class TestOptimizeCommand:
    def test_weighted(self, tmp_path):
        config = dict(SMALL, objective="weighted", beta=[1.0, 0.0, 0.0],
                      grid_c=[2, 3], grid_mu=[2.0, 4.0])
        params = write_params(tmp_path, config)
        out = tmp_path / "win.json"
        code = main(["optimize", "--params", str(params), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["objective"] == "weighted"
        assert "p0" in payload["metrics"]
        grid_lines = (tmp_path / "win.grid.csv").read_text().splitlines()
        assert len(grid_lines) == 5

    def test_profit(self, tmp_path):
        config = dict(SMALL, objective="profit", cost_c=1.0, benefit_psi=2.0,
                      grid_c=[2, 3])
        params = write_params(tmp_path, config)
        out = tmp_path / "win.json"
        assert main(["optimize", "--params", str(params), "--out", str(out)]) == 0

    def test_needs_grid(self, tmp_path):
        params = write_params(tmp_path, dict(SMALL, objective="weighted"))
        assert main(["optimize", "--params", str(params),
                     "--out", str(tmp_path / "w.json")]) == 3

    @pytest.mark.parametrize("objective", ["weighted", "profit"])
    def test_solves_each_candidate_once(self, tmp_path, monkeypatch, objective):
        from bikeshare_meanfield import analysis

        calls = []

        def counting_solve(params, *args, **kwargs):
            calls.append(params)
            return solve(params, *args, **kwargs)

        solve = analysis.solve_fixed_point
        monkeypatch.setattr(analysis, "solve_fixed_point", counting_solve)
        config = dict(SMALL, objective=objective, grid_c=[2, 3, 5], grid_mu=[0.25, 2.0, 4.0])
        params = write_params(tmp_path, config)
        out = tmp_path / "win.json"
        assert main(["optimize", "--params", str(params), "--out", str(out)]) == 0
        rows = (tmp_path / "win.grid.csv").read_text().splitlines()[1:]
        # C=5 >= K and mu=0.25 <= gamma are infeasible: 2 x 2 candidates remain
        assert len(rows) == 4
        assert len(calls) == 4
        assert len(set(calls)) == 4


class TestInternalErrorExit:
    @pytest.mark.parametrize("command,keys", [
        ("sweep", dict(vary="lambda", grid=[0.8, 1.0])),
        ("optimize", dict(objective="weighted", grid_c=[2, 3])),
    ])
    def test_invariant_violation_in_a_node_exits_5(self, tmp_path, monkeypatch, capsys,
                                                   command, keys):
        from bikeshare_meanfield import analysis
        from bikeshare_meanfield.errors import InvariantViolationError

        def broken_solve(params, *args, **kwargs):
            raise InvariantViolationError("solver broke")

        monkeypatch.setattr(analysis, "solve_fixed_point", broken_solve)
        params = write_params(tmp_path, dict(SMALL, **keys))
        out = tmp_path / "out.csv"
        assert main([command, "--params", str(params), "--out", str(out)]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "InvariantViolationError"
        assert not out.exists()


class TestValidateCommand:
    def test_small_system_passes(self, tmp_path, capsys):
        config = dict(SMALL, validate_t_measure=300.0)
        params = write_params(tmp_path, config)
        out = tmp_path / "checks.json"
        code = main(["validate", "--params", str(params), "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert captured.count("PASS") == 5
        assert "FAIL" not in captured
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True

    def test_figure5_parameters_pass(self, tmp_path, capsys):
        fig5 = {
            "lambda": 15.0, "mu": 8.0, "gamma": 0.25, "omega": 1,
            "capacity_c": 30, "capacity_k": 50, "n_stations": 1000,
            "delta": 0.1,
        }
        params = write_params(tmp_path, fig5)
        code = main(["validate", "--params", str(params),
                     "--set", "validate_t_measure=20"])
        captured = capsys.readouterr().out
        assert code == 0
        assert captured.count("PASS") == 5


# every key each command reads, by the JSON type it must have
MODEL_KEYS = {"lambda": "number", "mu": "number", "gamma": "number", "omega": "integer",
              "capacity_c": "integer", "capacity_k": "integer", "n_stations": "integer",
              "delta": "number"}
COMMAND_KEYS = {
    "fixed-point": {"tol": "number"},
    "ode": {"t_end": "number", "step": "number", "stationarity_tol": "number",
            "initial": "list", "finite_n": "boolean"},
    "simulate": {"seed": "integer", "t_warmup": "number", "t_measure": "number",
                 "sample_interval": "number", "exclude_first_ride_origin": "boolean"},
    "sweep": {"vary": "name", "grid": "list", "grid_start": "number", "grid_stop": "number",
              "grid_num": "integer", "cost_c": "number", "benefit_psi": "number"},
    "optimize": {"objective": "name", "grid_c": "list", "grid_k": "list", "grid_mu": "list",
                 "beta": "list", "cost_c": "number", "benefit_psi": "number"},
    "validate": {"seed": "integer", "validate_t_measure": "number"},
}
VALID_NAMES = {"lambda", "lam", "mu", "gamma", "omega", "capacity_c", "capacity_k",
               "n_stations", "delta", "weighted", "profit"}
JUNK = st.one_of(
    st.text(max_size=6),
    st.booleans(),
    st.none(),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)
FRACTIONS = st.floats(-1e3, 1e3).filter(lambda v: not v.is_integer())


def junk_for(key: str, kind: str):
    """Values a key of this kind never accepts."""
    if kind in ("integer", "list", "boolean", "name"):
        values = st.one_of(JUNK, FRACTIONS)
    else:
        values = JUNK
    if kind == "boolean":
        return values.filter(lambda v: not isinstance(v, bool))
    if kind == "name":
        return values.filter(lambda v: not (isinstance(v, str) and v in VALID_NAMES))
    if key == "sample_interval":  # null turns sampling off
        return values.filter(lambda v: v is not None)
    return values


@pytest.fixture(scope="module")
def junk_params(tmp_path_factory):
    """One small configuration that every command accepts."""
    path = tmp_path_factory.mktemp("junk") / "params.json"
    path.write_text(json.dumps(dict(
        SMALL, t_end=1.0, seed=1, t_measure=0.5, vary="lambda", grid_start=0.5,
        grid_stop=1.0, grid_num=2, grid_c=[2, 3], validate_t_measure=1.0)))
    return path


class TestJunkInput:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rejected_while_parsing(self, junk_params, data):
        command = data.draw(st.sampled_from(sorted(COMMAND_KEYS)), label="command")
        keys = {**MODEL_KEYS, **COMMAND_KEYS[command]}
        key = data.draw(st.sampled_from(sorted(keys)), label="key")
        value = data.draw(junk_for(key, keys[key]), label="value")
        out = junk_params.parent / "never_written.out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--params", str(junk_params), "--out", str(out),
                         "--set", f"{key}={json.dumps(value)}"])
        assert code == 3, err.getvalue()
        assert json.loads(err.getvalue())["error"] == "ConfigError"
        assert not out.exists()


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["fixed-point"])
        assert err.value.code == 2

    def test_bad_set_syntax(self, tmp_path):
        params = write_params(tmp_path, ANALYTIC)
        code = main(["fixed-point", "--params", str(params),
                     "--out", str(tmp_path / "o.json"), "--set", "oops"])
        assert code == 3
