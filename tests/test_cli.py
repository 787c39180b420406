"""Command-line interface: outputs, exit codes, idempotence."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bikeshare_meanfield
from bikeshare_meanfield import OdeConfig, SystemParams, cli, core, fixed_point, integrate
from bikeshare_meanfield.cli import main
from bikeshare_meanfield.errors import ConfigError

SMALL = {
    "lambda": 1.0, "mu": 4.0, "gamma": 0.5, "omega": 1,
    "capacity_c": 3, "capacity_k": 4, "n_stations": 100, "delta": 0.2,
}
ANALYTIC = {
    "lambda": 1.0, "mu": 1.0, "gamma": 0.5, "omega": 0,
    "capacity_c": 1, "capacity_k": 2, "n_stations": 100, "delta": 0.2,
}
FIG5 = {
    "lambda": 15.0, "mu": 8.0, "gamma": 0.25, "omega": 1,
    "capacity_c": 30, "capacity_k": 50, "n_stations": 1000, "delta": 0.1,
}
# the fleet C - E[Q] cancels to 5.6e-8 at the root, so the best float load
# leaves a residual 78 times the relative gate; the defect changes sign there
ILL_CONDITIONED = {
    "lambda": 0.0001992485218634334, "mu": 4249.814105197107,
    "gamma": 0.059746640450473024, "omega": 1, "capacity_c": 286, "capacity_k": 428,
    "delta": 0.43950317724412447,
}

# the defect near the root is rounding noise of either sign, so only the
# solver's rounding bound accepts it; p_K then breaks the 1 - delta bound (exit 4)
ROUNDING_NOISE = {
    "lambda": 1.0, "mu": 103473.85121678609, "gamma": 1.0, "omega": 0,
    "capacity_c": 144, "capacity_k": 145, "delta": 0.8125,
}


def write_params(tmp_path, data, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def _package_env():
    """The environment of a fresh process that imports this package's source."""
    src = str(Path(bikeshare_meanfield.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


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

    @pytest.mark.parametrize("key", ["lambda", "delta"])
    def test_overflowing_integer_constant_exits_3(self, tmp_path, capsys, key):
        # a 401-digit integer is valid JSON, but no float holds it
        params = write_params(tmp_path, dict(ANALYTIC, **{key: 10 ** 400}))
        out = tmp_path / "fp.json"
        code = main(["fixed-point", "--params", str(params), "--out", str(out)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{key} must be a finite number, got 1000")
        assert not out.exists()

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

    def test_unencodable_payload_keeps_the_old_bytes(self, tmp_path, capsys, monkeypatch):
        # the document is formatted whole before --out is touched
        to_dict = fixed_point.FixedPointResult.to_dict
        monkeypatch.setattr(fixed_point.FixedPointResult, "to_dict",
                            lambda self: {**to_dict(self), "rho": object()})
        params = write_params(tmp_path, ANALYTIC)
        out = tmp_path / "fp.json"
        out.write_bytes(b"old bytes\n")
        assert main(["fixed-point", "--params", str(params), "--out", str(out)]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "TypeError"
        assert out.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fp.json", "params.json"]


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


def _in_process_ode(tmp_path, config, finite_n):
    """The parent's ``ode`` outputs: ``integrate``, then ``Trajectory.to_csv`` and
    the terminal JSON, all in this process."""
    from bikeshare_meanfield.core import _write_json

    params = SystemParams.from_dict(config)
    initial = np.zeros(params.capacity_k + 1)
    initial[params.capacity_c] = 1.0
    traj = integrate(OdeConfig(initial=initial, t_end=config["t_end"],
                               **{key: config[key] for key in ("step", "stationarity_tol")
                                  if key in config}), params, finite_n=finite_n)
    out = tmp_path / "expected.csv"
    traj.to_csv(out, params=params)
    _write_json(out.with_suffix(".terminal.json"), {
        "params": params.to_dict(), "t": float(traj.times[-1]),
        "y": [float(v) for v in traj.terminal]})
    return out.read_bytes(), out.with_suffix(".terminal.json").read_bytes(), traj.times.size


@pytest.fixture
def writers(monkeypatch):
    """Every writer process the CLI starts, recorded as it starts."""
    started, popen = [], subprocess.Popen

    def recording(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording)
    return started


def _no_process(*args, **kwargs):
    raise OSError("no process")


class TestOdeStream:
    """``ode`` hands each block of rows to a writer process while it integrates."""

    # row counts (limiting, finite N); SMALL rows have 6 values, so a block holds
    # 512 of them, and no run has fewer than 2 rows: it takes at least one step
    @pytest.mark.parametrize("data,rows", [
        pytest.param(dict(FIG5, t_end=30.0), (6976, 6976), id="fig5"),
        pytest.param(dict(ANALYTIC, t_end=50.0), (1394, 1400), id="k=2"),
        pytest.param(dict(SMALL, t_end=511 * 0.01, step=0.01, stationarity_tol=1e-300),
                     (512, 512), id="one-block"),
        pytest.param(dict(SMALL, t_end=512 * 0.01, step=0.01, stationarity_tol=1e-300),
                     (513, 513), id="one-block-and-a-row"),
        pytest.param(dict(SMALL, t_end=0.01, step=0.01), (2, 2), id="one-step"),
        pytest.param(dict(SMALL, t_end=3.3333, step=0.0071, stationarity_tol=1e-300),
                     (471, 471), id="short-last-step"),
    ])
    @pytest.mark.parametrize("finite_n", [False, True], ids=["limiting", "finite-n"])
    def test_bytes_match_in_process_export(self, tmp_path, writers, data, rows, finite_n):
        csv, terminal, size = _in_process_ode(tmp_path, data, finite_n)
        assert size == rows[finite_n]
        params = write_params(tmp_path, dict(data, finite_n=finite_n))
        out = tmp_path / "traj.csv"
        assert main(["ode", "--params", str(params), "--out", str(out)]) == 0
        assert out.read_bytes() == csv
        assert out.with_suffix(".terminal.json").read_bytes() == terminal
        assert len(writers) == 1 and writers[0].returncode == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "expected.csv", "expected.terminal.json", "params.json", "traj.csv",
            "traj.terminal.json"]

    def test_fallback_without_a_writer_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(subprocess, "Popen", _no_process)
        data = dict(FIG5, t_end=3.0)
        csv, terminal, _ = _in_process_ode(tmp_path, data, False)
        out = tmp_path / "traj.csv"
        assert main(["ode", "--params", str(write_params(tmp_path, data)),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == csv
        assert out.with_suffix(".terminal.json").read_bytes() == terminal
        assert len(list(tmp_path.iterdir())) == 5

    @pytest.mark.parametrize("data", [
        pytest.param(dict(FIG5, t_end=30.0), id="fig5"),
        pytest.param(dict(ANALYTIC, t_end=50.0, finite_n=True), id="k=2-finite-n"),
    ])
    def test_same_bytes_with_and_without_a_writer_process(self, tmp_path, monkeypatch, writers,
                                                          data):
        params = write_params(tmp_path, data)
        outputs = []
        for name in ("writer", "in-process"):
            out = tmp_path / f"{name}.csv"
            assert main(["ode", "--params", str(params), "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), out.with_suffix(".terminal.json").read_bytes()))
            monkeypatch.setattr(subprocess, "Popen", _no_process)
        assert outputs[0] == outputs[1]
        assert len(writers) == 1 and writers[0].returncode == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "in-process.csv", "in-process.terminal.json", "params.json", "writer.csv",
            "writer.terminal.json"]

    def test_domain_exit_without_a_process_leaves_out_as_it_was(self, tmp_path, capsys,
                                                                monkeypatch):
        monkeypatch.setattr(subprocess, "Popen", _no_process)
        params = write_params(tmp_path, dict(SMALL, delta=0.9, t_end=50.0))
        out = tmp_path / "traj.csv"
        out.write_bytes(b"earlier bytes\n")
        assert main(["ode", "--params", str(params), "--out", str(out)]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "DomainExitError"
        assert out.read_bytes() == b"earlier bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json", "traj.csv"]

    def test_interrupt_without_a_process(self, tmp_path, monkeypatch):
        blocks, written = cli._rk4_blocks, []

        def interrupted(*args):
            for index, block in enumerate(blocks(*args)):
                if index == 3:
                    # the rows of the first three blocks are in the temporary file
                    written.extend(p.stat().st_size for p in tmp_path.glob(".traj.csv.*.tmp"))
                    raise KeyboardInterrupt
                yield block

        monkeypatch.setattr(subprocess, "Popen", _no_process)
        monkeypatch.setattr(cli, "_rk4_blocks", interrupted)
        out = tmp_path / "traj.csv"
        out.write_bytes(b"earlier bytes\n")
        params = write_params(tmp_path, dict(FIG5, t_end=30.0))
        with pytest.raises(KeyboardInterrupt):
            main(["ode", "--params", str(params), "--out", str(out)])
        assert len(written) == 1 and written[0] > 3 * 512 * 52 * 2
        assert out.read_bytes() == b"earlier bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json", "traj.csv"]

    @pytest.mark.parametrize("existing", [None, b"earlier bytes\n"], ids=["new", "existing"])
    def test_domain_exit_leaves_out_as_it_was(self, tmp_path, writers, capsys, existing):
        # the set of test_domain_exit_reported: the run leaves the domain at t = 0.32
        params = write_params(tmp_path, dict(SMALL, delta=0.9, t_end=50.0))
        out = tmp_path / "traj.csv"
        if existing is not None:
            out.write_bytes(existing)
        assert main(["ode", "--params", str(params), "--out", str(out)]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "DomainExitError"
        assert (out.read_bytes() if out.exists() else None) == existing
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["params.json"] + (["traj.csv"] if existing is not None else []))
        # the writer has exited before main removes the temporary file
        assert len(writers) == 1 and writers[0].returncode is not None

    def test_interrupt_mid_stream(self, tmp_path, writers, monkeypatch):
        from bikeshare_meanfield import cli

        blocks = cli._rk4_blocks

        def interrupted(*args):
            for index, block in enumerate(blocks(*args)):
                if index == 3:
                    raise KeyboardInterrupt
                yield block

        monkeypatch.setattr(cli, "_rk4_blocks", interrupted)
        out = tmp_path / "traj.csv"
        out.write_bytes(b"earlier bytes\n")
        params = write_params(tmp_path, dict(FIG5, t_end=30.0))
        with pytest.raises(KeyboardInterrupt):
            main(["ode", "--params", str(params), "--out", str(out)])
        assert out.read_bytes() == b"earlier bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json", "traj.csv"]
        # the writer has exited before main removes the temporary file
        assert len(writers) == 1 and writers[0].returncode is not None

    def test_failed_writer_is_reported_in_one_line(self, tmp_path, capfd, monkeypatch):
        popen = subprocess.Popen
        started = []

        def failing(args, **kwargs):
            script = "import sys; sys.stderr.write('writer trace\\n'); sys.exit(3)"
            started.append(popen([sys.executable, "-c", script], **kwargs))
            return started[-1]

        monkeypatch.setattr(subprocess, "Popen", failing)
        out = tmp_path / "traj.csv"
        params = write_params(tmp_path, dict(FIG5, t_end=30.0))
        assert main(["ode", "--params", str(params), "--out", str(out)]) == 5
        lines = capfd.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "OSError", "message": "the CSV writer process exited with status 3"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json"]
        assert started[0].returncode == 3

    def test_missing_directory_exits_5_in_one_line(self, tmp_path):
        params = write_params(tmp_path, dict(SMALL, t_end=1.0))
        proc = subprocess.run(
            [sys.executable, "-m", "bikeshare_meanfield.cli", "ode", "--params", str(params),
             "--out", str(tmp_path / "missing" / "traj.csv")],
            env=_package_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 5
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "FileNotFoundError"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json"]

    def test_nan_state_exits_5_and_leaves_no_file(self, tmp_path):
        # the step overflows to a NaN state, which used to be written as rows
        # of nan with exit 0; numpy's overflow warnings are off, so the error
        # line is all of stderr
        params = write_params(tmp_path, dict(FIG5, step=1e200, t_end=5e200))
        proc = subprocess.run(
            [sys.executable, "-m", "bikeshare_meanfield.cli", "ode", "--params", str(params),
             "--out", str(tmp_path / "traj.csv")],
            env=_package_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 5
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "StepInstabilityError",
            "message": "simplex repair nan exceeded budget 1.0e-07 at t=1e+200; reduce the step"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json"]

    def test_out_is_a_directory(self, tmp_path, writers, capsys, monkeypatch):
        # refused before a writer starts or a step is taken, naming --out itself
        from bikeshare_meanfield import cli

        stepped = []

        def no_steps(*args):
            stepped.append(args)  # runs when the first block is asked for
            yield from ()

        monkeypatch.setattr(cli, "_rk4_blocks", no_steps)
        params = write_params(tmp_path, dict(SMALL, t_end=1.0))
        out = tmp_path / "traj.csv"
        out.mkdir()
        assert main(["ode", "--params", str(params), "--out", str(out)]) == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "IsADirectoryError",
                                        "message": f"[Errno 21] Is a directory: {str(out)!r}"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["params.json", "traj.csv"]
        assert list(out.iterdir()) == []
        assert writers == [] and stepped == []

    def test_writer_script_alone(self, tmp_path):
        from bikeshare_meanfield import csvrows

        # two whole rows, no rows, a cut value or a cut row (two of the six values)
        values = [0.0, -0.0, 5e-324, 1e300, 2.0 / 3.0, 0.1] + [-1.5, 1e-300, 3.0, 0.0, 7.0, 1.0]
        lines = ("0,-0,4.9406564584124654e-324,1.0000000000000001e+300,"
                 "0.66666666666666663,0.10000000000000001\n"
                 "-1.5,1e-300,3,0,7,1\n")
        data = np.array(values).tobytes()
        path = tmp_path / "rows.csv"
        for stdin, text in ((data, lines), (b"", ""), (data[:20], None), (data[:16], None)):
            path.write_text("head\n")
            proc = subprocess.run([sys.executable, "-I", "-S", csvrows.__file__, str(path), "6"],
                                  input=stdin, capture_output=True, timeout=60)
            assert (proc.returncode == 0) == (text is not None)
            if text is not None:
                assert path.read_text() == "head\n" + text
                assert text == csvrows.format_rows(values[:len(stdin) // 8], 6)

    def test_writer_imports_only_the_standard_library(self):
        import ast

        from bikeshare_meanfield import csvrows

        tree = ast.parse(Path(csvrows.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert imported <= {"__future__", "errno", "os", "subprocess", "sys"}


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
        # --seed N is a final --set seed=N: it wins over the file and over --set
        config = dict(SMALL, seed=7, t_measure=3.0)
        params = write_params(tmp_path, config)
        out = tmp_path / "report.json"
        outputs = []
        for flags in (["--seed", "11"], ["--seed", "11", "--set", "seed=3"],
                      ["--set", "seed=11"]):
            assert main(["simulate", "--params", str(params), "--out", str(out), *flags]) == 0
            outputs.append(out.read_bytes())
        assert json.loads(outputs[0])["seed"] == 11
        assert outputs[0] == outputs[1] == outputs[2]

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
        # retired keys are refused whatever their value
        pytest.param("fixed-point", "tol=1e-10", id="tol=1e-10"),
        pytest.param("simulate", "exclude_first_ride_origin=false",
                     id="exclude_first_ride_origin=false"),
        pytest.param("ode", "t_end=true", id="t_end=true"),
        pytest.param("ode", "step=true", id="step=true"),
        pytest.param("ode", "stationarity_tol=true", id="stationarity_tol=true"),
        pytest.param("ode", "t_end=Infinity", id="t_end=Infinity"),
        pytest.param("ode", "step=null", id="step=null"),
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

        def counting_solve(nodes):
            calls.append(nodes)
            return solve(nodes)

        solve = analysis._solve_many
        monkeypatch.setattr(analysis, "_solve_many", counting_solve)
        config = dict(SMALL, objective=objective, grid_c=[2, 3, 5], grid_mu=[0.25, 2.0, 4.0])
        params = write_params(tmp_path, config)
        out = tmp_path / "win.json"
        assert main(["optimize", "--params", str(params), "--out", str(out)]) == 0
        rows = (tmp_path / "win.grid.csv").read_text().splitlines()[1:]
        # C=5 >= K and mu=0.25 <= gamma are infeasible: 2 x 2 candidates remain
        assert len(rows) == 4
        assert len(calls) == 1
        assert len(calls[0]) == 4
        assert len(set(calls[0])) == 4


class TestInternalErrorExit:
    @pytest.mark.parametrize("command,keys", [
        ("sweep", dict(vary="lambda", grid=[0.8, 1.0])),
        ("optimize", dict(objective="weighted", grid_c=[2, 3])),
    ])
    def test_invariant_violation_in_a_node_exits_5(self, tmp_path, monkeypatch, capsys,
                                                   command, keys):
        from bikeshare_meanfield import analysis
        from bikeshare_meanfield.errors import InvariantViolationError

        def broken_solve(nodes):
            return [InvariantViolationError("solver broke") for _ in nodes]

        monkeypatch.setattr(analysis, "_solve_many", broken_solve)
        params = write_params(tmp_path, dict(SMALL, **keys))
        out = tmp_path / "out.csv"
        assert main([command, "--params", str(params), "--out", str(out)]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "InvariantViolationError"
        assert not out.exists()


class TestRootCertificate:
    def test_ill_conditioned_set_solves(self, tmp_path):
        params = write_params(tmp_path, ILL_CONDITIONED)
        out = tmp_path / "fp.json"
        assert main(["fixed-point", "--params", str(params), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["rho"] == pytest.approx(1.00506, abs=1e-5)
        assert payload["p"][0] == pytest.approx(6.55e-4, rel=1e-3)
        assert payload["p"][-1] == pytest.approx(5.69e-3, rel=1e-3)
        assert payload["residual"] >= 1e-10 * (payload["a"] + payload["b"])

    @pytest.mark.parametrize("shift", [1e-6, -1e-6, 1e-9, -1e-9])
    @pytest.mark.parametrize("config", [
        FIG5, ILL_CONDITIONED, ROUNDING_NOISE,
    ], ids=["fig5", "ill", "rounding-noise"])
    def test_moved_root_exits_5(self, tmp_path, monkeypatch, capsys, config, shift):
        from bikeshare_meanfield import fixed_point

        brent = fixed_point._brent_steps

        def moved(*args, **kwargs):
            root, iterations = yield from brent(*args, **kwargs)
            return root * (1.0 + shift), iterations

        monkeypatch.setattr(fixed_point, "_brent_steps", moved)
        params = write_params(tmp_path, config)
        out = tmp_path / "fp.json"
        assert main(["fixed-point", "--params", str(params), "--out", str(out)]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "InvariantViolationError"
        assert not out.exists()


LOG_RATES = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@st.composite
def wide_params(draw):
    """A valid parameter set: rates 1e-6 to 1e6, K 2 to 500, omega 0 to 5."""
    mu, gamma = sorted((draw(LOG_RATES), draw(LOG_RATES)), reverse=True)
    k = draw(st.integers(2, 500))
    return {"lambda": draw(LOG_RATES), "mu": mu, "gamma": gamma,
            "omega": draw(st.integers(0, 5)), "capacity_c": draw(st.integers(1, k - 1)),
            "capacity_k": k, "delta": draw(st.floats(0.01, 0.99))}


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("valid")


def run_quietly(argv):
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestValidInput:
    """A valid parameter set solves or fails in the model's domain: exit 0 or 4, never 5."""

    @settings(max_examples=300, deadline=None)
    @given(config=wide_params())
    @example(config=ROUNDING_NOISE)
    def test_fixed_point(self, valid_dir, config):
        params = write_params(valid_dir, config)
        code, err = run_quietly(["fixed-point", "--params", str(params),
                                 "--out", str(valid_dir / "fp.json")])
        assert code in (0, 4), err

    @settings(max_examples=100, deadline=None)
    @given(config=wide_params(), grid=st.lists(LOG_RATES, min_size=1, max_size=4))
    def test_sweep(self, valid_dir, config, grid):
        params = write_params(valid_dir, dict(config, vary="lambda", grid=grid))
        code, err = run_quietly(["sweep", "--params", str(params),
                                 "--out", str(valid_dir / "sweep.csv")])
        assert code in (0, 4), err


class TestValidateCommand:
    def test_small_system_passes(self, tmp_path, capsys):
        config = dict(SMALL, validate_t_measure=300.0)
        params = write_params(tmp_path, config)
        out = tmp_path / "checks.json"
        code = main(["validate", "--params", str(params), "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert captured.count("PASS") == 6
        assert "FAIL" not in captured
        payload = json.loads(out.read_text())
        assert payload["all_passed"] is True

    def test_solves_once(self, tmp_path, capsys, monkeypatch):
        from bikeshare_meanfield import validation

        solve, solved = validation.solve_fixed_point, []
        monkeypatch.setattr(validation, "solve_fixed_point",
                            lambda params: solved.append(params) or solve(params))
        params = write_params(tmp_path, dict(SMALL, validate_t_measure=20.0))
        assert main(["validate", "--params", str(params)]) == 0
        assert capsys.readouterr().out.count("PASS") == 6
        assert solved == [SystemParams.from_dict(SMALL)]

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_refused_before_any_check(self, tmp_path, capsys, monkeypatch, seed):
        # a negative seed used to run the solve, ODE and Jacobian checks (about 1 s)
        # before the simulation check refused it; every check reads the one solve
        from bikeshare_meanfield import validation

        monkeypatch.setattr(validation, "solve_fixed_point",
                            lambda params: pytest.fail("checks ran"))
        params = write_params(tmp_path, SMALL)
        assert main(["validate", "--params", str(params), "--set", f"seed={seed}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "ConfigError"
        assert error["message"].startswith("seed must be an integer")

    @pytest.mark.parametrize("seed", [-1, 1.5, "a", True, 2 ** 64])
    def test_run_all_refuses_the_seed_before_solving(self, monkeypatch, seed):
        # run_all used to solve and run five checks (about 0.8 s on figure 5)
        # before the simulation check refused the seed
        from bikeshare_meanfield import validation

        solve, solved = validation.solve_fixed_point, []
        monkeypatch.setattr(validation, "solve_fixed_point",
                            lambda params: solved.append(params) or solve(params))
        with pytest.raises(ConfigError, match=r"^seed must be an integer"):
            validation.run_all(SystemParams.from_dict(FIG5), seed=seed)
        assert solved == []

    def test_figure5_parameters_pass(self, tmp_path, capsys):
        params = write_params(tmp_path, FIG5)
        code = main(["validate", "--params", str(params),
                     "--set", "validate_t_measure=20"])
        captured = capsys.readouterr().out
        assert code == 0
        assert captured.count("PASS") == 6


class TestHugeOmega:
    # no float holds 10**400; at 2**1020 the walk term gamma * omega
    # overflows, so the defect at load 0 is 0 * inf = NaN
    @pytest.mark.parametrize("command", ["fixed-point", "validate"])
    @pytest.mark.parametrize("overrides,code,error", [
        pytest.param({"omega": 10 ** 400}, 3, "ConfigError", id="omega=10**400"),
        pytest.param({"omega": 2 ** 1020, "mu": 1e6, "gamma": 1e6}, 4, "NoBracketError",
                     id="omega=2**1020-rates=1e6"),
    ])
    def test_typed_exit(self, tmp_path, capsys, command, overrides, code, error):
        params = write_params(tmp_path, dict(FIG5, **overrides))
        out = tmp_path / "o.json"
        assert main([command, "--params", str(params), "--out", str(out)]) == code
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert not out.exists()

    def test_overflowing_jacobian_bound_fails_validate(self, tmp_path, capsys):
        # figure 5 still solves, but the walk term of the Lipschitz bound
        # overflows: an infinite bound bounds nothing
        params = write_params(tmp_path, dict(FIG5, omega=2 ** 1020))
        code = main(["validate", "--params", str(params), "--set", "validate_t_measure=20"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 4
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL jacobian-norm-bound: max sampled norm 1515 vs bound inf over 200 points; "
            "the bound is not finite"
        ]


class TestHugeCapacity:
    # a solve allocates rows of K + 1 floats and a dense (K+1) x (K+1) residual
    # generator; 10**13 would need 72.8 TiB per row, 2**62 more than numpy can
    # address, and no float holds 10**400.  The kernel is replaced by one that
    # fails the run (exit 5), so the solve must refuse the capacity before it
    # builds anything
    @pytest.mark.parametrize("capacity_k", [10 ** 13, 2 ** 62, 10 ** 400],
                             ids=["10**13", "2**62", "10**400"])
    def test_refused_before_any_allocation(self, tmp_path, capsys, monkeypatch, capacity_k):
        def no_kernel(group):
            raise AssertionError("the solve built a defect kernel")

        monkeypatch.setattr(fixed_point, "_defect_kernel", no_kernel)
        params = write_params(tmp_path, dict(FIG5, capacity_k=capacity_k))
        out = tmp_path / "o.json"
        assert main(["fixed-point", "--params", str(params), "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "is too large to solve" in err["message"]
        assert not out.exists()

    def test_sweep_records_the_refused_capacity(self, tmp_path, monkeypatch):
        # the refusal is per (K, omega) group: K = 50 solves, K = 10**13 is a failed node
        make_kernel = fixed_point._defect_kernel

        def small_kernel(group):
            assert group[0].capacity_k == 50, "the solve built a kernel for K = 10**13"
            return make_kernel(group)

        monkeypatch.setattr(fixed_point, "_defect_kernel", small_kernel)
        out = tmp_path / "sweep.csv"
        params = write_params(tmp_path, dict(FIG5, vary="capacity_k", grid=[50, 10 ** 13]))
        assert main(["sweep", "--params", str(params), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [row[1] for row in rows] == ["50", "10000000000000"]
        assert rows[0][2] != "nan" and rows[1][2:] == ["nan"] * 5

    def test_refusal_follows_the_byte_limit(self, tmp_path, capsys, monkeypatch):
        # a limit with room for a 40 x 40 generator only, as on a small machine, refuses K = 50
        monkeypatch.setattr(core, "_array_byte_limit", lambda: 8 * 40 ** 2)
        params = write_params(tmp_path, FIG5)
        out = tmp_path / "o.json"
        assert main(["fixed-point", "--params", str(params), "--out", str(out)]) == 3
        assert "more than the 12800 bytes" in json.loads(capsys.readouterr().err)["message"]

    # ode holds O(K) vectors and blocks of rows; simulate holds a dense
    # (K+1) x (K+1) joint occupancy matrix.  At these capacities both used to
    # exit 5 with a raw MemoryError; the refusal must come before the initial
    # vector, the CSV writer or the simulation state is built
    REFUSED = {"ode": ({"t_end": 5.0}, "o.csv",
                       "is too large to integrate: the run needs 96 (K+1) bytes for 12 vectors "
                       "(the initial state and its copy, 4 stages, arg, raw, scratch, 2 level "
                       "vectors and the drift's scratch) and 80 bytes a value for two blocks of "
                       "rows and the text of one, or at its end 176 (K+1) bytes and one block "
                       "for the terminal state's JSON"),
               "simulate": ({"seed": 1, "t_measure": 1.0}, "o.json",
                            "is too large to simulate: the dense (K+1) x (K+1) joint "
                            "occupancy matrix needs 8 (K+1)**2 bytes")}

    @pytest.mark.parametrize("command", ["ode", "simulate"])
    @pytest.mark.parametrize("capacity_k,name", [
        (10 ** 13, "capacity_k=10000000000000"), (2 ** 199 + 1, "a 200-bit capacity_k"),
    ], ids=["10**13", "200-bit"])
    def test_ode_and_simulate_refuse_before_any_allocation(self, tmp_path, capsys, monkeypatch,
                                                           command, capacity_k, name):
        def no_run(*args, **kwargs):
            raise AssertionError("ode started its run")

        # simulate refuses in its own first lines, before its state lists and matrix
        monkeypatch.setattr(cli, "stream_csv", no_run)
        monkeypatch.setattr(cli, "_rk4_blocks", no_run)
        keys, out_name, message = self.REFUSED[command]
        params = write_params(tmp_path, dict(FIG5, capacity_k=capacity_k, **keys))
        out = tmp_path / out_name
        assert main([command, "--params", str(params), "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{name} {message}, more than the ")
        assert sorted(os.listdir(tmp_path)) == ["params.json"]

    @pytest.mark.parametrize("command,limit", [("ode", 96 * 50 + 80 * 512 * 51),
                                               ("simulate", 8 * 50 ** 2)])
    def test_ode_and_simulate_refusal_follows_the_byte_limit(self, tmp_path, capsys,
                                                             monkeypatch, command, limit):
        # one byte short of the run's bytes at K = 49 refuses it; K = 48 fits and runs
        monkeypatch.setattr(core, "_array_byte_limit", lambda: limit - 1)
        keys, out_name, _ = self.REFUSED[command]
        out = tmp_path / out_name
        for capacity_k, code in ((49, 3), (48, 0)):
            params = write_params(tmp_path, dict(FIG5, capacity_k=capacity_k, **keys))
            assert main([command, "--params", str(params), "--out", str(out)]) == code
            assert out.exists() == (code == 0)
        assert f"more than the {limit - 1} bytes" in capsys.readouterr().err

    # a few-step ode holds its vectors, two blocks of rows and, when no writer
    # process starts, the text of one, and then its terminal JSON: a limit one
    # byte below the traced peak refuses the run, so the refusal counts all of it
    @pytest.mark.parametrize("writer", [True, False], ids=["writer", "no-writer"])
    @pytest.mark.parametrize("capacity_k", [2_000, 20_000, 200_000])
    def test_ode_refusal_counts_the_working_set(self, tmp_path, capsys, monkeypatch,
                                                capacity_k, writer):
        import tracemalloc

        def no_process(*args, **kwargs):
            raise OSError("no process can be started")

        if not writer:
            monkeypatch.setattr(subprocess, "Popen", no_process)
        params = write_params(tmp_path, dict(FIG5, capacity_k=capacity_k, t_end=0.01))
        argv = ["ode", "--params", str(params), "--out", str(tmp_path / "o.csv")]
        # the run builds its cached level vectors itself
        core._level_sum.cache_clear()
        core._levels.cache_clear()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(core, "_array_byte_limit", lambda: peak - 1)
        assert main(argv) == 3
        assert f"capacity_k={capacity_k} is too large to integrate" in capsys.readouterr().err

    # simulate holds a list of N station counts; at these station counts it
    # used to exit 5 with a raw MemoryError.  A child process under a 4 GiB
    # address-space limit, so that no run can allocate them here
    @pytest.mark.parametrize("n_stations,name", [
        (10 ** 13, "n_stations=10000000000000"), (2 ** 64 + 1, "a 65-bit n_stations"),
    ], ids=["10**13", "65-bit"])
    def test_simulate_refuses_unallocatable_stations(self, tmp_path, n_stations, name):
        import resource

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        params = write_params(tmp_path, dict(FIG5, n_stations=n_stations, seed=1, t_measure=1.0))
        proc = subprocess.run(
            [sys.executable, "-m", "bikeshare_meanfield.cli", "simulate", "--params", str(params),
             "--out", str(tmp_path / "o.json")],
            env=_package_env(), capture_output=True, text=True, timeout=120,
            preexec_fn=limit_address_space)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(
            f"{name} is too large to simulate: the bike counts per station need 8 N bytes, "
            "more than the ")
        assert sorted(os.listdir(tmp_path)) == ["params.json"]

    def test_simulate_station_refusal_follows_the_byte_limit(self, tmp_path, capsys,
                                                             monkeypatch):
        # one byte short of a 100-entry list refuses N = 100; N = 99 fits and runs
        monkeypatch.setattr(core, "_array_byte_limit", lambda: 8 * 100 - 1)
        out = tmp_path / "o.json"
        for n_stations, code in ((100, 3), (99, 0)):
            params = write_params(tmp_path, dict(SMALL, n_stations=n_stations, seed=1,
                                                 t_measure=1.0))
            assert main(["simulate", "--params", str(params), "--out", str(out)]) == code
            assert out.exists() == (code == 0)
        assert "n_stations=100 is too large to simulate" in capsys.readouterr().err

    # simulate holds each trajectory sample as one row of K+2 floats; at
    # sample_interval=1e-8 it used to exit 5 with a bare MemoryError.  One byte
    # short of six samples at K = 4 refuses an interval of 0.25 over a horizon
    # of 1 (at most 6 samples); 0.5 (at most 4) runs
    def test_simulate_sample_refusal_follows_the_byte_limit(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(core, "_array_byte_limit", lambda: 8 * 6 * 6 - 1)
        out = tmp_path / "o.json"
        params = write_params(tmp_path, dict(SMALL, n_stations=10, seed=1, t_measure=1.0))
        argv = ["simulate", "--params", str(params), "--out", str(out), "--set"]
        assert main(argv + ["sample_interval=0.25"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(
            "samples=6 is too large to simulate: the trajectory samples need 8 (K+2) bytes "
            "each")
        assert sorted(os.listdir(tmp_path)) == ["params.json"]
        assert main(argv + ["sample_interval=0.5"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["o.json", "o.trajectory.csv", "params.json"]

    # the figure-5 set at N = 10 sampled every 1e-8 over a horizon of 1: the
    # refusal comes before sampling, in a child process under a 4 GiB
    # address-space limit, so that a run that did sample would fail there
    def test_simulate_refuses_unallocatable_samples(self, tmp_path):
        import resource

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        params = write_params(tmp_path, dict(FIG5, n_stations=10, seed=1, t_measure=1.0,
                                             sample_interval=1e-8))
        proc = subprocess.run(
            [sys.executable, "-m", "bikeshare_meanfield.cli", "simulate", "--params", str(params),
             "--out", str(tmp_path / "o.json")],
            env=_package_env(), capture_output=True, text=True, timeout=120,
            preexec_fn=limit_address_space)
        assert proc.returncode == 3
        err = json.loads(proc.stderr)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("samples=100000001 is too large to simulate")
        assert sorted(os.listdir(tmp_path)) == ["params.json"]

    # sweep holds O(K) bytes for each of its grid_num nodes; at 10**13 nodes it
    # used to exit 5 with numpy's MemoryError
    def test_sweep_refuses_unallocatable_grid(self, tmp_path, capsys):
        params = write_params(tmp_path, dict(SMALL, vary="lambda", grid_start=0.5,
                                             grid_stop=1.5, grid_num=10 ** 13))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--params", str(params), "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(
            "grid_num=10000000000000 is too large to sweep: the sweep needs 256 KiB for its "
            "first call, 8 (K+1)**2 bytes at the largest K for one group's residual generator "
            "and 32 (K+1) + 2400 bytes a node")
        assert sorted(os.listdir(tmp_path)) == ["params.json"]

    def test_sweep_grid_refusal_follows_the_byte_limit(self, tmp_path, capsys, monkeypatch):
        # one byte short of a 6-node sweep refuses grid_num=6; 5 nodes fit and solve
        monkeypatch.setattr(core, "_array_byte_limit",
                            lambda: (32 * 5 + 2400) * 6 + 262143 + 8 * 5 ** 2)
        out = tmp_path / "sweep.csv"
        for grid_num, code in ((6, 3), (5, 0)):
            params = write_params(tmp_path, dict(SMALL, vary="lambda", grid_start=0.5,
                                                 grid_stop=1.5, grid_num=grid_num))
            assert main(["sweep", "--params", str(params), "--out", str(out)]) == code
            assert out.exists() == (code == 0)
        assert "nan" not in out.read_text()
        assert "grid_num=6 is too large to sweep" in capsys.readouterr().err

    def test_sweep_sizes_each_node_at_its_own_capacity(self, tmp_path, capsys, monkeypatch):
        # the nodes K = 10, 20 and 30 need 3 (32 * 21 + 2400) bytes past the first call's
        # 256 KiB and the 8 * 31**2 bytes of the K = 30 generator, though three nodes at the
        # base K = 4 would need 3 (32 * 5 + 2400) and 8 * 5**2
        params = write_params(tmp_path, dict(SMALL, vary="capacity_k", grid_start=10,
                                             grid_stop=30, grid_num=3))
        out = tmp_path / "sweep.csv"
        nbytes = 3 * (32 * 21 + 2400) + 262144 + 8 * 31 ** 2
        for limit, code in ((nbytes - 1, 3), (nbytes, 0)):
            monkeypatch.setattr(core, "_array_byte_limit", lambda: limit)
            assert main(["sweep", "--params", str(params), "--out", str(out)]) == code
            assert out.exists() == (code == 0)
        assert [row.split(",")[1] for row in out.read_text().splitlines()[2:]] == [
            "10", "20", "30"]
        assert "nan" not in out.read_text()
        assert "grid_num=3 is too large to sweep" in capsys.readouterr().err

    # a limit one byte below the traced peak of a 1,000- or 4,000-node sweep refuses
    # it, so the refusal counts every node's vectors, solve, record and CSV row.  The
    # peak is taken after gc.collect(), which empties the free lists an earlier call
    # left to reuse: the small sweep then peaks at 2.22 kB a node, where reused free
    # lists give 2.10 kB
    @pytest.mark.parametrize("num", [1000, 4000])
    @pytest.mark.parametrize("base,start,stop", [(FIG5, 10.0, 30.0), (SMALL, 0.5, 1.5)],
                             ids=["figure-5", "small"])
    def test_sweep_refusal_counts_the_working_set(self, tmp_path, capsys, monkeypatch,
                                                  base, start, stop, num):
        import gc
        import tracemalloc

        params = write_params(tmp_path, dict(base, vary="lambda", grid_start=start,
                                             grid_stop=stop, grid_num=num))
        argv = ["sweep", "--params", str(params), "--out", str(tmp_path / "sweep.csv")]
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(core, "_array_byte_limit", lambda: peak - 1)
        assert main(argv) == 3
        assert f"grid_num={num} is too large to sweep" in capsys.readouterr().err

    # each group's solve holds one dense (K+1) x (K+1) residual generator, 128 MB at
    # K = 4,000, and the groups solve one after another: a limit one byte below the
    # traced peak of a sweep at a large K, or over a capacity_k grid up to it, refuses it
    @pytest.mark.parametrize("keys", [
        dict(capacity_c=1000, capacity_k=2000, vary="lambda", grid_start=10.0, grid_stop=30.0,
             grid_num=41),
        dict(capacity_c=1000, capacity_k=4000, vary="lambda", grid_start=10.0, grid_stop=30.0,
             grid_num=10),
        dict(capacity_c=25, vary="capacity_k", grid_start=2000, grid_stop=30, grid_num=3),
    ], ids=["k2000-41-nodes", "k4000-10-nodes", "capacity-k-grid"])
    def test_sweep_refusal_counts_the_residual_generator(self, tmp_path, capsys, monkeypatch,
                                                         keys):
        import gc
        import tracemalloc

        params = write_params(tmp_path, dict(FIG5, **keys))
        argv = ["sweep", "--params", str(params), "--out", str(tmp_path / "sweep.csv")]
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(core, "_array_byte_limit", lambda: peak - 1)
        assert main(argv) == 3
        assert f"grid_num={keys['grid_num']} is too large to sweep" in capsys.readouterr().err

    # the first sweep of a process costs about 150-190 kB once, more than the nodes of
    # a small grid: a limit one byte below its peak in a new interpreter refuses it
    @pytest.mark.parametrize("num", [100, 300])
    def test_refusal_counts_the_first_sweep_of_a_process(self, tmp_path, capsys, monkeypatch,
                                                         num):
        params = write_params(tmp_path, dict(SMALL, vary="lambda", grid_start=0.5,
                                             grid_stop=1.5, grid_num=num))
        argv = ["sweep", "--params", str(params), "--out", str(tmp_path / "sweep.csv")]
        proc = subprocess.run([sys.executable, "-c", FIRST_SWEEP_SCRIPT, json.dumps(argv)],
                              env=_package_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, peak = json.loads(proc.stdout)
        assert code == 0
        monkeypatch.setattr(core, "_array_byte_limit", lambda: peak - 1)
        assert main(argv) == 3
        assert f"grid_num={num} is too large to sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("command,keys", [
        ("fixed-point", {}), ("ode", {"t_end": 0.5, "finite_n": True}),
    ])
    def test_routes_without_station_lists_accept_any_n(self, tmp_path, command, keys):
        params = write_params(tmp_path, dict(FIG5, n_stations=10 ** 13, **keys))
        assert main([command, "--params", str(params), "--out", str(tmp_path / "o.out")]) == 0


FIRST_SWEEP_SCRIPT = """
import json, sys, tracemalloc

from bikeshare_meanfield.cli import main

tracemalloc.start()
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, tracemalloc.get_traced_memory()[1]]))
"""


STARTUP_SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import bikeshare_meanfield
from bikeshare_meanfield.cli import main
from bikeshare_meanfield.errors import ConfigError

after_import = scipy_modules()
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"after_import": after_import, "codes": codes, "after_cli": scipy_modules()}))
"""


def test_runtime_loads_no_scipy(tmp_path):
    # a fresh process, since the test process itself imports scipy
    params = write_params(tmp_path, dict(
        FIG5, vary="lambda", grid=[14.0, 15.0], grid_c=[25, 30], t_end=1.0,
        seed=1, t_warmup=0.05, t_measure=0.05))
    commands = ["fixed-point", "sweep", "optimize", "ode", "simulate"]
    argvs = [[command, "--params", str(params), "--out", str(tmp_path / f"{command}.out")]
             for command in commands]
    proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, json.dumps(argvs)],
                          env=_package_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"after_import": [], "codes": [0] * len(commands), "after_cli": []}


# every key each command reads, by the JSON type it must have
MODEL_KEYS = {"lambda": "number", "mu": "number", "gamma": "number", "omega": "integer",
              "capacity_c": "integer", "capacity_k": "integer", "n_stations": "integer",
              "delta": "number"}
COMMAND_KEYS = {
    "fixed-point": {},
    "ode": {"t_end": "number", "step": "number", "stationarity_tol": "number",
            "initial": "list", "finite_n": "boolean"},
    "simulate": {"seed": "integer", "t_warmup": "number", "t_measure": "number",
                 "sample_interval": "number"},
    "sweep": {"vary": "name", "grid": "list", "grid_start": "number", "grid_stop": "number",
              "grid_num": "integer", "cost_c": "number", "benefit_psi": "number"},
    "optimize": {"objective": "name", "grid_c": "list", "grid_k": "list", "grid_mu": "list",
                 "beta": "list", "cost_c": "number", "benefit_psi": "number"},
    "validate": {"seed": "integer", "validate_t_measure": "number"},
}
# the keys a command no longer reads, each with its exit-3 message
RETIRED = [
    ("fixed-point", "tol", "fixed-point has no key 'tol'; the solver certifies its root itself"),
    ("ode", "max_time", "ode has no key 'max_time'; lower 't_end' to shorten the horizon"),
    ("simulate", "exclude_first_ride_origin",
     "simulate has no key 'exclude_first_ride_origin'; a new ride may end at any station"),
]
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

    def test_overrides_do_not_leak_into_the_next_call(self, tmp_path):
        # the parser is built once per process; a --set list must not carry over
        import bikeshare_meanfield.cli as cli

        params = write_params(tmp_path, ANALYTIC)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["fixed-point", "--params", str(params), "--out", str(first),
                     "--set", "delta=0.6"]) == 4
        assert main(["fixed-point", "--params", str(params), "--out", str(second)]) == 0
        assert json.loads(second.read_text())["params"]["delta"] == 0.2
        assert cli.build_parser() is cli.build_parser()
        assert cli.build_parser().parse_args(
            ["fixed-point", "--params", "p.json", "--out", "o.json"]).set == []

    def test_subcommands_are_the_command_table(self):
        import argparse

        (sub,) = [action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        assert list(sub.choices) == list(cli.COMMANDS) == list(COMMAND_KEYS)
        assert {(name, key) for name, command in cli.COMMANDS.items()
                for key in command.retired} == {(command, key) for command, key, _ in RETIRED}

    @pytest.mark.parametrize("command,key,message", RETIRED)
    def test_retired_key_exits_3(self, tmp_path, capsys, command, key, message):
        params = write_params(tmp_path, dict(SMALL, seed=1, t_measure=1.0, t_end=1.0))
        out = tmp_path / "o.out"
        assert main([command, "--params", str(params), "--out", str(out),
                      "--set", f"{key}=1"]) == 3
        assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("failing", [False, True], ids=["success", "failure"])
    @pytest.mark.parametrize("command", list(COMMAND_KEYS))
    def test_run_ignores_numpy_warnings_and_restores_the_state(self, tmp_path, capsys,
                                                                monkeypatch, command, failing):
        # every handler builds its SystemParams first; record the error state it sees
        seen, from_dict = [], SystemParams.from_dict.__func__

        def recording(cls, data):
            seen.append(np.geterr())
            return from_dict(cls, data)

        monkeypatch.setattr(SystemParams, "from_dict", classmethod(recording))
        params = write_params(tmp_path, dict(
            SMALL, t_end=0.5, seed=1, t_measure=0.5, vary="lambda", grid=[0.8, 1.0],
            grid_c=[2, 3], validate_t_measure=20.0))
        argv = [command, "--params", str(params), "--out", str(tmp_path / "o.out")]
        before = np.geterr()
        assert main(argv + (["--set", "lambda=-1"] if failing else [])) == (3 if failing else 0)
        assert np.geterr() == before
        assert seen and all(state == dict.fromkeys(before, "ignore") for state in seen)

    @pytest.mark.parametrize("command,name,keys", [
        ("fixed-point", "o.json", {}), ("sweep", "o.csv", {"vary": "lambda", "grid": [1.0]}),
        ("ode", "o.csv", {"t_end": 0.5}),
    ])
    def test_missing_directory_names_the_target(self, tmp_path, capsys, command, name, keys):
        # every output goes through one temporary file next to the target; the
        # error names the target, not that file
        params = write_params(tmp_path, dict(SMALL, **keys))
        out = tmp_path / "missing" / name
        assert main([command, "--params", str(params), "--out", str(out)]) == 5
        assert json.loads(capsys.readouterr().err) == {
            "error": "FileNotFoundError",
            "message": f"[Errno 2] No such file or directory: {str(out)!r}"}

    def test_bad_set_syntax(self, tmp_path):
        params = write_params(tmp_path, ANALYTIC)
        code = main(["fixed-point", "--params", str(params),
                     "--out", str(tmp_path / "o.json"), "--set", "oops"])
        assert code == 3
