"""The package as its users run it: every CLI run is ``python -m bikeshare_meanfield.cli``
in a child process.

This module imports only the standard library, numpy, pytest and the package, so it
also runs where only the declared runtime dependencies and pytest are installed:

    python -m pytest tests/test_installed.py

An address-space limit is set in a child process only, never in this one.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bikeshare_meanfield
from bikeshare_meanfield import (OdeConfig, ProfitPrices, RatePair, SimConfig, SystemParams,
                                 build_generator, compute_metrics, integrate, simulate,
                                 solve_fixed_point, uniqueness_probe)
from bikeshare_meanfield.csvrows import format_rows
from bikeshare_meanfield.errors import BikeShareError

CLI = ("-m", "bikeshare_meanfield.cli")
FIG5 = {"lambda": 15.0, "mu": 8.0, "gamma": 0.25, "omega": 1,
        "capacity_c": 30, "capacity_k": 50, "n_stations": 1000, "delta": 0.1}
SIM = dict(FIG5, seed=1, t_warmup=1.0, t_measure=5.0, sample_interval=0.5)
# the fleet C - E[Q] cancels at this root, so its residual misses the relative gate
# and the solver accepts it by the defect's sign change
ILL_CONDITIONED = {"lambda": 0.0001992485218634334, "mu": 4249.814105197107,
                   "gamma": 0.059746640450473024, "omega": 1, "capacity_c": 286,
                   "capacity_k": 428, "delta": 0.43950317724412447}
# near this root the defect is rounding noise of either sign, so only the solver's
# rounding bound accepts it
ROUNDING_NOISE = {"lambda": 1.0, "mu": 103473.85121678609, "gamma": 1.0, "omega": 0,
                  "capacity_c": 144, "capacity_k": 145, "delta": 0.45}


def start(cwd, *args, env=(), address_space=False):
    """Start ``python *args`` in ``cwd``, importing this package's source, with the extra
    environment entries ``env``; ``address_space`` limits the child to 4 GiB."""
    src = str(Path(bikeshare_meanfield.__file__).resolve().parents[1])
    environment = {**os.environ, **dict(env), "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    return subprocess.Popen([sys.executable, *args], cwd=cwd, env=environment, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=limit if address_space else None)


def cli(cwd, command, *args, **kwargs):
    """Start the CLI ``command`` on the params.json of ``cwd``, with ``args``."""
    return start(cwd, *CLI, command, "--params", "params.json", *args, **kwargs)


def finish(proc, code=0):
    """The stdout and stderr of a started child, once it has exited with ``code``."""
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == code, err
    return out, err


def write_params(cwd, config):
    (Path(cwd) / "params.json").write_text(json.dumps(config))


def data_rows(path):
    """The cells of every data row of a CSV output: no params line, no header."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")][1:]
    return [line.split(",") for line in lines]


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """The directories of figure-5 ``simulate``'s report and trajectory CSV under the
    environment's BLAS kernel and under Prescott, both run at once."""
    paths = [tmp_path_factory.mktemp(kernel) for kernel in ("default", "prescott")]
    procs = []
    for path, env in zip(paths, ({}, {"OPENBLAS_CORETYPE": "Prescott"})):
        write_params(path, SIM)
        procs.append(cli(path, "simulate", "--out", "report.json", env=env))
    for proc in procs:
        finish(proc)
    return paths


def test_simulate_bytes_do_not_depend_on_the_blas_kernel(simulated):
    # simulate does no BLAS arithmetic: under Prescott, the baseline kernel and safe on
    # any x86-64, its report and trajectory CSV keep their bytes
    default, prescott = simulated
    for name in ("report.json", "report.trajectory.csv"):
        assert (prescott / name).read_bytes() == (default / name).read_bytes(), name


def test_simulated_trajectory_csv_is_format_rows_of_the_report(simulated):
    # exported in its own process by a temporary file renamed onto the target
    report = simulate(SimConfig.from_dict(SIM))
    assert report.to_dict() == json.loads((simulated[0] / "report.json").read_text())
    rows = np.column_stack((report.trajectory.times, report.trajectory.states))
    text = (simulated[0] / "report.trajectory.csv").read_text()
    params_line, header, body = text.split("\n", 2)
    assert params_line.startswith("# params: "), params_line
    assert header == "t," + ",".join(f"y{i}" for i in range(51))
    assert body == format_rows(rows.ravel().tolist(), rows.shape[1])
    assert sorted(os.listdir(simulated[0])) == ["params.json", "report.json",
                                                "report.trajectory.csv"]


PROBE = """
import json, sys
from bikeshare_meanfield import SystemParams, uniqueness_probe
from bikeshare_meanfield.errors import ConfigError
try:
    uniqueness_probe(SystemParams.from_dict(json.load(open("params.json"))), 10 ** 13)
except ConfigError as exc:
    print(json.dumps({"error": "ConfigError", "message": str(exc)}), file=sys.stderr)
    sys.exit(3)
"""
SIMULATE, SHORT = CLI + ("simulate",), {"seed": 1, "t_measure": 1.0}
STATIONS = "is too large to simulate: the bike counts per station need 8 N bytes, more than"


# none of these fits in 4 GiB, so each must be refused as a configuration error before
# anything is allocated, leaving no output and no temporary file; the station counts and
# the sample counts used to exit 5 with a bare MemoryError
REFUSED = {
    "ode-capacity": (CLI + ("ode",), {"t_end": 5.0, "capacity_k": 10 ** 13},
                     "capacity_k=10000000000000 is too large to integrate:"),
    "simulate-capacity": (SIMULATE, dict(SHORT, capacity_k=10 ** 13),
                          "capacity_k=10000000000000 is too large to simulate:"),
    "simulate-stations-10**13": (SIMULATE, dict(SHORT, n_stations=10 ** 13),
                                 f"n_stations=10000000000000 {STATIONS}"),
    "simulate-stations-65-bit": (SIMULATE, dict(SHORT, n_stations=2 ** 64 + 1),
                                 f"a 65-bit n_stations {STATIONS}"),
    "simulate-samples-1e-12": (SIMULATE, dict(SHORT, sample_interval=1e-12),
                               "samples=1000000000002 is too large to simulate:"),
    "simulate-samples-1e-8": (SIMULATE, dict(SHORT, n_stations=10, sample_interval=1e-8),
                              "samples=100000001 is too large to simulate:"),
    "probe-starts": (("-c", PROBE), {}, "n_starts=10000000000000 is too large to probe:"),
}


def test_refused_under_a_4_gib_address_space(tmp_path):
    procs = {}
    for name, (args, keys, _) in REFUSED.items():
        (tmp_path / name).mkdir()
        write_params(tmp_path / name, dict(FIG5, **keys))
        procs[name] = start(tmp_path / name, *args, "--params", "params.json", "--out",
                            "out.csv", address_space=True)
    for name, proc in procs.items():
        _, err = finish(proc, code=3)
        lines = err.splitlines()
        assert len(lines) == 1, name
        assert json.loads(lines[0])["error"] == "ConfigError", name
        assert json.loads(lines[0])["message"].startswith(REFUSED[name][2]), (name, lines)
        assert os.listdir(tmp_path / name) == ["params.json"], name


def test_probe_starts_keep_their_own_results_on_the_solved_point():
    # starts with one load share a refinement and starts on one root a solved point,
    # yet every start keeps a vector of its own
    params = SystemParams.from_dict(FIG5)
    reference = solve_fixed_point(params).p
    results = uniqueness_probe(params, 20, seed=1)
    assert len(results) == 20
    assert max(float(np.max(np.abs(r.p - reference))) for r in results) < 1e-8
    assert not any(np.shares_memory(a.p, b.p) for a, b in itertools.combinations(results, 2))


def test_figure5_validate_passes_its_six_checks(tmp_path):
    # the default validate_t_measure: the cross-check suite as a user runs it
    write_params(tmp_path, FIG5)
    out, _ = finish(cli(tmp_path, "validate"))
    assert sum(line.startswith("PASS ") for line in out.splitlines()) == 6, out


# a group's residuals are one gemv per lane on the group's one dense generator; each
# printed residual must equal the dense product of its own vector and generator
# (the rounding-noise set solves at delta = 0.45)
def test_printed_residual_is_the_dense_product(tmp_path):
    procs = {}
    for name, config in (("fig5", FIG5), ("ill", ILL_CONDITIONED), ("noise", ROUNDING_NOISE)):
        (tmp_path / name).mkdir()
        write_params(tmp_path / name, config)
        procs[name] = cli(tmp_path / name, "fixed-point", "--out", "fp.json")
    for name, proc in procs.items():
        finish(proc)
        out = json.loads((tmp_path / name / "fp.json").read_text())
        p = np.array(out["p"])
        generator = build_generator(RatePair(out["a"], out["b"]), len(p) - 1)
        assert out["residual"] == float(np.abs(p @ generator).max()), name


def test_rounding_noise_root_past_the_delta_bound_exits_4(tmp_path):
    # the root that solves at delta = 0.45 breaks the 1 - delta bound at 0.8125: a domain
    # error, never an internal one (exit 5)
    write_params(tmp_path, dict(ROUNDING_NOISE, delta=0.8125))
    _, err = finish(cli(tmp_path, "fixed-point", "--out", "fp.json"), code=4)
    assert json.loads(err)["error"] == "AssumptionViolationError"


def single_solve(overrides):
    """The metric cells of one figure-5 solve with ``overrides``, and its error text."""
    params = SystemParams.from_dict({**FIG5, **overrides})
    try:
        p = solve_fixed_point(params).p
    except BikeShareError as exc:
        return ["nan"] * 5, str(exc)
    return [f"{v:.17g}" for v in compute_metrics(p, params, ProfitPrices()).to_dict().values()], ""


def grid_rows(overrides, cs, ks, mus):
    """The design-grid rows of single solves, error commas turned into semicolons."""
    rows = []
    for c, k, mu in itertools.product(cs, ks, mus):
        cells, error = single_solve({**overrides, "capacity_c": c, "capacity_k": k, "mu": mu})
        rows.append([str(c), str(k), f"{mu:.17g}", *cells, error.replace(",", ";")])
    return rows


def test_lockstep_sweep_and_design_grids_equal_single_solves(tmp_path):
    # one kernel lane per node of a group that shares K and omega; the 300-node sweep
    # crosses a chunk boundary (256 nodes a solve call), the K = 200 grid takes 20
    # residuals lane after lane on one rewritten generator, and mu = 1234.5678901234567
    # needs all 17 digits of a cell
    write_params(tmp_path, FIG5)
    procs = [cli(tmp_path, "sweep", "--set", "vary=lambda", "--set", "grid_start=100",
                 "--set", "grid_stop=5000", "--set", "grid_num=300", "--out", "sweep.csv")]
    expected = {"sweep": [["lambda", f"{value:.17g}", *single_solve({"lambda": value})[0]]
                          for value in np.linspace(100.0, 5000.0, 300).tolist()]}
    for out, grid, rows in (
            ("opt", ["grid_c=[10,20,30]", "grid_k=[35,45,50]", "grid_mu=[2.0,8.0]"],
             ({}, [10, 20, 30], [35, 45, 50], [2.0, 8.0])),
            ("wide", ["grid_c=[10,30,60,100]", "grid_k=[200]", "grid_mu=[2.0,4.0,8.0,12.0,16.0]"],
             ({}, [10, 30, 60, 100], [200], [2.0, 4.0, 8.0, 12.0, 16.0])),
            ("fail", ["lambda=2000.0", "grid_c=[10,30]", "grid_k=[50]",
                      "grid_mu=[8.0,1234.5678901234567]"],
             ({"lambda": 2000.0}, [10, 30], [50], [8.0, 1234.5678901234567]))):
        procs.append(cli(tmp_path, "optimize", *itertools.chain(*(("--set", g) for g in grid)),
                         "--out", f"{out}.json"))
        expected[out] = grid_rows(*rows)
    for proc in procs:
        finish(proc)
    sweep = data_rows(tmp_path / "sweep.csv")
    assert len(sweep) == 300 and 0 < sum(row[2] == "nan" for row in sweep) < 300
    for row, want in zip(sweep, expected["sweep"]):
        assert row == want, row
    grids = {out: data_rows(tmp_path / f"{out}.grid.csv") for out in ("opt", "wide", "fail")}
    assert all(row[3] != "nan" for row in grids["wide"])
    assert [row[8] != "" for row in grids["fail"]] == [True, False, False, False], grids["fail"]
    for out, rows in grids.items():
        assert rows == expected[out], out


def test_weighted_winner_is_the_first_minimum_of_its_grid(tmp_path):
    # the winner is the first row that minimizes the weighted objective recomputed
    # from the grid CSV; the 41-node lambda sweep prints all its rows
    write_params(tmp_path, FIG5)
    for proc in [cli(tmp_path, "sweep", "--set", "vary=lambda", "--set", "grid_start=10",
                     "--set", "grid_stop=30", "--set", "grid_num=41", "--out", "sweep.csv"),
                 cli(tmp_path, "optimize", "--set", "objective=weighted",
                     "--set", "beta=[0.2,0.3,0.5]", "--set", "grid_c=[10,15,20,25,30]",
                     "--set", "grid_k=[35,40,45,50]", "--set", "grid_mu=[2.0,4.0,6.0,8.0]",
                     "--out", "opt.json")]:
        finish(proc)
    grid = data_rows(tmp_path / "opt.grid.csv")
    assert len(data_rows(tmp_path / "sweep.csv")) == 41 and len(grid) == 80
    best = min(grid, key=lambda row: 0.2 * float(row[3]) + 0.3 * float(row[4])
               + 0.5 * float(row[5]))
    winner = json.loads((tmp_path / "opt.json").read_text())["winner"]
    assert [winner["capacity_c"], winner["capacity_k"], winner["mu"]] == [
        int(best[0]), int(best[1]), float(best[2])], (winner, best)


def test_figure5_ode_through_the_writer_equals_to_csv(tmp_path):
    # ode formats its CSV in a writer process started from the package's csvrows.py: the
    # file equals an in-process export of the same run and no temporary file is left
    config = dict(FIG5, t_end=5000.0, stationarity_tol=1e-11)
    write_params(tmp_path, config)
    proc = cli(tmp_path, "ode", "--out", "cli.csv")
    params = SystemParams.from_dict(config)
    initial = np.zeros(params.capacity_k + 1)
    initial[params.capacity_c] = 1.0
    integrate(OdeConfig(initial=initial, t_end=5000.0, stationarity_tol=1e-11),
              params).to_csv(tmp_path / "lib.csv", params=params)
    finish(proc)
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["cli.csv", "cli.terminal.json", "lib.csv",
                                            "params.json"]


STARTUP = """
import json, sys
from bikeshare_meanfield.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted({name.split(".")[0] for name in sys.modules}
                                & {"scipy", "hypothesis"})]))
"""


def test_runtime_imports_neither_scipy_nor_hypothesis(tmp_path):
    # a fresh interpreter, since this one may have imported both: every command but
    # validate runs, and none may load a test-only dependency
    write_params(tmp_path, dict(FIG5, vary="lambda", grid=[14.0, 15.0], grid_c=[25, 30],
                                t_end=1.0, seed=1, t_warmup=0.05, t_measure=0.05))
    commands = ["fixed-point", "sweep", "optimize", "ode", "simulate"]
    argvs = [[command, "--params", "params.json", "--out", f"{command}.out"]
             for command in commands]
    out, _ = finish(start(tmp_path, "-c", STARTUP, json.dumps(argvs)))
    assert json.loads(out.splitlines()[-1]) == [[0] * len(commands), []]
