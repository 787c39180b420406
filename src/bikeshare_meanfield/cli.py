"""Command-line entry point.

One JSON configuration file per run carries the model constants (keys
lambda, mu, gamma, omega, capacity_c, capacity_k, n_stations, delta) plus
command-specific keys; ``--set key=value`` overrides single entries.
Outputs embed the exact parameter set used, and reruns of the same
configuration overwrite outputs byte for byte.

Exit codes: 0 success, 2 usage, 3 unreadable/invalid configuration,
4 model-domain failure (assumption violations, failed validation checks),
5 internal invariant violations.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    ProfitPrices,
    _pick_minimum,
    _profit_objective,
    _weighted_objective,
    evaluate_design_grid,
    grid_to_csv,
    sweep,
    sweep_to_csv,
)
from .core import (
    SystemParams,
    _as_bool,
    _as_float,
    _as_int,
    _as_list,
    _read_json_object,
    _write_json,
    fraction_vector,
)
from .dynamics import OdeConfig, integrate
from .errors import (
    BikeShareError,
    ConfigError,
    InvariantViolationError,
    StepInstabilityError,
)
from .fixed_point import solve_fixed_point
from .simulator import SimConfig, simulate
from .validation import run_all

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4
EXIT_INTERNAL = 5


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _load_config(path: str, overrides: dict) -> dict:
    if not Path(path).is_file():
        raise ConfigError(f"parameter file not found: {path}")
    data = _read_json_object(path)
    data.update(overrides)
    return data


def _prices(config: dict) -> ProfitPrices:
    return ProfitPrices(config.get("cost_c", 0.0), config.get("benefit_psi", 0.0))


def _cmd_fixed_point(config: dict, out: str) -> int:
    params = SystemParams.from_dict(config)
    tol = _as_float("tol", config.get("tol", 1e-10))
    result = solve_fixed_point(params, tol=tol)
    result.to_json(out, params=params)
    return EXIT_OK


def _cmd_ode(config: dict, out: str) -> int:
    params = SystemParams.from_dict(config)
    if "t_end" not in config:
        raise ConfigError("ode needs key 't_end'")
    if "max_time" in config:
        raise ConfigError("ode has no key 'max_time'; lower 't_end' to shorten the horizon")
    if "initial" in config:
        initial = fraction_vector(config["initial"], params.capacity_k)
    else:
        initial = np.zeros(params.capacity_k + 1)
        initial[params.capacity_c] = 1.0
    ode_config = OdeConfig(
        initial=initial,
        t_end=_as_float("t_end", config["t_end"]),
        **{key: _as_float(key, config[key])
           for key in ("step", "stationarity_tol") if key in config},
    )
    traj = integrate(ode_config, params,
                     finite_n=_as_bool("finite_n", config.get("finite_n", False)))
    traj.to_csv(out, params=params)
    terminal_path = Path(out).with_suffix(".terminal.json")
    _write_json(str(terminal_path), {
        "params": params.to_dict(),
        "t": float(traj.times[-1]),
        "y": [float(v) for v in traj.terminal],
    })
    return EXIT_OK


def _cmd_simulate(config: dict, out: str, seed_override: int | None) -> int:
    if seed_override is not None:
        config = {**config, "seed": seed_override}
    sim_config = SimConfig.from_dict(config)
    report = simulate(sim_config)
    report.to_json(out)
    if report.trajectory is not None:
        report.trajectory.to_csv(Path(out).with_suffix(".trajectory.csv"),
                                 params=sim_config.params)
    return EXIT_OK


def _cmd_sweep(config: dict, out: str) -> int:
    params = SystemParams.from_dict(config)
    if "vary" not in config:
        raise ConfigError("sweep needs key 'vary'")
    if "grid" in config:
        grid = _as_list("grid", config["grid"])
    elif {"grid_start", "grid_stop", "grid_num"} <= set(config):
        num = _as_int("grid_num", config["grid_num"])
        if num < 1:
            raise ConfigError(f"grid_num must be at least 1, got {num}")
        grid = np.linspace(_as_float("grid_start", config["grid_start"]),
                           _as_float("grid_stop", config["grid_stop"]), num).tolist()
    else:
        raise ConfigError("sweep needs 'grid' or grid_start/grid_stop/grid_num")
    records = sweep(params, config["vary"], grid, _prices(config))
    sweep_to_csv(records, out, base=params)
    return EXIT_OK


def _cmd_optimize(config: dict, out: str) -> int:
    params = SystemParams.from_dict(config)
    search = {}
    for key, grid_key in (("capacity_c", "grid_c"), ("capacity_k", "grid_k"), ("mu", "grid_mu")):
        if grid_key in config:
            search[key] = _as_list(grid_key, config[grid_key])
    if not search:
        raise ConfigError("optimize needs at least one of grid_c, grid_k, grid_mu")
    prices = _prices(config)
    objective = config.get("objective", "weighted")
    if objective == "weighted":
        score = _weighted_objective(_as_list("beta", config.get("beta", [0.0, 0.0, 1.0])))
    elif objective == "profit":
        score = _profit_objective
    else:
        raise ConfigError(f"objective must be 'weighted' or 'profit', got {objective!r}")
    records = evaluate_design_grid(search, params, prices)
    winner = _pick_minimum(records, score)
    grid_to_csv(records, Path(out).with_suffix(".grid.csv"))
    _write_json(out, {
        "objective": objective,
        "base_params": params.to_dict(),
        "winner": winner.params.to_dict(),
        "metrics": winner.metrics.to_dict(),
    })
    return EXIT_OK


def _cmd_validate(config: dict, out: str | None) -> int:
    params = SystemParams.from_dict(config)
    checks = run_all(
        params,
        seed=_as_int("seed", config.get("seed", 20240)),
        sim_t_measure=(_as_float("validate_t_measure", config["validate_t_measure"])
                       if "validate_t_measure" in config else None),
    )
    for check in checks:
        print(check.line())
    if out is not None:
        _write_json(out, {
            "params": params.to_dict(),
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in checks],
            "all_passed": all(c.passed for c in checks),
        })
    failed = [c.name for c in checks if not c.passed]
    if failed:
        raise BikeShareError(f"validation checks failed: {', '.join(failed)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bikeshare-meanfield",
        description="Analyze a station-based bike sharing system by exact "
                    "simulation, mean-field integration and fixed-point solution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, out_required: bool = True):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--params", required=True, help="JSON parameter file")
        cmd.add_argument("--out", required=out_required, help="output file path")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a configuration entry (repeatable)")
        return cmd

    add("fixed-point", "solve the stationary occupancy fractions")
    add("ode", "integrate the occupancy dynamics and export the trajectory")
    sim = add("simulate", "run the exact event-driven simulation")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    add("sweep", "solve the fixed point along a one-parameter grid")
    add("optimize", "search a (C, K, mu) design grid")
    add("validate", "run the full cross-check suite", out_required=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.params, _parse_overrides(args.set))
        if args.command == "fixed-point":
            return _cmd_fixed_point(config, args.out)
        if args.command == "ode":
            return _cmd_ode(config, args.out)
        if args.command == "simulate":
            return _cmd_simulate(config, args.out, args.seed)
        if args.command == "sweep":
            return _cmd_sweep(config, args.out)
        if args.command == "optimize":
            return _cmd_optimize(config, args.out)
        if args.command == "validate":
            return _cmd_validate(config, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        _report_error(exc)
        return EXIT_PARSE
    except (StepInstabilityError, InvariantViolationError) as exc:
        _report_error(exc)
        return EXIT_INTERNAL
    except BikeShareError as exc:
        _report_error(exc)
        return EXIT_DOMAIN
    except Exception as exc:  # noqa: BLE001 - last-resort machine-readable report
        _report_error(exc)
        return EXIT_INTERNAL


def _report_error(exc: Exception) -> None:
    json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
