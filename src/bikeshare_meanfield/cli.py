"""Command-line entry point.

One JSON configuration file per run carries the model constants (keys
lambda, mu, gamma, omega, capacity_c, capacity_k, n_stations, delta) plus
command-specific keys; ``--set key=value`` overrides single entries, and
``--seed N`` is a final ``--set seed=N``.  Outputs embed the exact parameter
set used, and reruns of the same configuration overwrite outputs byte for
byte.  ``COMMANDS`` holds each command's handler, help text and retired keys;
it builds the parser and drives ``main``, which runs the handler with numpy's
warnings off, so that a failed run prints one JSON line on stderr and nothing
else.  Every output file is written whole through ``csvrows``.

Exit codes: 0 success, 2 usage, 3 unreadable/invalid configuration,
4 model-domain failure (assumption violations, failed validation checks),
5 internal invariant violations.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

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
    _capacity_error,
    _write_json,
    fraction_vector,
)
from .csvrows import stream_csv
from .dynamics import OdeConfig, _all_at_c, _csv_head, _ode_capacity_error, _rk4_blocks
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

#: the exit code of a failed run: that of the first class its error is an instance of
_EXIT_CODES = ((ConfigError, EXIT_PARSE), (StepInstabilityError, EXIT_INTERNAL),
               (InvariantViolationError, EXIT_INTERNAL), (BikeShareError, EXIT_DOMAIN),
               (Exception, EXIT_INTERNAL))


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    data.update(overrides)
    return data


def _prices(config: dict) -> ProfitPrices:
    return ProfitPrices(config.get("cost_c", 0.0), config.get("benefit_psi", 0.0))


def _cmd_fixed_point(config: dict, out: str) -> None:
    params = SystemParams.from_dict(config)
    solve_fixed_point(params).to_json(out, params=params)


def _cmd_ode(config: dict, out: str) -> None:
    params = SystemParams.from_dict(config)
    if "t_end" not in config:
        raise ConfigError("ode needs key 't_end'")
    finite_n = _as_bool("finite_n", config.get("finite_n", False))
    if (error := _ode_capacity_error(params.capacity_k, finite_n)) is not None:
        raise error
    ode_config = OdeConfig(
        initial=(fraction_vector(config["initial"], params.capacity_k)
                 if "initial" in config else _all_at_c(params)),
        t_end=_as_float("t_end", config["t_end"]),
        **{key: _as_float(key, config[key])
           for key in ("step", "stationarity_tol") if key in config},
    )
    # a writer process formats each block of rows while the next one is integrated
    last = stream_csv(out, _csv_head(params, params.capacity_k), params.capacity_k + 2,
                      _rk4_blocks(ode_config, params, finite_n))
    _write_json(str(Path(out).with_suffix(".terminal.json")), {
        "params": params.to_dict(),
        "t": float(last[-1, 0]),
        "y": [float(v) for v in last[-1, 1:]],
    })


def _cmd_simulate(config: dict, out: str) -> None:
    sim_config = SimConfig.from_dict(config)
    report = simulate(sim_config)
    report.to_json(out)
    if report.trajectory is not None:
        report.trajectory.to_csv(Path(out).with_suffix(".trajectory.csv"),
                                 params=sim_config.params)


def _cmd_sweep(config: dict, out: str) -> None:
    params = SystemParams.from_dict(config)
    if "vary" not in config:
        raise ConfigError("sweep needs key 'vary'")
    if "grid" in config:
        grid = _as_list("grid", config["grid"])
    elif {"grid_start", "grid_stop", "grid_num"} <= set(config):
        num = _as_int("grid_num", config["grid_num"])
        if num < 1:
            raise ConfigError(f"grid_num must be at least 1, got {num}")
        start, stop = (_as_float(key, config[key]) for key in ("grid_start", "grid_stop"))
        # an evenly spaced capacity_k grid's K sum to num times their mean; groups solve in turn
        k, top = ((max(start / 2 + stop / 2, 0.0), max(start, stop, 0.0))
                  if config["vary"] == "capacity_k" else (params.capacity_k,) * 2)
        if (error := _capacity_error(num, num * (32 * math.ceil(k + 1) + 2400) + 262144
                                     + 8 * math.ceil(top + 1) ** 2, "sweep",
                                     "the sweep needs 256 KiB for its first call, 8 (K+1)**2 "
                                     "bytes at the largest K for one group's residual generator "
                                     "and 32 (K+1) + 2400 bytes a node at the node's own K: its "
                                     "vectors, solve, record and CSV row",
                                     key="grid_num")) is not None:
            raise error
        grid = np.linspace(start, stop, num).tolist()
    else:
        raise ConfigError("sweep needs 'grid' or grid_start/grid_stop/grid_num")
    records = sweep(params, config["vary"], grid, _prices(config))
    sweep_to_csv(records, out, base=params)


def _cmd_optimize(config: dict, out: str) -> None:
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


def _cmd_validate(config: dict, out: str | None) -> None:
    params = SystemParams.from_dict(config)
    checks = run_all(
        params,
        seed=config.get("seed", 20240),
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


class Command(NamedTuple):
    """A command: ``run(config, out)`` writes its outputs or raises; a configuration
    that sets a ``retired`` key exits 3 with what to do instead."""

    run: Callable[[dict, str | None], None]
    help: str
    retired: dict = {}
    out_required: bool = True
    seed_flag: bool = False


COMMANDS = {
    "fixed-point": Command(_cmd_fixed_point, "solve the stationary occupancy fractions",
                           {"tol": "the solver certifies its root itself"}),
    "ode": Command(_cmd_ode, "integrate the occupancy dynamics and export the trajectory",
                   {"max_time": "lower 't_end' to shorten the horizon"}),
    "simulate": Command(_cmd_simulate, "run the exact event-driven simulation",
                        {"exclude_first_ride_origin": "a new ride may end at any station"},
                        seed_flag=True),
    "sweep": Command(_cmd_sweep, "solve the fixed point along a one-parameter grid"),
    "optimize": Command(_cmd_optimize, "search a (C, K, mu) design grid"),
    "validate": Command(_cmd_validate, "run the full cross-check suite", out_required=False),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call: parsing leaves it unchanged, and the ``--set`` list is
    copied from its empty default before the first override is appended."""
    parser = argparse.ArgumentParser(
        prog="bikeshare-meanfield",
        description="Analyze a station-based bike sharing system by exact "
                    "simulation, mean-field integration and fixed-point solution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("--params", required=True, help="JSON parameter file")
        cmd.add_argument("--out", required=command.out_required, help="output file path")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a configuration entry (repeatable)")
        if command.seed_flag:
            cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        overrides = _parse_overrides(args.set)
        if getattr(args, "seed", None) is not None:
            overrides["seed"] = args.seed
        config = _load_config(args.params, overrides)
        for key, instead in command.retired.items():
            if key in config:
                raise ConfigError(f"{args.command} has no key {key!r}; {instead}")
        # one guard around the whole run, never inside a generator: numpy keeps
        # it in a context variable, which a yield would hand to the consumer
        with np.errstate(all="ignore"):
            command.run(config, args.out)
    except Exception as exc:  # noqa: BLE001 - every failure ends in one JSON line
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
