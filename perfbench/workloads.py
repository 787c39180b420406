"""The four benchmark workloads: inputs drawn from the seed, one pass of
fixed work, and the correctness checks on its outputs.

Every workload is a closed loop with one client: each call is issued after
the previous one returns.  A pass is a list of operations; the harness times
each one.  The program only sees the generated configuration files (CLI
workloads) or the generated parameter records (``probe``).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import bikeshare_meanfield as bm  # noqa: E402
from bikeshare_meanfield import cli  # noqa: E402
from bikeshare_meanfield.errors import BikeShareError, InvariantViolationError  # noqa: E402

REFS_PATH = Path(__file__).with_name("refs.json.gz")

FIG5 = {"lambda": 15.0, "mu": 8.0, "gamma": 0.25, "omega": 1, "capacity_c": 30,
        "capacity_k": 50, "n_stations": 1000, "delta": 0.1}
PRICES = {"cost_c": 0.5, "benefit_psi": 2.0}

# lambda-sweep families of figures 5-8: (name, curve field, curve values,
# base overrides, lambda range); each curve is one 41-node CLI sweep
FAMILIES = [
    ("fig5-mu", "mu", (0.3, 1.0, 8.0), {}, (10.0, 30.0)),
    ("fig5-gamma", "gamma", (0.05, 0.5, 1.0), {"mu": 4.0}, (5.0, 15.0)),
    ("fig6-mu", "mu", (4.0, 8.0, 12.0), {}, (10.0, 30.0)),
    ("fig6-gamma", "gamma", (0.05, 0.5, 3.0), {"mu": 7.0}, (10.0, 30.0)),
    ("fig7-mu", "mu", (6.0, 8.0, 10.0), {}, (10.0, 30.0)),
    ("fig7-gamma", "gamma", (0.05, 0.5, 1.0), {"mu": 12.0}, (15.0, 30.0)),
    ("fig8-mu", "mu", (2.0, 5.0, 8.0), {}, (10.0, 30.0)),
    ("fig8-gamma", "gamma", (0.05, 0.1, 6.0), {"capacity_c": 20, "mu": 7.0}, (10.0, 30.0)),
]
FIG5_DESIGN = {"grid_c": [10, 15, 20, 25, 30], "grid_k": [35, 40, 45, 50],
               "grid_mu": [2.0, 4.0, 6.0, 8.0]}

# the walk-heavy small-station regime of the chain workload
WALK_HEAVY = {"lambda": 15.0, "mu": 8.0, "gamma": 2.0, "omega": 3, "capacity_c": 3,
              "capacity_k": 5, "n_stations": 1000, "delta": 0.1}

PROBE_STARTS = 20
PROBE_POOL_SEED = 12345
PROBE_POOL_SIZE = 50
PROBE_BINS = 8

RESIDUAL_TOL = 1e-10
REFERENCE_TOL = 1e-12
ODE_TOL = 1e-6
PROBE_TOL = 1e-8


def load_refs() -> dict:
    """References recorded by ``record_refs.py``; empty if not recorded yet."""
    if not REFS_PATH.is_file():
        return {}
    with gzip.open(REFS_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def solvable_draws(rng: np.random.Generator, count: int) -> list[bm.SystemParams]:
    """Draws that solve, in the order criterion 5 accepts them."""
    sets = []
    while len(sets) < count:
        # the draw order matches the acceptance test: lam, mu, gamma, ...
        lam = float(10 ** rng.uniform(-0.3, 1.3))
        mu = float(10 ** rng.uniform(-0.3, 1.3))
        params = bm.SystemParams(
            lam=lam, mu=mu, gamma=float(mu * rng.uniform(0.05, 1.0)),
            omega=int(rng.integers(0, 4)), capacity_c=(c := int(rng.integers(1, 31))),
            capacity_k=c + int(rng.integers(1, 31)), n_stations=1000, delta=0.05,
        )
        try:
            bm.solve_fixed_point(params)
        except BikeShareError:
            continue
        sets.append(params)
    return sets


@dataclass
class Op:
    """One timed call: ``kind`` names its span, ``run`` makes the call and
    ``collect`` reads back what it produced (outside the timed region)."""

    key: str
    kind: str
    run: Callable[[], object]
    collect: Callable[[object], object]
    operations: int


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def fail(self, op: Op, count: int, message: str) -> None:
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(f"{op.key}: {message}")


def run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"CLI exit code {code} for {' '.join(argv[:1])}")


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sup(x, y) -> float:
    return float(np.max(np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))))


def fixed_point_residuals(p, params: bm.SystemParams) -> float:
    """Largest of the generator, self-map and cleared-denominator residuals."""
    p = np.asarray(p, dtype=float)
    a, b = bm.limiting_rates(p, params)
    generator = float(np.max(np.abs(p @ bm.build_generator(bm.RatePair(max(a, 0.0), b),
                                                           params.capacity_k))))
    self_map = bm.self_map_residual(p, params)
    cleared = float(np.max(np.abs(bm.nonlinear_residual(p, params))))
    return max(generator, self_map, cleared)


def metric_tols(params: bm.SystemParams, prices: dict) -> np.ndarray:
    """Metric tolerances implied by a 1e-12 sup-norm bound on the vector:
    p0, pK, p0+pK, E[Q], profit."""
    k = params.capacity_k
    eq = REFERENCE_TOL * k * (k + 1) / 2.0
    return np.array([REFERENCE_TOL, REFERENCE_TOL, 2 * REFERENCE_TOL, eq,
                     (prices["cost_c"] + prices["benefit_psi"]) * eq]) * (1.0 + 1e-9)


class Workload:
    """Base: a seed, a private work directory and the recorded references."""

    name = ""

    def __init__(self, seed: int, workdir: Path, refs: dict):
        self.seed = seed
        self.workdir = workdir
        self.refs = refs.get(self.name, {})
        self.seed_refs = self.refs.get("seeded", {}).get(str(seed))
        self.rng = np.random.default_rng([seed, 20160330])

    def write_config(self, stem: str, config: dict) -> Path:
        path = self.workdir / f"{stem}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return path

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op], outputs: list, full: bool) -> Outcome:
        raise NotImplementedError

    def items(self, outputs: list) -> int:
        """Units of work in one pass for the throughput metric."""
        raise NotImplementedError

    def reference(self, key: str):
        if key in self.refs.get("fixed", {}):
            return self.refs["fixed"][key]
        if self.seed_refs is not None:
            return self.seed_refs.get(key)
        return None

    def record(self, ops: list[Op], outputs: list) -> dict:
        """Reference data of one pass: {"fixed": {...}, "seeded": {...}}."""
        raise NotImplementedError


# ---------------------------------------------------------------- steady


def _read_csv_rows(path: Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _metric_cells(cells: list[str]):
    values = [float(c) for c in cells]
    return None if any(math.isnan(v) for v in values) else values


class Steady(Workload):
    """CLI fixed-point, sweep and optimize: many small scalar solves."""

    name = "steady"

    def __init__(self, seed, workdir, refs):
        super().__init__(seed, workdir, refs)
        self.specs = []   # (key, command, config, seed-independent)
        self.specs.append(("fixed-point:fig5", "fixed-point", dict(FIG5), True))
        for fam, curve, values, overrides, (lo, hi) in FAMILIES:
            for value in values:
                config = {**FIG5, **overrides, curve: value, "vary": "lambda",
                          "grid_start": lo, "grid_stop": hi, "grid_num": 41, **PRICES}
                self.specs.append((f"sweep:{fam}:{value:g}", "sweep", config, True))
        for objective in ("weighted", "profit"):
            config = {**FIG5, **FIG5_DESIGN, **PRICES, "objective": objective}
            self.specs.append((f"optimize-{objective}:fig5", "optimize", config, True))
        for b, params in enumerate(solvable_draws(self.rng, 2)):
            base = params.to_dict()
            self.specs.append((f"base{b}:fixed-point", "fixed-point", dict(base), False))
            self.specs.append((f"base{b}:sweep", "sweep", {
                **base, "vary": "lambda", "grid_start": 0.5 * params.lam,
                "grid_stop": 1.5 * params.lam, "grid_num": 21, **PRICES}, False))
            c, k, mu = params.capacity_c, params.capacity_k, params.mu
            design = {"grid_c": sorted({max(1, c - 2), c, c + 2}),
                      "grid_k": [k, k + 5, k + 10], "grid_mu": [mu, 1.25 * mu, 1.5 * mu]}
            w = self.rng.dirichlet(np.ones(3))
            beta = [float(w[0]), float(w[1]), 1.0 - float(w[0]) - float(w[1])]
            for objective in ("weighted", "profit"):
                config = {**base, **design, **PRICES, "objective": objective, "beta": beta}
                self.specs.append((f"base{b}:optimize-{objective}", "optimize", config, False))
        self.paths = {}
        for i, (key, command, config, _) in enumerate(self.specs):
            self.paths[key] = (self.write_config(f"steady{i}", config),
                               self.workdir / f"steady{i}.out")
        self.by_key = {spec[0]: spec for spec in self.specs}

    def _op(self, key: str, command: str, config: dict, params_path: Path, out: Path) -> Op:
        argv = [command, "--params", str(params_path), "--out", str(out)]
        if command == "fixed-point":
            rows = 1
        elif command == "sweep":
            rows = int(config["grid_num"])
        else:
            rows = sum(1 for c in config["grid_c"] for k in config["grid_k"]
                       for mu in config["grid_mu"] if 0 < config["gamma"] < mu and 1 <= c < k)
        return Op(key, f"cli.{command}", lambda: run_cli(argv),
                  lambda _result: self._collect(command, config, out), rows)

    def ops(self) -> list[Op]:
        return [self._op(key, command, config, *self.paths[key])
                for key, command, config, _ in self.specs]

    def warmup_ops(self) -> list[Op]:
        ops = []
        for key, command, config, _ in self.specs:
            if key in ("fixed-point:fig5", "sweep:fig5-mu:8", "optimize-profit:fig5"):
                small = dict(config)
                if command == "sweep":
                    small["grid_num"] = 3
                if command == "optimize":
                    small.update(grid_c=[20], grid_k=[40], grid_mu=[4.0])
                path = self.write_config(f"warm-{command}", small)
                ops.append(self._op("warm:" + key, command, small, path,
                                    self.workdir / f"warm-{command}.out"))
        return ops

    def _collect(self, command: str, config: dict, out: Path):
        base = bm.SystemParams.from_dict(config)
        if command == "fixed-point":
            p = json.loads(out.read_text(encoding="utf-8"))["p"]
            eq = float(np.arange(len(p)) @ np.array(p))
            profit = -PRICES["cost_c"] * eq + PRICES["benefit_psi"] * (base.capacity_c - eq)
            return {"digest": file_digest(out), "p": p,
                    "rows": [(base, [p[0], p[-1], p[0] + p[-1], eq, profit])]}
        if command == "sweep":
            rows = []
            for cells in _read_csv_rows(out):
                value = float(cells[1])
                rows.append((bm.SystemParams.from_dict({**config, "lambda": value}),
                             _metric_cells(cells[2:7])))
            return {"digest": file_digest(out), "rows": rows}
        grid = out.with_suffix(".grid.csv")
        rows = []
        for cells in _read_csv_rows(grid):
            params = bm.SystemParams.from_dict({**config, "capacity_c": int(cells[0]),
                                                "capacity_k": int(cells[1]),
                                                "mu": float(cells[2])})
            rows.append((params, _metric_cells(cells[3:8])))
        data = json.loads(out.read_text(encoding="utf-8"))
        return {"digest": file_digest(out) + file_digest(grid), "rows": rows,
                "winner": data["winner"]}

    def items(self, outputs: list) -> int:
        return sum(len(out["rows"]) for out in outputs)

    def record(self, ops, outputs) -> dict:
        rec = {"fixed": {}, "seeded": {}}
        for op, out in zip(ops, outputs):
            key, command, _config, fixed = self.by_key[op.key]
            entry = {"rows": [None if m is None else [m[0], m[1], m[3]]
                              for _, m in out["rows"]]}
            if command == "fixed-point":
                entry["p"] = out["p"]
            if command == "optimize":
                entry["winner"] = out["winner"]
            rec["fixed" if fixed else "seeded"][key] = entry
        return rec

    def check(self, ops, outputs, full: bool) -> Outcome:
        result = Outcome()
        for op, out in zip(ops, outputs):
            if out is None:
                continue
            key, command, config, _ = self.by_key[op.key]
            result.attempted += op.operations
            if len(out["rows"]) != op.operations:
                result.fail(op, op.operations, f"{len(out['rows'])} rows for "
                                               f"{op.operations} designs")
                continue
            ref = self.reference(key)
            if ref is not None and len(ref["rows"]) != len(out["rows"]):
                result.fail(op, op.operations, "row count differs from the reference")
                continue
            for i, (params, metrics) in enumerate(out["rows"]):
                problem = self._check_row(params, metrics, ref["rows"][i] if ref else None,
                                          ref is not None, full)
                if problem is None and command == "fixed-point":
                    problem = self._check_vector(params, out["p"], metrics,
                                                 ref["p"] if ref else None)
                if problem:
                    result.fail(op, 1, f"row {i}: {problem}")
            if command == "optimize":
                problem = self._check_winner(config, out, ref)
                if problem:
                    result.fail(op, 1, problem)
        return result

    def _check_row(self, params, metrics, ref_row, have_ref: bool, full: bool):
        if metrics is not None:
            p0, pk, both, eq, profit = metrics
            want = -PRICES["cost_c"] * eq + PRICES["benefit_psi"] * (params.capacity_c - eq)
            tols = metric_tols(params, PRICES)
            if abs(both - (p0 + pk)) > tols[2] or abs(profit - want) > tols[4]:
                return "metrics inconsistent with each other"
        if have_ref:
            if (ref_row is None) != (metrics is None):
                return "solved/failed outcome differs from the reference"
            if metrics is not None:
                tols = metric_tols(params, PRICES)
                got = np.array([metrics[0], metrics[1], metrics[3]])
                if np.any(np.abs(got - np.array(ref_row)) > tols[[0, 1, 3]]):
                    return f"metrics differ from the reference by {sup(got, ref_row):.3e}"
        if full or not have_ref:
            # an independent library solve of the same record
            try:
                p = bm.solve_fixed_point(params).p
            except InvariantViolationError as exc:
                return f"invariant violation: {exc}"
            except BikeShareError:
                return None if metrics is None else "library raises a domain error"
            if metrics is None:
                return "CLI reported a failure the library does not raise"
            residual = fixed_point_residuals(p, params)
            if residual >= RESIDUAL_TOL:
                return f"fixed-point residual {residual:.3e}"
            m = bm.compute_metrics(p, params, bm.ProfitPrices(**PRICES))
            want = np.array([m.p0, m.pK, m.p_problematic, m.mean_bikes, m.profit])
            if np.any(np.abs(np.array(metrics) - want) > metric_tols(params, PRICES)):
                return "metrics differ from the library solve"
        return None

    def _check_vector(self, params, p, metrics, ref_p):
        if metrics is None:
            return None
        residual = fixed_point_residuals(p, params)
        if residual >= RESIDUAL_TOL:
            return f"fixed-point residual {residual:.3e}"
        if ref_p is not None and sup(p, ref_p) > REFERENCE_TOL:
            return f"vector differs from the reference by {sup(p, ref_p):.3e}"
        return None

    def _check_winner(self, config, out, ref):
        rows = [(params, m) for params, m in out["rows"] if m is not None]
        if not rows:
            return "no solved candidate"
        if config["objective"] == "weighted":
            beta = config.get("beta", [0.0, 0.0, 1.0])
            score = [beta[0] * m[0] + beta[1] * m[1] + beta[2] * m[2] for _, m in rows]
        else:
            score = [-m[4] for _, m in rows]
        best = rows[int(np.argmin(score))][0]
        winner = out["winner"]
        if (winner["capacity_c"], winner["capacity_k"], winner["mu"]) != (
                best.capacity_c, best.capacity_k, best.mu):
            return "winner is not the grid optimum"
        if ref is not None and ref.get("winner") != winner:
            return "winner differs from the reference"
        return None


# ---------------------------------------------------------------- probe


def probe_pool() -> list[bm.SystemParams]:
    """The 50 parameter records of acceptance criterion 5, in its order."""
    return solvable_draws(np.random.default_rng(PROBE_POOL_SEED), PROBE_POOL_SIZE)


class Probe(Workload):
    """``uniqueness_probe`` with 20 starts on sets of the criterion-5 pool.

    The pool splits into 39 sets whose damped phase runs all its passes and
    11 where it stops early (recorded in the references).  A pass runs the
    middle set of each eighth of the full-phase sets ordered by K, and every
    early-stop set.  The sets are the same for every seed, which draws the
    probe's starting vectors: seed-drawn sets varied the cost of a pass by
    7 % between seeds, more than the code changes this workload must resolve.
    """

    name = "probe"

    def __init__(self, seed, workdir, refs):
        super().__init__(seed, workdir, refs)
        pool = probe_pool()
        strata = self.refs.get("pool")
        if strata is None:
            chosen = list(range(len(pool)))
        else:
            full = sorted((i for i, s in enumerate(strata) if s["full"]),
                          key=lambda i: (pool[i].capacity_k, i))
            early = [i for i, s in enumerate(strata) if not s["full"]]
            bins = np.array_split(np.array(full), PROBE_BINS)
            chosen = [int(b[len(b) // 2]) for b in bins] + early
        self.sets = {f"pool{i}": (i, pool[i]) for i in chosen}
        self.probe_seed = int(self.rng.integers(0, 2 ** 31))

    def _op(self, key: str, params, max_iterations: int = 10_000) -> Op:
        def call():
            if max_iterations == 10_000:
                return bm.uniqueness_probe(params, PROBE_STARTS, seed=self.probe_seed)
            return bm.uniqueness_probe(params, PROBE_STARTS, seed=self.probe_seed,
                                       max_iterations=max_iterations)
        return Op(key, "probe", call, self._collect, PROBE_STARTS)

    def ops(self) -> list[Op]:
        return [self._op(key, params) for key, (_, params) in self.sets.items()]

    def warmup_ops(self) -> list[Op]:
        key, (_, params) = next(iter(self.sets.items()))
        return [self._op(key, params, max_iterations=50)]

    @staticmethod
    def _collect(results):
        h = hashlib.sha256()
        for r in results:
            h.update(np.ascontiguousarray(r.p).tobytes())
            h.update(str(r.iterations).encode())
        return {"digest": h.hexdigest(), "p": [r.p for r in results],
                "iterations": [r.iterations for r in results]}

    def items(self, outputs: list) -> int:
        return sum(len(out["p"]) for out in outputs)

    def check(self, ops, outputs, full: bool) -> Outcome:
        result = Outcome()
        pool_refs = self.refs.get("pool")
        for op, out in zip(ops, outputs):
            if out is None:
                continue
            index, params = self.sets[op.key]
            result.attempted += op.operations
            try:
                p = bm.solve_fixed_point(params).p
            except BikeShareError as exc:
                result.fail(op, op.operations, f"reference solve failed: {exc}")
                continue
            residual = fixed_point_residuals(p, params)
            if residual >= RESIDUAL_TOL:
                result.fail(op, op.operations, f"fixed-point residual {residual:.3e}")
                continue
            if pool_refs is not None and sup(p, pool_refs[index]["p"]) > REFERENCE_TOL:
                result.fail(op, op.operations, "fixed point differs from the reference")
                continue
            if len(out["p"]) != op.operations:
                result.fail(op, op.operations, f"{len(out['p'])} results")
                continue
            for start, q in enumerate(out["p"]):
                if sup(q, p) > PROBE_TOL:
                    result.fail(op, 1, f"start {start} is {sup(q, p):.3e} from the fixed point")
        return result


# ---------------------------------------------------------------- relax


class Relax(Workload):
    """CLI ``ode`` on the figure-5 set to stationarity, limiting and finite N."""

    name = "relax"
    LEGS = (("limiting", False), ("finite", True))

    def __init__(self, seed, workdir, refs):
        super().__init__(seed, workdir, refs)
        self.params = bm.SystemParams.from_dict(FIG5)
        self.configs = {}
        for leg, finite in self.LEGS:
            config = {**FIG5, "t_end": 5000.0, "stationarity_tol": 1e-11, "finite_n": finite}
            self.configs[leg] = (self.write_config(f"ode-{leg}", config),
                                 self.workdir / f"ode-{leg}.csv")

    def _op(self, leg: str, params_path: Path, out: Path, extra=()) -> Op:
        argv = ["ode", "--params", str(params_path), "--out", str(out), *extra]
        return Op(f"ode:{leg}", "cli.ode", lambda: run_cli(argv),
                  lambda _result: self._collect(out), 1)

    def ops(self) -> list[Op]:
        return [self._op(leg, *self.configs[leg]) for leg, _ in self.LEGS]

    def warmup_ops(self) -> list[Op]:
        return [self._op(leg, *self.configs[leg], extra=("--set", "t_end=1.0"))
                for leg, _ in self.LEGS]

    @staticmethod
    def _collect(out: Path):
        terminal = json.loads(out.with_suffix(".terminal.json").read_text(encoding="utf-8"))
        rows = 0
        last = b""
        with open(out, "rb") as fh:
            for line in fh:
                if not line.startswith(b"#"):
                    rows += 1
                    last = line
        last_row = [float(v) for v in last.decode().split(",")]
        return {"digest": file_digest(out) + file_digest(out.with_suffix(".terminal.json")),
                "steps": rows - 2, "t": terminal["t"], "y": terminal["y"],
                "last_row": last_row}

    def items(self, outputs: list) -> int:
        return sum(out["steps"] for out in outputs)

    def record(self, ops, outputs) -> dict:
        return {"fixed": {op.key: {"steps": out["steps"], "t": out["t"], "y": out["y"]}
                          for op, out in zip(ops, outputs)}}

    def check(self, ops, outputs, full: bool) -> Outcome:
        result = Outcome()
        p = bm.solve_fixed_point(self.params).p
        for op, out in zip(ops, outputs):
            if out is None:
                continue
            finite = op.key == "ode:finite"
            result.attempted += 1
            y = np.array(out["y"])
            ref = self.reference(op.key)
            if out["last_row"] != [out["t"], *out["y"]]:
                problem = "CSV terminal row differs from the terminal JSON"
            elif ref is not None and (out["steps"] != ref["steps"] or out["t"] != ref["t"]):
                problem = f"{out['steps']} steps to t={out['t']}, reference {ref['steps']}"
            elif ref is not None and sup(y, ref["y"]) > REFERENCE_TOL:
                problem = f"terminal state differs from the reference by {sup(y, ref['y']):.3e}"
            elif not finite and sup(y, p) > ODE_TOL:
                problem = f"terminal state is {sup(y, p):.3e} from the fixed point"
            elif finite and float(np.max(np.abs(bm.drift_finite_n(y, self.params)))) >= 1e-11:
                problem = "finite-N terminal state is not stationary"
            else:
                problem = None
            if problem:
                result.fail(op, 1, problem)
        return result


# ---------------------------------------------------------------- chain


class Chain(Workload):
    """CLI ``simulate`` in a rent/return regime and a walk-heavy regime."""

    name = "chain"
    REGIMES = (("fig5", FIG5, 5.0, 10.0), ("walk-heavy", WALK_HEAVY, 2.0, 8.0))

    def __init__(self, seed, workdir, refs):
        super().__init__(seed, workdir, refs)
        self.configs = {}
        for regime, base, warmup, measure in self.REGIMES:
            config = {**base, "seed": 0, "t_warmup": warmup, "t_measure": measure}
            self.configs[regime] = (config, self.write_config(f"sim-{regime}", config),
                                    self.workdir / f"report-{regime}.json")

    def _op(self, regime: str, config, params_path: Path, out: Path, extra=()) -> Op:
        argv = ["simulate", "--params", str(params_path), "--out", str(out),
                "--seed", str(self.seed), *extra]
        return Op(f"simulate:{regime}", "cli.simulate", lambda: run_cli(argv),
                  lambda _result: self._collect(out), 1)

    def ops(self) -> list[Op]:
        return [self._op(regime, *self.configs[regime]) for regime, *_ in self.REGIMES]

    def warmup_ops(self) -> list[Op]:
        return [self._op(regime, *self.configs[regime], extra=("--set", "t_measure=0.2",
                                                              "--set", "t_warmup=0"))
                for regime, *_ in self.REGIMES]

    @staticmethod
    def _collect(out: Path):
        data = json.loads(out.read_text(encoding="utf-8"))
        return {"digest": file_digest(out), "report": data}

    def items(self, outputs: list) -> int:
        return sum(out["report"]["event_counts"]["events"] for out in outputs)

    def record(self, ops, outputs) -> dict:
        return {"seeded": {op.key: {"event_counts": out["report"]["event_counts"],
                                    "time_avg_measure": out["report"]["time_avg_measure"]}
                           for op, out in zip(ops, outputs)}}

    def check(self, ops, outputs, full: bool) -> Outcome:
        result = Outcome()
        for op, out in zip(ops, outputs):
            if out is None:
                continue
            regime = op.key.split(":", 1)[1]
            result.attempted += 1
            config = self.configs[regime][0]
            params = bm.SystemParams.from_dict(config)
            report = out["report"]
            counts = report["event_counts"]
            ref = self.reference(op.key)
            gap = sup(report["time_avg_measure"], bm.solve_fixed_point(params).p)
            budget = 5.0 / math.sqrt(params.n_stations)
            if ref is not None and (ref["event_counts"] != counts
                                    or ref["time_avg_measure"] != report["time_avg_measure"]):
                problem = "report differs from the reference"
            elif counts["walk_starts"] != (counts["abandonments"] + counts["walk_rentals"]
                                           + counts["walkers_in_flight"]):
                problem = "walker accounting broken"
            elif gap >= budget:
                problem = f"time average is {gap:.4f} from the fixed point (budget {budget:.4f})"
            else:
                problem = self._check_library(config, report) if full else None
            if problem:
                result.fail(op, 1, problem)
        return result

    def _check_library(self, config: dict, report: dict):
        """Rerun through the library: same report, and a valid final state."""
        sim = bm.simulate(bm.SimConfig.from_dict({**config, "seed": self.seed}))
        try:
            sim.final_state.validate(sim.config.params)
        except InvariantViolationError as exc:
            return f"final state invalid: {exc}"
        if json.loads(json.dumps(sim.to_dict())) != report:
            return "library report differs from the CLI report"
        return None


WORKLOADS = {cls.name: cls for cls in (Steady, Probe, Relax, Chain)}
