"""Outside-in tracing of the package layers.

``Tracer.install`` rebinds every public function of the traced modules, in
every namespace of the package that looks the name up at call time, to a
timing wrapper; ``uninstall`` puts the originals back.  The ``cli`` layer is
not wrapped: its spans are opened by the benchmark around each call to
``cli.main``, so their self time is argument parsing, configuration loading
and output writing.  Spans stay in memory until the benchmark ends.
"""

from __future__ import annotations

import bisect
import gzip
import importlib
import inspect
import itertools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED_MODULES = ("analysis", "fixed_point", "dynamics", "core", "simulator")
CLI_COMMANDS = ("fixed-point", "sweep", "optimize", "ode", "simulate")
EVENT_MIX = ("rentals", "returns", "walks_completed", "re_rides")

# per-layer metrics in report order: name -> unit
LAYER_METRICS = {}
for _cmd in CLI_COMMANDS:
    LAYER_METRICS[f"cli.{_cmd}.s"] = "s"
    LAYER_METRICS[f"cli.{_cmd}.self_s"] = "s"
LAYER_METRICS.update({
    "analysis.sweep.calls": "count",
    "analysis.sweep.s": "s",
    "analysis.evaluate_design_grid.calls": "count",
    "analysis.solve_yield": "ratio",
    "analysis.sweep_to_csv.s": "s",
    "analysis.grid_to_csv.s": "s",
    "fixed_point.solve_fixed_point.calls": "count",
    "fixed_point.solve_fixed_point.self_s": "s",
    "fixed_point.solve_fixed_point.iterations": "count",
    "fixed_point.stationary_from_load.calls": "count",
    "fixed_point.uniqueness_probe.calls": "count",
    "fixed_point.uniqueness_probe.s": "s",
    "fixed_point.uniqueness_probe.passes": "count",
    "fixed_point.uniqueness_probe.passes_per_start": "ratio",
    "dynamics.integrate.calls": "count",
    "dynamics.integrate.s": "s",
    "dynamics.integrate.steps": "count",
    "dynamics.drift_limiting.calls": "count",
    "dynamics.drift_limiting.s": "s",
    "dynamics.drift_finite_n.calls": "count",
    "dynamics.drift_finite_n.s": "s",
    "dynamics.drift_per_step": "ratio",
    "dynamics.states_mb": "MB",
    "dynamics.Trajectory.to_csv.s": "s",
    "dynamics.csv_mb": "MB",
    "core.finite_arrival_rates.calls": "count",
    "core.finite_arrival_rates.s": "s",
    "core.finite_service_rate.calls": "count",
    "core.finite_service_rate.s": "s",
    "simulator.simulate.calls": "count",
    "simulator.simulate.s": "s",
    "simulator.events": "count",
    "simulator.us_per_event": "us",
})
for _kind in EVENT_MIX:
    LAYER_METRICS[f"simulator.{_kind}"] = "count"
LAYER_METRICS["trace_overhead"] = "ratio"

# functions the metrics above are read from; missing ones are reported absent
EXPECTED = (
    "analysis.sweep", "analysis.evaluate_design_grid", "analysis.sweep_to_csv",
    "analysis.grid_to_csv", "fixed_point.solve_fixed_point",
    "fixed_point.stationary_from_load", "fixed_point.uniqueness_probe",
    "dynamics.integrate", "dynamics.drift_limiting", "dynamics.drift_finite_n",
    "dynamics.Trajectory.to_csv", "core.finite_arrival_rates",
    "core.finite_service_rate", "simulator.simulate",
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _on_solve(tracer, span, result, args, kwargs):
    tracer.counts["fixed_point.solve_fixed_point.iterations"] += result.iterations
    parent = span[3]
    if parent >= 0 and tracer.spans[parent][0].startswith("analysis."):
        tracer.counts["analysis.solves"] += 1
        tracer.solved.add((span[4], _arg(args, kwargs, 0, "params")))


def _on_probe(tracer, span, result, args, kwargs):
    tracer.counts["fixed_point.uniqueness_probe.passes"] += sum(r.iterations for r in result)
    tracer.counts["fixed_point.uniqueness_probe.starts"] += len(result)


def _on_integrate(tracer, span, result, args, kwargs):
    tracer.counts["dynamics.integrate.steps"] += len(result.times) - 1
    tracer.counts["dynamics.states_bytes"] += result.states.nbytes


def _on_to_csv(tracer, span, result, args, kwargs):
    tracer.counts["dynamics.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _on_simulate(tracer, span, result, args, kwargs):
    counts = result.event_counts
    tracer.counts["simulator.events"] += counts["events"]
    for kind in EVENT_MIX:
        tracer.counts[f"simulator.{kind}"] += counts[kind]


HOOKS = {
    "fixed_point.solve_fixed_point": _on_solve,
    "fixed_point.uniqueness_probe": _on_probe,
    "dynamics.integrate": _on_integrate,
    "dynamics.Trajectory.to_csv": _on_to_csv,
    "simulator.simulate": _on_simulate,
}


class Tracer:
    """Spans ``[name, start, end, parent, run]`` and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = 0
        self.counts: Counter = Counter()
        self.solved: set = set()
        self.wrapped: set[str] = set()
        self._undo: list = []

    def reset(self) -> None:
        self.spans, self.stack, self.counts, self.solved = [], [], Counter(), set()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.run])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> list:
        span = self.spans[index]
        span[2] = perf_counter()
        self.stack.pop()
        return span

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if hook is not None:
                hook(tracer, span, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        package = importlib.import_module("bikeshare_meanfield")
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"bikeshare_meanfield.{short}")
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{short}.{name}", obj)
                    self.wrapped.add(f"{short}.{name}")
        namespaces = [package] + [m for n, m in sorted(sys.modules.items())
                                  if n.startswith("bikeshare_meanfield.")]
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(namespace, name, wrappers[obj])
                    self._undo.append((namespace, name, obj))
        trajectory = getattr(sys.modules["bikeshare_meanfield.dynamics"], "Trajectory", None)
        if trajectory is not None and inspect.isfunction(getattr(trajectory, "to_csv", None)):
            original = trajectory.to_csv
            trajectory.to_csv = self.wrap("dynamics.Trajectory.to_csv", original)
            self.wrapped.add("dynamics.Trajectory.to_csv")
            self._undo.append((trajectory, "to_csv", original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    def absent(self) -> list[str]:
        return [name for name in EXPECTED if name not in self.wrapped]

    def metrics(self, factors: list[float], ticks: list[tuple[float, float]]) -> dict:
        """Per-layer metrics of the spans recorded since ``reset``.

        ``ticks`` are the (start, duration) of the calibration samples taken
        during the pass; their time is taken out of every span that holds
        them.  Span durations are then scaled by ``factors[run]``, the
        calibration factor of the operation the span belongs to.
        """
        starts = [t for t, _ in ticks]
        spent = list(itertools.accumulate((d for _, d in ticks), initial=0.0))
        calls: Counter = Counter()
        total = defaultdict(float)
        children = defaultdict(float)
        durations = []
        for name, start, end, parent, run in self.spans:
            inside = spent[bisect.bisect_left(starts, end)] - spent[bisect.bisect_left(starts, start)]
            duration = (end - start - inside) * factors[run]
            durations.append(duration)
            calls[name] += 1
            total[name] += duration
            if parent >= 0:
                children[parent] += duration
        own = defaultdict(float)
        for index, (name, *_rest) in enumerate(self.spans):
            own[name] += durations[index] - children[index]
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.s"] = total[f"cli.{cmd}"]
            out[f"cli.{cmd}.self_s"] = own[f"cli.{cmd}"]
        steps = c["dynamics.integrate.steps"]
        events = c["simulator.events"]
        out.update({
            "analysis.sweep.calls": calls["analysis.sweep"],
            "analysis.sweep.s": total["analysis.sweep"],
            "analysis.evaluate_design_grid.calls": calls["analysis.evaluate_design_grid"],
            "analysis.solve_yield": ratio(len(self.solved), c["analysis.solves"]),
            "analysis.sweep_to_csv.s": total["analysis.sweep_to_csv"],
            "analysis.grid_to_csv.s": total["analysis.grid_to_csv"],
            "fixed_point.solve_fixed_point.calls": calls["fixed_point.solve_fixed_point"],
            "fixed_point.solve_fixed_point.self_s": own["fixed_point.solve_fixed_point"],
            "fixed_point.solve_fixed_point.iterations":
                c["fixed_point.solve_fixed_point.iterations"],
            "fixed_point.stationary_from_load.calls": calls["fixed_point.stationary_from_load"],
            "fixed_point.uniqueness_probe.calls": calls["fixed_point.uniqueness_probe"],
            "fixed_point.uniqueness_probe.s": total["fixed_point.uniqueness_probe"],
            "fixed_point.uniqueness_probe.passes": c["fixed_point.uniqueness_probe.passes"],
            "fixed_point.uniqueness_probe.passes_per_start":
                ratio(c["fixed_point.uniqueness_probe.passes"],
                      c["fixed_point.uniqueness_probe.starts"]),
            "dynamics.integrate.calls": calls["dynamics.integrate"],
            "dynamics.integrate.s": total["dynamics.integrate"],
            "dynamics.integrate.steps": steps,
            "dynamics.drift_limiting.calls": calls["dynamics.drift_limiting"],
            "dynamics.drift_limiting.s": total["dynamics.drift_limiting"],
            "dynamics.drift_finite_n.calls": calls["dynamics.drift_finite_n"],
            "dynamics.drift_finite_n.s": total["dynamics.drift_finite_n"],
            "dynamics.drift_per_step": ratio(calls["dynamics.drift_limiting"]
                                             + calls["dynamics.drift_finite_n"], steps),
            "dynamics.states_mb": c["dynamics.states_bytes"] / 1e6,
            "dynamics.Trajectory.to_csv.s": total["dynamics.Trajectory.to_csv"],
            "dynamics.csv_mb": c["dynamics.csv_bytes"] / 1e6,
            "core.finite_arrival_rates.calls": calls["core.finite_arrival_rates"],
            "core.finite_arrival_rates.s": total["core.finite_arrival_rates"],
            "core.finite_service_rate.calls": calls["core.finite_service_rate"],
            "core.finite_service_rate.s": total["core.finite_service_rate"],
            "simulator.simulate.calls": calls["simulator.simulate"],
            "simulator.simulate.s": total["simulator.simulate"],
            "simulator.events": events,
            "simulator.us_per_event": ratio(total["simulator.simulate"] * 1e6, events),
        })
        for kind in EVENT_MIX:
            out[f"simulator.{kind}"] = c[f"simulator.{kind}"]
        return out

    def write(self, path) -> None:
        """Write the spans as ``name,start,end,parent,run`` rows."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,run\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, run in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{run}\n")
