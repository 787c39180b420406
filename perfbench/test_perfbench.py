"""Self-checks of the benchmark: the tracer's exact counts against the figures
the package gave when the benchmark was defined, and the harness's gates.

    PYTHONPATH=src:perfbench python3 -m pytest perfbench -q

About 20 s; the limiting and finite-N ODE legs take most of it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from harness import timed_pass  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

import bikeshare_meanfield as bm  # noqa: E402
from bikeshare_meanfield import analysis, dynamics  # noqa: E402


def traced(ops):
    """One traced pass over ``ops``: (per-layer metrics, outputs)."""
    tracer = Tracer()
    tracer.install()
    try:
        record = timed_pass(ops, np, tracer)
    finally:
        tracer.uninstall()
    assert record["errors"] == [None] * len(ops)
    outputs = [op.collect(result) for op, result in zip(ops, record["results"])]
    return tracer.metrics(record["factors"], record["ticks"]), outputs


def pick(ops, key):
    return [op for op in ops if op.key == key]


@pytest.fixture
def steady(tmp_path):
    return workloads.Steady(0, tmp_path, workloads.load_refs())


def test_figure5_solve_takes_11_brentq_iterations(steady):
    metrics, _ = traced(pick(steady.ops(), "fixed-point:fig5"))
    assert metrics["fixed_point.solve_fixed_point.calls"] == 1
    assert metrics["fixed_point.solve_fixed_point.iterations"] == 11
    assert metrics["cli.fixed-point.self_s"] > 0


def test_optimize_solves_its_grid_twice(steady):
    metrics, outputs = traced(pick(steady.ops(), "optimize-weighted:fig5"))
    assert len(outputs[0]["rows"]) == 80
    assert metrics["analysis.evaluate_design_grid.calls"] == 2
    assert metrics["fixed_point.solve_fixed_point.calls"] == 160
    assert metrics["analysis.solve_yield"] == 0.5


def test_sweeps_solve_each_node_once(steady):
    metrics, _ = traced(pick(steady.ops(), "sweep:fig5-mu:8"))
    assert metrics["analysis.sweep.calls"] == 1
    assert metrics["fixed_point.solve_fixed_point.calls"] == 41
    assert metrics["analysis.solve_yield"] == 1.0


def test_limiting_relax_leg(tmp_path):
    relax = workloads.Relax(0, tmp_path, {})
    metrics, outputs = traced(pick(relax.ops(), "ode:limiting"))
    assert metrics["dynamics.integrate.steps"] == 21_141
    assert outputs[0]["steps"] == 21_141
    assert outputs[0]["t"] == pytest.approx(90.93, abs=0.005)
    assert metrics["dynamics.drift_limiting.calls"] == 5 * 21_141
    assert metrics["dynamics.drift_per_step"] == 5.0
    assert metrics["dynamics.states_mb"] == pytest.approx(21_142 * 51 * 8 / 1e6)
    assert metrics["core.finite_arrival_rates.calls"] == 0


def test_finite_relax_leg_uses_the_finite_rates(tmp_path):
    relax = workloads.Relax(0, tmp_path, {})
    metrics, outputs = traced(pick(relax.ops(), "ode:finite"))
    steps = outputs[0]["steps"]
    assert metrics["dynamics.integrate.steps"] == steps == 20_821
    assert metrics["dynamics.drift_finite_n.calls"] == 5 * steps
    assert metrics["core.finite_arrival_rates.calls"] == 5 * steps
    assert metrics["core.finite_service_rate.calls"] == 5 * steps
    assert metrics["dynamics.csv_mb"] > 10


def test_figure5_probe_runs_about_10000_passes_per_start(tmp_path):
    op = workloads.Op("fig5", "probe",
                      lambda: bm.uniqueness_probe(bm.SystemParams.from_dict(workloads.FIG5),
                                                  20, seed=1),
                      workloads.Probe._collect, 20)
    metrics, _ = traced([op])
    assert 10_000 <= metrics["fixed_point.uniqueness_probe.passes_per_start"] < 10_100


def test_chain_event_mix_matches_the_report(tmp_path):
    chain = workloads.Chain(1, tmp_path, {})
    metrics, outputs = traced(chain.ops())
    reports = [out["report"]["event_counts"] for out in outputs]
    assert metrics["simulator.simulate.calls"] == 2
    assert metrics["simulator.events"] == sum(r["events"] for r in reports)
    for kind in ("rentals", "returns", "walks_completed", "re_rides"):
        assert metrics[f"simulator.{kind}"] == sum(r[kind] for r in reports)
    walk_share = reports[1]["walks_completed"] / reports[1]["events"]
    assert 0.2 < walk_share < 0.3


def test_tracer_restores_every_binding(steady):
    originals = (bm.solve_fixed_point, analysis.solve_fixed_point,
                 dynamics.drift_limiting, dynamics.Trajectory.to_csv)
    tracer = Tracer()
    tracer.install()
    assert analysis.solve_fixed_point is not originals[1]
    tracer.uninstall()
    assert (bm.solve_fixed_point, analysis.solve_fixed_point,
            dynamics.drift_limiting, dynamics.Trajectory.to_csv) == originals


def test_traced_outputs_equal_untraced(steady):
    ops = pick(steady.ops(), "base0:optimize-profit") + pick(steady.ops(), "base1:sweep")
    record = timed_pass(ops, np)
    plain = [op.collect(r)["digest"] for op, r in zip(ops, record["results"])]
    _, outputs = traced(ops)
    assert [out["digest"] for out in outputs] == plain


def test_absent_function_is_reported_not_fatal(monkeypatch, steady):
    monkeypatch.delattr(dynamics, "drift_finite_n")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent() == ["dynamics.drift_finite_n"]
    metrics = tracer.metrics([1.0], [])
    assert set(metrics) == set(LAYER_METRICS) - {"trace_overhead"}
    assert metrics["dynamics.drift_finite_n.calls"] == 0


def test_checks_reject_a_perturbed_fixed_point(steady):
    ops = pick(steady.ops(), "fixed-point:fig5")
    record = timed_pass(ops, np)
    outputs = [ops[0].collect(record["results"][0])]
    assert steady.check(ops, outputs, full=False).failed == 0
    outputs[0]["p"] = list(np.array(outputs[0]["p"]) + 1e-11)
    assert steady.check(ops, outputs, full=False).failed == 1


def test_checks_reject_a_changed_step_count(tmp_path):
    relax = workloads.Relax(0, tmp_path, workloads.load_refs())
    ops = relax.ops()
    reference = relax.reference("ode:limiting")
    out = {"digest": "", "steps": reference["steps"] + 1, "t": reference["t"],
           "y": reference["y"], "last_row": [reference["t"], *reference["y"]]}
    assert relax.check(ops[:1], [out], full=False).failed == 1
    out["steps"] -= 1
    assert relax.check(ops[:1], [out], full=False).failed == 0


def test_references_cover_the_benchmark_seeds():
    refs = workloads.load_refs()
    assert sorted(int(s) for s in refs["steady"]["seeded"]) == list(range(16))
    assert sorted(int(s) for s in refs["chain"]["seeded"]) == list(range(16))
    assert len(refs["probe"]["pool"]) == workloads.PROBE_POOL_SIZE


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "steady",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert json.loads((HERE.parent / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]
