"""Benchmark of the bike-sharing analyzer's three routes.

One workload, its end-to-end metrics (``--trace 0``) or its per-layer
metrics (``--trace 1``); the last line of standard output is the result:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 15 --trace 0

All four workloads with every end-to-end metric printed by name and unit,
exiting nonzero if any correctness check fails:

    python3 perfbench/run.py --all --seed 1 --seconds 15 [--trace 1]

Run from the repository root or anywhere else: the package is imported from
``src/`` next to this directory, never from an installed copy.  Each
workload runs in fresh child processes (see ``harness.py``); this parent
imports no numpy so its own start-up does not count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

WORKLOADS = ("steady", "probe", "relax", "chain")
# end-to-end metrics: name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
# what one unit of ``work_per_s`` is on each workload
WORK_UNITS = {"steady": "designs_per_s", "probe": "probe_starts_per_s",
              "relax": "ode_steps_per_s", "chain": "events_per_s"}
# fresh processes per untraced run: each one sets up once, so set-up time
# and peak memory are medians over this many processes
CHILDREN = 3
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def summarize(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for q in (99, 95, 90, 75, 50):
        if len(values) * (100 - q) / 100.0 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
            break
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_children(name: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Run the child processes of one workload; returns (children, error)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    for var in THREAD_VARS:
        env[var] = "1"
    count = 1 if trace else CHILDREN
    children = []
    for index in range(count):
        workdir = WORK / f"{name}-seed{seed}-child{index}-{os.getpid()}"
        spec = {"workload": name, "seed": seed, "budget": seconds / count, "trace": trace,
                "full_check": index == 0, "workdir": str(workdir), "root": str(ROOT),
                "spans": str(WORK / f"spans-{name}-seed{seed}.csv.gz") if trace else None}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "harness.py"), json.dumps(spec)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(deadline - time.monotonic(), 1.0),
            )
        except subprocess.TimeoutExpired:
            return children, f"{name}: child {index} exceeded the time limit"
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return children, f"{name}: child {index} failed:\n{proc.stderr[-2000:]}"
        children.append(json.loads(lines[-1]))
    return children, None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the printed result plus the details."""
    load_start = os.getloadavg()
    deadline = time.monotonic() + TIME_LIMIT_S
    WORK.mkdir(exist_ok=True)
    children, error = run_children(name, seed, seconds, trace, deadline)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu": cpu_model(), "loadavg_start": load_start, "loadavg_end": os.getloadavg()}
    if children:
        env.update(numpy=children[0]["versions"]["numpy"],
                   scipy=children[0]["versions"]["scipy"])
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    messages = [m for c in children for m in c["messages"]]
    if error is not None:
        messages.append(error)
    if len({json.dumps(c["digest"]) for c in children}) > 1:
        messages.append("child processes produced different outputs")
    correct = error is None and not messages and failed == 0 and attempted > 0

    plain = [p for c in children for p in c["passes"] if not p["traced"]]
    stats, metrics = {}, {}
    if plain:
        stats = {
            "wall_s": summarize([p["s"] for p in plain]),
            "setup_s": summarize([c["setup_s"] for c in children]),
            "peak_rss_mb": summarize([c["peak_rss_mb"] for c in children]),
            "work_per_s": summarize([p["items"] / p["s"] for p in plain]),
        }
    if not trace:
        metrics = {k: {"value": stats[k]["median"], "unit": u}
                   for k, u in END_TO_END.items() if k in stats}
    elif children and children[0]["layers"]:
        child = children[0]
        traced = [p["s"] for p in child["passes"] if p["traced"]]
        for key, unit in child["layer_units"].items():
            if key == "trace_overhead":
                value = statistics.median(traced) / stats["wall_s"]["median"] - 1.0
            else:
                value = statistics.median(layer[key] for layer in child["layers"])
            metrics[key] = {"value": value, "unit": unit}
        if child["absent"]:
            messages.append("absent (reported as 0): " + ", ".join(child["absent"]))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "env": env, "stats": stats, "messages": messages, "children": children,
               "result": result}
    with open(WORK / f"{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    return details


def print_details(details: dict) -> None:
    print("env " + json.dumps(details["env"]))
    for message in details["messages"]:
        print(f"note {details['workload']}: {message}")
    for key, summary in details["stats"].items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in summary.items() if k not in ("median", "n"))
        print(f"{details['workload']} {key} median={summary['median']:.6g} "
              f"{END_TO_END[key]} n={summary['n']} {extra}".rstrip())


def run_all(seed: int, seconds: float, trace: bool) -> int:
    rows, ok = [], True
    for name in WORKLOADS:
        for traced in ((False, True) if trace else (False,)):
            details = run_workload(name, seed, seconds, traced)
            result = details["result"]
            ok = ok and result["correct"]
            for message in details["messages"]:
                print(f"note {name}: {message}")
            for key, metric in result["metrics"].items():
                rows.append((name, key, metric["value"], metric["unit"]))
            if not traced:
                if "work_per_s" in result["metrics"]:
                    rows.append((name, WORK_UNITS[name],
                                 result["metrics"]["work_per_s"]["value"], "1/s"))
                rate = result["failed"] / max(result["attempted"], 1)
                rows.append((name, "error_rate", rate, "ratio"))
                rows.append((name, "operations", result["attempted"], "count"))
    print("env " + json.dumps(details["env"]))
    for name, key, value, unit in rows:
        print(f"{name:7s} {key:46s} {value:14.6g} {unit}")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bikeshare_meanfield" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload is None:
        parser.error("give --workload or --all")
    details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_details(details)
    print(json.dumps(details["result"]))
    return 0 if details["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
