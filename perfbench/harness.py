"""Child side of the benchmark: one fresh process sets up one workload, warms
it up and times passes of its fixed work until its time budget is spent.

Timings are calibrated.  The shared machine this was built on changes its
throughput by up to a factor of two within seconds, for every process at
once; a fixed calibration kernel run between operations tracks that change
(on the figure-5 solve, the simulator and the ODE the spread of
two-second medians fell from 0.27-0.32 to 0.02 when divided by it).  Every
reported time is therefore ``raw * CAL_REF_S / kernel time``, in seconds at
the speed at which the kernel takes ``CAL_REF_S``.  Raw times are kept in
the results file next to the calibrated ones.
"""

from __future__ import annotations

import json
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

#: calibration kernel time at the reference speed (the median on a 2-vCPU
#: Intel Xeon sandbox at the time the benchmark was defined)
CAL_REF_S = 0.002

#: interval of the calibration samples taken during an operation
SAMPLE_INTERVAL_S = 0.1


def calibration_kernel(np) -> float:
    """Fixed work mixing interpreter bytecode and small numpy calls, the two
    kinds of work the package spends its time in."""
    total = 0
    seen = {}
    for i in range(3000):
        total += i * i % 7
        seen[i & 63] = total
    a = np.arange(51.0)
    for _ in range(300):
        a = a * 1.0000001 + np.abs(a[::-1]) * 1e-9
    return total + float(a[0])


def calibrate(np) -> float:
    start = perf_counter()
    calibration_kernel(np)
    return perf_counter() - start


class Sampler:
    """Runs the calibration kernel on a timer signal while an operation runs.

    A long operation (an ODE leg takes seconds) outlasts the machine's
    changes of speed, so the samples before and after it are not enough.
    The time spent in the handler is subtracted from the operation's time.
    """

    def __init__(self, np):
        self.np = np
        self.ticks: list[tuple[float, float]] = []   # (start, kernel time)

    def _tick(self, signum, frame):
        self.ticks.append((perf_counter(), calibrate(self.np)))

    @property
    def samples(self) -> list[float]:
        return [kernel for _, kernel in self.ticks]

    @property
    def spent(self) -> float:
        return sum(self.samples)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def timed_pass(ops, np, tracer=None) -> dict:
    """Run every operation once, with calibration samples around and during
    each operation."""
    before = calibrate(np)
    raw, factors, results, errors, ticks = [], [], [], [], []
    for index, op in enumerate(ops):
        span = None
        if tracer is not None:
            tracer.run = index
            if op.kind.startswith("cli."):
                span = tracer.open(op.kind)
        sampler = Sampler(np)
        start = perf_counter()
        try:
            with sampler:
                results.append(op.run())
            errors.append(None)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            results.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            raw.append(perf_counter() - start - sampler.spent)
            if span is not None:
                tracer.close(span)
        ticks.extend(sampler.ticks)
        after = calibrate(np)
        samples = [before, after, *sampler.samples]
        factors.append(statistics.fmean(CAL_REF_S / k for k in samples))
        before = after
    return {"raw": raw, "factors": factors, "results": results, "errors": errors,
            "ticks": ticks}


def run_child(name: str, seed: int, budget: float, trace: bool, full_check: bool,
              workdir: Path, root: Path, spans_path: Path | None) -> dict:
    t_setup = perf_counter()
    import numpy as np

    with Sampler(np) as sampler:
        import scipy

        import workloads
        from tracing import LAYER_METRICS, Tracer

        source = Path(workloads.bm.__file__).resolve()
        if not source.is_relative_to(root / "src"):
            raise RuntimeError(f"imported the package from {source}, not from {root / 'src'}")
        refs = workloads.load_refs()
        workload = workloads.WORKLOADS[name](seed, workdir, refs)
        for op in workload.warmup_ops():
            op.run()
    setup_raw = perf_counter() - t_setup - sampler.spent
    samples = [*sampler.samples, *(calibrate(np) for _ in range(3))]
    setup_factor = statistics.fmean(CAL_REF_S / k for k in samples)

    ops = workload.ops()
    tracer = Tracer() if trace else None
    passes, layers = [], []
    attempted = failed = 0
    messages: list[str] = []
    first_digests = None
    spans_written = False
    start = perf_counter()
    while True:
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.reset()
                tracer.install()
            try:
                record = timed_pass(ops, np, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            outputs = []
            for op, result, error in zip(ops, record["results"], record["errors"]):
                if error is not None:
                    attempted += op.operations
                    failed += op.operations
                    messages.append(f"{op.key}: {error}")
                    outputs.append(None)
                else:
                    outputs.append(op.collect(result))
            digests = [None if out is None else out["digest"] for out in outputs]
            if first_digests is None:
                first_digests = digests
                outcome = workload.check(ops, outputs, full_check)
                attempted += outcome.attempted
                failed += outcome.failed
                messages.extend(outcome.messages)
            else:
                for op, digest, first in zip(ops, digests, first_digests):
                    if digest is None:
                        continue
                    attempted += op.operations
                    if digest != first:
                        failed += op.operations
                        messages.append(f"{op.key}: output differs from the first pass")
            seconds = sum(r * f for r, f in zip(record["raw"], record["factors"]))
            passes.append({"traced": traced, "s": seconds, "raw_s": sum(record["raw"]),
                           "items": workload.items([o for o in outputs if o is not None])})
            if traced:
                layers.append(tracer.metrics(record["factors"], record["ticks"]))
                if spans_path is not None and not spans_written:
                    tracer.write(spans_path)
                    spans_written = True
        if perf_counter() - start >= budget:
            break
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "setup_s": setup_raw * setup_factor,
        "setup_raw_s": setup_raw,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "layers": layers,
        "layer_units": LAYER_METRICS if trace else {},
        "absent": tracer.absent() if trace else [],
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:20],
        "digest": first_digests,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    workdir = Path(args["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    result = run_child(args["workload"], args["seed"], args["budget"], args["trace"],
                       args["full_check"], workdir, Path(args["root"]).resolve(),
                       Path(args["spans"]) if args.get("spans") else None)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
