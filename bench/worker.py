"""One measured process of the benchmark (started by ``run.py``).

``run.py`` sets the BLAS thread count in the environment before this
process starts, so numpy loads with it.  Set-up (``import aqbell`` plus the
moment structures of the workload's scenarios) is timed first; then units
of work run until the time budget is spent, and ``wall_s`` is the unit's
best time (see ``best_unit_seconds``).  With ``--trace 1`` units alternate
between untraced and traced (every layer wrapped), the per-layer figures
are the medians over traced units, and the tracing overhead is the
difference of the two kinds' best times.

Prints one JSON object as its last line of output.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402  (stdlib only; aqbell loads in set_up)


def set_up(name: str, tracer=None):
    """Import aqbell and build the workload's moment structures; returns
    (workload class, seconds)."""
    start = time.perf_counter()
    import aqbell.cli  # noqa: F401
    import workloads

    cls = workloads.WORKLOADS[name]
    with tracer.installed() if tracer else contextlib.nullcontext():
        workloads.build_structures(cls)
    return cls, time.perf_counter() - start


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    with contextlib.suppress(Exception):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "AQ_NR_THREADS": os.environ.get("AQ_NR_THREADS"),
        "machine": platform.machine(),
    }


class Unit:
    """One timed unit: per-operation seconds, gate failures, traced spans."""

    def __init__(self, times, failures, spans):
        self.times = times
        self.seconds = sum(times)
        self.failures = failures
        self.spans = spans


def _run_unit(workload, tracer=None) -> Unit:
    """One unit, traced if a tracer is given; gated outside the trace."""
    with tracer.installed() if tracer else contextlib.nullcontext():
        output, times = workload.run_unit()
    spans = tracer.take() if tracer else None
    return Unit(times, workload.gate(output), spans)


def _run_for(workload, budget: float, tracer=None) -> tuple:
    """Run units until ``budget`` seconds have passed, at least one of each
    kind; with a tracer, untraced and traced units alternate.  Returns
    (untraced units, traced units)."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(_run_unit(workload))
        if tracer:
            traced.append(_run_unit(workload, tracer))
        if time.perf_counter() - start >= budget:
            return untraced, traced


def best_unit_seconds(units) -> float:
    """Sum over a unit's operations of each one's fastest time in the run.

    On a shared VM whose speed drifts by up to half over seconds to minutes
    (as the 2-vCPU baseline machine did), the fastest of several repeats of
    the same deterministic operation is the estimator least moved by the
    drift, and the finer the operations, the closer it stays to the
    uncontended time.
    """
    return sum(min(times) for times in zip(*(unit.times for unit in units), strict=True))


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path, **size) -> dict:
    tracer = tracing.Tracer() if trace else None
    cls, setup_s = set_up(name, tracer)
    setup_roots = tracer.take() if tracer else []
    workload = cls(seed, workdir, **size)
    try:
        untraced, traced = _run_for(workload, seconds, tracer)
    finally:
        workload.close()

    units = untraced + traced
    failures = [msg for unit in units for msg in unit.failures]
    result = {
        "workload": name,
        "seed": seed,
        "attempted": sum(len(unit.times) for unit in units),
        "failed": len(failures),
        "failures": failures[:20],
        "units": len(untraced),
        "wall_s": best_unit_seconds(untraced),
        "wall_median_s": statistics.median(unit.seconds for unit in untraced),
        "first_unit_s": untraced[0].seconds,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if name == "verify_batch":
        latencies = [t for unit in untraced for t in unit.times]
        result["verify_samples"] = len(latencies)
        result["verify_per_s"] = len(latencies) / sum(latencies)
        result["verify_p50_s"] = statistics.median(latencies)
        result["verify_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    if trace:
        per_unit = [tracing.unit_metrics(unit.spans) for unit in traced]
        layer = {key: statistics.median(m[key] for m in per_unit) for key in per_unit[0]}
        layer.update(tracing.setup_metrics(setup_roots))
        layer["first_unit_s"] = result["first_unit_s"]
        layer["trace.wall_s"] = best_unit_seconds(traced)
        layer["trace.untraced_wall_s"] = result["wall_s"]
        layer["trace.overhead_s"] = layer["trace.wall_s"] - layer["trace.untraced_wall_s"]
        result["per_layer"] = layer
        result["per_unit"] = [dict(m, unit_s=unit.seconds) for m, unit in zip(per_unit, traced)]
        result["traced_units"] = len(traced)
        result["context"] = tracing.solve_context([s for unit in traced for s in unit.spans])
        result["spans"] = {
            "setup": tracing.spans_to_json(setup_roots),
            "units": [tracing.spans_to_json(unit.spans) for unit in traced],
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time set-up and exit")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    if args.setup_only:
        _, setup_s = set_up(args.workload)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    if "spans" in result:
        trace_file = args.workdir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"spans": result.pop("spans"), "context": result["context"]}))
        result["trace_file"] = str(trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
