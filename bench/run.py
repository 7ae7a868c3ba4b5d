"""aqbell benchmark: one workload per invocation, correctness-gated.

    python3 bench/run.py --workload headline --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25   # each in turn

Runs from the root of a source checkout (``src/aqbell`` must exist; nothing
is installed).  The measured work runs in a fresh child process with the
BLAS thread count pinned before numpy loads, so ``setup_s`` and
``peak_rss_mb`` belong to that run alone.  ``setup_s`` is the median over
that process and ``SETUP_PROBES`` set-up-only processes, half started
before it and half after.

Prints each metric with its unit, then, as the last line of the workload's
report, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Exits 1 when a correctness gate fails and 2 when the checkout holds no
aqbell sources.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("headline", "seesaw_reference", "verify_batch")
# one BLAS thread: on the 2-core reference machine two threads were slower
BLAS_THREADS = "1"
SETUP_PROBES = 10
TIME_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB"}
EXTRA = (("wall_median_s", "s"), ("first_unit_s", "s"), ("verify_per_s", "1/s"), ("verify_p50_s", "s"), ("verify_p90_s", "s"), ("verify_samples", "count"))


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        AQ_NR_THREADS="1",
        PYTHONHASHSEED="0",
    )
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count"


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Measure one workload and print its report; returns the exit code."""
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    common = ["--workload", workload, "--workdir", str(workdir)]

    # set-up probes are split around the measured run, so that their median
    # samples the machine over the whole run rather than one moment of it
    probes = 0 if trace else SETUP_PROBES // 2
    try:
        setups = [run_worker([*common, "--setup-only"], deadline)["setup_s"] for _ in range(probes)]
        result = run_worker(
            [*common, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            deadline,
        )
        setups += [run_worker([*common, "--setup-only"], deadline)["setup_s"] for _ in range(probes)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {workload}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    if trace:
        print("context " + json.dumps(result["context"], sort_keys=True))
        print(f"trace_file {result['trace_file']}")
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in result["per_layer"].items()}
    else:
        result["setup_s"] = statistics.median([*setups, result["setup_s"]])
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in EXTRA:
            if name in result:
                print(f"{name} {result[name]:.6g} {unit}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"ops {result['attempted']}")
    print(f"ops_failed {result['failed']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aqbell" / "__init__.py").is_file():
        print(f"no aqbell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_one(name, args.seed, args.seconds, args.trace) for name in workloads)


if __name__ == "__main__":
    sys.exit(main())
