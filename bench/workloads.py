"""The benchmark's workloads: inputs, one unit of work each, and the
correctness gates their outputs must pass.

A workload is a class with ``scenarios`` (built during set-up), ``run_unit``
(the timed work: returns its output and the wall seconds of each operation
in it) and ``gate`` (checks outside the timed region, returning one message
per failed operation).  Only ``verify_batch`` draws on the seed;
``headline`` and ``seesaw_reference`` are fixed computations of the
paper's results.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from aqbell import aqset, cli, nbf, oracles, seesaw
from aqbell.scenario import BellFunctional, make_scenario

# min of the bundled composition over the tripartite set, to solver tolerance
HEADLINE_VALUE = -0.0028252166
HEADLINE_TOL = 1e-6
# reference see-saw sweep values: bound on the value after the given sweep
SEESAW_BOUNDS = {1: -0.00285, 4: -0.003}
SEESAW_MONOTONE_TOL = 1e-9
# uniform noise added to every Collins-Gisin coefficient of a random wiring
VERIFY_NOISE = 0.05
ORACLE_TOL = 1e-7
CERTIFICATE_TOL = 1e-6


def gate_headline(exit_code: int, report: dict, reference: float = HEADLINE_VALUE) -> list:
    failures = []
    if exit_code != 0:
        failures.append(f"reproduce exited with {exit_code}")
    results = report.get("results", {})
    if results.get("in_band") is not True:
        failures.append("minimum outside the reproduce band")
    for name, verdict in results.get("verdicts", {}).items():
        if verdict.get("is_nbf") is not True:
            failures.append(f"{name} functional not verified as NBF")
    if len(results.get("verdicts", {})) != 3:
        failures.append("expected three NBF verdicts")
    value = results.get("minimum", {}).get("value", math.nan)
    if not abs(value - reference) <= HEADLINE_TOL:
        failures.append(f"minimum {value!r} differs from {reference} by more than {HEADLINE_TOL}")
    return failures


class Headline:
    """``aqbell reproduce`` in-process: six small NBF solves and the n=64,
    m=531 tripartite extremization."""

    name = "headline"
    scenarios = ((2, 3, 2), (2, 2, 2), (3, 3, 2))

    def __init__(self, seed: int, workdir: Path, **_):
        self.workdir = Path(tempfile.mkdtemp(prefix="headline-", dir=workdir))

    def run_unit(self):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            exit_code = cli.main(["--out", str(self.workdir), "reproduce"])
            seconds = time.perf_counter() - start
        return exit_code, [seconds]

    def gate(self, exit_code) -> list:
        report = json.loads((self.workdir / "reproduce_report.json").read_text())
        failures = gate_headline(exit_code, report)
        return ["; ".join(failures)] if failures else []

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def gate_seesaw(sweep_values, failed_restarts: int, sweeps: int, bounds=None) -> list:
    bounds = SEESAW_BOUNDS if bounds is None else bounds
    failures = []
    if failed_restarts:
        failures.append(f"{failed_restarts} restart(s) failed")
    if len(sweep_values) != sweeps:
        failures.append(f"{len(sweep_values)} sweep(s) ran, not the configured {sweeps}")
    for k in range(1, len(sweep_values)):
        if sweep_values[k] > sweep_values[k - 1] + SEESAW_MONOTONE_TOL:
            failures.append(f"sweep {k + 1} rose from {sweep_values[k - 1]!r} to {sweep_values[k]!r}")
    for sweep, bound in bounds.items():
        if sweep <= len(sweep_values) and not sweep_values[sweep - 1] <= bound:
            failures.append(f"sweep {sweep} value {sweep_values[sweep - 1]!r} above {bound}")
    return failures


class SeesawReference:
    """Reference see-saw with both stopping rules disabled, so every unit is
    exactly ``sweeps`` sweeps of behaviour, family and outer steps."""

    name = "seesaw_reference"
    scenarios = ((2, 3, 2), (2, 2, 2), (3, 3, 2))

    def __init__(self, seed: int, workdir: Path, sweeps: int = 4, **_):
        self.config = seesaw.SeesawConfig(
            restarts=1,
            max_sweeps=sweeps,
            target_value=-math.inf,
            improvement_threshold=-math.inf,
            workers=1,
        )

    def run_unit(self):
        start = time.perf_counter()
        trace = seesaw.run(self.config)
        return trace, [time.perf_counter() - start]

    def gate(self, trace) -> list:
        failures = gate_seesaw(trace.outcomes[0].sweep_values, trace.failed_count, self.config.max_sweeps)
        return ["; ".join(failures)] if failures else []

    def close(self):
        pass


def random_functionals(seed: int, count: int) -> list:
    """Random wirings plus uniform noise on every Collins-Gisin coefficient,
    cycling through the (2,2,2), (2,3,2) and (3,2,2) scenarios."""
    rng = np.random.default_rng(seed)
    scenarios = [make_scenario(*s) for s in VerifyBatch.scenarios]
    out = []
    for i in range(count):
        wiring = nbf.random_wiring(rng, scenarios[i % len(scenarios)])
        noise = rng.uniform(-VERIFY_NOISE, VERIFY_NOISE, wiring.coeffs.shape)
        out.append(BellFunctional(wiring.scenario, wiring.coeffs + noise))
    return out


def gate_verify(verdict, det_range) -> list:
    if verdict.is_nbf is None:
        return [f"solver failure: {verdict.failure}"]
    failures = []
    det_min, det_max = det_range
    if not verdict.aq_min <= det_min + ORACLE_TOL:
        failures.append(f"aq_min {verdict.aq_min!r} above the local minimum {det_min!r}")
    if not verdict.aq_max >= det_max - ORACLE_TOL:
        failures.append(f"aq_max {verdict.aq_max!r} below the local maximum {det_max!r}")
    for side, cert in (("lower", verdict.lower_certificate), ("upper", verdict.upper_certificate)):
        residual = nbf.certificate_residual(cert)
        if not residual <= CERTIFICATE_TOL:
            failures.append(f"{side} certificate residual {residual:.3e}")
    return failures


class VerifyBatch:
    """``nbf.verify_nbf`` over a seeded batch of small random functionals;
    one unit is one pass over the batch."""

    name = "verify_batch"
    scenarios = ((2, 2, 2), (2, 3, 2), (3, 2, 2))

    def __init__(self, seed: int, workdir: Path, batch: int = 150, **_):
        self.functionals = random_functionals(seed, batch)
        self.det_ranges = [oracles.deterministic_range(f) for f in self.functionals]

    def run_unit(self):
        verdicts, times = [], []
        for functional in self.functionals:
            start = time.perf_counter()
            verdicts.append(nbf.verify_nbf(functional))
            times.append(time.perf_counter() - start)
        return verdicts, times

    def gate(self, verdicts) -> list:
        failures = []
        for index, (verdict, det_range) in enumerate(zip(verdicts, self.det_ranges, strict=True)):
            found = gate_verify(verdict, det_range)
            if found:
                failures.append(f"functional {index}: " + "; ".join(found))
        return failures

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (Headline, SeesawReference, VerifyBatch)}


def build_structures(workload) -> None:
    for spec in workload.scenarios:
        aqset.build_moment_structure(make_scenario(*spec))

