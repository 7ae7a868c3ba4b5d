"""Tests of the benchmark itself: tiny runs of every workload, the
correctness gates, and the traced run's accounting.

    python3 -m pytest bench
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import worker  # puts src/ and bench/ on sys.path
import tracer as tracing
import workloads
from aqbell import aqset, nbf, sdp, seesaw

TINY = {"headline": {}, "seesaw_reference": {"sweeps": 1}, "verify_batch": {"batch": 6}}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One untraced and one traced unit of each workload at a tiny size."""
    workdir = tmp_path_factory.mktemp("bench")
    return {
        name: worker.measure(name, seed=5, seconds=0, trace=True, workdir=workdir, **size)
        for name, size in TINY.items()
    }


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_gate(traced_runs, name):
    result = traced_runs[name]
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 2
    assert result["wall_s"] > 0 and result["setup_s"] > 0 and result["peak_rss_mb"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_self_times_within_traced_wall(traced_runs, name):
    result = traced_runs[name]
    for unit in result["per_unit"]:
        self_times = [v for k, v in unit.items() if "self_s" in k]
        assert all(0.0 <= v <= unit["unit_s"] for v in self_times)
        layers = sum(unit[f"{layer}.self_s"] for layer in tracing.UNIT_LAYERS)
        assert layers <= unit["unit_s"]


def test_traced_run_reports_every_listed_per_layer_metric(traced_runs):
    listed = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in listed["per_layer"]}
    for result in traced_runs.values():
        assert set(result["per_layer"]) == names
        assert result["traced_units"] == result["units"]


def test_solve_kinds_land_on_their_workloads(traced_runs):
    for name, result in traced_runs.items():
        layer = result["per_layer"]
        assert layer["sdp.solve_s.extremize"] > 0
        assert (layer["sdp.solve_s.family"] > 0) == (name == "seesaw_reference")
        assert (layer["sdp.solve_s.outer"] > 0) == (name == "seesaw_reference")
        assert layer["sdp.failed"] == 0
    headline = traced_runs["headline"]["per_layer"]
    selfs = {k: v for k, v in headline.items() if k.endswith(".self_s")}
    assert max(selfs, key=selfs.get) == "sdp.self_s"
    assert headline["aqset.problem_mb"] > 17.0
    assert traced_runs["headline"]["context"]["extremize"]["n=64 blocks=64 m=531"]["iterations"]["max"] > 0


def test_tracer_restores_every_binding():
    originals = (sdp.solve, aqset.solve, seesaw.solve, nbf.aq_extremize, seesaw.compose)
    with tracing.Tracer().installed():
        assert aqset.solve is not originals[1] and seesaw.solve is aqset.solve
        assert nbf.aq_extremize is seesaw.aq_extremize is aqset.aq_extremize
    assert (sdp.solve, aqset.solve, seesaw.solve, nbf.aq_extremize, seesaw.compose) == originals


@pytest.fixture(scope="module")
def headline_report(tmp_path_factory):
    unit = workloads.Headline(0, tmp_path_factory.mktemp("headline"))
    exit_code, _ = unit.run_unit()
    return exit_code, json.loads((unit.workdir / "reproduce_report.json").read_text())


def test_headline_gate(headline_report):
    exit_code, report = headline_report
    assert workloads.gate_headline(exit_code, report) == []
    assert workloads.gate_headline(exit_code, report, reference=-0.00325)
    assert workloads.gate_headline(1, report)
    corrupted = copy.deepcopy(report)
    corrupted["results"]["verdicts"]["second"]["is_nbf"] = False
    assert workloads.gate_headline(exit_code, corrupted)
    corrupted = copy.deepcopy(report)
    corrupted["results"]["minimum"]["value"] += 1e-5
    assert workloads.gate_headline(exit_code, corrupted)
    corrupted = copy.deepcopy(report)
    del corrupted["results"]["verdicts"]["outer"]
    assert workloads.gate_headline(exit_code, corrupted)


def test_seesaw_gate():
    good = [-0.0028589, -0.0029165, -0.0029629, -0.0030016]
    assert workloads.gate_seesaw(good, 0, 4) == []
    assert workloads.gate_seesaw(good, 0, 4, bounds={4: -0.0031})
    assert workloads.gate_seesaw(good, 1, 4)
    assert workloads.gate_seesaw([good[0], good[2], good[1], good[3]], 0, 4)
    assert workloads.gate_seesaw(good[:3], 0, 4)
    assert workloads.gate_seesaw([], 0, 4)


def test_verify_gate():
    functional = workloads.random_functionals(seed=11, count=2)[1]
    verdict = nbf.verify_nbf(functional)
    det_min, det_max = workloads.oracles.deterministic_range(functional)
    assert workloads.gate_verify(verdict, (det_min, det_max)) == []
    assert workloads.gate_verify(verdict, (verdict.aq_min - 1e-3, det_max))
    assert workloads.gate_verify(verdict, (det_min, verdict.aq_max + 1e-3))
    corrupted = copy.copy(verdict)
    z = verdict.lower_certificate.z.copy()
    z[0, 1] += 1e-3
    corrupted.lower_certificate = nbf.SosCertificate(functional.scenario, verdict.lower_certificate.target,
                                                     verdict.lower_certificate.lam, z)
    assert workloads.gate_verify(corrupted, (det_min, det_max))
    failed = nbf.NbfVerdict(None, np.nan, np.nan, None, None, 1e-6, failure="numerical_trouble")
    assert workloads.gate_verify(failed, (det_min, det_max))


def test_verify_inputs_follow_the_seed():
    a = workloads.random_functionals(seed=3, count=6)
    b = workloads.random_functionals(seed=3, count=6)
    c = workloads.random_functionals(seed=4, count=6)
    assert all(np.array_equal(x.coeffs, y.coeffs) for x, y in zip(a, b))
    assert not all(np.array_equal(x.coeffs, y.coeffs) for x, y in zip(a, c))
    assert [f.scenario.settings for f in a[:3]] == [(2, 2), (3, 3), (2, 2, 2)]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "headline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
