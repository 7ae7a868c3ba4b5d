"""Acceptance suite: one test per shipped claim, each printing a pass line
with the measured numbers at its stated tolerance."""

import math
import time

import numpy as np
import pytest

from aqbell.aqset import aq_extremize, build_moment_structure, constraint_residual
from aqbell.cli import main
from aqbell.nbf import certificate_residual, verify_nbf
from aqbell.oracles import (
    deterministic_range,
    normalized_chsh,
    quantum_value,
    three_setting_pair_model,
    trace_moment_matrix,
    tsirelson_model,
)
from aqbell.scenario import (
    BellFunctional,
    basis_size,
    enumerate_deterministic,
    evaluate,
    load_json,
    make_scenario,
)
from aqbell.sdp import SdpStatus, solve
from conftest import (
    boundary_problem,
    dual_infeasible_problem,
    ghz_model,
    lambda_max_problem,
    primal_infeasible_problem,
    solve_tight,
    trace_problem,
)
from aqbell.seesaw import SeesawConfig, run

TSIRELSON = (4.0 + 2.0 * math.sqrt(2.0)) / 8.0


def test_criterion_1_headline_reproduction(tmp_path):
    started = time.monotonic()
    code = main(["--out", str(tmp_path), "reproduce"])
    elapsed = time.monotonic() - started
    assert code == 0
    report = load_json(tmp_path / "reproduce_report.json")
    value = report["results"]["minimum"]["value"]
    gap = report["results"]["solver_gap"]
    assert -0.0038 <= value <= -0.0028
    assert gap <= 1e-7
    assert elapsed <= 60.0
    print(f"PASS criterion 1: minimum {value:+.7f} in [-0.0038, -0.0028], gap {gap:.1e}, {elapsed:.1f}s")


def test_criterion_2_nbf_verdicts(reference_trio):
    first, second, outer = reference_trio
    verdict_first = verify_nbf(first, tol=1e-6)
    assert verdict_first.is_nbf
    assert abs(verdict_first.aq_min) <= 1e-6
    assert abs(verdict_first.aq_max - 1.0) <= 1e-6
    residuals = []
    for functional, tol in ((first, 1e-6), (second, 5e-4), (outer, 5e-4)):
        verdict = verify_nbf(functional, tol=tol)
        assert verdict.is_nbf, f"verdict failed at tolerance {tol}"
        for cert in (verdict.lower_certificate, verdict.upper_certificate):
            residual = certificate_residual(cert)
            assert residual < 1e-6
            residuals.append(residual)
    print(
        "PASS criterion 2: three functionals accepted; "
        f"worst certificate residual {max(residuals):.2e} < 1e-6"
    )


def test_criterion_3_tsirelson_sandwich():
    chsh = normalized_chsh()
    sdp_value = aq_extremize(chsh, "max").value
    model_value = quantum_value(chsh, tsirelson_model())
    assert abs(sdp_value - TSIRELSON) <= 1e-6
    assert abs(model_value - TSIRELSON) <= 1e-9
    print(
        f"PASS criterion 3: set maximum {sdp_value:.9f} vs (4+2*sqrt(2))/8, "
        f"model attains within {abs(model_value - TSIRELSON):.1e}"
    )


@pytest.mark.parametrize("nmd", [(2, 2, 2), (2, 3, 2), (3, 3, 2)])
def test_criterion_4_interior_point_cross_validation(nmd):
    structure = build_moment_structure(make_scenario(*nmd))
    gamma = trace_moment_matrix(structure)
    residual = constraint_residual(structure, gamma)
    min_eig = float(np.linalg.eigvalsh(gamma).min())
    assert residual < 1e-12
    assert min_eig > 0.0
    print(f"PASS criterion 4 {nmd}: residual {residual:.1e} < 1e-12, min eigenvalue {min_eig:.3e} > 0")


def test_criterion_5_inclusion_chain(reference_trio, composed_w):
    rng = np.random.default_rng(2718)
    scn222 = make_scenario(2, 2, 2)
    scn232 = make_scenario(2, 3, 2)
    scn332 = make_scenario(3, 3, 2)
    models = {
        scn222: [tsirelson_model()],
        scn232: [three_setting_pair_model()],
        scn332: [ghz_model()],
    }
    suite = [
        ("wiring", reference_trio[0]),
        ("second generator", reference_trio[1]),
        ("outer", reference_trio[2]),
        ("normalized CHSH", normalized_chsh()),
        ("composed", composed_w),
    ]
    for i in range(2):
        suite.append((f"random 2x2x2 #{i}", BellFunctional(scn222, rng.uniform(-1, 1, basis_size(scn222)))))
        suite.append((f"random 2x3x2 #{i}", BellFunctional(scn232, rng.uniform(-1, 1, basis_size(scn232)))))
    suite.append(("random 3x3x2", BellFunctional(scn332, rng.uniform(-1, 1, basis_size(scn332)))))
    assert len(suite) >= 10
    for name, functional in suite:
        lo = aq_extremize(functional, "min").value
        hi = aq_extremize(functional, "max").value
        det_lo, det_hi = deterministic_range(functional)
        assert lo - 1e-7 <= det_lo and det_hi <= hi + 1e-7, name
        for model in models[functional.scenario]:
            q = quantum_value(functional, model)
            assert lo - 1e-7 <= q <= hi + 1e-7, name
    print(f"PASS criterion 5: {len(suite)} functionals, classical and quantum values inside the set range")


def test_criterion_6_composition_contrast(composed_w, headline):
    values = [evaluate(composed_w, v) for v in enumerate_deterministic(composed_w.scenario)]
    assert len(values) == 512
    assert min(values) >= -1e-6
    assert max(values) <= 1.0 + 1e-6
    assert headline.value < 0.0
    print(
        f"PASS criterion 6: 512 vertices in [{min(values):.6f}, {max(values):.6f}] ⊂ [0,1], "
        f"set minimum {headline.value:+.7f} < 0"
    )


def test_criterion_7_seesaw_reference():
    cfg = SeesawConfig(restarts=1, max_sweeps=20, seed=0, init_v="reference", target_value=-0.003)
    trace = run(cfg)
    values = trace.best.sweep_values
    assert all(values[i + 1] <= values[i] + 1e-8 for i in range(len(values) - 1))
    assert trace.best_value <= -0.003
    print(
        f"PASS criterion 7a: reference start descends monotonically to {trace.best_value:+.7f} "
        f"in {len(values)} sweeps"
    )


def test_criterion_7_seesaw_random_budget():
    # documented budget: 20 restarts per batch, up to 3 budget refreshes
    best = math.inf
    for refresh, seed in enumerate([7, 1007, 2007, 3007]):
        trace = run(SeesawConfig(restarts=20, max_sweeps=60, seed=seed, init_v="random"))
        best = min(best, trace.best_value)
        if best <= -0.001:
            print(
                f"PASS criterion 7b: random restart batch {refresh} reached {best:+.7f} <= -0.001 "
                f"after {len(trace.outcomes)} restarts"
            )
            return
    pytest.fail(f"no random restart reached -0.001 within the retry budget (best {best:+.7f})")


def test_criterion_8_solver_unit_suite():
    lam_max, sym = lambda_max_problem()

    sol = solve_tight(boundary_problem())
    assert sol.status == SdpStatus.OPTIMAL and abs(sol.primal_objective - 1.0) <= 1e-8
    sol = solve_tight(trace_problem())
    assert sol.status == SdpStatus.OPTIMAL and abs(sol.primal_objective - 3.0) <= 1e-8
    sol = solve_tight(lam_max)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(-sol.primal_objective - np.linalg.eigvalsh(sym).max()) <= 1e-8
    assert solve(primal_infeasible_problem()).status == SdpStatus.PRIMAL_INFEASIBLE
    assert solve(dual_infeasible_problem()).status == SdpStatus.DUAL_INFEASIBLE
    print("PASS criterion 8: five closed-form instances solved/classified at 1e-8")


def test_criterion_9_robustness_probe(tmp_path):
    code = main(["--out", str(tmp_path), "perturb", "--epsilon", "1e-4", "--trials", "2"])
    assert code == 0
    report = load_json(tmp_path / "perturb_report.json")
    perturbed = [row["minimum"] for row in report["results"]["trajectory"] if row["epsilon"] > 0]
    assert perturbed and all(v <= -0.002 for v in perturbed)
    print(
        f"PASS criterion 9: epsilon 1e-4 noise keeps the minimum at "
        f"{max(perturbed):+.7f} <= -0.002 over {len(perturbed)} trials"
    )
