import dataclasses

import numpy as np
import pytest

from aqbell.cli import main
from aqbell.scenario import (
    Scenario,
    functional_from_json,
    functional_from_terms,
    functional_to_json,
    load_json,
    save_json,
)


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    assert run_cli("--out", out, "dump-reference") == 0
    return out


def test_dump_reference_files(reference_dir):
    for name in ("reference_first", "reference_second", "reference_outer", "reference_composed"):
        assert (reference_dir / f"{name}.json").exists()
    report = load_json(reference_dir / "dump-reference_report.json")
    assert report["command"] == "dump-reference"
    assert report["tool_version"]


def test_verify_accepts_reference(reference_dir, tmp_path):
    code = run_cli("--out", tmp_path, "verify", reference_dir / "reference_second.json", "--tol", "5e-4")
    assert code == 0
    report = load_json(tmp_path / "verify_report.json")
    assert report["results"]["is_nbf"] is True
    assert report["results"]["aq_min"]["tolerance"] == 5e-4
    assert (tmp_path / "lower_certificate.json").exists()
    assert (tmp_path / "upper_certificate.json").exists()


def test_verify_rejects_doubled(reference_dir, tmp_path):
    doubled = functional_from_json(load_json(reference_dir / "reference_first.json"))
    from aqbell.scenario import BellFunctional

    doubled = BellFunctional(doubled.scenario, 2.0 * doubled.coeffs)
    path = tmp_path / "doubled.json"
    save_json(path, functional_to_json(doubled))
    assert run_cli("--out", tmp_path, "verify", path) == 1


def test_verify_malformed_input(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("--out", tmp_path, "verify", path) == 2
    assert run_cli("--out", tmp_path, "verify", tmp_path / "missing.json") == 2
    # a NaN constant coefficient is malformed input, not a verdict
    nan_path = tmp_path / "nan.json"
    save_json(nan_path, {
        "scenario": {"parties": 2, "settings": [2, 2], "outcomes": 2},
        "entries": [{"monomial": [], "coeff": float("nan")}],
    })
    assert run_cli("--out", tmp_path, "verify", nan_path) == 2
    assert run_cli("--out", tmp_path, "aq", "min", nan_path) == 2
    # so is a tolerance that is not finite, or negative, or zero for a solve
    assert run_cli("--out", tmp_path, "verify", nan_path, "--tol", "nan") == 2
    assert run_cli("--out", tmp_path, "aq", "min", nan_path, "--tol", "-1") == 2
    assert run_cli("--out", tmp_path, "reproduce", "--tol", "nan") == 2
    # JSON values of the wrong type are input errors too, not "claim fails"
    scenario = {"parties": 2, "settings": [2, 2], "outcomes": 2}
    half = [{"monomial": [], "coeff": 0.5}]
    for name, blob in (
        ("null_coeff", {"scenario": scenario, "entries": [{"monomial": [], "coeff": None}]}),
        ("int_entries", {"scenario": scenario, "entries": 5}),
        ("top_level_list", []),
        # index fields must be integers and coefficients numbers, neither a
        # bool: int() and float() would read these as a different functional
        ("float_settings", {"scenario": {**scenario, "settings": [2.9, 2]}, "entries": half}),
        ("float_outcomes", {"scenario": {**scenario, "outcomes": 2.5}, "entries": half}),
        ("float_letter", {"scenario": scenario, "entries": [{"monomial": [[0, 1.7, 0]], "coeff": 0.5}]}),
        ("bool_party", {"scenario": scenario, "entries": [{"monomial": [[True, 0, 0]], "coeff": 0.5}]}),
        ("bool_coeff", {"scenario": scenario, "entries": [{"monomial": [], "coeff": True}]}),
        # and an index outside the scenario is malformed too, not a traceback
        ("negative_party", {"scenario": scenario, "format": "full",
                            "entries": [{"monomial": [[-1, 0, 0], [1, 0, 0]], "coeff": 0.5}]}),
        ("setting_out_of_range", {"scenario": scenario, "format": "full",
                                  "entries": [{"monomial": [[0, 5, 0], [1, 0, 0]], "coeff": 0.5}]}),
        # a full-format letter per party, each party once: no silent overwrite
        ("repeated_party", {"scenario": scenario, "format": "full",
                            "entries": [{"monomial": [[0, 0, 0], [0, 1, 0]], "coeff": 0.5}]}),
        # a scenario whose basis maps exceed the guard is refused before
        # allocation, in either format
        ("huge_settings", {"scenario": {**scenario, "settings": [1000, 1000]}, "entries": half}),
        ("huge_full_table", {"scenario": {**scenario, "settings": [10**6, 10**6]}, "format": "full",
                             "entries": [{"monomial": [[0, 0, 0], [1, 0, 0]], "coeff": 0.5}]}),
    ):
        typed = tmp_path / f"{name}.json"
        save_json(typed, blob)
        assert run_cli("--out", tmp_path, "verify", typed) == 2, name
        assert run_cli("--out", tmp_path, "aq", "min", typed) == 2, name


def test_unusable_out_is_an_input_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert run_cli("--out", blocker, "dump-reference") == 2
    assert run_cli("--out", blocker / "sub", "compose") == 2
    assert blocker.read_text() == "not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]


def test_each_command_writes_its_artifacts_and_report(reference_dir, tmp_path):
    first = reference_dir / "reference_first.json"
    expected = {
        ("dump-reference",): {
            "reference_first.json", "reference_second.json", "reference_outer.json",
            "reference_composed.json", "dump-reference_report.json",
        },
        ("verify", first): {"lower_certificate.json", "upper_certificate.json", "verify_report.json"},
        ("aq", "min", first): {"aq_min_behavior.json", "aq_min_certificate.json", "aq_min_report.json"},
        ("compose",): {"composed.json", "compose_report.json"},
        ("reproduce",): {"reproduce_behavior.json", "reproduce_certificate.json", "reproduce_report.json"},
        ("perturb", "--epsilon", 0): {"perturb_report.json"},
        ("seesaw", "run", "--restarts", 1, "--sweeps", 1, "--target=-1"): {
            "seesaw_trace.json", "seesaw_run_report.json",
        },
        ("oracle",): {"oracle_report.json"},
    }
    for index, (argv, files) in enumerate(expected.items()):
        out = tmp_path / str(index) / "out"  # parents are created too
        assert run_cli("--out", out, *argv) == 0, argv
        assert {p.name for p in out.iterdir()} == files, argv


def test_aq_min_of_wiring(reference_dir, tmp_path):
    code = run_cli("--out", tmp_path, "aq", "min", reference_dir / "reference_first.json")
    assert code == 0
    report = load_json(tmp_path / "aq_min_report.json")
    assert abs(report["results"]["value"]["value"]) < 1e-6
    assert report["results"]["reduction"] is None
    assert (tmp_path / "aq_min_behavior.json").exists()
    assert (tmp_path / "aq_min_certificate.json").exists()


def test_aq_numerical_breakdown_exits_3(reference_dir, tmp_path, monkeypatch, capsys):
    from aqbell import aqset

    def broken_solve(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    # LinAlgError subclasses ValueError, which alone would map to exit 2
    monkeypatch.setattr(aqset, "solve", broken_solve)
    code = run_cli("--out", tmp_path, "aq", "min", reference_dir / "reference_first.json")
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_verify_indeterminate_writes_report(reference_dir, tmp_path, monkeypatch, capsys):
    from aqbell import aqset
    from aqbell.sdp import SdpStatus

    real_solve = aqset.solve

    def stalled(problem, config):
        solution = real_solve(problem, config)
        return dataclasses.replace(solution, status=SdpStatus.NUMERICAL_TROUBLE, message="stalled")

    monkeypatch.setattr(aqset, "solve", stalled)
    code = run_cli("--out", tmp_path, "verify", reference_dir / "reference_first.json")
    assert code == 3
    captured = capsys.readouterr()
    assert "stalled" in captured.err and not captured.out
    results = load_json(tmp_path / "verify_report.json")["results"]
    assert results["is_nbf"] is None
    assert results["failure"] == "numerical_trouble: stalled"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_overflow_exits_3_without_warnings(tmp_path):
    # a coefficient near 1e300 overflows the solver's norms; the solve
    # classifies the non-finite iterate itself, and numpy warns of nothing
    huge = {
        "scenario": {"parties": 2, "settings": [2, 2], "outcomes": 2},
        "entries": [{"monomial": [[0, 0, 0]], "coeff": 1e300}],
    }
    save_json(tmp_path / "huge_coeff.json", huge)
    assert run_cli("--out", tmp_path, "verify", tmp_path / "huge_coeff.json") == 3
    results = load_json(tmp_path / "verify_report.json")["results"]
    assert results["is_nbf"] is None
    assert results["failure"] == "numerical_trouble: non-finite iterate"


def test_compose_default_matches_library(tmp_path, composed_w):
    assert run_cli("--out", tmp_path, "compose") == 0
    written = functional_from_json(load_json(tmp_path / "composed.json"))
    np.testing.assert_allclose(written.coeffs, composed_w.coeffs, atol=1e-15)


def test_compose_explicit_inputs(reference_dir, tmp_path, composed_w):
    code = run_cli(
        "--out", tmp_path, "compose",
        "--u", reference_dir / "reference_first.json",
        "--u", reference_dir / "reference_second.json",
        "--v", reference_dir / "reference_outer.json",
    )
    assert code == 0
    written = load_json(tmp_path / "composed.json")
    assert written["entries"] == load_json(reference_dir / "reference_composed.json")["entries"]
    np.testing.assert_allclose(functional_from_json(written).coeffs, composed_w.coeffs, atol=1e-15)


def test_compose_digests_file_contents(reference_dir, tmp_path):
    # the same paths with different contents are different inputs
    outer = load_json(reference_dir / "reference_outer.json")
    argv = [
        "compose", "--u", reference_dir / "reference_first.json",
        "--u", reference_dir / "reference_second.json", "--v", tmp_path / "v.json",
    ]
    digests = []
    for coeff in (outer["entries"][0]["coeff"], 0.25):
        outer["entries"][0]["coeff"] = coeff
        save_json(tmp_path / "v.json", outer)
        assert run_cli("--out", tmp_path / "out", *argv) == 0
        digests.append(load_json(tmp_path / "out" / "compose_report.json")["inputs_digest"])
    assert digests[0] != digests[1]


def test_compose_pads_third_party_to_family_settings(reference_dir, tmp_path):
    # an outer functional with four second-party settings: the third party
    # gets max(4, 3) settings, the outer's on 0..3
    outer = functional_from_terms(Scenario(2, (2, 4), 2), {(): 0.5, ((1, 3, 0),): 0.25})
    save_json(tmp_path / "outer4.json", functional_to_json(outer))
    code = run_cli(
        "--out", tmp_path, "compose",
        "--u", reference_dir / "reference_first.json",
        "--u", reference_dir / "reference_second.json",
        "--v", tmp_path / "outer4.json",
    )
    assert code == 0
    written = functional_from_json(load_json(tmp_path / "composed.json"))
    assert written.scenario == Scenario(3, (3, 3, 4), 2)
    assert written.coeffs[0] == 0.5


def test_seesaw_zero_restarts(tmp_path):
    assert run_cli("--out", tmp_path, "seesaw", "run", "--restarts", 0) == 2
    assert run_cli("--out", tmp_path, "seesaw", "run", "--restarts", 1, "--sweeps", 0) == 2
    # a target that is not finite is an input error, and writes no report
    for target in ("nan", "inf", "-inf"):
        assert run_cli("--out", tmp_path, "seesaw", "run", "--restarts", 1, "--sweeps", 1, f"--target={target}") == 2
    assert not (tmp_path / "seesaw_run_report.json").exists()


def test_seesaw_input_errors_quote_the_value(tmp_path, monkeypatch, capsys):
    for argv, needs in (
        (("--restarts", -2), "at least one restart, got -2"),
        (("--restarts", 1, "--sweeps", -3), "at least one sweep, got -3"),
    ):
        assert run_cli("--out", tmp_path, "seesaw", "run", *argv) == 2
        err = capsys.readouterr().err
        assert needs in err, err
    monkeypatch.setenv("AQ_NR_THREADS", "abc")
    assert run_cli("--out", tmp_path, "seesaw", "run", "--restarts", 1, "--sweeps", 1, "--target=-1") == 2
    err = capsys.readouterr().err
    assert "AQ_NR_THREADS" in err and "'abc'" in err, err
    assert not (tmp_path / "seesaw_run_report.json").exists()


def test_seesaw_reference_run(tmp_path):
    code = run_cli(
        "--out", tmp_path, "seesaw", "run", "--init", "reference", "--restarts", 1,
        "--sweeps", 8, "--target", "-0.003",
    )
    assert code == 0
    trace = load_json(tmp_path / "seesaw_trace.json")
    assert trace["best"]["value"] <= -0.003
    report = load_json(tmp_path / "seesaw_run_report.json")
    assert report["results"]["target_reached"] is True


def test_seesaw_reports_target_missed(tmp_path):
    code = run_cli(
        "--out", tmp_path, "seesaw", "run", "--init", "reference", "--restarts", 1,
        "--sweeps", 2, "--target", "-1.0",
    )
    assert code == 0
    report = load_json(tmp_path / "seesaw_run_report.json")
    assert report["results"]["target_reached"] is False


def test_perturb_exploratory_regime(tmp_path):
    # above the claim regime the probe only reports
    assert run_cli("--out", tmp_path, "perturb", "--epsilon", "1e-2", "--trials", 1) == 0
    report = load_json(tmp_path / "perturb_report.json")
    assert report["results"]["claim_checked"] is False
    assert report["results"]["claim_holds"] is None


def test_reproduce_tighter_tolerance(tmp_path, headline):
    assert run_cli("--out", tmp_path, "reproduce", "--tol", "1e-9") == 0
    report = load_json(tmp_path / "reproduce_report.json")
    assert abs(report["results"]["minimum"]["value"] - headline.value) < 1e-7
    assert report["results"]["solver_gap"] <= 1e-9


def test_oracle_command(tmp_path, capsys):
    assert run_cli("--out", tmp_path, "oracle") == 0
    out = capsys.readouterr().out
    assert "normalized CHSH" in out


def test_reproduce(tmp_path):
    assert run_cli("--out", tmp_path, "reproduce") == 0
    report = load_json(tmp_path / "reproduce_report.json")
    value = report["results"]["minimum"]["value"]
    assert -0.0038 <= value <= -0.0028
    assert report["results"]["in_band"] is True
    # the composition is solved over the symmetric and antisymmetric blocks
    # of the swap of parties 0 and 1
    assert report["results"]["reduction"] == {"parties": [0, 1], "blocks": [30, 18], "constraints": 156}
    assert (tmp_path / "reproduce_behavior.json").exists()
    assert (tmp_path / "reproduce_certificate.json").exists()


def test_perturb_zero_epsilon_matches_reproduce(tmp_path, headline):
    assert run_cli("--out", tmp_path, "perturb", "--epsilon", 0) == 0
    report = load_json(tmp_path / "perturb_report.json")
    rows = report["results"]["trajectory"]
    assert len(rows) == 1
    assert rows[0]["minimum"] == headline.value


def test_perturb_epsilon_out_of_range(tmp_path):
    assert run_cli("--out", tmp_path, "perturb", "--epsilon", 0.5) == 2
    # zero trials would report a claim checked on nothing
    assert run_cli("--out", tmp_path, "perturb", "--epsilon", "1e-4", "--trials", 0) == 2


def test_reports_replayable(reference_dir, tmp_path_factory):
    out_a = tmp_path_factory.mktemp("rep_a")
    out_b = tmp_path_factory.mktemp("rep_b")
    assert run_cli("--out", out_a, "verify", reference_dir / "reference_first.json") == 0
    assert run_cli("--out", out_b, "verify", reference_dir / "reference_first.json") == 0
    rep_a = load_json(out_a / "verify_report.json")
    rep_b = load_json(out_b / "verify_report.json")
    rep_a.pop("wall_time_s")
    rep_b.pop("wall_time_s")
    assert rep_a == rep_b
