import json

import numpy as np
import pytest

from aqbell import sdp
from aqbell.aqset import build_moment_structure
from aqbell.errors import ScenarioMismatchError
from aqbell.nbf import (
    NbfFamily,
    certificate_residual,
    certificate_to_json,
    compose,
    matching_wiring,
    pair_boxes,
    verify_nbf,
)
from aqbell.scenario import (
    BellFunctional,
    Scenario,
    basis_size,
    behavior_from_table,
    enumerate_deterministic,
    evaluate,
    functional_from_terms,
    representative_table,
    unit_functional,
)
from conftest import random_local_behavior


def test_reference_coefficients(reference_trio, scn232, scn222):
    first, second, outer = reference_trio
    basis232 = list(build_moment_structure(scn232).basis)
    basis222 = list(build_moment_structure(scn222).basis)
    assert first.coeffs[0] == 1.0
    assert first.coeffs[basis232.index(((0, 1, 0), (1, 1, 0)))] == 2.0
    assert second.coeffs[0] == 1.0
    assert second.coeffs[basis232.index(((1, 0, 0),))] == -0.0329
    assert outer.coeffs[0] == 0.1590
    assert outer.coeffs[basis222.index(((0, 1, 0), (1, 1, 0)))] == -0.7404


def test_reference_values_on_all_zero_vertex(reference_trio, scn232, scn222):
    second, outer = reference_trio[1], reference_trio[2]
    det232 = np.zeros(scn232.table_shape)
    det232[..., 0, 0] = 1.0
    det222 = np.zeros(scn222.table_shape)
    det222[..., 0, 0] = 1.0
    # hand sums of the printed coefficients
    assert abs(evaluate(second, behavior_from_table(scn232, det232)) - 0.3768) < 1e-12
    assert abs(evaluate(outer, behavior_from_table(scn222, det222)) - 0.0442) < 1e-12


def test_wiring_operational_definition(scn232):
    wiring = matching_wiring()
    for vertex in enumerate_deterministic(scn232):
        # outputs 0 exactly when both parties agree at setting 1
        agree = 0.0
        for a in range(2):
            agree += vertex.table[1, 1, a, a]
        assert abs(evaluate(wiring, vertex) - agree) < 1e-12


def test_verify_wiring_bounds(reference_trio):
    verdict = verify_nbf(reference_trio[0], tol=1e-6)
    assert verdict.is_nbf
    assert abs(verdict.aq_min) < 1e-6
    assert abs(verdict.aq_max - 1.0) < 1e-6
    assert certificate_residual(verdict.lower_certificate) < 1e-6
    assert certificate_residual(verdict.upper_certificate) < 1e-6


@pytest.mark.parametrize("index", [1, 2])
def test_verify_reference_functionals(reference_trio, index):
    verdict = verify_nbf(reference_trio[index], tol=5e-4)
    assert verdict.is_nbf
    assert verdict.aq_min > -5e-4
    assert verdict.aq_max < 1.0 + 5e-4


def test_accepted_functionals_bounded_on_vertices(reference_trio):
    # local boxes sit inside the set, so accepted functionals stay in range
    for functional, tol in ((reference_trio[0], 1e-6), (reference_trio[1], 5e-4), (reference_trio[2], 5e-4)):
        assert verify_nbf(functional, tol=tol).is_nbf
        for vertex in enumerate_deterministic(functional.scenario):
            value = evaluate(functional, vertex)
            assert -tol <= value <= 1.0 + tol


def test_compose_linear_in_family_member(reference_trio, scn222, scn232, rng):
    gen_a = reference_trio[1]
    gen_b = BellFunctional(scn232, rng.uniform(-0.5, 0.5, basis_size(scn232)))
    outer = reference_trio[2]
    t = 0.43

    def family_with(generator):
        return NbfFamily((reference_trio[0], generator))

    mixed_gen = BellFunctional(scn232, t * gen_a.coeffs + (1 - t) * gen_b.coeffs)
    composed_mixed = compose(outer, family_with(mixed_gen))
    ca = compose(outer, family_with(gen_a))
    cb = compose(outer, family_with(gen_b))
    assert np.abs(composed_mixed.coeffs - (t * ca.coeffs + (1 - t) * cb.coeffs)).max() < 1e-12


def test_doubled_wiring_not_normalized(reference_trio):
    wiring = reference_trio[0]
    doubled = BellFunctional(wiring.scenario, 2.0 * wiring.coeffs)
    verdict = verify_nbf(doubled, tol=5e-4)
    assert verdict.is_nbf is False
    assert abs(verdict.aq_max - 2.0) < 1e-6


def test_verify_indeterminate_on_solver_failure(reference_trio, monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERS", 1)
    verdict = verify_nbf(reference_trio[0])
    assert verdict.is_nbf is None
    assert verdict.failure


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_verify_rejects_out_of_range_tol(reference_trio, tol):
    # a NaN tolerance used to fail both bound comparisons: is_nbf False
    with pytest.raises(ValueError, match="tol must be finite"):
        verify_nbf(reference_trio[0], tol=tol)


def test_family_pairs_are_complete(reference_trio):
    wiring, second, _ = reference_trio
    fam = NbfFamily((wiring, second))
    assert fam.generators == (wiring, second)
    assert fam.scenario == wiring.scenario
    unit = unit_functional(wiring.scenario).coeffs
    for generator, (member, complement) in zip(fam.generators, fam.functionals, strict=True):
        assert member is generator
        assert np.abs(member.coeffs + complement.coeffs - unit).max() < 1e-15


def test_compose_rejects_nan_generator(reference_trio):
    wiring, second, _ = reference_trio
    coeffs = second.coeffs.copy()
    coeffs[3] = np.nan
    # a family cannot even hold a NaN generator: the functional rejects it
    with pytest.raises(ValueError, match="finite"):
        NbfFamily((wiring, BellFunctional(second.scenario, coeffs)))


@pytest.mark.parametrize("m_z", [1, 2, 4])
def test_pair_boxes_adjoint_of_compose(scn232, m_z):
    # W(p) = sum V(alpha, c | xi, z) U_(alpha|xi) . boxes[z, c] for random
    # blocks, with the third party padded to max(m_z, 3) settings
    rng = np.random.default_rng(97 + m_z)
    generators = [BellFunctional(scn232, rng.uniform(-1, 1, basis_size(scn232))) for _ in range(2)]
    outer_scenario = Scenario(2, (2, m_z), 2)
    outer = BellFunctional(outer_scenario, rng.uniform(-1, 1, basis_size(outer_scenario)))
    fam = NbfFamily(generators)
    composed = compose(outer, fam)
    assert composed.scenario.settings == (3, 3, max(m_z, 3))
    members = np.array([[f.coeffs for f in pair] for pair in fam.functionals])
    outer_table = representative_table(outer)
    for _ in range(20):
        p = random_local_behavior(composed.scenario, rng)
        boxes = pair_boxes(p, m_z)
        assert boxes.shape == (m_z, 2, basis_size(scn232))
        contracted = np.einsum("xzac,xan,zcn->", outer_table, members, boxes)
        assert abs(evaluate(composed, p) - contracted) < 1e-12


def test_compose_identity_pick(ref_family, scn222, rng):
    # outer functional = first-party marginal probability of outcome 0 at
    # setting 0: the composition reduces to the first family generator
    picker = functional_from_terms(scn222, {((0, 0, 0),): 1.0})
    composed = compose(picker, ref_family)
    wiring = ref_family.functionals[0][0]
    tri = composed.scenario
    for _ in range(20):
        p = random_local_behavior(tri, rng)
        marginal = behavior_from_table(wiring.scenario, p.table[:, :, 0].sum(axis=-1))
        assert abs(evaluate(composed, p) - evaluate(wiring, marginal)) < 1e-12


def test_compose_bilinearity(ref_family, reference_trio, scn222, rng):
    outer_a = reference_trio[2]
    outer_b = BellFunctional(scn222, rng.uniform(-1, 1, basis_size(scn222)))
    t = 0.37
    mixed = BellFunctional(scn222, t * outer_a.coeffs + (1 - t) * outer_b.coeffs)
    composed_mix = compose(mixed, ref_family)
    wa = compose(outer_a, ref_family)
    wb = compose(outer_b, ref_family)
    assert np.abs(composed_mix.coeffs - (t * wa.coeffs + (1 - t) * wb.coeffs)).max() < 1e-12


def test_compose_white_noise_value(reference_trio, ref_family, composed_w, scn232, scn222):
    # direct bilinear evaluation on white noise
    tri = composed_w.scenario
    uniform = behavior_from_table(tri, np.full(tri.table_shape, 1.0 / 8.0))
    uniform_ab = behavior_from_table(scn232, np.full(scn232.table_shape, 0.25))
    outer_table = representative_table(reference_trio[2])
    expected = 0.0
    for xi in range(2):
        for z in range(2):
            member_values = [
                evaluate(ref_family.functionals[xi][alpha], uniform_ab) for alpha in range(2)
            ]
            for alpha in range(2):
                for c in range(2):
                    expected += outer_table[xi, z, alpha, c] * member_values[alpha] * 0.5
    assert abs(evaluate(composed_w, uniform) - expected) < 1e-12


def test_composed_functional_on_vertices(composed_w):
    values = [evaluate(composed_w, v) for v in enumerate_deterministic(composed_w.scenario)]
    assert min(values) >= -1e-6
    assert max(values) <= 1.0 + 1e-6


def test_compose_rejects_incomplete_or_mismatched(ref_family, scn222, scn232):
    with pytest.raises(ValueError):
        compose(unit_functional(scn232), ref_family)  # one outer first-party setting per generator
    with pytest.raises(ValueError):
        compose(unit_functional(Scenario(2, (2, 2), 3)), ref_family)  # two outcomes only
    with pytest.raises(ScenarioMismatchError):
        NbfFamily((unit_functional(scn232), unit_functional(scn222)))


def test_composed_reference_round_trip(composed_w):
    blob = json.dumps(
        {
            "scenario": {"parties": 3, "settings": [3, 3, 3], "outcomes": 2},
            "format": "collins_gisin",
            "entries": [],
        }
    )
    assert composed_w.scenario.settings == (3, 3, 3)
    assert basis_size(composed_w.scenario) == 64
    assert json.loads(blob)["scenario"]["parties"] == 3


def test_certificate_json_round_trip(reference_trio):
    cert = verify_nbf(reference_trio[0], tol=1e-6).lower_certificate
    obj = json.loads(json.dumps(certificate_to_json(cert)))
    assert obj["scenario"] == {"parties": 2, "settings": [3, 3], "outcomes": 2}
    assert obj["lam"] == cert.lam
    assert obj["target"] == cert.target.tolist()
    # upper-triangle triplets refill the symmetric Gram matrix exactly
    z = np.zeros_like(cert.z)
    for i, j, value in obj["z"]:
        assert i <= j
        z[i, j] = z[j, i] = value
    assert np.array_equal(z, cert.z)
    # in row-major order
    cells = [(i, j) for i, j, _ in obj["z"]]
    assert cells == sorted(cells)


def test_headline_band(headline):
    assert -0.0038 <= headline.value <= -0.0028
    assert headline.solution.residuals.gap <= 1e-7
