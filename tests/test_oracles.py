import itertools
import math
import tracemalloc

import numpy as np
import pytest

from aqbell.aqset import build_moment_structure, constraint_residual, strictly_feasible_point
from aqbell.oracles import (
    behavior_from_model,
    deterministic_range,
    normalized_chsh,
    planar_qubit_model,
    quantum_model,
    quantum_value,
    three_setting_pair_model,
    trace_moment_matrix,
    tsirelson_model,
)
from aqbell.scenario import (
    BellFunctional,
    basis_size,
    functional_from_terms,
    make_scenario,
    to_collins_gisin,
    unit_functional,
)
from conftest import ghz_model, product_model

TSIRELSON = (4.0 + 2.0 * math.sqrt(2.0)) / 8.0


def test_deterministic_range_examples(scn232, reference_trio):
    wiring = reference_trio[0]
    assert deterministic_range(wiring) == (0.0, 1.0)
    chsh_lo, chsh_hi = deterministic_range(normalized_chsh())
    assert abs(chsh_lo - 0.25) < 1e-12 and abs(chsh_hi - 0.75) < 1e-12
    constant = BellFunctional(scn232, np.eye(basis_size(scn232))[0] * 0.3)
    assert deterministic_range(constant) == (0.3, 0.3)


def test_tsirelson_model_attains_bound():
    value = quantum_value(normalized_chsh(), tsirelson_model())
    assert abs(value - TSIRELSON) < 1e-9


def test_unit_functional_on_models(scn222):
    for model in (tsirelson_model(), product_model()):
        assert abs(quantum_value(unit_functional(scn222), model) - 1.0) < 1e-12


def test_product_model_factorizes(scn222):
    # a product functional evaluates to the product of marginal evaluations
    # on a product-state model
    fa = {(): 0.3, ((0, 0, 0),): 0.7, ((0, 1, 0),): -0.2}
    fb = {(): -0.4, ((1, 0, 0),): 1.1, ((1, 1, 0),): 0.5}
    product_terms = {}
    for mono_a, ca in fa.items():
        for mono_b, cb in fb.items():
            key = tuple(sorted(mono_a + mono_b))
            product_terms[key] = product_terms.get(key, 0.0) + ca * cb
    f = functional_from_terms(scn222, product_terms)

    model = product_model()
    behavior = behavior_from_model(model)
    cg = to_collins_gisin(behavior)
    basis = list(build_moment_structure(scn222).basis)
    part_a = sum(ca * cg[basis.index(mono)] for mono, ca in fa.items())
    part_b = sum(cb * cg[basis.index(mono)] for mono, cb in fb.items())
    assert abs(quantum_value(f, model) - part_a * part_b) < 1e-12


def test_model_validation_rejects_bad_projectors(scn222):
    good = tsirelson_model()
    broken = [[list(map(np.array, setting)) for setting in party] for party in good.projectors]
    broken[0][0][0] = broken[0][0][0] * 0.5  # no longer idempotent
    with pytest.raises(ValueError):
        quantum_model(scn222, good.dims, broken, good.state)


def test_model_behaviors_are_valid():
    for model in (tsirelson_model(), three_setting_pair_model(), ghz_model(), product_model()):
        behavior = behavior_from_model(model)
        sums = behavior.table.sum(axis=tuple(range(model.scenario.parties, 2 * model.scenario.parties)))
        assert np.abs(sums - 1.0).max() < 1e-12


@pytest.mark.parametrize("nmd", [(2, 2, 2), (2, 3, 2), (3, 3, 2)])
def test_trace_matrix_agrees_with_counting_formula(nmd):
    structure = build_moment_structure(make_scenario(*nmd))
    numeric = trace_moment_matrix(structure)
    analytic = strictly_feasible_point(structure)
    assert np.abs(numeric - analytic).max() < 1e-12
    assert constraint_residual(structure, numeric) < 1e-12
    assert np.linalg.eigvalsh(numeric).min() > 0.0
    assert numeric[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_trace_matrix_builds_no_full_space_operator():
    # one monomial operator on the whole (3,3,2) space is 512 x 512 doubles
    # (2.1 MB), and the stack of all 64 of them 134 MB
    structure = build_moment_structure(make_scenario(3, 3, 2))
    tracemalloc.start()
    try:
        trace_moment_matrix(structure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_trace_matrix_entry_example(scn222):
    structure = build_moment_structure(scn222)
    gamma = trace_moment_matrix(structure)
    basis = list(structure.basis)
    e = basis.index(((0, 0, 0),))
    f = basis.index(((1, 0, 0),))
    assert abs(gamma[e, f] - 0.25) < 1e-14


def test_planar_model_angles_shape():
    scn = make_scenario(2, 2, 2)
    state = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    model = planar_qubit_model(scn, [[0.0, 1.0], [0.5, 2.0]], state)
    behavior = behavior_from_model(model)
    for x, y in itertools.product(range(2), range(2)):
        assert abs(behavior.table[x, y].sum() - 1.0) < 1e-12
