import itertools
import tracemalloc

import numpy as np
import pytest

from aqbell import aqset, sdp
from aqbell.algebra import word_classes
from aqbell.aqset import (
    aq_extremize,
    build_moment_structure,
    class_sums,
    compile_extremize,
    constraint_residual,
    indicator_problem,
    restrict_to_touched,
    scatter,
    strictly_feasible_point,
)
from aqbell.errors import ScenarioMismatchError, SizeGuardError
from aqbell.nbf import certificate_residual, random_wiring, verify_nbf
from aqbell.oracles import deterministic_range, normalized_chsh
from aqbell.seesaw import _cone_pair_problem
from aqbell.scenario import (
    BellFunctional,
    Scenario,
    basis,
    basis_size,
    evaluate,
    functional_from_terms,
    make_scenario,
    to_collins_gisin,
    unit_functional,
)
from aqbell.sdp import SdpStatus, check_certificate, solve
from conftest import sdp_problem, triplets

TSIRELSON = (4.0 + 2.0 * np.sqrt(2.0)) / 8.0


def test_structure_sizes():
    assert build_moment_structure(make_scenario(2, 3, 2)).size == 16
    assert build_moment_structure(make_scenario(3, 3, 2)).size == 64
    st = build_moment_structure(make_scenario(2, 2, 2))
    assert st.size == 9
    assert len(st.classes) == 17
    # three outcomes: the only scenario family here with orthogonal cells
    st = build_moment_structure(make_scenario(2, 2, 3))
    assert st.size == 25
    assert len(st.classes) == 97
    assert (st.cell_class < 0).sum() == 184


def test_structure_class_example(scn222):
    st = build_moment_structure(scn222)
    basis = list(st.basis)
    e = basis.index(((0, 0, 0),))
    f = basis.index(((1, 0, 0),))
    ef = basis.index(((0, 0, 0), (1, 0, 0)))
    assert st.cell_class[e, f] == st.cell_class[0, ef]
    # first-row cells define each monomial's class
    for j in range(st.size):
        assert st.cell_class[0, j] == st.monomial_class[j]
        assert st.cell_class[j, j] == st.monomial_class[j]
    assert list(st.class_size) == [(st.cell_class == k).sum() for k in range(len(st.classes))]


@pytest.mark.parametrize("spec, slots", [((2, 2, 2), 2), ((2, 3, 2), 2), ((3, 3, 2), 1), ((2, 2, 3), 2)])
def test_problems_match_per_class_loop(spec, slots, rng):
    # reference: every stack row and objective cell written class by class
    # from the word partition itself
    scn = make_scenario(*spec)
    monomials = list(basis(scn).monomials)
    class_map = word_classes(scn)
    cells = [tuple(zip(*class_cells)) for class_cells in class_map.values()]
    mono = [monomials.index(w) if w in monomials else None for w in class_map]
    class_of = {j: k for k, j in enumerate(mono) if j is not None}
    n, n_classes = len(monomials), len(cells)
    st = build_moment_structure(scn)

    f = BellFunctional(scn, rng.uniform(-1, 1, n))
    problem = compile_extremize(st, f, "max").problem
    stack = np.zeros((n_classes - 1, n, n))
    b = np.zeros(n_classes - 1)
    for k in range(1, n_classes):
        rows, cols = cells[k]
        stack[k - 1, rows, cols] = 1.0
        if mono[k] is not None:
            b[k - 1] = -f.coeffs[mono[k]]
    c = np.zeros((n, n))
    c[0, 0] = 1.0
    assert np.array_equal(problem.c_blocks[0], c)
    assert np.array_equal(problem.a_stacks[0], stack)
    assert np.array_equal(problem.b, b)
    del problem, stack

    objectives = [rng.uniform(-1, 1, n) for _ in range(slots)]
    problem, reduction = _cone_pair_problem(st, objectives)
    assert reduction is None
    mixed = [k for k in range(n_classes) if mono[k] is None]
    pinned = 2 * slots * len(mixed)
    m = pinned + slots * n
    assert problem.block_dims == (n,) * (2 * slots)
    b = np.zeros(m)
    for blk in range(2 * slots):
        slot = blk // 2
        stack = np.zeros((m, n, n))
        for q, k in enumerate(mixed):
            rows, cols = cells[k]
            stack[blk * len(mixed) + q, rows, cols] = 1.0
        c = np.zeros((n, n))
        for j in range(n):
            rows, cols = cells[class_of[j]]
            stack[pinned + slot * n + j, rows, cols] = 1.0
            b[pinned + slot * n + j] = 1.0 if j == 0 else 0.0
            if blk % 2 == 0:
                c[rows, cols] = objectives[slot][j]
        assert np.array_equal(problem.a_stacks[blk], stack)
        assert np.array_equal(problem.c_blocks[blk], c)
    assert np.array_equal(problem.b, b)


@pytest.mark.parametrize("spec", [(2, 2, 2), (2, 3, 2), (2, 2, 3)])
def test_scatter_is_adjoint_of_class_sums(spec, rng):
    st = build_moment_structure(make_scenario(*spec))
    for _ in range(3):
        v = rng.standard_normal(len(st.classes))
        z = rng.standard_normal((st.size, st.size))
        spread = scatter(st, v)
        assert abs(np.sum(spread * z) - v @ class_sums(st, z)) < 1e-12
        assert not spread[st.cell_class < 0].any()


def test_party_guard():
    with pytest.raises(SizeGuardError):
        build_moment_structure(Scenario(4, (2, 2, 2, 2), 2))


def test_compiled_constraint_count(scn222):
    st = build_moment_structure(scn222)
    compiled = compile_extremize(st, unit_functional(scn222), "min")
    # one scatter constraint per non-identity class; as pairwise equalities
    # on a symmetric 9x9 matrix this is 81 cells - 17 classes = 64
    assert compiled.problem.num_constraints == len(st.classes) - 1 == 16
    assert st.size**2 - len(st.classes) == 64


def test_extremize_constant_functionals(scn222):
    unit = unit_functional(scn222)
    assert abs(aq_extremize(unit, "min").value - 1.0) < 1e-7
    assert abs(aq_extremize(unit, "max").value - 1.0) < 1e-7
    zero = BellFunctional(scn222, np.zeros(basis_size(scn222)))
    assert abs(aq_extremize(zero, "min").value) < 1e-7


def test_extremize_single_probability(scn222):
    f = functional_from_terms(scn222, {((0, 0, 0), (1, 0, 0)): 1.0})
    lo = aq_extremize(f, "min")
    hi = aq_extremize(f, "max")
    assert abs(lo.value) < 1e-7
    assert abs(hi.value - 1.0) < 1e-7


def test_extremize_chsh_tsirelson():
    chsh = normalized_chsh()
    hi = aq_extremize(chsh, "max")
    assert abs(hi.value - TSIRELSON) < 1e-6
    assert abs(evaluate(chsh, hi.behavior) - hi.value) < 1e-7


def test_wiring_floor(scn232):
    wiring = functional_from_terms(
        scn232,
        {(): 1.0, ((0, 1, 0),): -1.0, ((1, 1, 0),): -1.0, ((0, 1, 0), (1, 1, 0)): 2.0},
    )
    assert abs(aq_extremize(wiring, "min").value) < 1e-7


def test_classical_range_inside_aq(scn222, rng):
    for scn in (scn222, make_scenario(2, 2, 3)):
        for _ in range(4):
            f = BellFunctional(scn, rng.uniform(-1, 1, basis_size(scn)))
            det_lo, det_hi = deterministic_range(f)
            lo = aq_extremize(f, "min").value
            hi = aq_extremize(f, "max").value
            assert lo - 1e-7 <= det_lo and det_hi <= hi + 1e-7


def test_extracted_behavior_consistency(scn232, rng):
    f = BellFunctional(scn232, rng.uniform(-1, 1, basis_size(scn232)))
    ext = aq_extremize(f, "min")
    # reconstruction is exactly no-signalling; value matches the behavior
    assert abs(evaluate(f, ext.behavior) - ext.value) < 1e-7
    marg = ext.behavior.table.sum(axis=(2, 3))
    assert np.abs(marg - 1.0).max() < 1e-12


def test_certificate_scatter_matches_moments(scn222, rng):
    # (2,2,3) has orthogonal cells, which the moment matrix must keep at 0
    for scn in (scn222, make_scenario(2, 2, 3)):
        f = BellFunctional(scn, rng.uniform(-1, 1, basis_size(scn)))
        st = build_moment_structure(scn)
        ext = aq_extremize(f, "min")
        # the moments are the negated dual multipliers
        gamma = scatter(st, np.concatenate(([1.0], -ext.solution.y)))
        assert constraint_residual(st, gamma) < 1e-12
        # the behavior is read off the first row
        np.testing.assert_allclose(to_collins_gisin(ext.behavior), gamma[0], atol=1e-12)
        assert np.linalg.eigvalsh(gamma).min() > -1e-8


def test_strictly_feasible_point_values(scn232):
    st = build_moment_structure(scn232)
    gamma = strictly_feasible_point(st)
    basis = list(st.basis)
    e00 = basis.index(((0, 0, 0),))
    e01 = basis.index(((0, 1, 0),))
    f00 = basis.index(((1, 0, 0),))
    ef = basis.index(((0, 0, 0), (1, 0, 0)))
    assert gamma[e00, e00] == 0.5
    assert gamma[e00, e01] == 0.25
    assert gamma[e00, f00] == 0.25
    assert gamma[e00, f00] == gamma[0, ef]
    assert constraint_residual(st, gamma) == 0.0
    assert np.linalg.eigvalsh(gamma).min() > 0.0
    gamma[e00, e01] = np.nan
    with np.errstate(invalid="ignore"):
        assert np.isnan(constraint_residual(st, gamma))


def test_single_party_scenario_matches_classical(rng):
    scn = make_scenario(1, 2, 2)
    f = BellFunctional(scn, rng.uniform(-1, 1, basis_size(scn)))
    det_lo, det_hi = deterministic_range(f)
    assert abs(aq_extremize(f, "min").value - det_lo) < 1e-7
    assert abs(aq_extremize(f, "max").value - det_hi) < 1e-7


def test_scenario_mismatch(scn222, scn232):
    st = build_moment_structure(scn222)
    with pytest.raises(ScenarioMismatchError):
        compile_extremize(st, unit_functional(scn232), "min")
    with pytest.raises(ValueError):
        compile_extremize(st, unit_functional(scn222), "upward")


def assert_matches_full_solve(f, sense, ext, dropped):
    """``ext`` (from the pruned extremizer) against the unpruned solve of
    ``f``, built from the full moment structure; ``dropped`` lists the
    (party, setting) pairs the functional does not touch."""
    assert restrict_to_touched(f)[0].scenario != f.scenario
    st = build_moment_structure(f.scenario)
    compiled = compile_extremize(st, f, sense)
    full = solve(compiled.problem)
    bound = compiled.target[0] - full.primal_objective
    assert abs(ext.value - (bound if sense == "min" else -bound)) < 1e-7
    assert abs(evaluate(f, ext.behavior) - ext.value) < 1e-7
    n, d = f.scenario.parties, f.scenario.outcomes
    for party, setting in dropped:
        at = tuple(setting if k == party else 0 for k in range(n))
        marginal = ext.behavior.table[at].sum(axis=tuple(k for k in range(n) if k != party))
        np.testing.assert_allclose(marginal, np.eye(d)[d - 1], atol=1e-12)
    assert ext.certificate.z.shape == (st.size, st.size)
    assert certificate_residual(ext.certificate) <= 1e-6


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize("spec", [(2, 2, 2), (2, 3, 2), (2, 2, 3)])
def test_pruned_extremum_matches_full_solve(spec, sense, rng):
    scn = make_scenario(*spec)
    settings = basis(scn).settings
    for party in range(scn.parties):
        setting = int(rng.integers(scn.settings[party]))
        f = BellFunctional(scn, rng.uniform(-1, 1, basis_size(scn)) * (settings[:, party] != setting))
        assert_matches_full_solve(f, sense, aq_extremize(f, sense), [(party, setting)])


def test_pruned_extremum_of_party_without_touched_setting(scn232, rng):
    # only Alice's letters carry coefficients: Bob keeps setting 0
    f = BellFunctional(scn232, rng.uniform(-1, 1, basis_size(scn232)) * (basis(scn232).settings[:, 1] < 0))
    restricted, keep = restrict_to_touched(f)
    assert restricted.scenario.settings == (3, 1)
    assert np.array_equal(f.coeffs[keep], restricted.coeffs)
    for sense in ("min", "max"):
        assert_matches_full_solve(f, sense, aq_extremize(f, sense), [(1, 1), (1, 2)])


def test_pruned_extremum_of_reference_composition(composed_w, headline):
    restricted, keep = restrict_to_touched(composed_w)
    assert restricted.scenario.settings == (3, 3, 2)
    assert len(keep) == build_moment_structure(restricted.scenario).size == 48
    assert headline.solution.x_blocks[0].shape == (48, 48)
    assert_matches_full_solve(composed_w, "min", headline, [(2, 2)])


def test_nothing_to_prune_returns_functional(scn222, rng):
    f = BellFunctional(scn222, rng.uniform(-1, 1, basis_size(scn222)))
    restricted, keep = restrict_to_touched(f)
    assert restricted is f
    assert np.array_equal(keep, np.arange(basis_size(scn222)))


def swap_permutation(scenario, p, q):
    """Basis index of each monomial's image when parties p and q swap."""
    index = basis(scenario).index
    rename = {p: q, q: p}
    return np.array([
        index[tuple(sorted((rename.get(k, k), x, a) for k, x, a in mono))] for mono in basis(scenario).monomials
    ])


def unreduced_problem(structure, target):
    """The one-block problem: one indicator row per non-identity class."""
    n, m = structure.size, len(structure.classes) - 1
    # constraint k - 1 is the 0/1 indicator of class k
    stack = (structure.cell_class == np.arange(1, m + 1)[:, None, None]).astype(float)
    b = np.zeros(m)
    b[structure.monomial_class[1:] - 1] = target[1:]
    c = np.zeros((n, n))
    c[0, 0] = 1.0
    return sdp_problem((n,), (c,), (triplets(stack),), b)


def assert_matches_unreduced_solve(f, sense, ext, generators):
    """``ext`` was solved over the character blocks of the group of
    ``generators``, and is a solution of the one-block problem with the same
    value."""
    restricted, _ = restrict_to_touched(f)
    st = build_moment_structure(restricted.scenario)
    compiled = compile_extremize(st, restricted, sense)
    assert compiled.reduction.symmetry.generators == generators
    assert ext.reduction == {
        "generators": aqset._describe(compiled.reduction.symmetry.generators),
        "blocks": list(compiled.problem.block_dims),
        "constraints": compiled.problem.num_constraints,
    }
    assert len(compiled.problem.block_dims) == 2 ** len(generators)
    assert sum(compiled.problem.block_dims) == st.size
    problem = unreduced_problem(st, compiled.target)
    full = solve(problem)
    bound = compiled.target[0] - full.primal_objective
    assert abs(ext.value - (bound if sense == "min" else -bound)) < 1e-8
    assert ext.solution.x_blocks[0].shape == (st.size, st.size)
    assert check_certificate(problem, ext.solution).passed
    # the moments, hence the behavior, are invariant under every generator:
    # T^T Gamma T = Gamma for its monomial map T (a permutation for a swap)
    gamma = scatter(st, np.concatenate(([1.0], -ext.solution.y)))
    for kind, arg in generators:
        if kind == "swap":
            perm = swap_permutation(st.scenario, *arg)
            assert np.array_equal(gamma, gamma[np.ix_(perm, perm)])
        else:
            t = aqset._monomial_map(st, (kind, arg))
            assert np.abs(t.T @ gamma @ t - gamma).max() <= 1e-15
    assert constraint_residual(st, gamma) < 1e-12
    assert certificate_residual(ext.certificate) <= 1e-8


SWAP = ("swap", (0, 1))
FLIP = ("flip", ((0, 1), (1, 1)))  # the joint outcome flip of A's and B's setting 1


@pytest.mark.parametrize("sense", ["min", "max"])
def test_reduced_extremum_of_reference_composition(composed_w, headline, sense):
    ext = headline if sense == "min" else aq_extremize(composed_w, sense)
    assert ext.reduction == {
        "generators": [{"swap": [0, 1]}, {"flip": [[0, 1], [1, 1]]}],
        "blocks": [21, 9, 9, 9],
        "constraints": 89,
    }
    assert_matches_unreduced_solve(composed_w, sense, ext, (SWAP, FLIP))


def perturbed_composition(composed_w, monomial):
    """The restricted composition with the coefficient of ``monomial``
    (letters (party, setting, outcome)) moved by 1e-9."""
    restricted, _ = restrict_to_touched(composed_w)
    coeffs = restricted.coeffs.copy()
    coeffs[basis(restricted.scenario).index[monomial]] += 1e-9
    return BellFunctional(restricted.scenario, coeffs)


def test_swap_bases_are_orthonormal(composed_w):
    # a coefficient that only the flip moves leaves the order-2 swap record,
    # whose bases are orthogonal 0/+-1 columns e_i and e_i +- e_j
    f = perturbed_composition(composed_w, ((0, 1, 0), (1, 1, 0)))
    st = build_moment_structure(f.scenario)
    compiled = compile_extremize(st, f, "min")
    symmetry = compiled.reduction.symmetry
    assert symmetry.generators == (SWAP,)
    perm = swap_permutation(st.scenario, 0, 1)
    assert np.array_equal(aqset._monomial_map(st, SWAP)[perm, np.arange(st.size)], np.ones(st.size))
    u = np.hstack([w / np.linalg.norm(w, axis=0) for w, _, _ in symmetry.bases])
    np.testing.assert_allclose(u.T @ u, np.eye(st.size), atol=1e-15)
    # symmetric columns are fixed by the swap, antisymmetric ones negated;
    # U = W diag(1 / |w_c|) acts through scale = 1 / (|w_c| |w_c'|), and the
    # dual basis of an orthonormal basis is itself
    for (w, scale, q), sign in zip(symmetry.bases, (1.0, -1.0), strict=True):
        assert set(np.unique(w)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(w[perm], sign * w)
        norms = np.linalg.norm(w, axis=0)
        np.testing.assert_allclose(scale, 1.0 / np.outer(norms, norms), rtol=1e-15)
        np.testing.assert_allclose(q, w / norms, rtol=1e-15, atol=1e-16)


def test_slightly_asymmetric_composition_takes_unreduced_path(composed_w):
    restricted, _ = restrict_to_touched(composed_w)
    st = build_moment_structure(restricted.scenario)
    assert compile_extremize(st, restricted, "min").reduction is not None
    # A's setting-1 projector: the swap moves it to B's and the flip to 1 - A1
    compiled = compile_extremize(st, perturbed_composition(composed_w, ((0, 1, 0),)), "min")
    assert compiled.reduction is None
    assert compiled.problem.block_dims == (48,) and compiled.problem.num_constraints == 273


@pytest.mark.parametrize(
    "monomial, generators, dims, rows",
    [
        # A1 B1: fixed by the swap, moved by the flip
        (((0, 1, 0), (1, 1, 0)), (SWAP,), (30, 18), 156),
        # A0: moved by the swap, fixed by the flip
        (((0, 0, 0),), (FLIP,), (30, 18), 139),
    ],
)
def test_one_broken_generator_leaves_the_other(composed_w, monomial, generators, dims, rows):
    f = perturbed_composition(composed_w, monomial)
    st = build_moment_structure(f.scenario)
    compiled = compile_extremize(st, f, "min")
    assert compiled.reduction.symmetry.generators == generators
    assert compiled.problem.block_dims == dims and compiled.problem.num_constraints == rows
    for sense in ("min", "max"):
        assert_matches_unreduced_solve(f, sense, aq_extremize(f, sense), generators)


def test_flip_candidates_are_checked_against_all_the_data(rng):
    # data only on mixed words: no correlator of the monomial data is odd,
    # so every single-letter flip is a candidate, and the full check in
    # class coordinates must reject each one
    st = build_moment_structure(make_scenario(3, 2, 2))
    m = len(st.classes) - 1
    class_rows = np.array([np.arange(m + 1) - 1] * 2)
    mixed = np.setdiff1d(np.arange(1, m + 1), st.monomial_class)
    b = np.zeros(m)
    b[mixed - 1] = rng.uniform(-1, 1, len(mixed))
    values = np.zeros((2, m + 1))
    candidates = aqset._flip_candidates(st, values, class_rows, b, 1e-12, None)
    assert sorted(candidates) == [((p, x),) for p in range(3) for x in range(2)]
    assert aqset.invariant_group(st, values, class_rows, b) == ()
    problem, reduction = indicator_problem(st, values, class_rows, b, invariant_start=True)
    assert reduction is None and problem.block_dims == (st.size,) * 2


def test_flip_search_reads_letters_past_bit_63():
    # B has 70 settings, so B69 is letter 70 of 71: the functional
    # sum_y c_y P(B_y) + E[A0 B69] (y < 69) is fixed by the joint flip of A0
    # and B69 alone, and that parity equation spans bits 0 and 70
    scenario = Scenario(2, (1, 70), 2)
    st = build_moment_structure(scenario)
    terms = {((1, y, 0),): c for y, c in enumerate(np.random.default_rng(5).uniform(0.5, 1.5, 69))}
    correlator = {(): 1.0, ((0, 0, 0),): -2.0, ((1, 69, 0),): -2.0, ((0, 0, 0), (1, 69, 0)): 4.0}
    f = functional_from_terms(scenario, terms | correlator)
    m = len(st.classes) - 1
    pinned = np.zeros(m + 1)
    pinned[st.monomial_class] = f.coeffs
    generators = aqset.invariant_group(st, np.eye(1, m + 1), (np.arange(m + 1) - 1,), pinned[1:])
    assert generators == (("flip", ((0, 0), (1, 69))),)


def test_oversized_extremization_is_refused_before_word_classes(monkeypatch):
    # every setting of a random (2,24,2) functional is touched: n = 625
    # exceeds sdp.DIM_GUARD, and the refusal must not wait for the solve
    scenario = make_scenario(2, 24, 2)
    f = BellFunctional(scenario, np.random.default_rng(3).normal(size=basis_size(scenario)))
    assert basis_size(scenario) > sdp.DIM_GUARD

    def built(_):
        raise AssertionError("word classes built before the size guard")

    monkeypatch.setattr(aqset.algebra, "word_classes", built)
    with pytest.raises(SizeGuardError, match="exceeds guard"):
        aq_extremize(f, "min")


def swap_class_image(st, p, q):
    """Class index of each word class's image when parties p and q swap."""
    perm = swap_permutation(st.scenario, p, q)
    labels = st.cell_class
    image = np.empty(len(st.classes), dtype=int)
    image[labels[labels >= 0]] = labels[np.ix_(perm, perm)][labels >= 0]
    return image


def swap_invariant_two_block_data(rng):
    """Two blocks on the (2,2,3) structure, with data that the swap of
    parties 0 and 1 fixes: m * sum_l n_l**3 = 3e6 passes the size rule.
    Each block's objective is given by its class values."""
    st = build_moment_structure(make_scenario(2, 2, 3))
    image = swap_class_image(st, 0, 1)
    m = len(st.classes) - 1
    class_rows = (np.arange(m + 1) - 1,) * 2
    values = rng.uniform(-1, 1, m + 1)
    b = (values + values[image])[1:]
    c_values = []
    for _ in class_rows:
        v = rng.uniform(-1, 1, m + 1)
        c_values.append(v + v[image])
    return st, np.array(c_values), class_rows, b


def test_indicator_problem_reduces_only_swap_invariant_data(rng):
    st, c_values, class_rows, b = swap_invariant_two_block_data(rng)
    image, m = swap_class_image(st, 0, 1), len(b)
    problem, reduction = indicator_problem(st, c_values, class_rows, b)
    assert reduction is not None and reduction.symmetry.generators == (("swap", (0, 1)),)
    assert len(problem.block_dims) == 4 and sum(problem.block_dims) == 2 * st.size
    assert problem.num_constraints < m

    # one entry of b, or one class of one objective block, moved off the symmetry
    row = np.flatnonzero(image[1:] != np.arange(1, m + 1))[0]
    b_off = b.copy()
    b_off[row] += 1e-9
    c_off = c_values.copy()
    c_off[1, row + 1] += 1e-9
    for cs, rhs in ((c_values, b_off), (c_off, b)):
        problem, reduction = indicator_problem(st, cs, class_rows, rhs)
        assert reduction is None
        assert problem.block_dims == (st.size,) * 2 and problem.num_constraints == m
        assert np.array_equal(problem.b, rhs)
        assert all(np.array_equal(c, scatter(st, v)) for c, v in zip(problem.c_blocks, cs, strict=True))


def test_rows_whose_span_a_swap_moves_are_not_reduced(rng):
    # merge a swap-fixed class into the row of a moved one: the swap pulls
    # that row back to the fixed class plus the moved one's image, which is
    # another row, so the rows' span is not invariant even with zero data
    st, _, class_rows, _ = swap_invariant_two_block_data(rng)
    image = swap_class_image(st, 0, 1)
    fixed = np.flatnonzero(image[1:] == np.arange(1, len(image)))[0] + 1
    moved = np.flatnonzero(image[1:] != np.arange(1, len(image)))[0] + 1
    rows = np.array(class_rows)
    assert aqset._row_action(st, len(st.classes) - 1, rows.tobytes(), SWAP) is not None
    dropped = rows[0, fixed]
    rows[:, fixed] = rows[:, moved]
    rows[rows > dropped] -= 1  # renumber the rows left
    m = rows.max() + 1
    assert aqset._row_action(st, m, rows.tobytes(), SWAP) is None
    c_values = np.zeros((2, len(st.classes)))
    problem, reduction = indicator_problem(st, c_values, rows, np.zeros(m))
    assert reduction is None and problem.num_constraints == m


def test_rows_of_mixed_degree_fall_back_to_the_trivial_group():
    # merge A0 with A0B1 into one row and B0 with A1B0 into another: the swap
    # maps one row onto the other and, with zero data, passes the judge, but
    # its action on rows of mixed degree need not be triangular in the degree
    st = build_moment_structure(make_scenario(2, 2, 3))
    index = {word: k for k, word in enumerate(st.classes)}
    row = np.arange(len(st.classes)) - 1  # row k - 1 pins class k
    for word, merged in ((((0, 0, 0),), ((0, 0, 0), (1, 1, 0))), (((1, 0, 0),), ((0, 1, 0), (1, 0, 0)))):
        row[index[merged]] = row[index[word]]
    row[1:] = np.unique(row[1:], return_inverse=True)[1]  # renumber the rows left
    rows, m = np.array([row, row]), row.max() + 1
    c_values = np.zeros((2, len(st.classes)))
    assert m == 94 and aqset.invariant_group(st, c_values, rows, np.zeros(m)) == (SWAP,)
    assert aqset._symmetry(st, m, rows.tobytes(), (SWAP,)) is None
    problem, reduction = indicator_problem(st, c_values, rows, np.zeros(m))
    assert reduction is None
    assert problem.block_dims == (25, 25) and problem.num_constraints == 94


def test_gf2_null_space_matches_brute_force():
    # random unsorted systems, with repeats and zero equations, against every
    # vector of their width
    rng = np.random.default_rng(3)
    for _ in range(2000):
        width = int(rng.integers(1, 11))
        equations = [int(e) for e in rng.integers(0, 1 << width, rng.integers(0, 9))]
        null = aqset._gf2_null_space(equations, width)
        vectors = np.arange(1 << width)
        bits = [np.array(v, dtype=np.int64)[:, None] >> np.arange(width) & 1 for v in (vectors, equations)]
        solutions = set(vectors[(bits[0] @ bits[1].T % 2 == 0).all(axis=1)].tolist())
        span = {0}
        for v in null:
            assert v in solutions  # an even overlap with every equation
            span |= {s ^ v for s in span}
        # independent, and width - rank of them: they span every solution
        assert len(span) == 1 << len(null) == len(solutions)


def test_three_party_functional_reduced_through_second_and_third(rng):
    # parties 0 and 1 differ in settings count, so only the swap of 1 and 2
    # can apply
    scn = Scenario(3, (2, 3, 3), 2)
    perm = swap_permutation(scn, 1, 2)
    coeffs = rng.uniform(-1, 1, basis_size(scn))
    f = BellFunctional(scn, 0.5 * (coeffs + coeffs[perm]))
    for sense in ("min", "max"):
        assert_matches_unreduced_solve(f, sense, aq_extremize(f, sense), (("swap", (1, 2)),))


@pytest.mark.parametrize("sense", ["min", "max"])
def test_generator_solves_stay_one_block(reference_trio, sense):
    # both generators are swap-symmetric, but too small for two blocks to pay
    for f, n in zip(reference_trio[:2], (4, 9)):
        restricted, _ = restrict_to_touched(f)
        st = build_moment_structure(restricted.scenario)
        assert st.size == n
        perm = swap_permutation(st.scenario, 0, 1)
        assert np.abs(restricted.coeffs[perm] - restricted.coeffs).max() <= 1e-12
        compiled = compile_extremize(st, restricted, sense)
        problem = unreduced_problem(st, compiled.target)
        assert compiled.reduction is None
        assert np.array_equal(compiled.problem.a_stacks[0], problem.a_stacks[0])
        assert np.array_equal(compiled.problem.b, problem.b)
        ext = aq_extremize(f, sense)
        full = solve(problem, y_start=compiled.y_start)
        assert ext.reduction is None
        assert ext.value == (compiled.target[0] - full.primal_objective) * (1 if sense == "min" else -1)
        assert np.array_equal(ext.solution.x_blocks[0], full.x_blocks[0])
        assert np.array_equal(ext.solution.y, full.y)


@pytest.mark.parametrize("case", ["headline", "family", "two_block"])
def test_reduced_constraints_match_dense_projection(case, composed_w, rng, monkeypatch):
    # the reduced constraint blocks, exactly as the dense formula
    # scale * (W^T indicator W) gives them per character basis (W, scale),
    # from the unreduced problem's class indicators of each kept row
    if case == "headline":
        restricted, _ = restrict_to_touched(composed_w)
        st = build_moment_structure(restricted.scenario)

        def build():
            compiled = compile_extremize(st, restricted, "min")
            return compiled.problem, compiled.reduction

    elif case == "family":
        # a swap-invariant family step: two generators on (2,3,2)
        st = build_moment_structure(make_scenario(2, 3, 2))
        perm = swap_permutation(st.scenario, 0, 1)
        objectives = [o + o[perm] for o in rng.uniform(-1, 1, (2, st.size))]

        def build():
            return _cone_pair_problem(st, objectives)

    else:
        st, *data = swap_invariant_two_block_data(rng)

        def build():
            return indicator_problem(st, *data)

    problem, reduction = build()
    assert reduction is not None
    expected_dims = {"headline": (21, 9, 9, 9), "family": (10, 6) * 4, "two_block": (15, 10) * 2}[case]
    assert problem.block_dims == expected_dims
    monkeypatch.setattr(aqset, "SYMMETRY_MIN_WORK", np.inf)
    unreduced, none = build()
    assert none is None
    symmetry = reduction.symmetry
    row_scale = symmetry.row_scale
    assert np.array_equal(problem.b, unreduced.b[symmetry.rows] * row_scale)
    per_block = len(symmetry.bases)
    for l, indicators in enumerate(unreduced.a_stacks):
        for s, (w, scale, _) in enumerate(symmetry.bases):
            expected = scale * (w.T @ indicators[symmetry.rows] @ w) * row_scale[:, None, None]
            assert np.array_equal(problem.a_stacks[per_block * l + s], expected)
    # each kept row has the norm of its swap orbit's average, unreduced: the
    # flip moves no word class at the top degree, so it has no larger orbits
    class_rows, image = symmetry.class_rows, swap_class_image(st, 0, 1)
    partner = np.empty(len(unreduced.b), dtype=int)
    partner[class_rows[class_rows >= 0]] = class_rows[:, image][class_rows >= 0]
    orbit = 1 + (partner[symmetry.rows] != symmetry.rows)
    expected_norms = unreduced.operator.row_norms[symmetry.rows] / np.sqrt(orbit)
    np.testing.assert_allclose(problem.operator.row_norms, expected_norms, rtol=1e-14)


def compiled_case(case, composed_w):
    """A compiled extremization: the headline, reduced to 21 + 9 + 9 + 9, an
    unreduced n=9 problem, or an unreduced n=125 one with three outcomes."""
    if case == "headline":
        f, _ = restrict_to_touched(composed_w)
    else:
        scenario = make_scenario(2, 2, 2) if case == "unreduced" else make_scenario(3, 2, 3)
        f = BellFunctional(scenario, np.random.default_rng(7).normal(size=basis_size(scenario)))
    st = build_moment_structure(f.scenario)
    compiled = compile_extremize(st, f, "min")
    dims = {"headline": (21, 9, 9, 9), "unreduced": (9,), "three_outcomes": (125,)}[case]
    assert compiled.problem.block_dims == dims
    return st, compiled


@pytest.mark.parametrize("case", ["headline", "unreduced"])
def test_extremization_starts_on_the_central_path(case, composed_w, monkeypatch):
    # the start is exactly dual feasible, its slack is the product-projector
    # moment matrix (projected onto the group's blocks when reduced), and
    # X S = tau_p I for the default start's tau_p
    st, compiled = compiled_case(case, composed_w)
    problem = compiled.problem
    monkeypatch.setattr(sdp, "MAX_ITERS", 0)  # the solve returns its start
    start = solve(problem, y_start=compiled.y_start)
    tau_p = solve(problem).x_blocks[0][0, 0]  # the default start is X = tau_p I
    assert np.array_equal(start.y, compiled.y_start)
    assert start.trace[0]["dual_residual"] == 0.0
    assert abs(start.trace[0]["mu"] - tau_p) <= 1e-12 * tau_p
    for c, a, x, s in zip(problem.c_blocks, problem.a_stacks, start.x_blocks, start.s_blocks, strict=True):
        assert np.abs(c - s - np.einsum("i,ijk->jk", start.y, a)).max() <= 1e-15
        assert np.linalg.eigvalsh(s).min() > 0.0
        assert np.abs(x @ s - tau_p * np.eye(len(s))).max() <= 1e-12 * tau_p
    if compiled.reduction is None:
        (gamma,) = start.s_blocks
    else:
        bases = compiled.reduction.symmetry.bases
        gamma = sum(q @ s @ q.T for (_, _, q), s in zip(bases, start.s_blocks, strict=True))
    assert np.abs(gamma - strictly_feasible_point(st)).max() <= 1e-15


def test_start_must_be_strictly_dual_feasible(composed_w):
    _, compiled = compiled_case("headline", composed_w)
    m = compiled.problem.num_constraints
    # y = 0 leaves S = C = e_0 e_0^T, which is singular
    with pytest.raises(ValueError, match="strictly dual feasible"):
        solve(compiled.problem, y_start=np.zeros(m))
    for bad in (compiled.y_start[1:], np.append(compiled.y_start[1:], np.nan)):
        with pytest.raises(ValueError, match="finite vector"):
            solve(compiled.problem, y_start=bad)


@pytest.mark.parametrize("case", ["headline", "three_outcomes"])
def test_central_start_saves_iterations(case, composed_w):
    _, compiled = compiled_case(case, composed_w)
    warm = solve(compiled.problem, y_start=compiled.y_start)
    cold = solve(compiled.problem)
    assert warm.status == cold.status == SdpStatus.OPTIMAL
    assert warm.iterations < cold.iterations
    # the two optima agree to the solver's relative gap tolerance
    v, w = warm.primal_objective, cold.primal_objective
    assert abs(v - w) <= 1e-8 * (1.0 + abs(v) + abs(w))


def seed_one_verify_functionals(count):
    """The first ``count`` functionals of the seed-1 verify batch: random
    wirings plus uniform noise of 0.05 on every Collins-Gisin coefficient,
    cycling through (2,2,2), (2,3,2) and (3,2,2) (n = 9, 16, 27)."""
    rng = np.random.default_rng(1)
    scenarios = [make_scenario(*spec) for spec in ((2, 2, 2), (2, 3, 2), (3, 2, 2))]
    functionals = []
    for i in range(count):
        wiring = random_wiring(rng, scenarios[i % len(scenarios)])
        noise = rng.uniform(-0.05, 0.05, wiring.coeffs.shape)
        functionals.append(BellFunctional(wiring.scenario, wiring.coeffs + noise))
    return functionals


def clear_operator_cache():
    aqset._symmetry.cache_clear()
    aqset._extremize_start.cache_clear()


def test_min_and_max_share_one_operator(composed_w, rng):
    restricted, _ = restrict_to_touched(composed_w)
    cases = [restricted] + seed_one_verify_functionals(3)
    for f in cases:
        st = build_moment_structure(f.scenario)
        lower, upper = (compile_extremize(st, f, sense) for sense in ("min", "max"))
        assert upper.problem.operator is lower.problem.operator
        assert upper.reduction is lower.reduction and upper.y_start is lower.y_start
        assert np.array_equal(upper.problem.b, -lower.problem.b)
    # and every see-saw step over one structure shares one too
    st = build_moment_structure(make_scenario(2, 3, 2))
    first, _ = _cone_pair_problem(st, rng.uniform(-1, 1, (2, st.size)))
    second, _ = _cone_pair_problem(st, rng.uniform(-1, 1, (2, st.size)))
    assert second.operator is first.operator


def test_reduced_and_unreduced_problems_do_not_share_an_operator(composed_w, rng):
    restricted, _ = restrict_to_touched(composed_w)
    st = build_moment_structure(restricted.scenario)
    reduced = compile_extremize(st, restricted, "min")
    unreduced = compile_extremize(st, perturbed_composition(composed_w, ((0, 1, 0),)), "min")
    assert reduced.reduction is not None and unreduced.reduction is None
    assert unreduced.problem.operator is not reduced.problem.operator
    assert unreduced.problem.block_dims == (48,) and reduced.problem.block_dims == (21, 9, 9, 9)
    assert len(unreduced.y_start) == 273 and len(reduced.y_start) == 89

    st, c_values, class_rows, b = swap_invariant_two_block_data(rng)
    image = swap_class_image(st, 0, 1)
    b_off = b.copy()
    b_off[np.flatnonzero(image[1:] != np.arange(1, len(b) + 1))[0]] += 1e-9
    (reduced, with_swap), (unreduced, without) = (indicator_problem(st, c_values, class_rows, v) for v in (b, b_off))
    assert with_swap is not None and without is None
    assert unreduced.operator is not reduced.operator
    assert indicator_problem(st, c_values, class_rows, b_off)[0].operator is unreduced.operator


def test_cached_arrays_are_read_only(composed_w):
    # structures, relabelling maps, symmetries, reductions and starts are
    # kept for the life of the process and shared by every later solve, so
    # none of their arrays can be written
    restricted, _ = restrict_to_touched(composed_w)
    (unreduced_f,) = seed_one_verify_functionals(1)
    reduced, unreduced = (
        compile_extremize(build_moment_structure(f.scenario), f, "min") for f in (restricted, unreduced_f)
    )
    assert reduced.reduction is not None and unreduced.reduction is None
    reduction, st = reduced.reduction, build_moment_structure(restricted.scenario)
    symmetry = reduction.symmetry
    arrays = [st.cell_class, st.monomial_class, st.class_size, symmetry.rows, symmetry.row_scale, symmetry.class_rows]
    arrays += [symmetry.cells, symmetry.partner, *reduction.c_blocks]
    arrays += [a for basis in symmetry.bases for a in basis] + [reduced.y_start, unreduced.y_start]
    m = len(st.classes) - 1
    rows = (np.arange(m + 1) - 1)[None].tobytes()
    for generator in symmetry.generators:
        arrays += [aqset._monomial_map(st, generator), *aqset._class_map(st, generator)]
        arrays += [*aqset._row_action(st, m, rows, generator)]
    arrays += [*aqset._correlators(st.scenario)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_operator_cache_keeps_every_bit():
    # twelve seed-1 verify functionals over the three verify structures
    functionals = seed_one_verify_functionals(12)

    def extrema(fs):
        out = {}
        for f in fs:
            for sense in ("min", "max"):
                ext = aq_extremize(f, sense)
                out[id(f), sense] = (ext.value.hex(), ext.solution.y.tobytes())
        return out

    cold = {}
    for f in functionals:  # each functional's two solves on an empty cache
        clear_operator_cache()
        cold.update(extrema([f]))
    clear_operator_cache()
    warmed = extrema(functionals[::-1])
    assert aqset._symmetry.cache_info().currsize == 3  # one operator per structure
    assert extrema(functionals) == warmed == cold


@pytest.mark.parametrize("case", ["headline", "verify"])
def test_cache_hit_compile_allocates_less_than_its_operator(case, composed_w):
    if case == "headline":
        f, _ = restrict_to_touched(composed_w)
    else:
        (f,) = seed_one_verify_functionals(3)[2:]  # n = 27, m = 75
    st = build_moment_structure(f.scenario)
    operator = compile_extremize(st, f, "min").problem.operator
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        compiled = compile_extremize(st, f, "max")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert compiled.problem.operator is operator
    assert peak < operator.nbytes


def dense(entries, shape):
    out = np.zeros(shape)
    np.add.at(out, entries[:2], entries[2])
    return out


def test_class_maps_are_well_defined_involutive_and_commuting():
    st = build_moment_structure(make_scenario(3, 3, 2))
    n_classes = len(st.classes)
    generators = [SWAP, FLIP, ("flip", ((2, 0),)), ("flip", ((0, 2), (1, 2), (2, 1)))]
    maps = {}
    for generator in generators:
        t = aqset._monomial_map(st, generator)
        assert np.array_equal(t @ t, np.eye(st.size))
        m = dense(aqset._class_map(st, generator), (n_classes, n_classes))
        # the map read at the first cell of each class is the one read at
        # its second and third cells
        for k, cells in enumerate(word_classes(st.scenario).values()):
            for i, j in cells[1:3]:
                column = np.zeros(n_classes)
                np.add.at(column, st.cell_class, np.outer(t[:, i], t[:, j]))
                assert np.array_equal(column, m[:, k])
        assert np.array_equal(m @ m, np.eye(n_classes))
        maps[generator] = m
    for first, second in itertools.combinations(generators, 2):
        assert np.array_equal(maps[first] @ maps[second], maps[second] @ maps[first])


def test_row_rule_keeps_one_row_per_fixed_dimension(composed_w):
    restricted, _ = restrict_to_touched(composed_w)
    st = build_moment_structure(restricted.scenario)
    compiled = compile_extremize(st, restricted, "min")
    symmetry, m = compiled.reduction.symmetry, len(st.classes) - 1
    assert symmetry.generators == (SWAP, FLIP)
    rows = (np.arange(m + 1) - 1)[None].tobytes()
    # the rows' average over the group, prod_i (I + G_i) / 2, projects onto
    # the rows' values on invariant matrices: its trace is their dimension
    average = np.eye(m)
    for generator in symmetry.generators:
        g = dense(aqset._row_action(st, m, rows, generator), (m, m))
        assert np.array_equal(g @ g, np.eye(m))
        average = 0.5 * (average + average @ g)
    assert len(symmetry.rows) == round(np.trace(average)) == 89
    # the kept rows determine those values, and b is one of them, so b
    # agrees on every dropped row with what the kept rows imply
    assert np.linalg.matrix_rank(average[symmetry.rows]) == 89
    b = np.zeros(m + 1)
    b[st.monomial_class] = compiled.target
    assert np.abs(average @ b[1:] - b[1:]).max() <= 1e-15
    assert np.array_equal(compiled.problem.b, b[1:][symmetry.rows] * symmetry.row_scale)


def test_group_bases_are_exact_and_dual(composed_w):
    restricted, _ = restrict_to_touched(composed_w)
    st = build_moment_structure(restricted.scenario)
    symmetry = compile_extremize(st, restricted, "min").reduction.symmetry
    maps = [aqset._monomial_map(st, g) for g in symmetry.generators]
    characters = [(1, 1), (-1, 1), (1, -1), (-1, -1)]  # bit i of the block index: generator i odd
    assert [w.shape[1] for w, _, _ in symmetry.bases] == [21, 9, 9, 9]
    u = np.hstack([w * np.sqrt(np.diag(scale)) for w, scale, _ in symmetry.bases])
    q = np.hstack([q for _, _, q in symmetry.bases])
    np.testing.assert_allclose(q.T @ u, np.eye(st.size), atol=1e-14)
    for (w, scale, _), chi in zip(symmetry.bases, characters, strict=True):
        # T_g W = chi(g) W exactly, in binary fractions with a leading +-1
        for t, sign in zip(maps, chi, strict=True):
            assert np.array_equal(t @ w, sign * w)
        assert np.array_equal(w * 4, np.round(w * 4)) and np.abs(w).max() == 1.0
        norms = np.linalg.norm(w, axis=0)
        np.testing.assert_allclose(scale, 1.0 / np.outer(norms, norms), rtol=1e-15)


def symmetry_caches():
    return (aqset._monomial_map, aqset._class_map, aqset._row_action, aqset._symmetry, aqset._correlators)


def test_verify_pass_builds_no_symmetry_data():
    # n = 9, 16 and 27 lie below the size rule, so no relabelling is judged,
    # and each structure's problem is posed over the trivial group
    for cache in symmetry_caches():
        cache.cache_clear()
    for f in seed_one_verify_functionals(150):
        verify_nbf(f)
    assert [cache.cache_info().currsize for cache in symmetry_caches()] == [0, 0, 0, 3, 0]
    for spec in ((2, 2, 2), (2, 3, 2), (3, 2, 2)):
        st = build_moment_structure(make_scenario(*spec))
        m = len(st.classes) - 1
        hits = aqset._symmetry.cache_info().hits
        assert aqset._symmetry(st, m, (np.arange(m + 1) - 1)[None].tobytes(), ()).generators == ()
        assert aqset._symmetry.cache_info().hits == hits + 1
    assert aqset._symmetry.cache_info().currsize == 3


def test_behavior_is_built_on_first_read(monkeypatch, rng):
    calls = []
    real = aqset.from_collins_gisin

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(aqset, "from_collins_gisin", counting)
    for f in seed_one_verify_functionals(3):
        verify_nbf(f)
    assert calls == []
    f = BellFunctional(make_scenario(2, 3, 2), rng.uniform(-1, 1, 16))
    ext = aq_extremize(f, "min")
    assert calls == []
    behavior = ext.behavior
    assert ext.behavior is behavior and len(calls) == 1
    eager = real(f.scenario, ext.entries, aqset.EXTRACTION_TOL)
    assert np.array_equal(behavior.table, eager.table)
