import numpy as np
import pytest

from aqbell import aqset
from aqbell.algebra import word_classes
from aqbell.aqset import (
    aq_extremize,
    build_moment_structure,
    class_sums,
    compile_extremize,
    constraint_residual,
    indicator_problem,
    party_swap,
    restrict_to_touched,
    scatter,
    strictly_feasible_point,
)
from aqbell.errors import ScenarioMismatchError, SizeGuardError
from aqbell.nbf import certificate_residual
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
from aqbell.sdp import SdpProblem, check_certificate, solve
from conftest import triplets

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
    return SdpProblem((n,), (c,), (triplets(stack),), b)


def assert_matches_unreduced_solve(f, sense, ext, parties):
    """``ext`` was solved over the two blocks of the swap of ``parties``, and
    is a solution of the one-block problem with the same value."""
    restricted, _ = restrict_to_touched(f)
    st = build_moment_structure(restricted.scenario)
    compiled = compile_extremize(st, restricted, sense)
    assert ext.reduction == {
        "parties": list(parties),
        "blocks": list(compiled.problem.block_dims),
        "constraints": compiled.problem.num_constraints,
    }
    assert len(compiled.problem.block_dims) == 2 and sum(compiled.problem.block_dims) == st.size
    problem = unreduced_problem(st, compiled.target)
    full = solve(problem)
    bound = compiled.target[0] - full.primal_objective
    assert abs(ext.value - (bound if sense == "min" else -bound)) < 1e-8
    assert ext.solution.x_blocks[0].shape == (st.size, st.size)
    assert check_certificate(problem, ext.solution).passed
    # the moments, hence the behavior, are invariant under the swap
    perm = swap_permutation(st.scenario, *parties)
    gamma = scatter(st, np.concatenate(([1.0], -ext.solution.y)))
    assert np.array_equal(gamma, gamma[np.ix_(perm, perm)])
    assert constraint_residual(st, gamma) < 1e-12
    assert certificate_residual(ext.certificate) <= 1e-8


@pytest.mark.parametrize("sense", ["min", "max"])
def test_reduced_extremum_of_reference_composition(composed_w, headline, sense):
    ext = headline if sense == "min" else aq_extremize(composed_w, sense)
    assert ext.reduction == {"parties": [0, 1], "blocks": [30, 18], "constraints": 156}
    assert_matches_unreduced_solve(composed_w, sense, ext, (0, 1))


def test_swap_bases_are_orthonormal(composed_w):
    st = build_moment_structure(restrict_to_touched(composed_w)[0].scenario)
    swap = party_swap(st, (0, 1))
    assert np.array_equal(swap.perm, swap_permutation(st.scenario, 0, 1))
    u = np.hstack([w / np.sqrt((w != 0).sum(axis=0)) for w, _ in swap.blocks])
    np.testing.assert_allclose(u.T @ u, np.eye(st.size), atol=1e-15)
    # symmetric columns are fixed by the swap, antisymmetric ones negated
    for (w, scale), sign in zip(swap.blocks, (1.0, -1.0)):
        assert np.array_equal(w[swap.perm], sign * w)
        norms = np.linalg.norm(w, axis=0)
        np.testing.assert_allclose(scale, 1.0 / np.outer(norms, norms), rtol=1e-15)


def test_slightly_asymmetric_composition_takes_unreduced_path(composed_w):
    restricted, _ = restrict_to_touched(composed_w)
    st = build_moment_structure(restricted.scenario)
    assert compile_extremize(st, restricted, "min").reduction is not None
    perm = swap_permutation(st.scenario, 0, 1)
    moved = np.flatnonzero((perm != np.arange(st.size)) & (restricted.coeffs != 0.0))[0]
    coeffs = restricted.coeffs.copy()
    coeffs[moved] += 1e-9
    compiled = compile_extremize(st, BellFunctional(st.scenario, coeffs), "min")
    assert compiled.reduction is None
    assert compiled.problem.block_dims == (48,) and compiled.problem.num_constraints == 273


def swap_invariant_two_block_data(rng):
    """Two blocks on the (2,2,3) structure, with data that the swap of
    parties 0 and 1 fixes: m * sum_l n_l**3 = 3e6 passes the size rule."""
    st = build_moment_structure(make_scenario(2, 2, 3))
    swap = party_swap(st, (0, 1))
    m = len(st.classes) - 1
    class_rows = (np.arange(m + 1) - 1,) * 2
    values = rng.uniform(-1, 1, m + 1)
    b = (values + values[swap.image])[1:]
    c_blocks = []
    for _ in class_rows:
        a = rng.uniform(-1, 1, (st.size, st.size))
        a = a + a.T
        c_blocks.append(a + a[np.ix_(swap.perm, swap.perm)])
    return st, c_blocks, class_rows, b


def test_indicator_problem_reduces_only_swap_invariant_data(rng):
    st, c_blocks, class_rows, b = swap_invariant_two_block_data(rng)
    swap, m = party_swap(st, (0, 1)), len(b)
    problem, reduction = indicator_problem(st, c_blocks, class_rows, b)
    assert reduction is not None and reduction.swap.parties == (0, 1)
    assert len(problem.block_dims) == 4 and sum(problem.block_dims) == 2 * st.size
    assert problem.num_constraints < m

    # one entry of b, or one cell of one objective block, moved off the symmetry
    row = np.flatnonzero(swap.image[1:] != np.arange(1, m + 1))[0]
    cell = np.flatnonzero(swap.perm != np.arange(st.size))[0]
    b_off = b.copy()
    b_off[row] += 1e-9
    c_off = [c.copy() for c in c_blocks]
    c_off[1][cell, cell] += 1e-9
    for cs, rhs in ((c_blocks, b_off), (c_off, b)):
        problem, reduction = indicator_problem(st, cs, class_rows, rhs)
        assert reduction is None
        assert problem.block_dims == (st.size,) * 2 and problem.num_constraints == m
        assert np.array_equal(problem.b, rhs)
        assert all(np.array_equal(c, d) for c, d in zip(problem.c_blocks, cs, strict=True))


def test_three_party_functional_reduced_through_second_and_third(rng):
    # parties 0 and 1 differ in settings count, so only the swap of 1 and 2
    # can apply
    scn = Scenario(3, (2, 3, 3), 2)
    perm = swap_permutation(scn, 1, 2)
    coeffs = rng.uniform(-1, 1, basis_size(scn))
    f = BellFunctional(scn, 0.5 * (coeffs + coeffs[perm]))
    for sense in ("min", "max"):
        assert_matches_unreduced_solve(f, sense, aq_extremize(f, sense), (1, 2))


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
        full = solve(problem)
        assert ext.reduction is None
        assert ext.value == (compiled.target[0] - full.primal_objective) * (1 if sense == "min" else -1)
        assert np.array_equal(ext.solution.x_blocks[0], full.x_blocks[0])
        assert np.array_equal(ext.solution.y, full.y)


@pytest.mark.parametrize("case", ["headline", "family", "two_block"])
def test_reduced_constraints_match_dense_projection(case, composed_w, rng, monkeypatch):
    # the reduced constraint blocks, exactly as the dense formula
    # scale * (W^T (indicator / size) W) gives them, from the unreduced
    # problem's class indicators summed over each merged row
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
        data = swap_invariant_two_block_data(rng)

        def build():
            return indicator_problem(*data)

    problem, reduction = build()
    assert reduction is not None
    expected_dims = {"headline": (30, 18), "family": (10, 6) * 4, "two_block": (15, 10) * 2}[case]
    assert problem.block_dims == expected_dims
    monkeypatch.setattr(aqset, "SWAP_MIN_WORK", np.inf)
    unreduced, none = build()
    assert none is None
    size = reduction.size
    for l, indicators in enumerate(unreduced.a_stacks):
        merged = np.zeros((len(size),) + indicators.shape[1:])
        np.add.at(merged, reduction.row, indicators)
        for s, (w, scale) in enumerate(reduction.swap.blocks):
            expected = scale * (w.T @ (merged / size[:, None, None]) @ w)
            assert np.array_equal(problem.a_stacks[2 * l + s], expected)
