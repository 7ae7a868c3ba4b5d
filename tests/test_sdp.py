import dataclasses
import importlib
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from aqbell import aqset, sdp
from aqbell.errors import SizeGuardError
from aqbell.scenario import BellFunctional, make_scenario
from aqbell.sdp import (
    SdpProblem,
    SdpStatus,
    check_certificate,
    solve,
)
from conftest import (
    boundary_problem,
    dual_infeasible_problem,
    lambda_max_problem,
    primal_infeasible_problem,
    sdp_problem,
    solve_tight,
    trace_problem,
    triplets,
)


def fresh_residuals(problem, sol):
    """The solver's residual evaluation run afresh on the iterate ``sol``
    returns: both objectives and the primal, dual and gap residuals, each
    as ``float.hex`` so that NaN compares equal to NaN."""
    groups = problem.operator.groups

    def stacks(blocks):
        return [np.stack([blocks[l] for l in g.blocks]) for g in groups]

    c = stacks(problem.c_blocks)
    norm_b, norm_c = float(np.linalg.norm(problem.b)), float(np.sqrt(sdp._inner(c, c)))
    args = (stacks(sol.x_blocks), sol.y, stacks(sol.s_blocks))
    _, pobj, dobj, primal, dual, gap = sdp._residuals(groups, c, problem.b, norm_b, norm_c, *args)
    return tuple(float(v).hex() for v in (pobj, dobj, primal, dual, gap))


def assert_reports_its_iterate(problem, sol):
    """The objectives and residuals a solve reports are those of the
    iterate it returns, bit for bit, whichever exit it took."""
    reported = (sol.primal_objective, sol.dual_objective, *dataclasses.astuple(sol.residuals))
    assert tuple(float(v).hex() for v in reported) == fresh_residuals(problem, sol)


def test_boundary_psd_instance():
    problem = boundary_problem()
    sol = solve_tight(problem)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.primal_objective - 1.0) < 1e-8
    assert_reports_its_iterate(problem, sol)


def test_trace_constrained_instance():
    sol = solve_tight(trace_problem())
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.primal_objective - 3.0) < 1e-8


def test_lambda_max_against_eigensolver():
    problem, mat = lambda_max_problem()
    sol = solve_tight(problem)
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(-sol.primal_objective - np.linalg.eigvalsh(mat).max()) < 1e-8


def test_primal_infeasible_classification():
    problem = primal_infeasible_problem()
    sol = solve(problem)
    assert sol.status == SdpStatus.PRIMAL_INFEASIBLE
    # the returned iterate is the ray, not the last evaluated iterate
    assert float(np.abs(sol.y).max()) == 1.0
    assert_reports_its_iterate(problem, sol)


def test_dual_infeasible_classification():
    problem = dual_infeasible_problem()
    sol = solve(problem)
    assert sol.status == SdpStatus.DUAL_INFEASIBLE
    assert float(np.abs(sol.x_blocks[0]).max()) == 1.0  # the ray
    assert_reports_its_iterate(problem, sol)


def test_certificate_check_passes():
    problem, _ = lambda_max_problem()
    sol = solve_tight(problem)
    report = check_certificate(problem, sol)
    assert report.passed, str(report)


def test_certificate_detects_primal_fault():
    problem = trace_problem()
    sol = solve_tight(problem)
    sol.x_blocks[0] = sol.x_blocks[0] + 1e-3 * np.eye(2)
    report = check_certificate(problem, sol)
    assert not report.items[0].passed  # primal feasibility


def test_certificate_fails_nan_iterate():
    problem = trace_problem()
    sol = solve_tight(problem)
    sol.x_blocks[0] = np.full((2, 2), np.nan)
    report = check_certificate(problem, sol)
    assert not report.items[0].passed  # primal feasibility
    assert not report.items[3].passed  # primal eigenvalue floor


def test_certificate_detects_dual_fault():
    problem = trace_problem()
    sol = solve_tight(problem)
    sol.y = np.zeros_like(sol.y)
    report = check_certificate(problem, sol)
    assert not report.items[1].passed  # dual feasibility


def test_weak_duality_on_feasible_iterates():
    # once the iterate is (numerically) feasible, the primal objective must
    # dominate the dual one for a minimization in standard form
    for problem in (boundary_problem(), trace_problem(), lambda_max_problem()[0]):
        sol = solve_tight(problem)
        for record in sol.trace:
            if max(record["primal_residual"], record["dual_residual"]) <= 1e-7:
                assert record["primal_objective"] >= record["dual_objective"] - 1e-10


def test_bitwise_reproducible_trace():
    first = solve_tight(boundary_problem())
    second = solve_tight(boundary_problem())
    assert len(first.trace) == len(second.trace)
    for a, b in zip(first.trace, second.trace):
        assert a == b


@pytest.mark.parametrize("alpha", [0.5, 10.0])
def test_scaling_homogeneity(alpha):
    problem = trace_problem()
    base = solve_tight(problem)

    scaled_c = SdpProblem(problem.operator, (alpha * problem.c_blocks[0],), problem.b)
    sol_c = solve_tight(scaled_c)
    assert abs(sol_c.primal_objective - alpha * base.primal_objective) <= 1e-8 * abs(
        alpha * base.primal_objective
    ) + 1e-10
    assert abs(sol_c.dual_objective - alpha * base.dual_objective) <= 1e-8 * abs(
        alpha * base.dual_objective
    ) + 1e-10

    scaled_b = SdpProblem(problem.operator, problem.c_blocks, alpha * problem.b)
    sol_b = solve_tight(scaled_b)
    assert abs(sol_b.primal_objective - alpha * base.primal_objective) <= 1e-8 * abs(
        alpha * base.primal_objective
    ) + 1e-10
    assert abs(sol_b.dual_objective - alpha * base.dual_objective) <= 1e-8 * abs(
        alpha * base.dual_objective
    ) + 1e-10


def multiblock_problem():
    # two independent blocks: min tr X1 + tr X2 with one pinned entry each
    stacks = (
        np.stack([np.diag([1.0, 0.0]), np.zeros((2, 2))]),
        np.stack([np.zeros((2, 2)), np.diag([0.0, 1.0])]),
    )
    return sdp_problem((2, 2), (np.eye(2), np.eye(2)), tuple(map(triplets, stacks)), np.array([2.0, 0.5]))


def test_multiblock_solve():
    sol = solve_tight(multiblock_problem())
    assert sol.status == SdpStatus.OPTIMAL
    assert abs(sol.primal_objective - 2.5) < 1e-8


def test_certificate_detects_faults_in_second_block():
    problem = multiblock_problem()
    sol = solve_tight(problem)
    assert check_certificate(problem, sol).passed
    x_fault = dataclasses.replace(sol, x_blocks=[sol.x_blocks[0], sol.x_blocks[1] + 1e-3 * np.eye(2)])
    assert not check_certificate(problem, x_fault).items[0].passed  # primal feasibility
    s_fault = dataclasses.replace(sol, s_blocks=[sol.s_blocks[0], sol.s_blocks[1] + 1e-3 * np.eye(2)])
    assert not check_certificate(problem, s_fault).items[1].passed  # dual feasibility


def test_non_finite_iterate_is_numerical_trouble(monkeypatch):
    # a NaN in the upper triangle of a stepped iterate passes the Cholesky
    # check of backtracking, which reads the lower triangle only; the solve
    # must classify it instead of raising from a linear-algebra call
    original = sdp._backtrack_psd
    calls = []

    def poisoned(*args):
        out = original(*args)
        calls.append(args)
        if len(calls) == 3:  # the primal step of the second iteration
            out[0][0].flat[1] = np.nan  # entry (0, 1) of the first block
        return out

    monkeypatch.setattr(sdp, "_backtrack_psd", poisoned)
    problem = multiblock_problem()
    sol = solve_tight(problem)
    assert len(calls) == 4  # the dual step of that iteration, then the check stops it
    assert sol.status == SdpStatus.NUMERICAL_TROUBLE
    assert sol.message == "non-finite iterate"
    assert_reports_its_iterate(problem, sol)


def test_non_finite_direction_is_numerical_trouble(monkeypatch):
    # a NaN Newton direction has no finite step length; the solve must stop
    # where it appears and hand back the last finite iterate instead of
    # taking a full NaN step
    original = sdp.dpotrs
    calls = []

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(args)
        if len(calls) == 3:  # the affine direction of the second iteration
            out[0][:] = np.nan
        return out

    monkeypatch.setattr(sdp, "dpotrs", poisoned)
    problem = multiblock_problem()
    sol = solve_tight(problem)
    assert len(calls) == 3
    assert sol.status == SdpStatus.NUMERICAL_TROUBLE
    assert sol.message == "non-finite search direction"
    assert sol.iterations == 1
    for block in sol.x_blocks + sol.s_blocks:
        assert np.all(np.isfinite(block))
    assert_reports_its_iterate(problem, sol)


def _failing_inverse_factors(monkeypatch, fails):
    """Patch ``sdp._inverse_factors`` to report a block that does not factor
    on every call whose 1-based index ``fails`` accepts; returns the list of
    call indices."""
    original = sdp._inverse_factors
    calls = []

    def patched(stacks):
        calls.append(len(calls) + 1)
        return None if fails(calls[-1]) else original(stacks)

    monkeypatch.setattr(sdp, "_inverse_factors", patched)
    return calls


def test_backtracking_halves_a_step_that_does_not_factor(monkeypatch):
    # calls 1 and 2 factor the default start; call 3 is the first primal
    # candidate, which backtracking must halve and then accept
    _failing_inverse_factors(monkeypatch, lambda call: call == 3)
    original = sdp._backtrack_psd
    steps = []

    def recorded(mats, directions, alpha):
        out = original(mats, directions, alpha)
        steps.append((alpha, out[2]))
        return out

    monkeypatch.setattr(sdp, "_backtrack_psd", recorded)
    sol = solve_tight(multiblock_problem())
    assert steps[0][1] == 0.5 * steps[0][0]
    assert all(used == alpha for alpha, used in steps[1:])
    assert sol.status == SdpStatus.OPTIMAL, sol.message
    assert abs(sol.primal_objective - 2.5) < 1e-8


def test_backtracking_failure_is_numerical_trouble(monkeypatch):
    # no candidate after the start factors: every halving is refused
    calls = _failing_inverse_factors(monkeypatch, lambda call: call > 2)
    problem = multiblock_problem()
    sol = solve_tight(problem)
    assert len(calls) == 2 + 40 + 40  # the start, then the primal and dual steps' 40 tries each
    assert sol.status == SdpStatus.NUMERICAL_TROUBLE
    assert sol.message == "step backtracking failed"
    assert sol.iterations == 0
    assert_reports_its_iterate(problem, sol)


def test_schur_factorization_failure_is_numerical_trouble(monkeypatch):
    # the trace problem's Schur complement is its only 1x1 matrix: refusing
    # it defeats the plain Cholesky and all three jittered retries
    original = sdp._cholesky
    refused = []

    def patched(mat):
        if mat.shape == (1, 1):
            refused.append(mat)
            return None
        return original(mat)

    monkeypatch.setattr(sdp, "_cholesky", patched)
    problem = trace_problem()
    sol = solve_tight(problem)
    assert len(refused) == 4
    assert sol.status == SdpStatus.NUMERICAL_TROUBLE
    assert sol.message == "Schur complement factorization failed"
    assert sol.iterations == 0
    assert_reports_its_iterate(problem, sol)


def test_stalled_progress_returns_the_best_iterate(monkeypatch):
    # steps too short to cut the worst residual by 2% in 30 iterations: the
    # start stays the best iterate, and it is what the solve returns
    monkeypatch.setattr(sdp, "STEP_FRACTION", 1e-9)
    problem = boundary_problem()
    sol = solve_tight(problem)
    assert sol.status == SdpStatus.NUMERICAL_TROUBLE
    assert sol.message == "progress stalled"
    assert_reports_its_iterate(problem, sol)
    assert sol.iterations == 30
    start = sol.trace[0]
    assert (sol.residuals.primal, sol.residuals.dual, sol.residuals.gap) == (
        start["primal_residual"],
        start["dual_residual"],
        start["gap"],
    )
    assert sol.residuals != sdp.Residuals(
        sol.trace[-1]["primal_residual"], sol.trace[-1]["dual_residual"], sol.trace[-1]["gap"]
    )


def test_diverging_dual_iterates_are_numerical_trouble(monkeypatch):
    # any nonzero y crosses a zero threshold; from y_start = 0.5 the ray
    # y / |y| raises b.y but leaves C - A^T y indefinite, so it is no
    # certificate of primal infeasibility
    monkeypatch.setattr(sdp, "RAY_THRESHOLD", 0.0)
    problem = trace_problem()
    sol = solve(problem, y_start=np.array([0.5]))
    assert sol.status == SdpStatus.NUMERICAL_TROUBLE
    assert sol.message == "diverging dual iterates"
    assert sol.iterations == 0
    assert sol.y.tolist() == [0.5]
    assert_reports_its_iterate(problem, sol)


def test_diverging_primal_iterates_are_numerical_trouble(monkeypatch):
    # the default start X = tau_p I crosses a zero threshold; its ray I is
    # not in the null space of A, so it is no certificate of dual infeasibility
    monkeypatch.setattr(sdp, "RAY_THRESHOLD", 0.0)
    problem = trace_problem()
    sol = solve(problem)
    assert sol.status == SdpStatus.NUMERICAL_TROUBLE
    assert sol.message == "diverging primal iterates"
    assert sol.iterations == 0
    assert np.array_equal(sol.x_blocks[0], sol.x_blocks[0][0, 0] * np.eye(2))
    assert_reports_its_iterate(problem, sol)


def test_solve_calls_no_numpy_eigensolver_or_cholesky(monkeypatch):
    # the loop factors each iterate once by LAPACK's dpotrf and reads only
    # the smallest eigenvalue of each step matrix, so a solve (here a
    # feasible one, which finds no ray) never reaches numpy's decompositions
    counts = {"eigvalsh": 0, "cholesky": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    sol = solve_tight(multiblock_problem())
    assert sol.status == SdpStatus.OPTIMAL
    assert counts == {"eigvalsh": 0, "cholesky": 0}


def _random_psd(rng, n):
    g = rng.normal(size=(n, n))
    return g @ g.T + 0.5 * np.eye(n)


def random_feasible_problem(block_dims, m, seed):
    """Random SDP that is strictly feasible on both sides: b is read off a
    positive definite X0 and C = S0 + sum_i y0_i A_i with S0 positive
    definite.  Each constraint has general entries in every block, with
    about a third of them zeroed so that the operator is genuinely sparse."""
    rng = np.random.default_rng(seed)
    stacks = []
    for n_l in block_dims:
        stack = rng.normal(size=(m, n_l, n_l)) * (rng.random((m, n_l, n_l)) > 0.3)
        stack = stack + stack.transpose(0, 2, 1)
        stack[:, 0, 0] += 1.0 + rng.random(m)  # no constraint is empty on any block
        stacks.append(stack)
    x0 = [_random_psd(rng, n_l) for n_l in block_dims]
    s0 = [_random_psd(rng, n_l) for n_l in block_dims]
    y0 = rng.normal(size=m)
    b = np.array([sum(np.sum(stack[i] * x) for stack, x in zip(stacks, x0)) for i in range(m)])
    c_blocks = tuple(s + np.einsum("i,ijk->jk", y0, stack) for s, stack in zip(s0, stacks))
    return sdp_problem(tuple(block_dims), c_blocks, tuple(map(triplets, stacks)), b)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    block_dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_multiblock_problems(block_dims, data, seed):
    free = sum(n_l * (n_l + 1) // 2 for n_l in block_dims)
    m = data.draw(st.integers(1, min(free, 6)), label="m")
    problem = random_feasible_problem(block_dims, m, seed)
    sol = solve(problem)
    assert sol.status == SdpStatus.OPTIMAL, sol.message
    report = check_certificate(problem, sol)
    assert report.passed, str(report)
    for record in sol.trace:
        if max(record["primal_residual"], record["dual_residual"]) <= 1e-9:
            scale = 1.0 + abs(record["primal_objective"]) + abs(record["dual_objective"])
            assert record["primal_objective"] >= record["dual_objective"] - 1e-7 * scale


def test_block_order_does_not_matter():
    # two 3x3 blocks share a size group, next to singleton sizes; reversing
    # the blocks reorders the groups and the blocks within a group
    problem = random_feasible_problem((3, 1, 3, 2), 8, seed=7)
    perm = (3, 2, 1, 0)
    permuted = sdp_problem(
        tuple(problem.block_dims[l] for l in perm),
        tuple(problem.c_blocks[l] for l in perm),
        tuple(problem.a_triplets[l] for l in perm),
        problem.b,
    )
    sol, sol_p = solve_tight(problem), solve_tight(permuted)
    for prob, s in ((problem, sol), (permuted, sol_p)):
        assert s.status == SdpStatus.OPTIMAL, s.message
        report = check_certificate(prob, s)
        assert report.passed, str(report)
    # the two orders round differently, and each stops within the relative
    # gap tolerance of the optimum; the iterates near it are only accurate to
    # about the square root of that gap.  A block scattered to the wrong
    # place would be off by O(1).
    scale = 1.0 + abs(sol.primal_objective)
    assert abs(sol.primal_objective - sol_p.primal_objective) <= 1e-9 * scale
    assert abs(sol.dual_objective - sol_p.dual_objective) <= 1e-9 * scale
    np.testing.assert_allclose(sol_p.y, sol.y, atol=1e-4)
    for pos, l in enumerate(perm):
        np.testing.assert_allclose(sol_p.x_blocks[pos], sol.x_blocks[l], atol=1e-4)
        np.testing.assert_allclose(sol_p.s_blocks[pos], sol.s_blocks[l], atol=1e-4)


def test_schur_chunking_keeps_every_bit(monkeypatch):
    problem = random_feasible_problem((3, 1, 3, 2), 8, seed=3)
    whole = solve(problem)
    monkeypatch.setattr(sdp, "SCHUR_CHUNK_BYTES", 1)  # one constraint per chunk
    chunked = solve(problem)
    assert chunked.trace == whole.trace
    assert np.array_equal(chunked.y, whole.y)
    for a, b in zip(chunked.x_blocks + chunked.s_blocks, whole.x_blocks + whole.s_blocks):
        assert np.array_equal(a, b)


def _stack_of_psd(rng, k, n):
    return np.stack([_random_psd(rng, n) for _ in range(k)])


def asymmetric_tripartite_problem():
    """The extremization of a seeded (3,3,2) functional that no party swap
    fixes: one unreduced 64-block and 531 constraints, whose Schur
    complement is assembled in 34 chunks at the default chunk size."""
    structure = aqset.build_moment_structure(make_scenario(3, 3, 2))
    rng = np.random.default_rng(7)
    functional = BellFunctional(structure.scenario, rng.normal(size=structure.size))
    return aqset.compile_extremize(structure, functional, "min").problem


def _public_operators(group):
    """The group's operator and its row view as scipy matrices, from its
    arrays."""
    m, cells = group.shape
    k_n = cells // group.size
    op = sp.csr_matrix((group.data, group.indices, group.indptr), shape=(m, cells))
    rows = sp.csr_matrix((group.data, group.row_cols, group.row_ptr), shape=(m * k_n, k_n))
    return op, rows


def _public_schur(group, x, s_inv):
    """The Schur term by scipy's public products, one chunk at a time."""
    op, rows = _public_operators(group)
    m, cells = group.shape
    k_n = cells // group.size
    s_stack = s_inv.reshape(-1, group.size)
    terms = []
    for start in range(0, m, group.per_chunk):
        chunk = rows[start * k_n : (start + group.per_chunk) * k_n]
        terms.append(op @ (x @ (chunk @ s_stack).reshape(-1, *x.shape)).reshape(-1, cells).T)
    return np.concatenate(terms, axis=1)


@pytest.mark.parametrize("chunk_bytes", [sdp.SCHUR_CHUNK_BYTES, 1])
def test_schur_workspace_matches_public_products(monkeypatch, chunk_bytes):
    # schur writes into a solve's reused workspace through scipy's private
    # CSR kernel; a scipy release that changed that kernel would show up here
    monkeypatch.setattr(sdp, "SCHUR_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(5)
    problems = [random_feasible_problem((3, 1, 3, 2), m, seed) for seed, m in ((1, 8), (2, 13), (3, 20))]
    problems.append(asymmetric_tripartite_problem())
    for problem in problems:
        for group in problem.operator.groups:
            k = len(group.blocks)
            work = group.workspace()  # one per solve, reused by every iteration
            # the solver's first X is a broadcast identity; later ones are dense
            start = np.broadcast_to(2.0 * np.eye(group.size), (k, group.size, group.size))
            for x in (start, _stack_of_psd(rng, k, group.size), _stack_of_psd(rng, k, group.size)):
                s_inv = _stack_of_psd(rng, k, group.size)
                assert np.array_equal(group.schur(x, s_inv, work), _public_schur(group, x, s_inv))
    if chunk_bytes > 1:  # the default: many chunks, each of many constraints
        (group,) = problems[-1].operator.groups
        assert -(-group.shape[0] // group.per_chunk) == 34


def test_group_products_match_public_products():
    # apply and adjoint call scipy's private CSR and CSC matvec kernels; a
    # scipy release that changed them would show up here
    rng = np.random.default_rng(6)
    inputs = (((3, 1, 3, 2), 8, 1), ((5, 4, 4), 13, 2), ((6,), 20, 3))
    problems = [random_feasible_problem(dims, m, seed) for dims, m, seed in inputs]
    problems.append(asymmetric_tripartite_problem())
    for problem in problems:
        m = problem.num_constraints
        for group in problem.operator.groups:
            k, n = len(group.blocks), group.size
            op, rows = _public_operators(group)
            # the arrays hold the problem's constraints, in both views
            stacks = np.stack([problem.a_stacks[l] for l in group.blocks], axis=1)
            assert np.array_equal(op.toarray(), stacks.reshape(m, -1))
            row_view = np.zeros((m, k, n, k, n))
            for p in range(k):
                row_view[:, p, :, p, :] = stacks[:, p]
            assert np.array_equal(rows.toarray(), row_view.reshape(m * k * n, k * n))
            start = np.broadcast_to(2.0 * np.eye(n), (k, n, n))
            for z in (start, rng.normal(size=(k, n, n))):
                assert np.array_equal(group.apply(z), op @ z.ravel())
            v = rng.normal(size=m)
            assert np.array_equal(group.adjoint(v), (op.T @ v).reshape(k, n, n))


def test_singular_schur_complement_solves_with_jitter(monkeypatch):
    # a repeated constraint makes the Schur complement singular, so plain
    # Cholesky fails on most iterations; the factorization then retries
    # with a diagonal shift instead of ending the solve
    c, a = np.diag([1.0, 2.0, 3.0, 4.0]), np.eye(4)
    single = solve(sdp_problem((4,), (c,), (triplets([a]),), np.array([1.0])))
    failed = []
    cholesky = sdp._cholesky

    def counting(mat):
        chol = cholesky(mat)
        if mat.shape == (2, 2):
            failed.append(chol is None)
        return chol

    monkeypatch.setattr(sdp, "_cholesky", counting)
    repeated = solve(sdp_problem((4,), (c,), (triplets([a, a]),), np.array([1.0, 1.0])))
    assert repeated.status == SdpStatus.OPTIMAL, repeated.message
    assert any(failed)
    assert abs(repeated.primal_objective - single.primal_objective) <= 1e-12


def _reference_step(iterates, directions):
    """-1 / lambda_min(L^{-1} D L^{-T}) over every block by numpy's full
    eigensolver, inf when no eigenvalue is negative."""
    lam = np.inf
    for p_stack, d_stack in zip(iterates, directions):
        for p, d in zip(p_stack, d_stack):
            inv = np.linalg.inv(np.linalg.cholesky(p))
            w = inv @ d @ inv.T
            lam = min(lam, np.linalg.eigvalsh(0.5 * (w + w.T)).min())
    return np.inf if lam >= 0.0 else -1.0 / lam


@pytest.mark.parametrize("n", [1, 2, 9, 30])
def test_step_length_matches_full_eigensolver(n):
    rng = np.random.default_rng(n)
    iterates = [_stack_of_psd(rng, k, n) for k in (1, 4)]
    inverses = sdp._inverse_factors(iterates)
    for _ in range(3):
        directions = [sdp._sym(rng.normal(size=(k, n, n))) for k in (1, 4)]
        step, reference = sdp._step_length(inverses, directions), _reference_step(iterates, directions)
        assert np.isfinite(step) and abs(step - reference) <= 1e-12 * reference
    # every direction positive semidefinite: no boundary in any block
    directions = [np.zeros((1, n, n)), _stack_of_psd(rng, 4, n)]
    assert sdp._step_length(inverses, directions) == np.inf
    # a non-finite direction has no step length, 1x1 blocks included
    directions[1] = directions[1].copy()
    directions[1][2, -1, 0] = directions[1][2, 0, -1] = np.nan
    assert np.isnan(sdp._step_length(inverses, directions))


def test_cholesky_helper_matches_numpy():
    rng = np.random.default_rng(8)
    for n in (1, 2, 9, 30, 156):
        mat = _random_psd(rng, n)
        chol = sdp._cholesky(mat)
        reference = np.linalg.cholesky(mat)
        assert np.linalg.norm(chol - reference) <= 1e-14 * np.linalg.norm(reference)
        assert np.array_equal(chol, np.tril(chol))
        # only the lower triangle is read
        poisoned = mat.copy()
        poisoned[np.triu_indices(n, 1)] = np.nan
        assert np.array_equal(sdp._cholesky(poisoned), chol)
        indefinite = mat - (np.linalg.eigvalsh(mat).min() + 1.0) * np.eye(n)
        assert sdp._cholesky(indefinite) is None


def test_schur_allocates_no_chunk_arrays():
    # the verify-size problem: one 27x27 block, 75 constraints, one chunk
    structure = aqset.build_moment_structure(make_scenario(3, 2, 2))
    rng = np.random.default_rng(0)
    functional = BellFunctional(structure.scenario, rng.normal(size=structure.size))
    problem = aqset.compile_extremize(structure, functional, "min").problem
    m = problem.num_constraints
    assert (problem.block_dims, m) == ((27,), 75)
    (group,) = problem.operator.groups
    work = group.workspace()
    x, s_inv = _stack_of_psd(rng, 1, 27), _stack_of_psd(rng, 1, 27)
    group.schur(x, s_inv, work)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        group.schur(x, s_inv, work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the returned m x m matrix and small temporaries, not the 437 KB chunk
    # products that the allocating assembly made three of
    assert peak <= 3 * m * m * 8


def test_operator_arrays_are_read_only():
    # an operator is shared by every problem that poses its constraints, so
    # none of its arrays can be written through a problem or a solve
    problems = [random_feasible_problem((3, 1, 3, 2), 8, seed=1), asymmetric_tripartite_problem()]
    for problem in problems:
        operator = problem.operator
        arrays = [a for triplet in operator.a_triplets for a in triplet] + [operator.row_norms]
        for group in operator.groups:
            arrays += [group.indptr, group.indices, group.data, group.row_ptr, group.row_cols]
        assert operator.nbytes == sum(a.nbytes for a in arrays)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
        # a solve leaves them as they were
        before = [a.copy() for a in arrays]
        solve(problem)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before, strict=True))


@pytest.mark.parametrize("gap_tol", [np.nan, np.inf, 0.0, -1.0])
def test_gap_tol_out_of_range_is_rejected(gap_tol, monkeypatch):
    # the solver owns its tolerance rule and applies it before it factors a
    # start; a NaN gap used to run to a failed step search
    def started(*args):
        raise AssertionError("solve started iterating")

    monkeypatch.setattr(sdp, "_inverse_factors", started)
    with pytest.raises(ValueError, match="gap_tol"):
        solve(trace_problem(), gap_tol)
    functional = BellFunctional(make_scenario(2, 2, 2), np.linspace(-1.0, 1.0, 9))
    with pytest.raises(ValueError, match="gap_tol"):
        aqset.aq_extremize(functional, "min", gap_tol)


def test_dimension_guard(monkeypatch):
    problem = trace_problem()
    monkeypatch.setattr(sdp, "DIM_GUARD", 1)
    with pytest.raises(SizeGuardError):
        solve(problem)


def test_iteration_limit_reports_trouble(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERS", 1)
    problem = boundary_problem()
    sol = solve(problem)
    assert sol.status == SdpStatus.NUMERICAL_TROUBLE
    assert sol.message == "no convergence within 1 iterations"
    assert sol.iterations == 1
    assert_reports_its_iterate(problem, sol)


def test_problem_validation():
    zero = triplets(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        sdp_problem((2,), (np.array([[0.0, 1.0], [0.0, 0.0]]),), (zero,), np.array([1.0]))
    with pytest.raises(ValueError):
        sdp_problem((2,), (np.zeros((2, 2)),), (zero,), np.array([np.inf]))
    with pytest.raises(ValueError):
        sdp_problem((2,), (np.zeros((2, 2)),), (triplets(np.full((1, 2, 2), np.nan)),), np.array([1.0]))
    with pytest.raises(ValueError):
        sdp_problem((2,), (np.diag([np.nan, 0.0]),), (zero,), np.array([1.0]))
    with pytest.raises(ValueError):
        sdp_problem((2,), (np.zeros((2, 2)),), (zero,), np.array([]))
    operator = sdp_problem((2,), (np.zeros((2, 2)),), (zero,), np.array([1.0])).operator
    with pytest.raises(ValueError):  # one entry of b per constraint of the operator
        SdpProblem(operator, (np.zeros((2, 2)),), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):  # one objective block per operator block
        SdpProblem(operator, (np.zeros((2, 2)),) * 2, np.array([1.0]))

    def build(rows, cells, values):
        return sdp_problem((2,), (np.eye(2),), ((np.array(rows), np.array(cells), np.array(values)),), np.ones(2))

    # unsorted, with repeats: cells 1 and 2 of row 0 mirror each other only
    # once summed, and cell 0 of row 1 sums to an exact zero
    problem = build([1, 0, 1, 0, 0, 1, 1], [3, 2, 3, 1, 1, 0, 0], [0.25, 1.0, 0.5, 0.5, 0.5, 2.0, -2.0])
    ((rows, cells, values),) = problem.a_triplets
    assert (rows.tolist(), cells.tolist(), values.tolist()) == ([0, 0, 1], [1, 2, 3], [1.0, 1.0, 0.75])
    assert np.array_equal(problem.a_stacks[0], [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.75]]])
    with pytest.raises(ValueError):  # the dense view is read-only
        problem.a_stacks[0][0, 0, 0] = 1.0
    for bad in (
        ([-1], [0], [1.0]),  # negative row
        ([2], [0], [1.0]),  # row past m
        ([0], [-1], [1.0]),  # negative cell
        ([0], [4], [1.0]),  # cell past n * n
        ([0, 1], [0], [1.0]),  # unequal lengths
        ([0], [0], [np.nan]),
        ([0], [1], [1.0]),  # off-diagonal entry without its mirror
        ([0, 0], [1, 2], [1.0, 1.0 + 4e-12]),  # mirror off by more than 1e-12
    ):
        with pytest.raises(ValueError):
            build(*bad)
    with pytest.raises(TypeError):  # a float index is not truncated
        build([0.0], [0], [1.0])
    # an asymmetry within 1e-12 passes, as it did for dense input
    assert build([0], [1], [1e-13]).a_triplets[0][2].tolist() == [1e-13]


_KERNELS = {
    "linalg._flapack": ("dpotrf", "dpotrs", "dsyevr", "dtrtri"),
    "sparse._sparsetools": ("csc_matvec", "csr_matvec", "csr_matvecs"),
}


def test_kernels_are_the_ones_scipy_exposes():
    # sdp loads scipy's compiled modules without their packages; every solve
    # keeps its bits because the kernels are the packages' own objects.  The
    # packages find the modules sdp registered, but do not bind them as their
    # attributes, so they are imported here by name
    from scipy.linalg import lapack
    from scipy.sparse import _sparsetools

    for name in _KERNELS["linalg._flapack"]:
        assert getattr(sdp, name) is getattr(lapack, name)
    for name in _KERNELS["sparse._sparsetools"]:
        assert getattr(sdp, name) is getattr(_sparsetools, name)


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_unfound_extension_is_imported_the_ordinary_way(monkeypatch, name):
    full = f"scipy.{name}"
    monkeypatch.delitem(sys.modules, full)
    monkeypatch.setattr(sdp, "EXTENSION_SUFFIXES", [])  # no file matches
    imported = []

    def import_module(module_name):
        imported.append(module_name)
        return importlib.import_module(module_name)

    monkeypatch.setattr(sdp, "importlib", SimpleNamespace(import_module=import_module))
    module = sdp._scipy_extension(name)
    assert imported == [full]
    assert module is sys.modules[full]
    for kernel in _KERNELS[name]:
        assert getattr(module, kernel) is getattr(sdp, kernel)
