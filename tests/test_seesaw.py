import concurrent.futures
import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest

from aqbell import aqset, sdp, seesaw
from aqbell.aqset import SWAP_TOL, solve_indicator
from aqbell.errors import NoWorkError, NormalizationError
from aqbell.nbf import compose, verify_nbf
from aqbell.scenario import Behavior, basis, evaluate, functional_from_terms, make_scenario
from aqbell.sdp import SdpStatus, check_certificate
from aqbell.seesaw import (
    SeesawConfig,
    run,
    step_behavior,
    step_functionals,
)
from conftest import reference_family_step


def test_step_behavior_reference_point(ref_family, reference_trio, headline):
    behavior, value, _ = step_behavior(ref_family, reference_trio[2])
    assert value == headline.value
    assert -0.0038 <= value <= -0.0028


def test_constant_outer_is_inert(ref_family, scn222):
    half = functional_from_terms(scn222, {(): 0.5})
    behavior, value, _ = step_behavior(ref_family, half)
    assert abs(value - 0.5) < 1e-7
    # the family objective vanishes, so re-optimizing leaves the value alone
    fam2, _, value2, _ = step_functionals(behavior, ref_family, half, "family")
    assert abs(value2 - 0.5) < 1e-7
    # and the returned family is feasible: a feasibility-only solve
    for members in fam2.functionals:
        verdict = verify_nbf(members[0], tol=1e-6)
        assert verdict.is_nbf


def test_identity_pick_reduces_to_generator_floor(ref_family, scn222):
    picker = functional_from_terms(scn222, {((0, 0, 0),): 1.0})
    _, value, _ = step_behavior(ref_family, picker)
    assert abs(value) < 5e-6  # floor of the matching wiring


def test_functional_steps_are_monotone(ref_family, reference_trio, headline):
    outer = reference_trio[2]
    p = headline.behavior
    incoming = evaluate(compose(outer, ref_family), p)
    fam2, outer2, value_u, _ = step_functionals(p, ref_family, outer, "family")
    assert value_u <= incoming + 1e-9
    fam3, outer3, value_v, _ = step_functionals(p, fam2, outer2, "outer")
    assert value_v <= value_u + 1e-9
    assert value_v <= -0.0028
    # step values agree with direct evaluation of the figure of merit
    assert abs(value_u - evaluate(compose(outer2, fam2), p)) < 1e-9
    assert abs(value_v - evaluate(compose(outer3, fam3), p)) < 1e-9


def test_feasibility_preserved_after_steps(ref_family, reference_trio, headline):
    from aqbell.scenario import enumerate_deterministic

    p = headline.behavior
    fam2, outer2, _, _ = step_functionals(p, ref_family, reference_trio[2], "family")
    fam3, outer3, _, _ = step_functionals(p, fam2, outer2, "outer")
    for members in fam3.functionals:
        for functional in members:
            verdict = verify_nbf(functional, tol=1e-6)
            assert verdict.is_nbf
    assert verify_nbf(outer3, tol=1e-6).is_nbf
    # the iterate's composition stays classically bounded
    composed = compose(outer3, fam3)
    values = [evaluate(composed, v) for v in enumerate_deterministic(composed.scenario)]
    assert min(values) >= -1e-6 and max(values) <= 1.0 + 1e-6


def test_reduced_family_step_matches_unreduced(ref_family, reference_trio, headline, monkeypatch):
    # sweep 1 of the reference start: the behaviour solve was reduced by the
    # swap of A and B and the joint flip of their setting 1, so p and with
    # it every family objective is invariant under both
    assert headline.reduction["blocks"] == [21, 9, 9, 9]
    seen = []
    real = seesaw._solve_cone_pairs

    def recording(structure, objectives):
        seen.append((structure, objectives))
        return real(structure, objectives)

    monkeypatch.setattr(seesaw, "_solve_cone_pairs", recording)
    step = (headline.behavior, ref_family, reference_trio[2], "family")
    fam, _, value, reduction = step_functionals(*step)
    assert reduction == REFERENCE_FAMILY_REDUCTION
    structure, objectives = seen[0]
    problem, swap_reduction = seesaw._cone_pair_problem(structure, objectives)
    # the flip fixes this step's data too, but a cone-pair step solves from
    # the default start, which a flip moves, so it is reduced by the swap
    # alone and its solution averaged over the flip
    assert swap_reduction.symmetry.generators == (SWAP_GENERATOR,)
    assert swap_reduction.averaged == (FLIP_GENERATOR,)
    with monkeypatch.context() as patch:
        patch.setattr(seesaw, "indicator_problem", functools.partial(aqset.indicator_problem, invariant_start=True))
        flipped, group_reduction = seesaw._cone_pair_problem(structure, objectives)
    assert group_reduction.symmetry.generators == (SWAP_GENERATOR, FLIP_GENERATOR)
    assert group_reduction.averaged == ()
    assert flipped.block_dims == (7, 3, 3, 3) * 4 and flipped.num_constraints == 66

    # the same step with the size rule forced off solves the 4 x 16 blocks
    monkeypatch.setattr(aqset, "SYMMETRY_MIN_WORK", np.inf)
    fam_full, _, value_full, reduction_full = step_functionals(*step)
    assert reduction_full is None
    assert abs(value - value_full) < 1e-8
    for g, h in zip(fam.generators, fam_full.generators, strict=True):
        assert np.abs(g.coeffs - h.coeffs).max() < 1e-7
    full, none = seesaw._cone_pair_problem(structure, objectives)
    assert none is None and full.block_dims == (16,) * 4 and full.num_constraints == 200

    embedded, _ = solve_indicator(problem, swap_reduction)
    assert check_certificate(full, embedded).passed
    real_solve = aqset.solve

    def corrupting(problem, config, y_start=None):
        solution = real_solve(problem, config, y_start=y_start)
        x_blocks = list(solution.x_blocks)
        x_blocks[2] = x_blocks[2] + 1e-3 * np.eye(len(x_blocks[2]))
        return dataclasses.replace(solution, x_blocks=x_blocks)

    # the one solve path re-embeds whatever the block solve returns
    monkeypatch.setattr(aqset, "solve", corrupting)
    corrupted, _ = solve_indicator(problem, swap_reduction)
    assert not check_certificate(full, corrupted).passed


SWAP_GENERATOR = ("swap", (0, 1))
FLIP_GENERATOR = ("flip", ((0, 1), (1, 1)))  # the joint outcome flip of A's and B's setting 1
SWAP, FLIP = [{"swap": [0, 1]}], [{"flip": [[0, 1], [1, 1]]}]
# every sweep: the family and outer functional are fixed by the swap and
# the flip, the first by construction, later ones because each family
# step's solution is averaged over the flip
REFERENCE_BEHAVIOR_REDUCTION = {"generators": SWAP + FLIP, "blocks": [21, 9, 9, 9], "constraints": 89}
REFERENCE_FAMILY_REDUCTION = {"generators": SWAP, "averaged": FLIP, "blocks": [10, 6] * 4, "constraints": 116}


def signed_permutations(maps, degree) -> list:
    """Every element of the group that the dense commuting involutions
    ``maps`` generate, composed from them, as the signed permutation it
    carries between indices of equal degree: (image, sign) per column."""
    size = len(degree)
    elements = []
    for chosen in itertools.product((False, True), repeat=len(maps)):
        element = np.eye(size)
        for t in itertools.compress(maps, chosen):
            element = t @ element
        lead = np.where(np.equal.outer(degree, degree), element, 0.0)
        assert np.array_equal(np.count_nonzero(lead, axis=0), np.ones(size))
        image = np.abs(lead).argmax(axis=0)
        sign = lead[image, np.arange(size)]
        assert np.array_equal(np.abs(sign), np.ones(size))
        elements.append((image, sign))
    return elements


def orbit_representatives(maps, degree) -> list:
    """The smallest index of each orbit whose stabilizer keeps every sign."""
    elements = signed_permutations(maps, degree)
    return [
        u
        for u in range(len(degree))
        if u == min(image[u] for image, _ in elements) and all(s[u] > 0 for image, s in elements if image[u] == u)
    ]


@pytest.mark.parametrize("case", ["headline", "family"])
def test_kept_rows_and_monomials_match_a_dense_reference(
    case, composed_w, headline, ref_family, reference_trio, monkeypatch
):
    # the kept rows, and each character's leading monomials, against the
    # group's elements composed from the dense row maps G and monomial maps T
    if case == "headline":
        restricted, _ = aqset.restrict_to_touched(composed_w)
        structure = aqset.build_moment_structure(restricted.scenario)
        symmetry = aqset.compile_extremize(structure, restricted, "min").reduction.symmetry
    else:
        structure, objectives = reference_family_step(headline, ref_family, reference_trio, monkeypatch)
        symmetry = seesaw._cone_pair_problem(structure, objectives)[1].symmetry
    dims = [w.shape[1] for w, _, _ in symmetry.bases]
    assert (len(symmetry.rows), dims) == {"headline": (89, [21, 9, 9, 9]), "family": (116, [10, 6])}[case]

    class_rows, m = symmetry.class_rows, len(symmetry.cells)
    flat = class_rows.ravel()
    row_degree = np.zeros(m, dtype=int)
    row_degree[flat[flat >= 0]] = np.tile([len(word) for word in structure.classes], len(class_rows))[flat >= 0]
    row_maps = []
    for generator in symmetry.generators:
        r, c, v = aqset._row_action(structure, m, class_rows.tobytes(), generator)
        row_maps.append(np.zeros((m, m)))
        np.add.at(row_maps[-1], (r, c), v)
    assert list(symmetry.rows) == orbit_representatives(row_maps, row_degree)

    degree = (basis(structure.scenario).settings >= 0).sum(axis=1)
    maps = [aqset._monomial_map(structure, g) for g in symmetry.generators]
    expected = []
    for character in range(1 << len(maps)):
        signs = [(-1.0) ** (character >> bit & 1) for bit in range(len(maps))]
        kept = orbit_representatives([sign * t for sign, t in zip(signs, maps)], degree)
        expected += [kept] if kept else []
    leading = []
    for w, _, _ in symmetry.bases:
        # each column's leading 1: the first of its top-degree entries
        tops = [np.flatnonzero(col * (degree == degree[col != 0].max()))[0] for col in w.T]
        assert np.array_equal(w[tops, np.arange(w.shape[1])], np.ones(w.shape[1]))
        leading.append(tops)
    assert leading == expected


def test_averaged_family_solution_is_certified(ref_family, reference_trio, headline, monkeypatch):
    structure, objectives = reference_family_step(headline, ref_family, reference_trio, monkeypatch)
    problem, reduction = seesaw._cone_pair_problem(structure, objectives)
    solution, record = solve_indicator(problem, reduction)
    assert record == REFERENCE_FAMILY_REDUCTION
    flip = aqset._monomial_map(structure, FLIP_GENERATOR)
    for x in solution.x_blocks:
        assert np.abs(flip @ x @ flip.T - x).max() <= 1e-15 * max(1.0, np.abs(x).max())
    # the average is a certified optimum of the unreduced 4 x 16 problem,
    # with the block solve's objective
    monkeypatch.setattr(aqset, "SYMMETRY_MIN_WORK", np.inf)
    full, none = seesaw._cone_pair_problem(structure, objectives)
    assert none is None and full.block_dims == (16,) * 4
    assert check_certificate(full, solution).passed
    objective = sum(float(np.sum(c * x)) for c, x in zip(full.c_blocks, solution.x_blocks, strict=True))
    assert abs(objective - solution.primal_objective) <= 1e-12 * abs(solution.primal_objective)


def moved_objectives(objectives, structure, *monomials):
    """``objectives`` with the coefficient of each of ``monomials`` moved by
    1e-9.  An objective pairs with class sums, so a relabelling with
    monomial map T fixes it when T^T fixes it."""
    moved = np.array(objectives)
    moved[:, [basis(structure.scenario).index[monomial] for monomial in monomials]] += 1e-9
    return moved


def test_family_step_the_flip_does_not_fix_is_not_averaged(ref_family, reference_trio, headline, monkeypatch):
    structure, objectives = reference_family_step(headline, ref_family, reference_trio, monkeypatch)
    # A1 + B1: fixed by the swap, moved by the flip
    moved = moved_objectives(objectives, structure, ((0, 1, 0),), ((1, 1, 0),))
    problem, reduction = seesaw._cone_pair_problem(structure, moved)
    assert reduction.symmetry.generators == (SWAP_GENERATOR,) and reduction.averaged == ()
    _, record = solve_indicator(problem, reduction)
    assert record == {"generators": SWAP, "blocks": [10, 6] * 4, "constraints": 116}


def test_flips_without_a_swap_average_the_unreduced_problem(ref_family, reference_trio, headline, monkeypatch):
    structure, objectives = reference_family_step(headline, ref_family, reference_trio, monkeypatch)
    # A2 B0: moved by the swap, fixed by the flip
    moved = moved_objectives(objectives, structure, ((0, 2, 0), (1, 0, 0)))
    problem, reduction = seesaw._cone_pair_problem(structure, moved)
    assert reduction.symmetry.generators == () and FLIP_GENERATOR in reduction.averaged
    assert problem.block_dims == (16,) * 4 and problem.num_constraints == 200
    solution, record = solve_indicator(problem, reduction)
    assert record["generators"] == [] and record["blocks"] == [16] * 4
    for generator in reduction.averaged:
        t = aqset._monomial_map(structure, generator)
        for x in solution.x_blocks:
            assert np.abs(t @ x @ t.T - x).max() <= 1e-15 * max(1.0, np.abs(x).max())
    assert check_certificate(problem, solution).passed


def test_reference_sweeps_stay_on_the_reduced_path():
    record = basis(make_scenario(2, 3, 2))
    perm = [record.index[tuple(sorted((1 - k, x, a) for k, x, a in mono))] for mono in record.monomials]
    flip = aqset._monomial_map(aqset.build_moment_structure(make_scenario(2, 3, 2)), FLIP_GENERATOR)
    fam, outer = seesaw._initial_blocks(np.random.default_rng(0), "reference")
    for sweep in range(4):
        behavior, _, reduction = step_behavior(fam, outer)
        assert reduction == REFERENCE_BEHAVIOR_REDUCTION
        fam, outer, _, reduction = step_functionals(behavior, fam, outer, "family")
        assert reduction == REFERENCE_FAMILY_REDUCTION
        # the generators are class sums of a Gram matrix invariant under the
        # swap and, once averaged, under the flip
        for g in fam.generators:
            tol = SWAP_TOL * max(1.0, np.abs(g.coeffs).max())
            assert np.abs(g.coeffs[perm] - g.coeffs).max() <= tol
            assert np.abs(flip @ g.coeffs - g.coeffs).max() <= tol
        fam, outer, _, reduction = step_functionals(behavior, fam, outer, "outer")
        assert reduction is None


def test_step_functionals_rejects_unknown_block(ref_family, reference_trio, headline):
    with pytest.raises(ValueError):
        step_functionals(headline.behavior, ref_family, reference_trio[2], "both")


def test_outer_step_checks_its_box_at_the_extraction_tolerance(ref_family, reference_trio, headline):
    # the two-party box read from p is held to scenario.EXTRACTION_TOL (1e-7)
    p = headline.behavior
    scaled = Behavior(p.scenario, p.table * (1.0 + 5e-7))
    with pytest.raises(NormalizationError):
        step_functionals(scaled, ref_family, reference_trio[2], "outer")


def test_reference_steps_converge_at_the_default_tolerances(monkeypatch):
    solutions = []
    real = aqset.solve

    def recording(*args, **kwargs):
        solutions.append(real(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(aqset, "solve", recording)
    cfg = SeesawConfig(restarts=1, max_sweeps=4, target_value=-math.inf, improvement_threshold=-math.inf, workers=1)
    trace = run(cfg)
    assert trace.failed_count == 0 and len(trace.best.sweep_values) == 4
    assert len(solutions) == 3 * 4  # behaviour, family and outer step per sweep
    for solution in solutions:
        assert solution.status == SdpStatus.OPTIMAL
        assert max(solution.residuals.primal, solution.residuals.dual) <= sdp.FEAS_TOL
        assert solution.residuals.gap <= sdp.GAP_TOL


def test_reference_run_monotone_and_reaches_target():
    cfg = SeesawConfig(restarts=1, max_sweeps=12, seed=0, init_v="reference", target_value=-0.003)
    trace = run(cfg)
    best = trace.best
    values = best.sweep_values
    assert all(values[i + 1] <= values[i] + 1e-8 for i in range(len(values) - 1))
    assert trace.best_value <= -0.003


def test_run_determinism():
    cfg = SeesawConfig(restarts=2, max_sweeps=3, seed=123, init_v="random", target_value=-1.0)
    first = run(cfg)
    second = run(cfg)
    assert first.best_value == second.best_value
    assert [o.sweep_values for o in first.outcomes] == [o.sweep_values for o in second.outcomes]
    # noisy blocks are not swap-invariant, so no step is reduced
    assert all(r is None for o in first.outcomes for _, _, r in o.steps)


def test_failed_restart_does_not_abort_run(monkeypatch):
    real = seesaw.step_functionals
    calls = []

    def breaks_once(*args, **kwargs):
        calls.append(args[3])
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(*args, **kwargs)

    monkeypatch.setattr(seesaw, "step_functionals", breaks_once)
    cfg = SeesawConfig(restarts=2, max_sweeps=1, seed=0, init_v="random", target_value=-1.0, workers=1)
    trace = run(cfg)
    assert trace.failed_count == 1
    assert trace.outcomes[0].failed and "did not converge" in trace.outcomes[0].message
    assert trace.best_index == 1
    assert trace.best_value == trace.outcomes[1].sweep_values[-1]


def test_reference_start_runs_once():
    # the reference start ignores its seed, so every further restart would repeat it
    trace = run(SeesawConfig(restarts=3, max_sweeps=1, init_v="reference", target_value=-1.0))
    assert len(trace.outcomes) == 1


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, cancel_futures=False):
        pass


def test_pool_is_capped_at_the_restart_count(monkeypatch):
    # run imports the pool class from concurrent.futures only when it builds one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    # a reference start runs one restart: no pool at all
    run(SeesawConfig(restarts=3, max_sweeps=1, init_v="reference", target_value=-1.0, workers=2))
    assert _RecordingPool.sizes == []
    trace = run(SeesawConfig(restarts=2, max_sweeps=1, seed=0, init_v="random", target_value=-1.0, workers=4))
    assert _RecordingPool.sizes == [2]
    assert len(trace.outcomes) == 2


def test_run_zero_restarts():
    with pytest.raises(NoWorkError):
        run(SeesawConfig(restarts=0))


def test_parallel_workers_match_sequential():
    cases = [
        (SeesawConfig(restarts=2, max_sweeps=2, seed=31, init_v="random", target_value=-1.0), 2),
        # the first restart meets the target: the parallel path stops there too
        (SeesawConfig(restarts=4, max_sweeps=1, seed=3, init_v="random", target_value=1.0), 1),
    ]
    for cfg, expected_outcomes in cases:
        sequential = run(cfg)
        parallel = run(SeesawConfig(**{**cfg.__dict__, "workers": 2}))
        assert len(sequential.outcomes) == len(parallel.outcomes) == expected_outcomes
        assert sequential.best_value == parallel.best_value
        assert [o.sweep_values for o in sequential.outcomes] == [o.sweep_values for o in parallel.outcomes]


def test_random_mode_reaches_target():
    cfg = SeesawConfig(restarts=6, max_sweeps=20, seed=7, init_v="random")
    trace = run(cfg)
    assert trace.best_value <= -0.001
    # early stop: no restarts consulted past the first success
    hit = next(i for i, o in enumerate(trace.outcomes) if not o.failed and o.value <= -0.001)
    assert len(trace.outcomes) == hit + 1


def test_trace_json(ref_family):
    from aqbell.seesaw import trace_to_json

    cfg = SeesawConfig(restarts=1, max_sweeps=2, seed=5, init_v="reference", target_value=-1.0)
    trace = run(cfg)
    blob = trace_to_json(trace)
    assert blob["best"]["index"] == 0
    assert len(blob["best"]["family"]) == 2
    assert blob["restarts"][0]["sweep_values"] == [float(v) for v in trace.best.sweep_values]
    steps = blob["restarts"][0]["step_values"]
    assert [label for label, _ in steps] == ["behavior", "family", "outer"] * cfg.max_sweeps
    assert [value for label, value in steps if label == "outer"] == blob["restarts"][0]["sweep_values"]
    reductions = blob["restarts"][0]["step_reductions"]
    assert reductions == [r for _, _, r in trace.best.steps]
    assert reductions == [REFERENCE_BEHAVIOR_REDUCTION, REFERENCE_FAMILY_REDUCTION, None] * cfg.max_sweeps
    json.dumps(blob, allow_nan=False)
