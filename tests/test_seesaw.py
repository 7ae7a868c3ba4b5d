import dataclasses
import json

import numpy as np
import pytest

from aqbell import aqset, seesaw
from aqbell.aqset import SWAP_TOL, build_moment_structure, party_swap, solve_indicator
from aqbell.errors import NoWorkError
from aqbell.nbf import compose, verify_nbf
from aqbell.scenario import evaluate, functional_from_terms, make_scenario
from aqbell.sdp import check_certificate
from aqbell.seesaw import (
    SeesawConfig,
    run,
    step_behavior,
    step_functionals,
)


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
    # sweep 1 of the reference start: the behaviour solve was reduced, so p
    # and with it every family objective is swap-invariant
    assert headline.reduction["blocks"] == [30, 18]
    seen = []
    real = seesaw._solve_cone_pairs

    def recording(structure, objectives):
        seen.append((structure, objectives))
        return real(structure, objectives)

    monkeypatch.setattr(seesaw, "_solve_cone_pairs", recording)
    step = (headline.behavior, ref_family, reference_trio[2], "family")
    fam, _, value, reduction = step_functionals(*step)
    assert reduction == {"parties": [0, 1], "blocks": [10, 6] * 4, "constraints": 116}
    structure, objectives = seen[0]
    problem, swap_reduction = seesaw._cone_pair_problem(structure, objectives)

    # the same step with the size rule forced off solves the 4 x 16 blocks
    monkeypatch.setattr(aqset, "SWAP_MIN_WORK", np.inf)
    fam_full, _, value_full, reduction_full = step_functionals(*step)
    assert reduction_full is None
    assert abs(value - value_full) < 1e-8
    for g, h in zip(fam.generators, fam_full.generators, strict=True):
        assert np.abs(g.coeffs - h.coeffs).max() < 1e-7
    full, none = seesaw._cone_pair_problem(structure, objectives)
    assert none is None and full.block_dims == (16,) * 4 and full.num_constraints == 200

    embedded, _ = solve_indicator(problem, swap_reduction, seesaw.SEESAW_SOLVER)
    assert check_certificate(full, embedded).passed
    real_solve = aqset.solve

    def corrupting(problem, config):
        solution = real_solve(problem, config)
        x_blocks = list(solution.x_blocks)
        x_blocks[2] = x_blocks[2] + 1e-3 * np.eye(len(x_blocks[2]))
        return dataclasses.replace(solution, x_blocks=x_blocks)

    # the one solve path re-embeds whatever the block solve returns
    monkeypatch.setattr(aqset, "solve", corrupting)
    corrupted, _ = solve_indicator(problem, swap_reduction, seesaw.SEESAW_SOLVER)
    assert not check_certificate(full, corrupted).passed


def test_reference_sweeps_stay_on_the_reduced_path():
    perm = party_swap(build_moment_structure(make_scenario(2, 3, 2)), (0, 1)).perm
    fam, outer = seesaw._initial_blocks(np.random.default_rng(0), "reference")
    for _sweep in range(4):
        behavior, _, reduction = step_behavior(fam, outer)
        assert reduction == {"parties": [0, 1], "blocks": [30, 18], "constraints": 156}
        fam, outer, _, reduction = step_functionals(behavior, fam, outer, "family")
        assert reduction == {"parties": [0, 1], "blocks": [10, 6] * 4, "constraints": 116}
        # the generators are class sums of a swap-invariant Gram matrix
        for g in fam.generators:
            assert np.abs(g.coeffs[perm] - g.coeffs).max() <= SWAP_TOL * max(1.0, np.abs(g.coeffs).max())
        fam, outer, _, reduction = step_functionals(behavior, fam, outer, "outer")
        assert reduction is None


def test_step_functionals_rejects_unknown_block(ref_family, reference_trio, headline):
    with pytest.raises(ValueError):
        step_functionals(headline.behavior, ref_family, reference_trio[2], "both")


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
    monkeypatch.setattr(seesaw, "ProcessPoolExecutor", _RecordingPool)
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
    assert [r and r["blocks"] for r in reductions] == [[30, 18], [10, 6] * 4, None] * cfg.max_sweeps
    json.dumps(blob, allow_nan=False)
