"""Alternating minimization of a composed functional's value.

The figure of merit W(p) = sum V(alpha,c|xi,z) U_(alpha|xi)(a,b|x,y) p(abc|xyz)
is multilinear in the behavior p, the family U and the outer functional V.
Each sweep minimizes exactly over one block with the others fixed: p over
the almost-quantum set, then the U generators over pairs of nonnegativity
cones (each generator and its complement), then V likewise.  Every step is
one SDP, so per-sweep values never increase once past the first sweep.
Every step's SDP is posed by :func:`aqset.indicator_problem`, which builds
each step's constraint operator once and hands it to every later sweep, and
solved by :func:`aqset.solve_indicator` at the solver's default tolerances
(``sdp.GAP_TOL``, ``sdp.FEAS_TOL``); ``aqset`` alone decides from that data
whether to solve it over the blocks of a group of relabellings (party swaps
and outcome flips).  On the reference start every behaviour step is reduced
by the swap of A and B and the joint flip of their setting 1, a group of
order 4.  Every family step is reduced by the swap alone, since it solves
from the solver's default start, which a flip moves, and its solution is
averaged over the flip, so its generators are invariant under the whole
group to roundoff and the next behaviour step is judged invariant again.
"""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from itertools import repeat

import numpy as np

from .aqset import (
    aq_extremize,
    build_moment_structure,
    class_sums,
    indicator_problem,
    solve_indicator,
)
from .errors import AqbellError, NoWorkError, SolverFailureError
from .nbf import NbfFamily, compose, pair_boxes, reference_functionals
from .scenario import (
    EXTRACTION_TOL,
    Behavior,
    BellFunctional,
    behavior_from_table,
    behavior_to_json,
    functional_to_json,
    representative_table,
    to_collins_gisin,
)
# every step solves through aqset.solve_indicator; ``solve`` stays bound here
# only because the benchmark's tracer test reads seesaw.solve
from .sdp import solve  # noqa: F401

STALL_SWEEPS = 3  # a restart stops when its last this-many sweeps together gain < improvement_threshold
RANDOM_NOISE = 0.02  # init_v="random": noise radius around the bundled anchor


@dataclass(frozen=True)
class SeesawConfig:
    restarts: int = 20
    max_sweeps: int = 60
    improvement_threshold: float = 1e-7
    seed: int = 0
    init_v: str = "reference"  # "reference" | "random"
    target_value: float = -0.001
    workers: int | None = None  # None: read AQ_NR_THREADS, default 1


@dataclass(eq=False)
class RestartOutcome:
    index: int
    # (label, value, reduction) per block step: the label is "behavior",
    # "family" or "outer", and the reduction is the relabelling group the
    # step's solve was reduced by ({"generators", "blocks", "constraints"},
    # as AqExtremum.reduction) or None
    steps: list = field(default_factory=list)
    family: NbfFamily | None = None
    outer: BellFunctional | None = None
    behavior: Behavior | None = None
    composed: BellFunctional | None = None
    failed: bool = False
    message: str = ""

    @property
    def sweep_values(self) -> list:
        """The value after each completed sweep: its outer step's."""
        return [value for label, value, _ in self.steps if label == "outer"]

    @property
    def value(self) -> float:
        return float("inf") if self.failed else self.sweep_values[-1]


@dataclass(eq=False)
class SeesawTrace:
    config: SeesawConfig
    outcomes: list
    best_index: int

    @property
    def best(self) -> RestartOutcome:
        return self.outcomes[self.best_index]  # appended in index order

    @property
    def best_value(self) -> float:
        return self.best.value

    @property
    def failed_count(self) -> int:
        return sum(1 for o in self.outcomes if o.failed)


def step_behavior(fam: NbfFamily, outer: BellFunctional):
    """Compose the current blocks and minimize over the almost-quantum set.

    Returns (behavior, value, reduction), the last as ``AqExtremum.reduction``.
    """
    ext = aq_extremize(compose(outer, fam), "min")
    return ext.behavior, ext.value, ext.reduction


def _cone_pair_problem(structure, objectives):
    """SDP over pairs of cone blocks [Z+_s, Z-_s]: the class sums of Z+_s
    define generator s, Z-_s pins its complement, and the objective couples
    linearly to the generators' coefficients.  Returns (problem, reduction)
    from :func:`aqset.indicator_problem`, posed for a solve from the
    default start, so the solution is averaged over the flips that fix the
    data."""
    n = structure.size
    n_slots = len(objectives)
    # rows: each block's vanishing mixed-word sums, then per slot one row per
    # monomial tying the pair's class sums to the unit functional
    # a mask, not np.setdiff1d, whose np.unique loads numpy.ma
    is_mixed = np.ones(len(structure.classes), dtype=bool)
    is_mixed[structure.monomial_class] = False
    mixed = np.flatnonzero(is_mixed)
    n_blocks = 2 * n_slots
    pinned = n_blocks * len(mixed)
    m = pinned + n_slots * n
    class_rows = []
    for blk in range(n_blocks):
        class_row = np.full(len(structure.classes), -1)
        class_row[mixed] = blk * len(mixed) + np.arange(len(mixed))
        class_row[structure.monomial_class] = pinned + (blk // 2) * n + np.arange(n)
        class_rows.append(class_row)
    b = np.zeros(m)
    b[pinned::n] = 1.0
    # the objective is on each pair's Z+ block, at its monomials' classes
    values = np.zeros((n_blocks, len(structure.classes)))
    values[::2, structure.monomial_class] = objectives
    return indicator_problem(structure, values, class_rows, b)


def _solve_cone_pairs(structure, objectives):
    """Solve the cone-pair SDP and read each slot's generator back from its
    Z+ block.  Returns (generators, minimum, reduction), the last as
    ``AqExtremum.reduction``."""
    solution, reduction = solve_indicator(*_cone_pair_problem(structure, objectives))
    generators = [
        BellFunctional(structure.scenario, class_sums(structure, z_plus)[structure.monomial_class])
        for z_plus in solution.x_blocks[::2]
    ]
    return generators, float(solution.primal_objective), reduction


def step_functionals(p: Behavior, fam: NbfFamily, outer: BellFunctional, free: str):
    """Exact minimization over one functional block with the behavior fixed.

    ``free`` selects the block: "family" re-optimizes the generators (each
    constrained, with its complement, to the nonnegativity cone), "outer"
    re-optimizes the outer functional.  Returns (family, outer, value,
    reduction), the last as ``AqExtremum.reduction``.
    """
    if free not in ("family", "outer"):
        raise ValueError(f"free block must be 'family' or 'outer', got {free!r}")
    boxes = pair_boxes(p, outer.scenario.settings[1])  # (z, c, N_pair)
    if free == "family":
        # with U_1 = 1 - U_0, W(p) = sum (V(0,c|xi,z) - V(1,c|xi,z)) U_(0|xi) . q_zc
        # + sum V(1,c|xi,z) p_C(c|z): one objective per generator, plus a constant
        outer_table = representative_table(outer)  # (xi, z, alpha, c)
        objectives = np.einsum("xzc,zcn->xn", outer_table[:, :, 0] - outer_table[:, :, 1], boxes)
        constant = np.einsum("xzc,zc->", outer_table[:, :, 1], boxes[:, :, 0])
        generators, minimum, reduction = _solve_cone_pairs(build_moment_structure(fam.scenario), objectives)
        return NbfFamily(generators), outer, float(minimum + constant), reduction
    members = np.array([[f.coeffs for f in pair] for pair in fam.functionals])  # (xi, alpha, N_pair)
    # the two-party box the outer functional sees: family outcome alpha on
    # one side, the third party's outcome c on the other
    table = np.einsum("xan,zcn->xzac", members, boxes)
    objective = to_collins_gisin(behavior_from_table(outer.scenario, table, EXTRACTION_TOL))
    (outer,), minimum, reduction = _solve_cone_pairs(build_moment_structure(outer.scenario), [objective])
    return fam, outer, minimum, reduction


# --- initialization ----------------------------------------------------------


def _initial_blocks(rng: np.random.Generator | None, init_v: str):
    """"reference" starts at the bundled point (deterministic monotone
    refinement).  "random" draws every block coefficient uniformly within
    ``RANDOM_NOISE`` of the bundled anchor: uninformed starts (wiring mixtures,
    random cone points, structured supports) all collapse onto the flat
    zero plateau of the figure of merit, because the outer step can only go
    negative once the effective two-party box leaves the almost-quantum
    set, and at the deterministic plateau centers it never does.  The
    negative pocket is about 3e-3 deep, which bounds the useful
    randomization radius; restarts outside the pocket stall at zero and are
    reported as misses.  A reference start draws nothing, so ``rng`` may be None."""
    if init_v not in ("reference", "random"):
        raise ValueError(f"unknown init_v {init_v!r}")
    blocks = reference_functionals()  # first, second, outer
    if init_v == "random":
        blocks = [
            BellFunctional(f.scenario, f.coeffs + rng.uniform(-RANDOM_NOISE, RANDOM_NOISE, f.coeffs.shape))
            for f in blocks
        ]
    return NbfFamily(blocks[:2]), blocks[2]


# --- driver -------------------------------------------------------------------


def _run_restart(index: int, seed_seq, cfg: SeesawConfig) -> RestartOutcome:
    rng = None if seed_seq is None else np.random.default_rng(seed_seq)
    fam, outer = _initial_blocks(rng, cfg.init_v)
    outcome = RestartOutcome(index)
    try:
        for _sweep in range(cfg.max_sweeps):
            behavior, value, reduction = step_behavior(fam, outer)
            outcome.steps.append(("behavior", value, reduction))
            fam, outer, value, reduction = step_functionals(behavior, fam, outer, "family")
            outcome.steps.append(("family", value, reduction))
            fam, outer, value, reduction = step_functionals(behavior, fam, outer, "outer")
            outcome.steps.append(("outer", value, reduction))
            if value <= cfg.target_value:
                break
            sweep_values = outcome.sweep_values
            if len(sweep_values) > STALL_SWEEPS and (
                sweep_values[-STALL_SWEEPS - 1] - sweep_values[-1] < cfg.improvement_threshold
            ):
                break
        composed = compose(outer, fam)
        outcome.family, outcome.outer, outcome.behavior, outcome.composed = fam, outer, behavior, composed
    except (AqbellError, ValueError) as exc:
        # np.linalg.LinAlgError is a ValueError: one restart's numerical
        # breakdown is a failed restart, not a failed run
        outcome.failed, outcome.message = True, str(exc)
    return outcome


def _resolve_workers(cfg: SeesawConfig) -> int:
    if cfg.workers is not None:
        return max(1, cfg.workers)
    raw = os.environ.get("AQ_NR_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"AQ_NR_THREADS must be an integer, got {raw!r}") from None


def run(cfg: SeesawConfig) -> SeesawTrace:
    """Run restarts until one reaches the target value or the budget ends.

    Restarts are seeded independently from ``cfg.seed`` and evaluated in
    index order, so results are reproducible for a fixed config regardless
    of the worker count: once restart k reaches the target, restarts after
    k are not consulted.  A "reference" start runs one restart only.
    """
    if cfg.restarts < 1:
        raise NoWorkError(f"seesaw run needs at least one restart, got {cfg.restarts}")
    if cfg.max_sweeps < 1:
        raise NoWorkError(f"seesaw run needs at least one sweep, got {cfg.max_sweeps}")
    # a reference start ignores its seed: a second restart would repeat the first
    restarts = 1 if cfg.init_v == "reference" else cfg.restarts
    # only a random start draws, so a reference one never loads numpy.random
    children = np.random.SeedSequence(cfg.seed).spawn(restarts) if cfg.init_v == "random" else repeat(None)
    # more processes than restarts would sit idle; one runs in this process
    workers = min(_resolve_workers(cfg), restarts)
    pool = None
    if workers > 1:
        # imported here: multiprocessing would cost every other start ~20 ms
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    run_each = map if pool is None else pool.map
    outcomes: list = []
    try:
        for outcome in run_each(_run_restart, range(restarts), children, repeat(cfg)):
            outcomes.append(outcome)
            if not outcome.failed and outcome.value <= cfg.target_value:
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    successful = [o for o in outcomes if not o.failed]
    if not successful:
        raise SolverFailureError(
            "all_restarts_failed", f"all {len(outcomes)} restarts failed: {outcomes[0].message}"
        )
    best = min(successful, key=lambda o: (o.value, o.index))
    return SeesawTrace(config=cfg, outcomes=outcomes, best_index=best.index)


def trace_to_json(trace: SeesawTrace) -> dict:
    best = trace.best
    return {
        # the worker count changes no result
        "config": {k: v for k, v in asdict(trace.config).items() if k != "workers"},
        "restarts": [
            {
                "index": o.index,
                "failed": o.failed,
                "message": o.message,
                "sweep_values": [float(v) for v in o.sweep_values],
                "step_values": [[label, float(v)] for label, v, _ in o.steps],
                "step_reductions": [reduction for _, _, reduction in o.steps],
            }
            for o in trace.outcomes
        ],
        "best": {
            "index": best.index,
            "value": float(best.value),
            "family": [
                [functional_to_json(f) for f in members] for members in best.family.functionals
            ],
            "outer": functional_to_json(best.outer),
            "composed": functional_to_json(best.composed),
            "behavior": behavior_to_json(best.behavior),
        },
    }
