"""Moment-matrix characterization of the almost-quantum correlation set.

The moment matrix Gamma is indexed by the monomial basis; every cell whose
projector product reduces to the same canonical word carries one shared
moment value, orthogonal products vanish, Gamma(1,1) = 1 and Gamma >= 0.
Extremizing a Bell functional over the set is solved in certificate form:
the semidefinite variable Z is a Gram matrix whose per-class entry sums
reproduce the functional's coefficients, the objective min Z[0,0] yields the
bound, and the dual multipliers are (minus) the optimal moment values, from
which the extremal behavior is read off the first row.

The extremizer solves over only the settings the functional touches.  The
set is closed under dropping a setting (a principal submatrix of Gamma) and
under re-adding one that always returns the last outcome (its basis letters
are the zero operator, so Gamma only gains zero rows), hence the restricted
problem has the same value and its solution re-embeds exactly.

A problem whose data a transposition of two parties leaves unchanged is
solved over the symmetric and antisymmetric combinations of the monomials
(Gatermann & Parrilo, J. Pure Appl. Algebra 192, 2004).  The problem is then
invariant under the swap, so an optimal Z may be taken swap-invariant; such a
Z is block-diagonal in that basis, and the class sums of a word and of its
swapped image agree, so a constraint and its swapped image merge into one.
:func:`indicator_problem` poses every problem built from class-indicator
rows this way when its data allow it (the extremization here and the
see-saw's cone-pair steps), and :func:`solve_indicator`, the one solve of
such a problem, maps the solution back into the unreduced problem.
"""
from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import algebra
from .errors import ScenarioMismatchError, SizeGuardError, SolverFailureError
from .scenario import EXTRACTION_TOL, Behavior, BellFunctional, Scenario, basis, from_collins_gisin
from .sdp import SdpProblem, SdpSolution, SdpStatus, SolverConfig, solve

MAX_PARTIES = 3
# m * sum_l n_l**3 of the unreduced problem below which its blocks solve
# faster than twice as many blocks of different sizes
SWAP_MIN_WORK = 2_000_000
# data mismatch under a party swap, relative to max(1, |c|_inf, |b|_inf), that
# still counts as invariant (compose leaves ~1e-17)
SWAP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MomentStructure:
    scenario: Scenario
    classes: tuple  # canonical words (party-sorted letter tuples), identity () first
    # (N, N) class index per cell, -1 on orthogonal cells: the one stored form
    # of the partition, read through class_sums, scatter and indicator_problem
    cell_class: np.ndarray
    monomial_class: np.ndarray  # (N,) class index of each basis monomial

    @property
    def basis(self) -> tuple:
        return basis(self.scenario).monomials

    @property
    def size(self) -> int:
        return len(self.monomial_class)


@lru_cache(maxsize=None)
def build_moment_structure(scenario: Scenario) -> MomentStructure:
    if scenario.parties > MAX_PARTIES:
        raise SizeGuardError(f"moment structures support up to {MAX_PARTIES} parties")
    index = basis(scenario).index
    class_map = algebra.word_classes(scenario)
    classes = tuple(class_map)
    cell_class = np.full((len(index), len(index)), -1, dtype=int)
    for idx, cells in enumerate(class_map.values()):
        rows, cols = zip(*cells)
        cell_class[rows, cols] = idx

    assert classes[0] == ()
    monomial_class = cell_class[0].copy()
    # first-row cells and interior cells reducing to the same monomial must
    # already share a class; the scatter construction relies on it
    for idx, word in enumerate(classes):
        if word in index:
            assert monomial_class[index[word]] == idx

    return MomentStructure(
        scenario=scenario, classes=classes, cell_class=cell_class, monomial_class=monomial_class
    )


def restrict_to_touched(functional: BellFunctional):
    """The functional on the scenario of the settings it touches, and the
    caller-basis index of each restricted basis monomial.

    A setting is touched when some monomial with a nonzero coefficient uses
    it; a party touching none keeps setting 0.  Kept settings are renumbered
    in order, which preserves the basis order, so the kept monomials map
    onto the restricted basis in increasing index order.  When nothing can
    be dropped the functional is returned unchanged.
    """
    scenario = functional.scenario
    table = basis(scenario).settings
    used = table[functional.coeffs != 0.0]
    keep = np.ones(len(table), dtype=bool)
    settings = []
    for party, count in enumerate(scenario.settings):
        # slot `count` (read by label -1) stands for "no letter of this party"
        touched = np.zeros(count + 1, dtype=bool)
        touched[used[:, party]] = True
        touched[count] = True
        if not touched[:count].any():
            touched[0] = True
        keep &= touched[table[:, party]]
        settings.append(int(touched[:count].sum()))
    index = np.flatnonzero(keep)
    if len(index) == len(table):
        return functional, index
    restricted = Scenario(scenario.parties, tuple(settings), scenario.outcomes)
    return BellFunctional(restricted, functional.coeffs[index]), index


@dataclass(frozen=True, eq=False)
class PartySwap:
    """A transposition of two parties, acting on a moment structure.

    ``perm`` maps each basis monomial to its swapped image and ``image``
    each word class to the class of its swapped image.  ``blocks`` holds,
    for the symmetric and then the antisymmetric component, a matrix W whose
    columns are e_i for a fixed monomial i and e_i + e_j, resp. e_i - e_j,
    for a swapped pair, and the matrix ``scale`` of 1 / (|w_c| |w_c'|), so
    that the orthonormal basis U = W diag(1/|w_c|) acts as
    U^T A U = scale * (W^T A W) and U Y U^T = W (scale * Y) W^T.  Every
    entry of W^T A W is a sum of at most four signed entries of A, so
    blocks of 0/1 and 1/2 entries keep exact zeros.
    """

    parties: tuple
    perm: np.ndarray
    image: np.ndarray
    blocks: tuple


@lru_cache(maxsize=None)
def party_swap(structure: MomentStructure, parties: tuple) -> PartySwap:
    """The swap of two parties with equal settings counts."""
    p, q = parties
    index = basis(structure.scenario).index
    rename = {p: q, q: p}
    perm = np.array([
        index[tuple(sorted((rename.get(k, k), x, a) for k, x, a in mono))] for mono in structure.basis
    ])
    # cell (i, j) goes to (perm i, perm j), so class k goes to the class there
    labels = structure.cell_class
    moved = labels[np.ix_(perm, perm)]
    labelled = labels >= 0
    image = np.empty(len(structure.classes), dtype=int)
    image[labels[labelled]] = moved[labelled]
    assert np.array_equal(np.append(image, -1)[labels], moved)

    monomials = np.arange(structure.size)
    blocks = []
    for sign, first in ((1.0, monomials <= perm), (-1.0, monomials < perm)):
        cols = np.flatnonzero(first)
        w = np.zeros((structure.size, len(cols)))
        w[perm[cols], np.arange(len(cols))] = sign
        w[cols, np.arange(len(cols))] = 1.0
        norm2 = (w != 0).sum(axis=0)
        blocks.append((w, 1.0 / np.sqrt(np.outer(norm2, norm2))))
    return PartySwap(parties, perm, image, tuple(blocks))


def invariant_swap(
    structure: MomentStructure, c_blocks, class_rows, b: np.ndarray
) -> tuple[PartySwap, np.ndarray] | None:
    """The first transposition of two parties with equal settings counts
    that fixes the problem :func:`indicator_problem` poses from ``c_blocks``,
    ``class_rows`` and ``b``: every objective block under the monomial
    permutation and ``b`` under the constraint permutation the swap induces,
    to within ``SWAP_TOL * max(1, |c|_inf, |b|_inf)``.  Returns the swap and
    that constraint permutation, or None; None also when the unreduced
    problem has m * sum_l n_l**3 below ``SWAP_MIN_WORK``."""
    scenario = structure.scenario
    m = len(b)
    if m * len(class_rows) * structure.size**3 < SWAP_MIN_WORK:
        return None
    tol = SWAP_TOL * max(1.0, float(np.abs(b).max(initial=0.0)), *(float(np.abs(c).max()) for c in c_blocks))
    for parties in itertools.combinations(range(scenario.parties), 2):
        if scenario.settings[parties[0]] != scenario.settings[parties[1]]:
            continue
        swap = party_swap(structure, parties)
        # the constraint of class k goes to the constraint of k's image
        image = np.arange(m)
        for class_row in class_rows:
            has_row = class_row >= 0
            image[class_row[has_row]] = class_row[swap.image[has_row]]
        for class_row in class_rows:
            assert np.array_equal(np.append(image, -1)[class_row], class_row[swap.image])
        if np.abs(b[image] - b).max(initial=0.0) <= tol and all(
            np.abs(c[np.ix_(swap.perm, swap.perm)] - c).max() <= tol for c in c_blocks
        ):
            return swap, image
    return None


def class_sums(structure: MomentStructure, mat: np.ndarray) -> np.ndarray:
    """Entry sum of ``mat`` over every word class, in class order."""
    labelled = structure.cell_class >= 0
    return np.bincount(
        structure.cell_class[labelled], weights=mat[labelled], minlength=len(structure.classes)
    )


def scatter(structure: MomentStructure, values: np.ndarray) -> np.ndarray:
    """Matrix carrying ``values[k]`` on every cell of class k and 0 on the
    orthogonal cells; the adjoint of :func:`class_sums`."""
    # label -1 picks the appended zero
    return np.append(values, 0.0)[structure.cell_class]


def objective_matrix(structure: MomentStructure, coeffs: np.ndarray) -> np.ndarray:
    """Scatter per-monomial objective coefficients onto their class cells, so
    that <result, Z> equals sum_g coeffs[g] * (class-g entry sum of Z)."""
    values = np.zeros(len(structure.classes))
    values[structure.monomial_class] = coeffs
    return scatter(structure, values)


@dataclass(frozen=True, eq=False)
class SwapReduction:
    """How :func:`indicator_problem` posed a problem over a party swap's
    blocks: unreduced constraint r became row ``row[r]``, the average of the
    ``size[row[r]]`` constraints merged into it, and unreduced block l became
    blocks 2l (symmetric) and 2l + 1 (antisymmetric)."""

    swap: PartySwap
    row: np.ndarray
    size: np.ndarray


def indicator_problem(
    structure: MomentStructure, c_blocks, class_rows, b: np.ndarray
) -> tuple[SdpProblem, SwapReduction | None]:
    """SDP over one N x N block Z_l per entry of ``class_rows``: minimize
    sum_l <c_l, Z_l> subject to, for every r, the sum over l of the entry
    sums of Z_l over the classes k with ``class_rows[l][k] == r`` equal to
    ``b[r]``.

    When :func:`invariant_swap` finds a party swap that fixes this data, an
    optimum may be taken swap-invariant, so each constraint and its image
    merge into one row (the two averaged) and every block is projected onto
    the swap's symmetric and antisymmetric blocks.  Returns the problem and
    its :class:`SwapReduction`, or the unreduced problem and None; either
    way :func:`solve_indicator` solves it.  Both are built alike (the
    unreduced one over the identity basis): cell (a, b) in constraint q adds
    W[a, i] W[b, j] scale[i, j] / size[row[q]] to cell (i, j) of its row.
    """
    n, m = structure.size, len(b)
    swap, image = invariant_swap(structure, c_blocks, class_rows, b) or (None, np.arange(m))
    bases = ((np.eye(n), np.ones((n, n))),) if swap is None else swap.blocks
    # merged rows are numbered by the smallest constraint they hold
    _, row = np.unique(np.minimum(image, np.arange(m)), return_inverse=True)
    size = np.bincount(row)
    cs, triplets = [], []
    for c, class_row in zip(c_blocks, class_rows, strict=True):
        cell_row = np.append(np.where(class_row >= 0, row[class_row], -1), -1)[structure.cell_class]
        for w, scale in bases:
            mono, col = np.nonzero(w)  # each monomial is in at most one column, with sign +-1
            rows = cell_row[np.ix_(mono, mono)]
            i, j = np.nonzero(rows >= 0)
            cs.append(scale * (w.T @ c @ w))
            values = w[mono[i], col[i]] * w[mono[j], col[j]] * scale[col[i], col[j]] / size[rows[i, j]]
            triplets.append((rows[i, j], col[i] * w.shape[1] + col[j], values))
    problem = SdpProblem(tuple(len(c) for c in cs), tuple(cs), tuple(triplets), np.bincount(row, weights=b) / size)
    return problem, None if swap is None else SwapReduction(swap, row, size)


def solve_indicator(
    problem: SdpProblem, reduction: SwapReduction | None, config: SolverConfig | None
) -> tuple[SdpSolution, dict | None]:
    """Solve a problem from :func:`indicator_problem` as the unreduced one.

    Raises :class:`SolverFailureError` unless the solve is optimal.  A
    swap-reduced solve is re-embedded: each unreduced block
    X_l = U_s X_2l U_s^T + U_a X_2l+1 U_a^T, S likewise, and each
    constraint's multiplier is its merged row's divided by the constraints
    merged there; status, objectives, residuals, iterations and trace stay
    the block solve's.  Returns that solution and ``{"parties", "blocks",
    "constraints"}`` of the reduced problem, or the solution and None.
    """
    solution = solve(problem, config)
    if solution.status != SdpStatus.OPTIMAL:
        raise SolverFailureError(solution.status.value, solution.message, solution)
    if reduction is None:
        return solution, None

    blocks = reduction.swap.blocks

    def embed(mats):
        pairs = zip(mats[::2], mats[1::2], strict=True)
        return [sum(w @ (scale * z) @ w.T for (w, scale), z in zip(blocks, pair)) for pair in pairs]

    row = reduction.row
    embedded = dataclasses.replace(
        solution,
        x_blocks=embed(solution.x_blocks),
        s_blocks=embed(solution.s_blocks),
        y=solution.y[row] / reduction.size[row],
    )
    return embedded, {
        "parties": list(reduction.swap.parties),
        "blocks": list(problem.block_dims),
        "constraints": problem.num_constraints,
    }


@dataclass(eq=False)
class SosCertificate:
    """Gram matrix z certifying that ``target - lam`` is a sum of Hermitian
    squares over the monomial basis, hence >= lam on the whole set."""

    scenario: Scenario
    target: np.ndarray
    lam: float
    z: np.ndarray


@dataclass(frozen=True, eq=False)
class CompiledExtremize:
    problem: SdpProblem
    target: np.ndarray  # functional coefficients, negated for "max"
    reduction: SwapReduction | None  # how the problem was reduced by a party swap, if it was


def compile_extremize(structure: MomentStructure, functional: BellFunctional, sense: str) -> CompiledExtremize:
    """Certificate-form SDP whose optimum is the extremal value.

    min Z[0,0] over Z >= 0 with, for every non-identity word class, the sum
    of Z's entries over the class pinned to the target coefficient of that
    word (zero for words outside the basis; orthogonal cells stay free).
    The extremal value is target[0] - opt, and the dual slack at the
    optimum is the extremizing moment matrix itself.

    The problem is built by :func:`indicator_problem`, so a party swap
    that fixes the pinned coefficients (the target without its constant
    term, which is not SDP data) poses it over the swap's symmetric and
    antisymmetric blocks, with one constraint per orbit of word classes: the
    class indicators and targets averaged over the orbit.
    """
    if functional.scenario != structure.scenario:
        raise ScenarioMismatchError("functional and moment structure disagree on the scenario")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    target = functional.coeffs if sense == "min" else -functional.coeffs

    n = structure.size
    m = len(structure.classes) - 1
    c = np.zeros((n, n))
    c[0, 0] = 1.0
    pinned = np.zeros(m + 1)  # per class; the identity class is the objective
    pinned[structure.monomial_class] = target
    # constraint k - 1 pins class k
    problem, reduction = indicator_problem(structure, (c,), (np.arange(m + 1) - 1,), pinned[1:])
    return CompiledExtremize(problem, target, reduction)


@dataclass(eq=False)
class AqExtremum:
    value: float
    behavior: Behavior  # on the caller's scenario
    certificate: SosCertificate  # on the caller's scenario
    solution: SdpSolution  # of the one-block problem over the touched settings only
    # the party swap the solve was reduced by: {"parties", "blocks",
    # "constraints"}, or None for the one-block solve
    reduction: dict | None


def aq_extremize(
    functional: BellFunctional, sense: str, config: SolverConfig | None = None
) -> AqExtremum:
    """Extremal value of a functional over the almost-quantum set, with the
    extremal behavior and the certificate matrix.

    The SDP is solved over the settings the functional touches (see
    :func:`restrict_to_touched`), and ``solution`` is a solution of that
    restricted problem.  When a party swap fixes the restricted functional
    and the problem is large enough, the solve runs over two blocks (see
    :func:`indicator_problem`), ``solution`` is its re-embedding and
    ``reduction`` records the swapped parties, the block sizes and the
    constraint count (:func:`solve_indicator`).
    ``behavior`` and ``certificate`` are re-embedded into the caller's
    scenario: the behavior's Collins-Gisin entries are 0 on monomials with a
    dropped letter (a dropped setting always returns the last outcome), and
    the certificate's Gram matrix is 0 on their rows and columns.
    """
    restricted, keep = restrict_to_touched(functional)
    structure = build_moment_structure(restricted.scenario)
    compiled = compile_extremize(structure, restricted, sense)
    solution, reduction = solve_indicator(compiled.problem, compiled.reduction, config)

    bound = float(compiled.target[0] - solution.primal_objective)
    value = bound if sense == "min" else -bound

    n = len(functional.coeffs)
    entries = np.zeros(n)
    # moments are the negated dual multipliers, read at the first row's classes
    entries[keep] = np.concatenate(([1.0], -solution.y))[structure.monomial_class]
    behavior = from_collins_gisin(functional.scenario, entries, EXTRACTION_TOL)

    target = np.zeros(n)
    target[keep] = compiled.target
    z = np.zeros((n, n))
    z[np.ix_(keep, keep)] = solution.x_blocks[0]
    certificate = SosCertificate(scenario=functional.scenario, target=target, lam=bound, z=z)
    return AqExtremum(
        value=value,
        behavior=behavior,
        certificate=certificate,
        solution=solution,
        reduction=reduction,
    )


def strictly_feasible_point(structure: MomentStructure) -> np.ndarray:
    """Interior moment matrix from the product-projector model (one
    d-dimensional tensor factor per setting per party): each word's moment
    is prod_k d^(-#distinct settings of party k in the word)."""
    d = structure.scenario.outcomes
    values = np.empty(len(structure.classes))
    for idx, word in enumerate(structure.classes):
        per_party: dict[int, set] = {}
        for party, setting, _outcome in word:
            per_party.setdefault(party, set()).add(setting)
        value = 1.0
        for settings in per_party.values():
            value /= float(d) ** len(settings)
        values[idx] = value
    return scatter(structure, values)


def constraint_residual(structure: MomentStructure, gamma: np.ndarray) -> float:
    """Worst violation of the compiled moment constraints by a matrix:
    per-class entry spread, zero cells, symmetry and normalization."""
    labels = structure.cell_class
    orthogonal = labels < 0
    hi = np.full(len(structure.classes), -np.inf)
    lo = np.full(len(structure.classes), np.inf)
    np.maximum.at(hi, labels[~orthogonal], gamma[~orthogonal])
    np.minimum.at(lo, labels[~orthogonal], gamma[~orthogonal])
    # np.max, unlike the builtin, propagates a NaN entry into the residual
    return float(np.max([
        abs(gamma[0, 0] - 1.0),
        np.abs(gamma - gamma.T).max(),
        (hi - lo).max(),
        np.abs(gamma[orthogonal]).max(initial=0.0),
    ]))
