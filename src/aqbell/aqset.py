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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import algebra
from .errors import ScenarioMismatchError, SizeGuardError, SolverFailureError
from .scenario import EXTRACTION_TOL, Behavior, BellFunctional, Scenario, basis, from_collins_gisin
from .sdp import SdpProblem, SdpSolution, SdpStatus, SolverConfig, solve

MAX_PARTIES = 3


@dataclass(frozen=True, eq=False)
class MomentStructure:
    scenario: Scenario
    classes: tuple  # canonical words (party-sorted letter tuples), identity () first
    # (N, N) class index per cell, -1 on orthogonal cells: the one stored form
    # of the partition, read through class_sums, scatter and indicator_stack
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


def indicator_stack(structure: MomentStructure, class_row: np.ndarray, m: int) -> np.ndarray:
    """(m, N, N) constraint stack whose row ``class_row[k]`` is the 0/1
    indicator of class k; classes with ``class_row`` -1 get no row.  Every
    cell belongs to at most one row, so one assignment fills the stack and no
    second (m, N, N) array is made."""
    n = structure.size
    stack = np.zeros((m, n, n))
    cell_row = np.append(class_row, -1)[structure.cell_class]
    rows, cols = np.nonzero(cell_row >= 0)
    stack[cell_row[rows, cols], rows, cols] = 1.0
    return stack


def objective_matrix(structure: MomentStructure, coeffs: np.ndarray) -> np.ndarray:
    """Scatter per-monomial objective coefficients onto their class cells, so
    that <result, Z> equals sum_g coeffs[g] * (class-g entry sum of Z)."""
    values = np.zeros(len(structure.classes))
    values[structure.monomial_class] = coeffs
    return scatter(structure, values)


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


def compile_extremize(structure: MomentStructure, functional: BellFunctional, sense: str) -> CompiledExtremize:
    """Certificate-form SDP whose optimum is the extremal value.

    min Z[0,0] over Z >= 0 with, for every non-identity word class, the sum
    of Z's entries over the class pinned to the target coefficient of that
    word (zero for words outside the basis; orthogonal cells stay free).
    The extremal value is target[0] - opt, and the dual slack at the
    optimum is the extremizing moment matrix itself.
    """
    if functional.scenario != structure.scenario:
        raise ScenarioMismatchError("functional and moment structure disagree on the scenario")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    target = functional.coeffs if sense == "min" else -functional.coeffs

    n = structure.size
    m = len(structure.classes) - 1
    # constraint k - 1 pins class k; the identity class is the objective
    stack = indicator_stack(structure, np.arange(m + 1) - 1, m)
    b = np.zeros(m)
    b[structure.monomial_class[1:] - 1] = target[1:]
    c = np.zeros((n, n))
    c[0, 0] = 1.0
    problem = SdpProblem((n,), (c,), (stack,), b)
    return CompiledExtremize(problem, target)


@dataclass(eq=False)
class AqExtremum:
    value: float
    behavior: Behavior  # on the caller's scenario
    certificate: SosCertificate  # on the caller's scenario
    solution: SdpSolution  # the solve over the touched settings only


def aq_extremize(
    functional: BellFunctional, sense: str, config: SolverConfig | None = None
) -> AqExtremum:
    """Extremal value of a functional over the almost-quantum set, with the
    extremal behavior and the certificate matrix.

    The SDP is solved over the settings the functional touches (see
    :func:`restrict_to_touched`), and ``solution`` is that restricted solve.
    ``behavior`` and ``certificate`` are re-embedded into the caller's
    scenario: the behavior's Collins-Gisin entries are 0 on monomials with a
    dropped letter (a dropped setting always returns the last outcome), and
    the certificate's Gram matrix is 0 on their rows and columns.
    """
    restricted, keep = restrict_to_touched(functional)
    structure = build_moment_structure(restricted.scenario)
    compiled = compile_extremize(structure, restricted, sense)
    solution = solve(compiled.problem, config)
    if solution.status != SdpStatus.OPTIMAL:
        raise SolverFailureError(solution.status.value, solution.message, solution)

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
    return AqExtremum(value=value, behavior=behavior, certificate=certificate, solution=solution)


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
