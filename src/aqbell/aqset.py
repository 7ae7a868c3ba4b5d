"""Moment-matrix characterization of the almost-quantum correlation set.

The moment matrix Gamma is indexed by the monomial basis; every cell whose
projector product reduces to the same canonical word carries one shared
moment value, orthogonal products vanish, Gamma(1,1) = 1 and Gamma >= 0.
Extremizing a Bell functional over the set is solved in certificate form:
the semidefinite variable Z is a Gram matrix whose per-class entry sums
reproduce the functional's coefficients, the objective min Z[0,0] yields the
bound, and the dual multipliers are (minus) the optimal moment values, from
which the extremal behavior is read off the first row.  The moment matrix
of the product-projector model is a strictly feasible dual slack, so every
extremization starts there, on the solver's central path.

The extremizer solves over only the settings the functional touches.  The
set is closed under dropping a setting (a principal submatrix of Gamma) and
under re-adding one that always returns the last outcome (its basis letters
are the zero operator, so Gamma only gains zero rows), hence the restricted
problem has the same value and its solution re-embeds exactly.

A problem whose data a group of relabellings leaves unchanged is solved
over that group's isotypic blocks (Gatermann & Parrilo, J. Pure Appl.
Algebra 192, 2004; Tavakoli, Rosset & Renou, PRL 122, 070501, 2019).  The
groups used are generated by commuting involutions: a transposition of two
parties with equal settings counts, and, for two outcomes, the joint
outcome flip of a set of (party, setting) letters, which maps each flipped
projector P to 1 - P.  One rule (:func:`_class_map`) maps a word class to
an integer combination of classes: a swap renames the two parties, a flip
expands each flipped letter P as 1 - P.  The basis is closed under
dropping letters, so on the monomials' own classes it is the map of
monomials to signed sums of monomials, and a constraint row maps to a
combination of rows, so the problem is judged in class coordinates, from
its own data.
An optimal Z may then be taken invariant; such a Z is block-diagonal over
the characters of the group, and on it the rows satisfy exact relations,
so one row per orbit of word classes determines the rest.
:func:`indicator_problem` poses every problem built from class-indicator
rows (the extremization here and the see-saw's cone-pair steps) this way,
over the trivial group, with its data as given, when nothing reduces it,
and :func:`solve_indicator`, the one solve of such a problem, maps a reduced
solution back through its :class:`Reduction`.  A swap permutes the
monomials, a flip does not, so a problem is reduced by its flips only when
its solve starts from a point every relabelling fixes (the extremization);
one solved from :func:`sdp.solve`'s default start is reduced by the swap
alone and its re-embedded solution averaged over the flips (see
:func:`indicator_problem`).  Every array that a cache here keeps for the
life of the process is read-only.
"""
from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

import numpy as np

from . import algebra
from .errors import ScenarioMismatchError, SizeGuardError, SolverFailureError
from .scenario import EXTRACTION_TOL, Behavior, BellFunctional, Scenario, basis, basis_size, from_collins_gisin
from .sdp import DIM_GUARD, GAP_TOL, SdpOperator, SdpProblem, SdpSolution, SdpStatus, _read_only, _sparse, solve

MAX_PARTIES = 3
# m * sum_l n_l**3 of the unreduced problem below which its blocks solve
# faster than the blocks of its symmetry reduction
SYMMETRY_MIN_WORK = 2_000_000
# data mismatch under a relabelling, relative to max(1, |c|_inf, |b|_inf), that
# still counts as invariant (compose leaves ~1e-17)
SWAP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MomentStructure:
    scenario: Scenario
    classes: tuple  # canonical words (party-sorted letter tuples), identity () first
    # (N, N) class index per cell, -1 on orthogonal cells: the one stored form
    # of the partition, read through class_sums, scatter and indicator_problem;
    # it and monomial_class are read-only
    cell_class: np.ndarray
    monomial_class: np.ndarray  # (N,) class index of each basis monomial
    class_size: np.ndarray  # cells per class, in class order, as floats (read-only)

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

    labels = cell_class[cell_class >= 0]
    class_size = np.bincount(labels, weights=np.ones(labels.size), minlength=len(classes))
    _read_only(cell_class, monomial_class, class_size)
    return MomentStructure(scenario, classes, cell_class, monomial_class, class_size)


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


@lru_cache(maxsize=None)
def _class_map(structure: MomentStructure, generator: tuple) -> tuple:
    """``(rows, cols, values)`` of the integer matrix M by which a
    relabelling maps the word classes onto signed sums of them: the image of
    class k's word is sum_k' M[k', k] times class k''s, each image word
    looked up as itself or its adjoint.  ``("swap", (p, q))`` renames
    parties p and q and re-sorts the letters stably by party.
    ``("flip", letters)``, for two outcomes, exchanges the outcomes of each
    (party, setting) letter, so each flipped projector P expands as 1 - P."""
    words = structure.classes
    index = {algebra.adjoint(word): k for k, word in enumerate(words)} | {word: k for k, word in enumerate(words)}
    kind, arg = generator
    rename = dict(zip(arg, reversed(arg))) if kind == "swap" else {}
    flipped = set(arg) if kind == "flip" else set()
    rows, cols, values = [], [], []
    for k, word in enumerate(words):
        terms = [(1.0, ())]
        for party, setting, outcome in sorted(((rename.get(p, p), x, a) for p, x, a in word), key=itemgetter(0)):
            grown = [(sign, image + ((party, setting, outcome),)) for sign, image in terms]
            terms = [(-sign, image) for sign, image in grown] + terms if (party, setting) in flipped else grown
        rows += [index[image] for _, image in terms]
        cols += [k] * len(terms)
        values += [sign for sign, _ in terms]
    return _sparse(np.array(rows), np.array(cols), np.array(values), len(words))


@lru_cache(maxsize=None)
def _monomial_map(structure: MomentStructure, generator: tuple) -> np.ndarray:
    """The read-only N x N matrix T of a relabelling on the monomial basis:
    the image of monomial i is sum_a T[a, i] u_a.  The basis is closed
    under dropping letters, so T is the class map M (:func:`_class_map`) on
    the monomials' own classes."""
    k_to, k_from, value = _class_map(structure, generator)
    monomial = np.full(len(structure.classes), -1)
    monomial[structure.monomial_class] = np.arange(structure.size)
    on_basis = monomial[k_from] >= 0
    t = np.zeros((structure.size, structure.size))
    t[monomial[k_to[on_basis]], monomial[k_from[on_basis]]] = value[on_basis]
    t.flags.writeable = False
    return t


@lru_cache(maxsize=None)
def _row_action(structure: MomentStructure, m: int, class_rows: bytes, generator: tuple) -> tuple | None:
    """``(rows, cols, values)`` of the m x m matrix G by which a relabelling
    acts on the rows of :func:`indicator_problem` (class rows given as the
    bytes of their int64 array): pulled back through M, row r's class
    indicators are sum_r' G[r, r'] times row r''s.  None when they are not
    a combination of rows, that is when the rows' span is not invariant.

    The pulled-back entries are integers, and those of row r on the
    members of row r' must all equal G[r, r'], their mean: exactly when
    |r'| times their sum of squares is the square of their sum."""
    flat = np.frombuffer(class_rows, dtype=np.int64)
    k_to, k_from, value = _class_map(structure, generator)
    blocks = np.arange(0, flat.size, len(structure.classes))[:, None]
    r = flat[blocks + k_to]
    has = r >= 0
    r, col, v = _sparse(r[has], (blocks + k_from)[has], np.broadcast_to(value, has.shape)[has], flat.size)
    if (flat[col] < 0).any():
        return None
    size = np.bincount(flat[flat >= 0], minlength=m)
    (g_r, g_c, total), (_, _, square) = (_sparse(r, flat[col], x, m) for x in (v, v * v))
    if len(total) != len(square) or not np.array_equal(size[g_c] * square, total * total):
        return None
    return _read_only(g_r, g_c, total / size[g_c])


@lru_cache(maxsize=None)
def _correlators(scenario: Scenario) -> tuple:
    """Read-only (L, L^-1, bits) for two outcomes: column j of L is the
    monomial expansion of the correlator of monomial j's letters (each
    projector P replaced by 2P - 1), and row j of the boolean ``bits`` marks
    those letters, letter (p, x) in column x plus the settings of the
    parties before p.  A flip multiplies that correlator by -1 per flipped
    letter, so it acts on correlator coordinates by signs alone."""
    table = basis(scenario).settings
    row, col = table[:, None, :], table[None, :, :]
    lam = np.where(col < 0, row < 0, 2.0 * (row == col) - (row < 0)).prod(axis=2)
    lam_inv = np.where(col < 0, row < 0, 0.5 * ((row == col) + (row < 0))).prod(axis=2)
    bits = np.zeros((len(table), sum(scenario.settings)), dtype=bool)
    mono, party = np.nonzero(table >= 0)
    bits[mono, np.cumsum((0,) + scenario.settings)[party] + table[mono, party]] = True
    return _read_only(lam, lam_inv, bits)


def _gf2_null_space(equations, width: int) -> list:
    """A basis of the ``width``-bit vectors f with an even number of bits in
    common with every equation (bit vectors as ints): GF(2) elimination to
    reduced row echelon form, one solution per free bit."""
    pivots: dict = {}  # pivot bit -> reduced equation
    for code in equations:
        for bit, row in pivots.items():
            if code >> bit & 1:
                code ^= row
        if code:
            bit = code.bit_length() - 1
            for other, row in pivots.items():
                if row >> bit & 1:
                    pivots[other] = row ^ code
            pivots[bit] = code
    null = []
    for free in range(width):
        if free not in pivots:
            null.append((1 << free) | sum(1 << bit for bit, row in pivots.items() if row >> free & 1))
    return null


def _flip_candidates(structure: MomentStructure, values, rows, b, tol: float, swap) -> list:
    """Letter sets whose joint flip may fix the data of
    :func:`indicator_problem`, each to be checked by :func:`invariant_group`.

    Flips act on correlator coordinates by signs, so data that a flip fixes
    has no correlator with an odd number of flipped letters: every nonzero
    correlator gives one parity equation over GF(2), and the candidates are
    a basis of the solutions, kept fixed by ``swap`` when one was found (so
    that every generator commutes).  The data read are b on each block's
    monomial classes, as polynomials, and the differences of consecutive
    blocks' objective values there, as functionals: for the extremization
    and the cone-pair steps, exactly what a flip must fix.
    """
    scenario = structure.scenario
    lam, lam_inv, bits = _correlators(scenario)
    mono_rows = rows[:, structure.monomial_class]
    primal = np.where(mono_rows >= 0, b[mono_rows], 0.0) @ lam_inv.T
    dual = np.diff(values[:, structure.monomial_class], axis=0) @ lam
    nonzero = np.abs(np.vstack([primal, dual])).max(axis=0) > tol
    # Python ints, so that no letter past bit 63 drops out
    codes = np.packbits(bits[nonzero], axis=1, bitorder="little")
    equations = sorted({int.from_bytes(code.tobytes(), "little") for code in codes})
    starts = list(itertools.accumulate(scenario.settings, initial=0))
    if swap is not None:
        p, q = swap
        equations += [(1 << starts[p] + x) | (1 << starts[q] + x) for x in range(scenario.settings[p])]
    letters = [(p, x) for p, count in enumerate(scenario.settings) for x in range(count)]
    return [
        tuple(letter for bit, letter in enumerate(letters) if code >> bit & 1)
        for code in _gf2_null_space(equations, len(letters))
    ]


def invariant_group(structure: MomentStructure, values: np.ndarray, class_rows, b: np.ndarray) -> tuple:
    """Generators of a group of relabellings that fixes the problem
    :func:`indicator_problem` poses from the (blocks, classes) objective
    class ``values``, ``class_rows`` and ``b``; ``()`` when the unreduced
    problem has m * sum_l n_l**3 below ``SYMMETRY_MIN_WORK``.

    A relabelling fixes the problem when, in class coordinates, the rows'
    span is invariant under its class map M (:func:`_row_action`), b is
    fixed by the induced row map G, and each block's objective class values
    c_l are fixed by M^T up to a combination of the rows, all to within
    ``SWAP_TOL * max(1, |c|_inf, |b|_inf)``.  The generators are the first
    transposition of two parties with equal settings counts that passes
    (in party-pair order), then, when there are two outcomes, the flips
    among :func:`_flip_candidates` that pass.  They are
    commuting involutions, so the group has order 2**len(generators)."""
    scenario = structure.scenario
    m = len(b)
    if m * len(class_rows) * structure.size**3 < SYMMETRY_MIN_WORK:
        return ()
    tol = SWAP_TOL * max(1.0, float(np.abs(b).max(initial=0.0)), float(np.abs(values).max()))
    rows = np.asarray(class_rows, dtype=np.int64)
    rows_key, flat = rows.tobytes(), rows.ravel()

    def fixes(generator) -> bool:
        action = _row_action(structure, m, rows_key, generator)
        if action is None:
            return False
        r, c, v = action
        if np.abs(np.bincount(r, weights=v * b[c], minlength=m) - b).max(initial=0.0) > tol:
            return False
        # M^T c_l - c_l must be one combination mu of the rows in every block
        k_to, k_from, w = _class_map(structure, generator)
        change = np.ravel([np.bincount(k_from, weights=w * c_l[k_to], minlength=len(c_l)) - c_l for c_l in values])
        mu = np.zeros(m + 1)
        mu[flat] = change  # read at each row's last member
        mu[-1] = 0.0  # classes outside every row keep their value
        return np.abs(change - mu[flat]).max() <= tol

    swaps = (
        ("swap", pair)
        for pair in itertools.combinations(range(scenario.parties), 2)
        if scenario.settings[pair[0]] == scenario.settings[pair[1]]
    )
    swap = next((g for g in swaps if fixes(g)), None)
    generators = [] if swap is None else [swap]
    if scenario.outcomes == 2:
        candidates = _flip_candidates(structure, values, rows, b, tol, None if swap is None else swap[1])
        generators += [g for g in (("flip", letters) for letters in candidates) if fixes(g)]
    return tuple(generators)


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


@dataclass(frozen=True, eq=False)
class Symmetry:
    """A group of relabellings, generated by the commuting involutions
    ``generators``, as it reduces the problems :func:`indicator_problem`
    poses over ``structure`` and the (blocks, classes) ``class_rows``.

    Each element g acts on the monomials by T_g (:func:`_monomial_map`), and
    an optimum may be taken with T_g Z T_g^T = Z for every g.  For each
    character chi of the group with a nonempty block, ``bases`` holds
    (W, scale, Q).  W's columns span the monomial combinations v with
    T_g v = chi(g) v: column u is (1/|stab u|) sum_g chi(g) T_g e_u, exact
    binary fractions with a leading 1 at u.  The solver sees them
    normalized, U = W diag(1/|w_c|), through scale = 1 / (|w_c| |w_c'|), so
    that U^T A U = scale * (W^T A W) and U Y U^T = W (scale * Y) W^T; Q is
    the dual basis (Q_chi^T U_chi' = I if chi == chi', else 0).  An
    invariant Z is sum_chi U X_chi U^T, so each unreduced block becomes one
    block per character, and an invariant slack is sum_chi Q S_chi Q^T.

    On invariant Z the rows' values are fixed by every row map G_g
    (:func:`_row_action`), which is triangular in the words' degree with a
    signed permutation on each degree, so the rows of one orbit of that
    permutation whose stabilizer keeps every sign determine each other and
    the rest; ``rows`` keeps the orbit's first (:func:`_representatives`;
    no rank decision is made).  ``operator`` poses kept row u, and its b,
    times ``row_scale[u]``: the reduced row then has the Frobenius norm
    sqrt(cells[u] / |orbit u|) of its orbit's average in the unreduced
    problem, whatever the bases' normalization (``cells`` counts each row's
    unreduced cells).  ``partner`` maps each row to its image under the
    party swap among the generators, or to itself.  Every array is
    read-only.
    """

    generators: tuple
    bases: tuple
    rows: np.ndarray
    row_scale: np.ndarray
    operator: SdpOperator
    structure: MomentStructure
    class_rows: np.ndarray
    cells: np.ndarray
    partner: np.ndarray


def _describe(generators) -> list:
    """Relabellings as JSON: ``{"swap": [p, q]}`` or
    ``{"flip": [[party, setting], ...]}``."""
    return [{kind: [list(a) for a in arg] if kind == "flip" else list(arg)} for kind, arg in generators]


@dataclass(frozen=True, eq=False)
class Reduction:
    """How :func:`indicator_problem` reduced one problem: its ``symmetry``,
    the flips over whose group :func:`solve_indicator` averages the
    re-embedded solution (``averaged``, commuting with the symmetry's
    generators), and the objective blocks as given, from which it reads
    every row's multiplier."""

    symmetry: Symmetry
    averaged: tuple
    c_blocks: tuple


def _representatives(actions, degree: np.ndarray) -> tuple:
    """The indices u that a group of commuting involutions keeps, and
    |stab u| / |G| for each.  Each generator's action, as ``(rows, cols,
    values)``, is triangular in the degree with a signed permutation on
    each degree; composing those gives each element's signed permutation.
    Kept are the orbits whose stabilizer keeps every sign (the others
    average to 0), one index each, the orbit's smallest."""
    size = len(degree)
    if not actions:  # the trivial group: every index is its own orbit
        return np.arange(size), np.ones(size)
    image, sign = np.arange(size)[None], np.ones((1, size))
    for r, c, v in actions:
        lead = degree[r] == degree[c]
        assert lead.sum() == size
        p, s = np.empty(size, dtype=int), np.empty(size)
        p[r[lead]], s[r[lead]] = c[lead], v[lead]
        image, sign = np.vstack([image, image[:, p]]), np.vstack([sign, sign[:, p] * s])
    fixed = image == np.arange(size)
    kept = np.flatnonzero((image >= np.arange(size)).all(axis=0) & ~(fixed & (sign < 0)).any(axis=0))
    return kept, fixed[:, kept].mean(axis=0)


@lru_cache(maxsize=None)
def _symmetry(structure: MomentStructure, m: int, class_rows: bytes, generators: tuple) -> Symmetry | None:
    """The :class:`Symmetry` of ``generators`` on m rows (class rows given as
    the bytes of their int64 array), with the reduced problems' operator:
    row r's cell (a, b) adds W[a, i] W[b, j] scale[i, j] to cell (i, j) of
    its block per character.  The kept rows, and each character's kept
    monomials, come from the generators' signed permutations
    (:func:`_representatives`), each basis from the character's average
    (1/|G|) sum_g chi(g) T_g = prod_i (I + chi(g_i) T_i) / 2.  The trivial
    group's (no generators) is the unreduced problem: one basis W = Q = I
    with scale 1, every row kept with row_scale 1.  None when there are
    generators and a row holds classes of different degrees (their action
    need not be triangular in the degree)."""
    n, n_classes = structure.size, len(structure.classes)
    rows = np.frombuffer(class_rows, dtype=np.int64).reshape(-1, n_classes)
    flat = rows.ravel()
    members = flat >= 0
    class_degree = np.tile([len(word) for word in structure.classes], len(rows))[members]
    degree = np.zeros(m, dtype=int)
    degree[flat[members]] = class_degree
    if generators and not np.array_equal(degree[flat[members]], class_degree):
        return None
    actions = [_row_action(structure, m, class_rows, g) for g in generators]
    kept, stabilizer = _representatives(actions, degree)
    partner = np.arange(m)
    for (kind, _), (r, c, _) in zip(generators, actions):
        if kind == "swap":  # a permutation of the rows
            partner[r] = c

    mono_degree = (basis(structure.scenario).settings >= 0).sum(axis=1)
    maps = [_monomial_map(structure, g) for g in generators]
    entries = [(*np.nonzero(t), t[np.nonzero(t)]) for t in maps]
    bases = []
    for character in range(1 << len(generators)):
        signs = [(-1.0) ** (character >> bit & 1) for bit in range(len(generators))]
        reps, _ = _representatives([(a, i, sign * v) for (a, i, v), sign in zip(entries, signs)], mono_degree)
        p = np.eye(n)
        for t, sign in zip(maps, signs):
            p = 0.5 * (p + sign * (t @ p))
        if reps.size:
            bases.append(p[:, reps] / p[reps, reps])  # leading entry 1 on u
    assert sum(w.shape[1] for w in bases) == n
    scales = [1.0 / np.linalg.norm(w, axis=0) for w in bases]
    u = np.hstack([w * d for w, d in zip(bases, scales)])
    q = np.linalg.inv(u).T if generators else u  # I, the trivial group's, without LAPACK
    splits = np.cumsum([w.shape[1] for w in bases])[:-1]
    bases = tuple(
        _read_only(w, np.outer(d, d), np.ascontiguousarray(qc)) for w, d, qc in zip(bases, scales, np.hsplit(q, splits))
    )

    position = np.full(m + 1, -1)  # label -1 reads -1
    position[kept] = np.arange(len(kept))
    dims, triplets = [], []
    for class_row in rows:
        cell_row = position[np.append(class_row, -1)[structure.cell_class]]
        for w, scale, _ in bases:
            a, i = np.nonzero(w)
            row = cell_row[np.ix_(a, a)]
            x, y = np.nonzero(row >= 0)
            dims.append(w.shape[1])
            # exact sums of W's binary fractions first, then one rounding by scale
            r, cell, value = _sparse(row[x, y], i[x] * w.shape[1] + i[y], w[a[x], i[x]] * w[a[y], i[y]], scale.size)
            triplets.append((r, cell, value * scale.ravel()[cell]))
    cells = np.bincount(flat[members], weights=np.tile(structure.class_size, len(rows))[members], minlength=m)
    norms = np.sqrt(sum(np.bincount(r, weights=value * value, minlength=len(kept)) for r, _, value in triplets))
    row_scale = np.sqrt(cells[kept] * stabilizer) / norms
    triplets = tuple((r, cell, value * row_scale[r]) for r, cell, value in triplets)
    operator = SdpOperator(tuple(dims), triplets, len(kept))
    kept, row_scale, cells, partner = _read_only(kept, row_scale, cells, partner)
    return Symmetry(tuple(generators), bases, kept, row_scale, operator, structure, rows, cells, partner)


def indicator_problem(
    structure: MomentStructure, values: np.ndarray, class_rows, b: np.ndarray, invariant_start: bool = False
) -> tuple[SdpProblem, Reduction | None]:
    """SDP over one N x N block Z_l per entry of ``class_rows``: minimize
    sum_l <c_l, Z_l>, c_l carrying ``values[l, k]`` on every cell of class
    k (:func:`scatter`; ``values`` is a (blocks, classes) array), subject
    to, for every r, the sum over l of the entry sums of Z_l over the
    classes k with ``class_rows[l][k] == r`` equal to ``b[r]``.

    Every problem is posed over a :class:`Symmetry`.  When
    :func:`invariant_group` finds relabellings that fix this data, an
    optimum may be taken invariant under their group, so each block becomes
    one block per character, c_l becomes scale * (W^T c_l W) per basis, and
    only the symmetry's kept rows are posed, with b[u] * row_scale[u].
    Otherwise, or when its rows mix degrees, the symmetry is the trivial
    group's, whose operator is the unreduced one, and c_l and ``b`` are
    posed as given.  Returns the problem and its :class:`Reduction`, None
    when nothing is reduced or averaged; either way
    :func:`solve_indicator` solves it.

    ``invariant_start`` says whether the solve starts from a point that
    every relabelling fixes, as :func:`compile_extremize`'s does; then the
    symmetry is the whole group's.  Otherwise the solve starts from
    :func:`sdp.solve`'s default X = tau_p I, which a flip moves (its
    monomial map is not orthogonal), and where the optimum is not unique a
    flip-reduced solve from there ends at another optimal point than the
    unreduced one (1.8e-6 away in the reference see-saw's first family
    step).  So the symmetry is the swap's alone (the trivial group's, with
    the unreduced blocks and rows, when only flips were found), and the
    flips are left to the :class:`Reduction`: the data are invariant, so
    the average of the re-embedded optimum over their group is an optimal
    point of the same problem, and a flip-invariant one.  The operator is
    built once per (structure, class rows, generators) and kept for the
    life of the process (:func:`_symmetry`).
    """
    rows = np.asarray(class_rows, dtype=np.int64)
    rows_key, m = rows.tobytes(), len(b)
    # read-only: the returned Reduction holds them, and may share them with the problem
    c_blocks = _read_only(*(scatter(structure, v) for v in values))
    generators = invariant_group(structure, values, rows, b)
    averaged = () if invariant_start else tuple(g for g in generators if g[0] == "flip")
    reduced_by = tuple(g for g in generators if g not in averaged)
    symmetry = _symmetry(structure, m, rows_key, reduced_by) or _symmetry(structure, m, rows_key, ())
    if not symmetry.generators:
        return SdpProblem(symmetry.operator, c_blocks, b), Reduction(symmetry, averaged, c_blocks) if averaged else None
    reduced = tuple(scale * (w.T @ c @ w) for c in c_blocks for w, scale, _ in symmetry.bases)
    problem = SdpProblem(symmetry.operator, reduced, b[symmetry.rows] * symmetry.row_scale)
    return problem, Reduction(symmetry, averaged, c_blocks)


def solve_indicator(
    problem: SdpProblem, reduction: Reduction | None, gap_tol: float = GAP_TOL, y_start: np.ndarray | None = None
) -> tuple[SdpSolution, dict | None]:
    """Solve a problem from :func:`indicator_problem` as the unreduced one,
    to relative duality gap ``gap_tol``, from the solver's default start or
    from the strictly dual-feasible ``y_start`` of the problem as posed (see
    :func:`sdp.solve`).

    Raises :class:`SolverFailureError` unless the solve is optimal.  A
    reduced solve is re-embedded: each unreduced block
    X_l = sum_chi U_chi X_l,chi U_chi^T and S_l = sum_chi Q_chi S_l,chi Q_chi^T
    (:class:`Symmetry`), then, for each flip the reduction averages over,
    with its monomial map T (:func:`_monomial_map`),
    X_l <- (X_l + T X_l T^T) / 2 and S_l <- (S_l + T^T S_l T) / 2.  Since
    C_l - S_l = sum_r y_r A_r,l, each row's multiplier y_r is the mean of
    C_l - S_l over the row's cells (for the objective blocks as given),
    averaged with its swap partner's; status, objectives, residuals,
    iterations and trace stay the block solve's.  Returns that solution and
    ``{"generators", "blocks", "constraints"}`` of the reduced problem, with
    ``"averaged"`` (the flips, described as the generators) when the
    solution was averaged, or the solution and None.
    """
    solution = solve(problem, gap_tol, y_start=y_start)
    if solution.status != SdpStatus.OPTIMAL:
        raise SolverFailureError(solution.status.value, solution.message, solution)
    if reduction is None:
        return solution, None

    symmetry = reduction.symmetry
    per_block = len(symmetry.bases)

    def embed(mats, primal):
        return [
            sum(
                w @ (scale * z) @ w.T if primal else q @ z @ q.T
                for (w, scale, q), z in zip(symmetry.bases, mats[l : l + per_block], strict=True)
            )
            for l in range(0, len(mats), per_block)
        ]

    x_blocks, s_blocks = embed(solution.x_blocks, True), embed(solution.s_blocks, False)
    for t in (_monomial_map(symmetry.structure, g) for g in reduction.averaged):
        x_blocks = [0.5 * (x + t @ x @ t.T) for x in x_blocks]
        s_blocks = [0.5 * (s + t.T @ s @ t) for s in s_blocks]
    sums = np.ravel([class_sums(symmetry.structure, c - s) for c, s in zip(reduction.c_blocks, s_blocks)])
    flat = symmetry.class_rows.ravel()
    y = np.bincount(flat[flat >= 0], weights=sums[flat >= 0], minlength=len(symmetry.cells)) / symmetry.cells
    y = 0.5 * (y + y[symmetry.partner])  # equal, bit for bit, on rows a swap exchanges
    embedded = dataclasses.replace(solution, x_blocks=x_blocks, s_blocks=s_blocks, y=y)
    record = {
        "generators": _describe(symmetry.generators),
        "blocks": list(problem.block_dims),
        "constraints": problem.num_constraints,
    }
    if reduction.averaged:
        record["averaged"] = _describe(reduction.averaged)
    return embedded, record


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
    reduction: Reduction | None  # how the problem was reduced by a relabelling group, if it was
    y_start: np.ndarray  # strictly dual-feasible multipliers: the product-projector moments, negated


def compile_extremize(structure: MomentStructure, functional: BellFunctional, sense: str) -> CompiledExtremize:
    """Certificate-form SDP whose optimum is the extremal value.

    min Z[0,0] over Z >= 0 with, for every non-identity word class, the sum
    of Z's entries over the class pinned to the target coefficient of that
    word (zero for words outside the basis; orthogonal cells stay free).
    The extremal value is target[0] - opt, and the dual slack at the
    optimum is the extremizing moment matrix itself.

    The problem is built by :func:`indicator_problem`, so relabellings that
    fix the pinned coefficients (the target without its constant term,
    which is not SDP data) pose it over their group's blocks, with one
    constraint per kept orbit of word classes.  Only b depends on the
    functional, and the objective Z[0,0] is the same for every functional,
    so the operator and the start are built once per structure and group,
    and the min and max of one functional share them; a call builds
    ``target``, ``b``, the objective's projection and the
    :class:`Reduction` that :func:`indicator_problem` returns.

    ``y_start`` is a strictly feasible point of the dual: y_k = -Gamma_k
    for the product-projector moments Gamma (:func:`product_moments`) makes
    the dual slack Gamma itself.  Gamma is fixed by every relabelling, so on
    a reduced problem the start is the reduced multipliers whose slack is
    Gamma's projection onto the group's blocks, and X = tau_p Gamma^-1 is
    the unreduced start (up to tau_p) for any group, so the problem is
    reduced by its outcome flips too (see :func:`indicator_problem`).  The
    start depends only on the structure and the group, so it is computed
    once per pair (read-only).
    """
    if functional.scenario != structure.scenario:
        raise ScenarioMismatchError("functional and moment structure disagree on the scenario")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    target = functional.coeffs if sense == "min" else -functional.coeffs

    m = len(structure.classes) - 1
    pinned = np.zeros(m + 1)  # per class; the identity class is the objective
    pinned[structure.monomial_class] = target
    # constraint k - 1 pins class k, and Z[0, 0] is the identity class
    problem, reduction = indicator_problem(
        structure, np.eye(1, m + 1), (np.arange(m + 1) - 1,), pinned[1:], invariant_start=True
    )
    y_start = _extremize_start(structure, None if reduction is None else reduction.symmetry)
    return CompiledExtremize(problem, target, reduction, y_start)


@lru_cache(maxsize=None)
def _extremize_start(structure: MomentStructure, symmetry: Symmetry | None) -> np.ndarray:
    """The read-only ``y_start`` of :func:`compile_extremize` over
    ``symmetry`` (None for none), whose objective is Z[0, 0]: -Gamma, or on
    a reduced problem the multipliers y_hat whose slack
    C_hat - A_hat^T y_hat is scale * (W^T Gamma W) on every basis, the
    least-squares solution of that consistent system."""
    if symmetry is None:
        y_start = -product_moments(structure)[1:]
    else:
        c = np.zeros((structure.size, structure.size))
        c[0, 0] = 1.0
        slack = c - strictly_feasible_point(structure)
        target = np.concatenate([(scale * (w.T @ slack @ w)).ravel() for w, scale, _ in symmetry.bases])
        a = np.hstack([stack.reshape(len(stack), -1) for stack in symmetry.operator.a_stacks])
        y_start = np.linalg.solve(a @ a.T, a @ target)
    return _read_only(y_start)[0]


@dataclass(eq=False)
class AqExtremum:
    value: float
    certificate: SosCertificate  # on the caller's scenario
    solution: SdpSolution  # of the one-block problem over the touched settings only
    # the relabelling group the solve was reduced by: {"generators",
    # "blocks", "constraints"}, or None for the one-block solve
    reduction: dict | None
    entries: np.ndarray = dataclasses.field(repr=False)  # the behavior's Collins-Gisin entries

    @cached_property
    def behavior(self) -> Behavior:
        """The extremal behavior on the caller's scenario, built on first
        read (checked by :func:`from_collins_gisin`)."""
        return from_collins_gisin(self.certificate.scenario, self.entries, EXTRACTION_TOL)


def aq_extremize(functional: BellFunctional, sense: str, gap_tol: float = GAP_TOL) -> AqExtremum:
    """Extremal value of a functional over the almost-quantum set, with the
    extremal behavior and the certificate matrix, solved to relative
    duality gap ``gap_tol`` (see :func:`sdp.solve`).

    The SDP is solved over the settings the functional touches (see
    :func:`restrict_to_touched`), and ``solution`` is a solution of that
    restricted problem.  When relabellings fix the restricted functional
    and the problem is large enough, the solve runs over their group's
    blocks (see :func:`indicator_problem`), ``solution`` is its
    re-embedding and ``reduction`` records the group's generators, the
    block sizes and the constraint count (:func:`solve_indicator`).
    ``behavior`` and ``certificate`` are re-embedded into the caller's
    scenario: the behavior's Collins-Gisin entries are 0 on monomials with a
    dropped letter (a dropped setting always returns the last outcome), and
    the certificate's Gram matrix is 0 on their rows and columns.  The
    behavior is built from ``entries`` on first read, so callers that read
    only values and certificates never build it.  A restricted basis larger
    than ``sdp.DIM_GUARD`` is refused before its word classes are built.
    """
    restricted, keep = restrict_to_touched(functional)
    if basis_size(restricted.scenario) > DIM_GUARD:
        raise SizeGuardError(f"total dimension {basis_size(restricted.scenario)} exceeds guard {DIM_GUARD}")
    structure = build_moment_structure(restricted.scenario)
    compiled = compile_extremize(structure, restricted, sense)
    solution, reduction = solve_indicator(compiled.problem, compiled.reduction, gap_tol, compiled.y_start)

    bound = float(compiled.target[0] - solution.primal_objective)
    value = bound if sense == "min" else -bound

    n = len(functional.coeffs)
    entries = np.zeros(n)
    # moments are the negated dual multipliers, read at the first row's classes
    entries[keep] = np.concatenate(([1.0], -solution.y))[structure.monomial_class]

    target = np.zeros(n)
    target[keep] = compiled.target
    z = np.zeros((n, n))
    z[np.ix_(keep, keep)] = solution.x_blocks[0]
    certificate = SosCertificate(scenario=functional.scenario, target=target, lam=bound, z=z)
    return AqExtremum(value=value, certificate=certificate, solution=solution, reduction=reduction, entries=entries)


@lru_cache(maxsize=None)
def product_moments(structure: MomentStructure) -> np.ndarray:
    """Read-only per-class moments of the product-projector model (one
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
    values.flags.writeable = False
    return values


def strictly_feasible_point(structure: MomentStructure) -> np.ndarray:
    """Interior moment matrix of the product-projector model: the scatter
    of :func:`product_moments`."""
    return scatter(structure, product_moments(structure))


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
