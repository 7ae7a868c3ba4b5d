"""Bell scenarios, behaviors, Collins-Gisin coordinates and Bell functionals.

Behaviors are dense conditional-probability tables with axes
``(x_1, ..., x_n, a_1, ..., a_n)`` (settings outer, outcomes inner).  The
monomial basis (products of at most one projector letter per party, last
outcome of every setting dropped) and the maps between tables and
Collins-Gisin coordinates are built once per scenario by :func:`basis`.
The Collins-Gisin vector of a no-signalling behavior collects its marginals
on that basis; the map is a linear bijection on the no-signalling subspace.
Bell functionals are stored as real coefficient vectors over the same basis,
with the constant term at index 0.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce
from pathlib import Path

import numpy as np

from .errors import (
    NegativityError,
    NormalizationError,
    ScenarioMismatchError,
    SignallingError,
    SizeGuardError,
)

VERTEX_GUARD = 1_000_000
BASIS_GUARD = 2**24  # largest basis_size * table_size of the maps basis() builds


@dataclass(frozen=True)
class ToleranceConfig:
    """Validation tolerances for behavior tables."""

    normalization: float = 1e-9
    negativity: float = 1e-12
    signalling: float = 1e-9


DEFAULT_TOL = ToleranceConfig()
# for behaviors read back from solver output, which carry O(gap) noise
EXTRACTION_TOL = ToleranceConfig(normalization=1e-7, negativity=1e-7, signalling=1e-7)


@dataclass(frozen=True)
class Scenario:
    """(n, m, d) Bell scenario signature; ``settings`` may differ per party."""

    parties: int
    settings: tuple
    outcomes: int

    def __post_init__(self):
        if self.parties < 1:
            raise ValueError("need at least one party")
        object.__setattr__(self, "settings", tuple(int(m) for m in self.settings))
        if len(self.settings) != self.parties:
            raise ValueError("one settings count per party required")
        if any(m < 1 for m in self.settings):
            raise ValueError("settings counts must be positive")
        if self.outcomes < 2:
            raise ValueError("need at least two outcomes")

    @property
    def table_shape(self) -> tuple:
        return self.settings + (self.outcomes,) * self.parties

    @property
    def table_size(self) -> int:
        return math.prod(self.table_shape)

    @property
    def vertex_count(self) -> int:
        return math.prod(self.outcomes**m for m in self.settings)


def make_scenario(n: int, m: int, d: int) -> Scenario:
    """Validated uniform scenario: n parties, m settings each, d outcomes."""
    return Scenario(n, (m,) * n, d)


@dataclass(frozen=True, eq=False)
class Behavior:
    """Validated conditional distribution p(a_1..a_n | x_1..x_n)."""

    scenario: Scenario
    table: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=float)
        if arr.shape != self.scenario.table_shape:
            raise ValueError(f"table shape {arr.shape} != {self.scenario.table_shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)


@dataclass(frozen=True, eq=False)
class BellFunctional:
    """Real coefficients over the monomial basis; index 0 is the constant."""

    scenario: Scenario
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.shape != (basis_size(self.scenario),):
            raise ValueError("coefficient count does not match the monomial basis")
        if not np.isfinite(arr).all():
            raise ValueError("functional coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)


@dataclass(frozen=True, eq=False)
class Basis:
    """Monomial basis of a scenario and its Collins-Gisin maps.

    ``monomials`` are ordered identity first, then graded by letter count,
    then lexicographic by (party, setting, outcome); ``index`` inverts that
    order and ``settings`` is the (N, parties) setting of each monomial's
    letter of each party, -1 where it has none.  ``tmat`` (N x N_table)
    extracts CG entries as marginal sums (parties absent from a monomial are
    read at setting 0, which no-signalling makes irrelevant).  ``lmat``
    (N_table x N) rebuilds the full table through the inclusion-exclusion
    expansion of the dropped outcomes, and ``tmat @ lmat == I`` on the nose.
    """

    monomials: tuple
    index: dict
    settings: np.ndarray
    tmat: np.ndarray
    lmat: np.ndarray


@lru_cache(maxsize=None)
def basis(scenario: Scenario) -> Basis:
    """The scenario's basis record, built from per-party factors.

    Party k's options are "no letter" then (setting x, outcome a) at
    1 + x(d-1) + a; its table index is x*d + a.  Both maps factor over
    parties, so each is one Kronecker product of per-party factors,
    permuted from the party-interleaved orders into basis and table order.
    """
    n, d = scenario.parties, scenario.outcomes
    entries = math.prod(1 + m * (d - 1) for m in scenario.settings) * scenario.table_size
    if entries > BASIS_GUARD:
        raise SizeGuardError(f"basis maps of {entries} entries exceed the guard {BASIS_GUARD}")
    letters, setting_cols, t_factors, l_factors = [], [], [], []
    for party, m in enumerate(scenario.settings):
        options = [None] + [(party, x, a) for x in range(m) for a in range(d - 1)]
        letters.append(options)
        setting_cols.append(np.array([-1] + [x for x in range(m) for _ in range(d - 1)]))
        t = np.zeros((len(options), m * d))
        t[0, :d] = 1.0  # absent party: setting 0, summed over outcomes
        l = np.zeros((m * d, len(options)))
        for x in range(m):
            l[x * d + d - 1, 0] = 1.0
            for a in range(d - 1):
                option = 1 + x * (d - 1) + a
                t[option, x * d + a] = 1.0
                l[x * d + a, option] = 1.0
                l[x * d + d - 1, option] = -1.0  # last outcome = 1 - sum of the kept ones
        t_factors.append(t)
        l_factors.append(l)

    products = [tuple(c for c in combo if c is not None) for combo in itertools.product(*letters)]
    order = sorted(range(len(products)), key=lambda i: (len(products[i]), products[i]))
    monomials = tuple(products[i] for i in order)
    # table position (x_1..x_n, a_1..a_n) -> its party-interleaved position
    interleaved = np.arange(scenario.table_size).reshape(
        tuple(v for m in scenario.settings for v in (m, d))
    )
    table_order = interleaved.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))).ravel()
    grid = np.meshgrid(*setting_cols, indexing="ij")
    settings = np.stack([g.ravel() for g in grid], axis=1)[order]
    # C-contiguous, so that products with these maps take one BLAS path
    tmat = np.ascontiguousarray(reduce(np.kron, t_factors)[np.ix_(order, table_order)])
    lmat = np.ascontiguousarray(reduce(np.kron, l_factors)[np.ix_(table_order, order)])
    for arr in (settings, tmat, lmat):
        arr.setflags(write=False)
    return Basis(monomials, {mono: i for i, mono in enumerate(monomials)}, settings, tmat, lmat)


def basis_size(scenario: Scenario) -> int:
    return len(basis(scenario).monomials)


def behavior_from_table(scenario: Scenario, table, tol: ToleranceConfig | None = None) -> Behavior:
    """Validate normalization, non-negativity and no-signalling, then wrap."""
    tol = tol or DEFAULT_TOL
    arr = np.asarray(table, dtype=float)
    if arr.shape != scenario.table_shape:
        raise ValueError(f"table shape {arr.shape} != {scenario.table_shape}")
    n = scenario.parties
    # a NaN would pass every comparison below
    if not np.isfinite(arr).all():
        raise ValueError("behavior table entries must be finite")

    sums = arr.sum(axis=tuple(range(n, 2 * n)))
    worst = np.unravel_index(np.argmax(np.abs(sums - 1.0)), sums.shape)
    residual = abs(sums[worst] - 1.0)
    if residual > tol.normalization:
        raise NormalizationError(f"sum over outcomes at settings {worst} is 1{residual:+.3e}")

    worst = np.unravel_index(np.argmin(arr), arr.shape)
    if arr[worst] < -tol.negativity:
        raise NegativityError(f"entry {worst} is negative: {arr[worst]:.3e}")

    for kept_size in range(1, n):
        for kept in itertools.combinations(range(n), kept_size):
            dropped = [k for k in range(n) if k not in kept]
            marg = arr.sum(axis=tuple(n + k for k in dropped))
            for k in dropped:
                ref = np.expand_dims(marg.take(0, axis=k), axis=k)
                dev = np.abs(marg - ref)
                worst = np.unravel_index(np.argmax(dev), dev.shape)
                if dev[worst] > tol.signalling:
                    raise SignallingError(
                        f"marginal on parties {kept} varies with party {k}'s setting "
                        f"by {dev[worst]:.3e} at index {worst}"
                    )

    return Behavior(scenario, arr)


def to_collins_gisin(behavior: Behavior) -> np.ndarray:
    """Collins-Gisin vector of a behavior (entry 0 = 1)."""
    return basis(behavior.scenario).tmat @ behavior.table.ravel()


def from_collins_gisin(scenario: Scenario, entries, tol: ToleranceConfig | None = None) -> Behavior:
    """Rebuild the table and validate it like :func:`behavior_from_table`."""
    lmat = basis(scenario).lmat
    entries = np.asarray(entries, dtype=float)
    if entries.shape != (lmat.shape[1],):
        raise ValueError("entry count does not match the monomial basis")
    return behavior_from_table(scenario, (lmat @ entries).reshape(scenario.table_shape), tol)


def unit_functional(scenario: Scenario) -> BellFunctional:
    coeffs = np.zeros(basis_size(scenario))
    coeffs[0] = 1.0
    return BellFunctional(scenario, coeffs)


def functional_from_table(scenario: Scenario, table) -> BellFunctional:
    """Canonical monomial-basis form of a full coefficient table W(a|x)."""
    arr = np.asarray(table, dtype=float)
    if arr.shape != scenario.table_shape:
        raise ValueError(f"table shape {arr.shape} != {scenario.table_shape}")
    return BellFunctional(scenario, basis(scenario).lmat.T @ arr.ravel())


def functional_from_terms(scenario: Scenario, terms: dict) -> BellFunctional:
    """Functional from a {monomial: coefficient} mapping (letters as triples)."""
    entries = [{"monomial": mono, "coeff": value} for mono, value in terms.items()]
    return BellFunctional(scenario, _vector_from_entries(scenario, entries))


def representative_table(functional: BellFunctional) -> np.ndarray:
    """One full coefficient table that induces this functional.

    Parties absent from a monomial are pinned to setting 0 and summed over
    outcomes, so any no-signalling behavior gives the same value as the
    monomial form.
    """
    scenario = functional.scenario
    return (basis(scenario).tmat.T @ functional.coeffs).reshape(scenario.table_shape)


def evaluate(functional: BellFunctional, behavior: Behavior) -> float:
    if functional.scenario != behavior.scenario:
        raise ScenarioMismatchError(
            f"functional on {functional.scenario} applied to behavior on {behavior.scenario}"
        )
    return float(functional.coeffs @ to_collins_gisin(behavior))


def enumerate_deterministic(scenario: Scenario) -> list:
    """All local deterministic behaviors (prod_k d^(m_k) of them)."""
    if scenario.vertex_count > VERTEX_GUARD:
        raise SizeGuardError(
            f"{scenario.vertex_count} deterministic vertices exceed the guard {VERTEX_GUARD}"
        )
    n, d = scenario.parties, scenario.outcomes
    per_party = [list(itertools.product(range(d), repeat=m)) for m in scenario.settings]
    joint_settings = list(itertools.product(*(range(m) for m in scenario.settings)))
    vertices = []
    for combo in itertools.product(*per_party):
        table = np.zeros(scenario.table_shape)
        for xs in joint_settings:
            a = tuple(combo[k][xs[k]] for k in range(n))
            table[xs + a] = 1.0
        vertices.append(behavior_from_table(scenario, table))
    return vertices


# ---------------------------------------------------------------------------
# JSON schema
#
# {"scenario": {"parties": n, "settings": [...], "outcomes": d},
#  "format": "full" | "collins_gisin",
#  "entries": [{"monomial": [[party, setting, outcome], ...], "coeff": x}, ...]}
#
# "collins_gisin" entries index basis monomials (dropped outcomes excluded);
# "full" entries carry exactly one letter per party and address the full
# table.  Functionals are read in either format; behaviors are written as
# "collins_gisin" and not read back.  Zero entries may be omitted.  Floats
# serialize via repr, which round-trips exactly (in particular to 17
# significant digits).  Index fields must be nonnegative integers and
# coefficients numbers, neither a bool.
# ---------------------------------------------------------------------------


def json_index(value) -> int:
    # int() would truncate 2.9 and read true as 1; numpy reads -1 as the last index
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"expected a nonnegative integer index, got {value!r}")
    return int(value)


def json_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a numeric coefficient, got {value!r}")
    return float(value)


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "parties": scenario.parties,
        "settings": list(scenario.settings),
        "outcomes": scenario.outcomes,
    }


def scenario_from_json(obj: dict) -> Scenario:
    settings = tuple(json_index(m) for m in obj["settings"])
    return Scenario(json_index(obj["parties"]), settings, json_index(obj["outcomes"]))


def _collins_gisin_json(scenario, values) -> dict:
    """A Collins-Gisin vector over ``scenario`` as JSON, one entry per
    nonzero value."""
    entries = [
        {"monomial": [list(letter) for letter in mono], "coeff": float(value)}
        for mono, value in zip(basis(scenario).monomials, values)
        if value != 0.0
    ]
    return {"scenario": scenario_to_json(scenario), "format": "collins_gisin", "entries": entries}


def _vector_from_entries(scenario, entries):
    index = basis(scenario).index
    values = np.zeros(len(index))
    for entry in entries:
        mono = tuple(sorted(tuple(json_index(i) for i in letter) for letter in entry["monomial"]))
        if mono not in index:
            raise ValueError(
                f"monomial {[list(letter) for letter in mono]} is not in the basis of {scenario}: a basis monomial "
                "has at most one letter per party, and the last outcome of each setting is not a basis letter"
            )
        values[index[mono]] += json_number(entry["coeff"])
    return values


def _table_from_full_entries(scenario, entries):
    n = scenario.parties
    basis(scenario)  # its size guard also bounds the table allocated here
    table = np.zeros(scenario.table_shape)
    for entry in entries:
        mono = entry["monomial"]
        letters = {json_index(party): (json_index(x), json_index(a)) for party, x, a in mono}
        if len(mono) != n or sorted(letters) != list(range(n)):
            raise ValueError("full-format entries need exactly one letter per party")
        settings, outcomes = zip(*(letters[k] for k in range(n)))
        table[settings + outcomes] += json_number(entry["coeff"])
    return table


def behavior_to_json(behavior: Behavior) -> dict:
    return _collins_gisin_json(behavior.scenario, to_collins_gisin(behavior))


def functional_to_json(functional: BellFunctional) -> dict:
    return _collins_gisin_json(functional.scenario, functional.coeffs)


def functional_from_json(obj: dict) -> BellFunctional:
    scenario = scenario_from_json(obj["scenario"])
    fmt = obj.get("format", "collins_gisin")
    if fmt == "collins_gisin":
        return BellFunctional(scenario, _vector_from_entries(scenario, obj["entries"]))
    if fmt == "full":
        return functional_from_table(scenario, _table_from_full_entries(scenario, obj["entries"]))
    raise ValueError(f"unknown format {fmt!r}")


def save_json(path, obj) -> None:
    # an existing file is removed, not truncated: on ext4 (auto_da_alloc) a
    # truncate-and-rewrite starts writeback at close, and the next rewrite of
    # the same file waits for it
    Path(path).unlink(missing_ok=True)
    # one unindented dumps: only that form runs the C encoder
    with open(path, "w") as fh:
        fh.write(json.dumps(obj) + "\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
