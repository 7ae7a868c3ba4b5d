"""Bell scenarios, behaviors, Collins-Gisin coordinates and Bell functionals.

Behaviors are dense conditional-probability tables with axes
``(x_1, ..., x_n, a_1, ..., a_n)`` (settings outer, outcomes inner).  The
Collins-Gisin vector of a no-signalling behavior collects its marginals on
the monomial basis of :mod:`aqbell.algebra` (last outcome dropped per
party/setting); the map is a linear bijection on the no-signalling subspace.
Bell functionals are stored as real coefficient vectors over the same basis,
with the constant term at index 0.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import algebra
from .errors import (
    NegativityError,
    NormalizationError,
    ScenarioMismatchError,
    SignallingError,
    SizeGuardError,
)

VERTEX_GUARD = 1_000_000


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
    if n < 1 or m < 1:
        raise ValueError("party and setting counts must be positive")
    if d < 2:
        raise ValueError("need at least two outcomes")
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
class CGVector:
    """Projection of a behavior onto the monomial basis (entry 0 = 1)."""

    scenario: Scenario
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (basis_size(self.scenario),):
            raise ValueError("entry count does not match the monomial basis")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True, eq=False)
class BellFunctional:
    """Real coefficients over the monomial basis; index 0 is the constant."""

    scenario: Scenario
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.shape != (basis_size(self.scenario),):
            raise ValueError("coefficient count does not match the monomial basis")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)


@lru_cache(maxsize=None)
def _cg_maps(scenario: Scenario):
    """Basis bookkeeping plus the two linear maps between tables and the
    Collins-Gisin coordinates.

    ``tmat`` (N_cg x N_table) extracts CG entries as marginal sums (parties
    absent from a monomial are read at setting 0, which no-signalling makes
    irrelevant).  ``lmat`` (N_table x N_cg) rebuilds the full table through
    the inclusion-exclusion expansion of the dropped outcomes, and satisfies
    ``tmat @ lmat == I`` on the nose.
    """
    basis = algebra.basis_monomials(scenario)
    index_of = {mono: i for i, mono in enumerate(basis)}
    n = scenario.parties
    d = scenario.outcomes
    shape = scenario.table_shape
    tsize = scenario.table_size

    tmat = np.zeros((len(basis), tsize))
    for row, mono in enumerate(basis):
        fixed = {party: (setting, outcome) for party, setting, outcome in mono}
        settings = tuple(fixed[k][0] if k in fixed else 0 for k in range(n))
        free = [k for k in range(n) if k not in fixed]
        for combo in itertools.product(range(d), repeat=len(free)):
            outcomes = [0] * n
            for k in fixed:
                outcomes[k] = fixed[k][1]
            for k, a in zip(free, combo):
                outcomes[k] = a
            tmat[row, np.ravel_multi_index(settings + tuple(outcomes), shape)] = 1.0

    lmat = np.zeros((tsize, len(basis)))
    for flat in range(tsize):
        idx = np.unravel_index(flat, shape)
        settings, outcomes = idx[:n], idx[n:]
        dropped = [k for k in range(n) if outcomes[k] == d - 1]
        kept = [(k, settings[k], outcomes[k]) for k in range(n) if outcomes[k] != d - 1]
        choices = [[None] + [(k, settings[k], a) for a in range(d - 1)] for k in dropped]
        for combo in itertools.product(*choices):
            extra = [c for c in combo if c is not None]
            sign = -1.0 if len(extra) % 2 else 1.0
            mono = tuple(sorted(kept + extra))
            lmat[flat, index_of[mono]] += sign

    return basis, index_of, tmat, lmat


def basis_size(scenario: Scenario) -> int:
    return len(_cg_maps(scenario)[0])


def scenario_basis(scenario: Scenario) -> list:
    return list(_cg_maps(scenario)[0])


def monomial_index(scenario: Scenario, mono) -> int:
    return _cg_maps(scenario)[1][tuple(tuple(letter) for letter in mono)]


def behavior_from_table(scenario: Scenario, table, tol: ToleranceConfig | None = None) -> Behavior:
    """Validate normalization, non-negativity and no-signalling, then wrap."""
    tol = tol or DEFAULT_TOL
    arr = np.asarray(table, dtype=float)
    if arr.shape != scenario.table_shape:
        raise ValueError(f"table shape {arr.shape} != {scenario.table_shape}")
    n = scenario.parties

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


def to_collins_gisin(behavior: Behavior) -> CGVector:
    _, _, tmat, _ = _cg_maps(behavior.scenario)
    return CGVector(behavior.scenario, tmat @ behavior.table.ravel())


def from_collins_gisin(vector: CGVector, tol: ToleranceConfig | None = None) -> Behavior:
    """Rebuild the table; rejects vectors whose table turns negative."""
    tol = tol or DEFAULT_TOL
    _, _, _, lmat = _cg_maps(vector.scenario)
    table = (lmat @ vector.entries).reshape(vector.scenario.table_shape)
    if table.min() < -tol.negativity:
        worst = np.unravel_index(np.argmin(table), table.shape)
        raise NegativityError(f"reconstructed entry {worst} is negative: {table[worst]:.3e}")
    return behavior_from_table(vector.scenario, table, tol)


def unit_functional(scenario: Scenario) -> BellFunctional:
    coeffs = np.zeros(basis_size(scenario))
    coeffs[0] = 1.0
    return BellFunctional(scenario, coeffs)


def functional_from_table(scenario: Scenario, table) -> BellFunctional:
    """Canonical monomial-basis form of a full coefficient table W(a|x)."""
    arr = np.asarray(table, dtype=float)
    if arr.shape != scenario.table_shape:
        raise ValueError(f"table shape {arr.shape} != {scenario.table_shape}")
    _, _, _, lmat = _cg_maps(scenario)
    return BellFunctional(scenario, lmat.T @ arr.ravel())


def functional_from_terms(scenario: Scenario, terms: dict) -> BellFunctional:
    """Functional from a {monomial: coefficient} mapping (letters as triples)."""
    _, index_of, _, _ = _cg_maps(scenario)
    coeffs = np.zeros(basis_size(scenario))
    for mono, value in terms.items():
        key = tuple(sorted(tuple(letter) for letter in mono))
        coeffs[index_of[key]] += float(value)
    return BellFunctional(scenario, coeffs)


def representative_table(functional: BellFunctional) -> np.ndarray:
    """One full coefficient table that induces this functional.

    Parties absent from a monomial are pinned to setting 0 and summed over
    outcomes, so any no-signalling behavior gives the same value as the
    monomial form.
    """
    _, _, tmat, _ = _cg_maps(functional.scenario)
    return (tmat.T @ functional.coeffs).reshape(functional.scenario.table_shape)


def evaluate(functional: BellFunctional, behavior: Behavior) -> float:
    if functional.scenario != behavior.scenario:
        raise ScenarioMismatchError(
            f"functional on {functional.scenario} applied to behavior on {behavior.scenario}"
        )
    _, _, tmat, _ = _cg_maps(functional.scenario)
    return float(functional.coeffs @ (tmat @ behavior.table.ravel()))


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


@lru_cache(maxsize=None)
def _vertex_stack(scenario: Scenario) -> np.ndarray:
    vertices = enumerate_deterministic(scenario)
    return np.stack([v.table.ravel() for v in vertices])


def random_local_behavior(scenario: Scenario, rng: np.random.Generator) -> Behavior:
    """Random mixture of deterministic vertices (these span the
    no-signalling subspace, so they exercise every CG coordinate)."""
    stack = _vertex_stack(scenario)
    weights = rng.random(stack.shape[0])
    weights /= weights.sum()
    return behavior_from_table(scenario, (weights @ stack).reshape(scenario.table_shape))


# ---------------------------------------------------------------------------
# JSON schema
#
# {"scenario": {"parties": n, "settings": [...], "outcomes": d},
#  "format": "full" | "collins_gisin",
#  "entries": [{"monomial": [[party, setting, outcome], ...], "coeff": x}, ...]}
#
# "collins_gisin" entries index basis monomials (dropped outcomes excluded);
# "full" entries carry one letter per party and address the full table.
# Zero entries may be omitted.  Floats serialize via repr, which round-trips
# exactly (in particular to 17 significant digits).
# ---------------------------------------------------------------------------


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "parties": scenario.parties,
        "settings": list(scenario.settings),
        "outcomes": scenario.outcomes,
    }


def scenario_from_json(obj: dict) -> Scenario:
    return Scenario(int(obj["parties"]), tuple(obj["settings"]), int(obj["outcomes"]))


def _entries_from_vector(scenario, values, basis):
    entries = []
    for mono, value in zip(basis, values):
        if value != 0.0:
            entries.append({"monomial": [list(letter) for letter in mono], "coeff": float(value)})
    return entries


def _vector_from_entries(scenario, entries):
    _, index_of, _, _ = _cg_maps(scenario)
    values = np.zeros(basis_size(scenario))
    for entry in entries:
        mono = tuple(sorted(tuple(int(i) for i in letter) for letter in entry["monomial"]))
        values[index_of[mono]] += float(entry["coeff"])
    return values


def _full_entries(scenario, table):
    n = scenario.parties
    entries = []
    for flat in range(scenario.table_size):
        value = table.ravel()[flat]
        if value == 0.0:
            continue
        idx = np.unravel_index(flat, scenario.table_shape)
        mono = [[k, int(idx[k]), int(idx[n + k])] for k in range(n)]
        entries.append({"monomial": mono, "coeff": float(value)})
    return entries


def _table_from_full_entries(scenario, entries):
    n = scenario.parties
    table = np.zeros(scenario.table_shape)
    for entry in entries:
        mono = entry["monomial"]
        if len(mono) != n:
            raise ValueError("full-format entries need one letter per party")
        settings = [0] * n
        outcomes = [0] * n
        for party, setting, outcome in mono:
            settings[int(party)] = int(setting)
            outcomes[int(party)] = int(outcome)
        table[tuple(settings) + tuple(outcomes)] += float(entry["coeff"])
    return table


def behavior_to_json(behavior: Behavior, fmt: str = "full") -> dict:
    scenario = behavior.scenario
    if fmt == "full":
        entries = _full_entries(scenario, behavior.table)
    elif fmt == "collins_gisin":
        basis = scenario_basis(scenario)
        entries = _entries_from_vector(scenario, to_collins_gisin(behavior).entries, basis)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return {"scenario": scenario_to_json(scenario), "format": fmt, "entries": entries}


def behavior_from_json(obj: dict, tol: ToleranceConfig | None = None) -> Behavior:
    scenario = scenario_from_json(obj["scenario"])
    fmt = obj.get("format", "full")
    if fmt == "full":
        return behavior_from_table(scenario, _table_from_full_entries(scenario, obj["entries"]), tol)
    if fmt == "collins_gisin":
        return from_collins_gisin(CGVector(scenario, _vector_from_entries(scenario, obj["entries"])), tol)
    raise ValueError(f"unknown format {fmt!r}")


def functional_to_json(functional: BellFunctional) -> dict:
    scenario = functional.scenario
    basis = scenario_basis(scenario)
    return {
        "scenario": scenario_to_json(scenario),
        "format": "collins_gisin",
        "entries": _entries_from_vector(scenario, functional.coeffs, basis),
    }


def functional_from_json(obj: dict) -> BellFunctional:
    scenario = scenario_from_json(obj["scenario"])
    fmt = obj.get("format", "collins_gisin")
    if fmt == "collins_gisin":
        functional = BellFunctional(scenario, _vector_from_entries(scenario, obj["entries"]))
    elif fmt == "full":
        functional = functional_from_table(scenario, _table_from_full_entries(scenario, obj["entries"]))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if not np.all(np.isfinite(functional.coeffs)):
        raise ValueError("functional coefficients must be finite")
    return functional


def save_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
