"""Independent cross-checks: vertex enumeration, explicit quantum models and
numerically built trace moment matrices, whose entries are products of
per-party traces of explicit operators.

Everything here is deliberately brute force and shares no code path with the
compiler or the solver; tests sandwich the SDP results between these values.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .aqset import MomentStructure
from .errors import ScenarioMismatchError
from .scenario import (
    Behavior,
    BellFunctional,
    Scenario,
    behavior_from_table,
    enumerate_deterministic,
    evaluate,
    functional_from_table,
    make_scenario,
)


def deterministic_range(functional: BellFunctional) -> tuple:
    """Exact (min, max) of a functional over all local deterministic boxes."""
    values = [evaluate(functional, vertex) for vertex in enumerate_deterministic(functional.scenario)]
    return min(values), max(values)


@dataclass(frozen=True, eq=False)
class QuantumModel:
    """State plus projective measurements; dims are per-party local dimensions."""

    scenario: Scenario
    dims: tuple
    projectors: tuple  # [party][setting][outcome] -> ndarray
    state: np.ndarray


def quantum_model(scenario: Scenario, dims, projectors, state, tol: float = 1e-12) -> QuantumModel:
    """Validate projectivity, orthogonality, completeness and normalization."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != scenario.parties:
        raise ValueError("one local dimension per party required")
    state = np.asarray(state, dtype=complex)
    if state.shape != (math.prod(dims),):
        raise ValueError("state length must match the product of local dimensions")
    if abs(np.linalg.norm(state) - 1.0) > tol:
        raise ValueError("state is not normalized")
    packed = []
    for party in range(scenario.parties):
        if len(projectors[party]) != scenario.settings[party]:
            raise ValueError(f"party {party} needs {scenario.settings[party]} settings")
        rows = []
        for setting in range(scenario.settings[party]):
            ops = [np.asarray(p, dtype=complex) for p in projectors[party][setting]]
            if len(ops) != scenario.outcomes:
                raise ValueError("one projector per outcome required")
            total = np.zeros((dims[party], dims[party]), dtype=complex)
            for a, p in enumerate(ops):
                if p.shape != (dims[party], dims[party]):
                    raise ValueError("projector dimension mismatch")
                if np.abs(p @ p - p).max() > tol:
                    raise ValueError(f"projector ({party},{setting},{a}) is not idempotent")
                for q in ops[:a]:
                    if np.abs(p @ q).max() > tol:
                        raise ValueError(f"projectors of setting ({party},{setting}) overlap")
                total += p
            if np.abs(total - np.eye(dims[party])).max() > tol:
                raise ValueError(f"projectors of setting ({party},{setting}) do not sum to identity")
            rows.append(tuple(ops))
        packed.append(tuple(rows))
    return QuantumModel(scenario, dims, tuple(packed), state)


def behavior_from_model(model: QuantumModel) -> Behavior:
    """Born-rule behavior of the model."""
    scenario = model.scenario
    n = scenario.parties
    table = np.zeros(scenario.table_shape)
    for xs in itertools.product(*(range(m) for m in scenario.settings)):
        for outcomes in itertools.product(range(scenario.outcomes), repeat=n):
            op = functools.reduce(
                np.kron, (model.projectors[k][xs[k]][outcomes[k]] for k in range(n))
            )
            value = np.vdot(model.state, op @ model.state)
            assert abs(value.imag) < 1e-10
            table[xs + outcomes] = value.real
    return behavior_from_table(scenario, table)


def quantum_value(functional: BellFunctional, model: QuantumModel) -> float:
    if functional.scenario != model.scenario:
        raise ScenarioMismatchError("functional and model disagree on the scenario")
    return evaluate(functional, behavior_from_model(model))


def _planar_projectors(angle: float):
    """Qubit projectors of the +-1 outcomes of cos(t) Z + sin(t) X."""
    v = np.array([math.cos(angle / 2.0), math.sin(angle / 2.0)])
    p0 = np.outer(v, v)
    return (p0, np.eye(2) - p0)


def planar_qubit_model(scenario: Scenario, angles, state) -> QuantumModel:
    """n-qubit model with all measurements in the x-z plane."""
    projectors = [
        [_planar_projectors(angles[k][x]) for x in range(scenario.settings[k])]
        for k in range(scenario.parties)
    ]
    return quantum_model(scenario, (2,) * scenario.parties, projectors, state)


def tsirelson_model() -> QuantumModel:
    """Two-qubit maximally entangled model with angles 0, pi/2 and +-pi/4,
    which saturates the quantum CHSH bound."""
    state = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    angles = [[0.0, math.pi / 2.0], [math.pi / 4.0, -math.pi / 4.0]]
    return planar_qubit_model(make_scenario(2, 2, 2), angles, state)


def three_setting_pair_model() -> QuantumModel:
    """A fixed entangled two-qubit model on the three-setting pair scenario."""
    state = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    angles = [[0.0, math.pi / 3.0, 2.0 * math.pi / 3.0], [math.pi / 6.0, math.pi / 2.0, 5.0 * math.pi / 6.0]]
    return planar_qubit_model(make_scenario(2, 3, 2), angles, state)


def normalized_chsh() -> BellFunctional:
    """The CHSH expression rescaled to land in [0, 1] on no-signalling boxes:
    (4 + CHSH) / 8.  Classical range is [1/4, 3/4]; the quantum maximum is
    (4 + 2*sqrt(2)) / 8."""
    scenario = make_scenario(2, 2, 2)
    table = np.zeros(scenario.table_shape)
    for x in range(2):
        for y in range(2):
            sign = -1.0 if x == 1 and y == 1 else 1.0
            for a in range(2):
                for b in range(2):
                    table[x, y, a, b] = 0.125 + sign * 0.125 * (-1.0) ** (a + b)
    return functional_from_table(scenario, table)


def trace_moment_matrix(structure: MomentStructure) -> np.ndarray:
    """Moment matrix of the explicit product-projector model, built from
    explicit operators and plain matrix traces (no counting shortcuts).  The
    operators are tensor products over the parties, and the trace of a
    tensor product is the product of its parties' traces."""
    scenario = structure.scenario
    d = scenario.outcomes

    def letter_operator(party, setting, outcome):
        ket = np.zeros((d, 1))
        ket[outcome, 0] = 1.0
        proj = ket @ ket.T
        factors = [proj if x == setting else np.eye(d) for x in range(scenario.settings[party])]
        return functools.reduce(np.kron, factors)

    traces = np.ones((structure.size, structure.size))
    for party, count in enumerate(scenario.settings):
        party_ops = np.empty((structure.size, d ** (2 * count)))
        for idx, mono in enumerate(structure.basis):
            op = np.eye(d**count)
            for letter in mono:
                if letter[0] == party:
                    op = op @ letter_operator(*letter)
            party_ops[idx] = op.ravel()
        # tr(P Q) = sum(P * Q^T) and every operator here is symmetric
        traces *= party_ops @ party_ops.T
    return traces / float(d ** sum(scenario.settings))
