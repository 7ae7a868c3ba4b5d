"""Normalized Bell functionals over the almost-quantum set.

A functional W is *normalized* when 0 <= W(p) <= 1 for every behavior p in
the set; both bounds are certified by Gram matrices whose class sums
reproduce the functional (sum-of-squares certificates).  A two-outcome
family {W_s, 1 - W_s}_s, stored as its generators W_s, acts as a setting-
indexed measurement on boxes, and an outer bipartite functional applied to
such a family composes into a tripartite functional by contracting its
first slot with the family (:func:`compose`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aqset import SosCertificate, aq_extremize, build_moment_structure, class_sums
from .errors import ScenarioMismatchError, SolverFailureError
from .scenario import (
    Behavior,
    BellFunctional,
    Scenario,
    basis,
    representative_table,
    functional_from_table,
    functional_from_terms,
    make_scenario,
    scenario_to_json,
    unit_functional,
)
from .sdp import GAP_TOL


def certificate_residual(cert: SosCertificate) -> float:
    """Worst deviation of the certificate's class sums from the certified
    polynomial: basis words must reproduce ``target`` (minus ``lam`` on the
    identity), all other reduced words must cancel."""
    structure = build_moment_structure(cert.scenario)
    expected = np.zeros(len(structure.classes))
    expected[structure.monomial_class] = cert.target
    expected[0] -= cert.lam
    return float(np.abs(class_sums(structure, cert.z) - expected).max())


@dataclass(eq=False)
class NbfVerdict:
    """Result of testing whether a functional stays inside [0, 1] on the set.

    ``is_nbf`` is None when the solver failed on either bound.
    """

    is_nbf: bool | None
    aq_min: float
    aq_max: float
    lower_certificate: SosCertificate | None
    upper_certificate: SosCertificate | None
    tolerance: float
    failure: str | None = None


def verify_nbf(functional: BellFunctional, tol: float = 1e-6, gap_tol: float = GAP_TOL) -> NbfVerdict:
    """Extremize both ways over the almost-quantum set, to relative duality
    gap ``gap_tol``, and attach the certificates; normalized means both
    bounds lie within ``tol`` of [0, 1], which must be finite and >= 0
    (ValueError otherwise).  The upper certificate bounds -W from below by
    -aq_max."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    try:
        lower = aq_extremize(functional, "min", gap_tol)
        upper = aq_extremize(functional, "max", gap_tol)
    except SolverFailureError as exc:
        return NbfVerdict(None, math.nan, math.nan, None, None, tol, failure=str(exc))
    return NbfVerdict(
        is_nbf=bool(lower.value >= -tol and upper.value <= 1.0 + tol),
        aq_min=lower.value,
        aq_max=upper.value,
        lower_certificate=lower.certificate,
        upper_certificate=upper.certificate,
        tolerance=tol,
    )


def project_to_nbf(functional: BellFunctional) -> BellFunctional:
    """Affine rescale onto [0, 1] over the set when the bounds drifted out."""
    lo = aq_extremize(functional, "min").value
    hi = aq_extremize(functional, "max").value
    if lo >= 0.0 and hi <= 1.0:
        return functional
    span = hi - lo
    coeffs = functional.coeffs / span
    coeffs[0] -= lo / span
    return BellFunctional(functional.scenario, coeffs)


@dataclass(frozen=True, eq=False)
class NbfFamily:
    """Two-outcome family {W_s, 1 - W_s}, stored as its generators W_s (one
    per setting s, all on one scenario); complete by construction."""

    generators: tuple

    def __post_init__(self):
        generators = tuple(self.generators)
        if any(g.scenario != generators[0].scenario for g in generators):
            raise ScenarioMismatchError("family generators live on different scenarios")
        object.__setattr__(self, "generators", generators)

    @property
    def scenario(self) -> Scenario:
        return self.generators[0].scenario

    @property
    def functionals(self) -> tuple:
        """[setting][outcome] -> BellFunctional: the pairs (W_s, 1 - W_s)."""
        unit = unit_functional(self.scenario).coeffs
        return tuple((g, BellFunctional(self.scenario, unit - g.coeffs)) for g in self.generators)


def compose(outer: BellFunctional, fam: NbfFamily) -> BellFunctional:
    """Contract a bipartite functional's first slot with a two-outcome family.

    ``outer`` lives on a two-party, two-outcome scenario whose first party's
    settings index the family's settings and whose outcomes index the
    family's outcomes.  Its second party's settings z = 0..m_z-1 become the
    composed third party's settings 0..m_z-1; the third party has
    ``max(m_z, *fam.scenario.settings)`` settings, so a family on a uniform
    scenario composes onto a uniform one, and the settings past m_z get zero
    coefficients.  :func:`pair_boxes` is the adjoint.
    """
    if fam.scenario.parties != 2 or outer.scenario.parties != 2:
        raise ValueError("composition expects a bipartite family and a bipartite outer functional")
    n_xi = len(fam.generators)
    if outer.scenario.settings[0] != n_xi:
        raise ValueError("outer functional's first-party settings must match the family settings")
    if outer.scenario.outcomes != 2 or fam.scenario.outcomes != 2:
        raise ValueError("composition expects two outcomes, the family's two")

    m_z = outer.scenario.settings[1]
    target = Scenario(3, fam.scenario.settings + (max(m_z, *fam.scenario.settings),), 2)
    outer_table = representative_table(outer)  # axes (xi, z, alpha, c)
    member_tables = [np.stack([representative_table(f) for f in members]) for members in fam.functionals]
    table = np.zeros(target.table_shape)  # axes (x, y, z, a, b, c)
    for xi in range(n_xi):
        for z in range(m_z):
            # sum_alpha outer(alpha, c | xi, z) * member(a, b | x, y)
            table[:, :, z] += np.einsum("Axyab,Ac->xyabc", member_tables[xi], outer_table[xi, z])
    return functional_from_table(target, table)


def pair_boxes(p: Behavior, m_z: int) -> np.ndarray:
    """The adjoint of :func:`compose`: an (m_z, d, N_pair) array whose
    [z, c] row is the Collins-Gisin vector of the unnormalized two-party box
    p(ab, c | xy, z) at fixed (z, c), so that

        W(p) = sum V(alpha, c | xi, z) U_(alpha|xi) . boxes[z, c]

    with V the outer functional's representative table and U the family's
    member coefficients.  Entry 0 of each row is p_C(c | z).
    """
    scenario = p.scenario
    pair = Scenario(2, scenario.settings[:2], scenario.outcomes)
    # axes (z, c, x, y, a, b)
    boxes = p.table[:, :, :m_z].transpose(2, 5, 0, 1, 3, 4)
    return boxes.reshape(m_z, scenario.outcomes, -1) @ basis(pair).tmat.T


# --- bundled reference functionals ------------------------------------------


def random_wiring(rng: np.random.Generator, scenario: Scenario) -> BellFunctional:
    """Probability of a random binary event computed from one joint
    measurement at a random setting choice: a wiring, hence in [0, 1] on
    every behavior of any theory."""
    table = np.zeros(scenario.table_shape)
    xs = tuple(int(rng.integers(m)) for m in scenario.settings)
    event = rng.integers(0, 2, size=(scenario.outcomes,) * scenario.parties)
    for outcomes in np.ndindex(*event.shape):
        if event[outcomes] == 0:
            table[xs + outcomes] = 1.0
    return functional_from_table(scenario, table)


def matching_wiring() -> BellFunctional:
    """Probability that both parties get equal outcomes when both measure
    setting 1: W(p) = 1 - p_A(0|1) - p_B(0|1) + 2 p(00|11).  A wiring, hence
    in [0, 1] on every behavior."""
    return functional_from_terms(
        make_scenario(2, 3, 2),
        {
            (): 1.0,
            ((0, 1, 0),): -1.0,
            ((1, 1, 0),): -1.0,
            ((0, 1, 0), (1, 1, 0)): 2.0,
        },
    )


def reference_functionals():
    """The bundled trio: two generators on the three-setting pair scenario
    and one outer functional on the two-setting pair scenario.  Each is
    normalized over the almost-quantum set (the printed four-decimal
    coefficients are the definition), yet their composition admits a
    negative value on almost-quantum tripartite behaviors."""
    first = matching_wiring()
    second = functional_from_terms(
        make_scenario(2, 3, 2),
        {
            (): 1.0,
            ((1, 0, 0),): -0.0329,
            ((1, 2, 0),): -0.7117,
            ((0, 0, 0),): -0.0329,
            ((0, 0, 0), (1, 0, 0)): -0.8418,
            ((0, 0, 0), (1, 2, 0)): 0.6359,
            ((0, 2, 0),): -0.7117,
            ((0, 2, 0), (1, 0, 0)): 0.6359,
            ((0, 2, 0), (1, 2, 0)): 0.4360,
        },
    )
    outer = functional_from_terms(
        make_scenario(2, 2, 2),
        {
            (): 0.1590,
            ((1, 0, 0),): 0.8372,
            ((1, 1, 0),): 0.0031,
            ((0, 0, 0),): -0.1544,
            ((0, 0, 0), (1, 0, 0)): -0.6132,
            ((0, 0, 0), (1, 1, 0)): 0.5547,
            ((0, 1, 0),): 0.5884,
            ((0, 1, 0), (1, 0, 0)): -0.5902,
            ((0, 1, 0), (1, 1, 0)): -0.7404,
        },
    )
    return first, second, outer


def reference_composed_functional() -> BellFunctional:
    """Composition of the bundled trio on the uniform (3,3,2) scenario."""
    first, second, outer = reference_functionals()
    return compose(outer, NbfFamily((first, second)))


def matrix_to_triplets(mat: np.ndarray) -> list:
    """Upper-triangle sparse triplets [i, j, value] of a symmetric matrix."""
    rows, cols = np.nonzero(np.triu(mat))  # row-major order
    return [list(t) for t in zip(rows.tolist(), cols.tolist(), mat[rows, cols].tolist())]


def certificate_to_json(cert: SosCertificate) -> dict:
    return {
        "scenario": scenario_to_json(cert.scenario),
        "lam": float(cert.lam),
        "target": [float(v) for v in cert.target],
        "z": matrix_to_triplets(cert.z),
    }

