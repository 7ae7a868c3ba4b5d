"""Normalized Bell functionals over the almost-quantum set.

A functional W is *normalized* when 0 <= W(p) <= 1 for every behavior p in
the set; both bounds are certified by Gram matrices whose class sums
reproduce the functional (sum-of-squares certificates).  Complete families
{W_a}_a with sum_a W_a = 1 act as generalized measurements on boxes, and an
outer bipartite functional applied to such a family composes into a
higher-party functional by contracting its first slot with the family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aqset import SosCertificate, aq_extremize, build_moment_structure, class_sums
from .errors import ScenarioMismatchError, SolverFailureError
from .scenario import (
    BellFunctional,
    Scenario,
    basis_size,
    representative_table,
    functional_from_table,
    functional_from_terms,
    make_scenario,
    scenario_from_json,
    scenario_to_json,
    unit_functional,
)
from .sdp import SolverConfig


COMPLETE_TOL = 1e-9  # coefficient-level residual allowed by check_complete


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


def verify_nbf(
    functional: BellFunctional, tol: float = 1e-6, config: SolverConfig | None = None
) -> NbfVerdict:
    """Extremize both ways over the almost-quantum set and attach the
    certificates.  The upper certificate bounds -W from below by -aq_max."""
    try:
        lower = aq_extremize(functional, "min", config)
        upper = aq_extremize(functional, "max", config)
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
    """Setting-indexed lists of outcome-indexed functionals {W_(a|s)}."""

    scenario: Scenario
    functionals: tuple  # [setting][outcome] -> BellFunctional

    @classmethod
    def two_outcome(cls, generators) -> "NbfFamily":
        """Complete each generator W with 1 - W."""
        generators = list(generators)
        scenario = generators[0].scenario
        unit = unit_functional(scenario)
        members = []
        for g in generators:
            if g.scenario != scenario:
                raise ScenarioMismatchError("family generators live on different scenarios")
            members.append((g, BellFunctional(scenario, unit.coeffs - g.coeffs)))
        return cls(scenario, tuple(tuple(pair) for pair in members))

    @property
    def n_settings(self) -> int:
        return len(self.functionals)

    @property
    def n_outcomes(self) -> int:
        return len(self.functionals[0])


def check_complete(fam: NbfFamily):
    """Coefficient-level completeness check, sum_a W_(a|s) = 1 for every
    setting s; returns (ok, residual).  Collins-Gisin coordinates are linear
    and entry 0 of every normalized behavior is 1, so the identity implies
    the sum evaluates to 1 on every behavior."""
    unit = unit_functional(fam.scenario).coeffs
    per_setting = []
    for members in fam.functionals:
        total = np.zeros_like(unit)
        for f in members:
            if f.scenario != fam.scenario:
                raise ScenarioMismatchError("family member on a foreign scenario")
            total = total + f.coeffs
        per_setting.append(np.abs(total - unit).max())
    # np.max, unlike the builtin, propagates a NaN coefficient into the residual
    residual = float(np.max(per_setting))
    return residual <= COMPLETE_TOL, residual


def compose(
    outer: BellFunctional,
    fam: NbfFamily,
    third_party_map=None,
    third_party_settings: int | None = None,
) -> BellFunctional:
    """Contract a bipartite functional's first slot with a complete family.

    ``outer`` lives on a two-party scenario whose first party's settings
    index the family's settings and whose outcomes index the family's
    outcomes; its second party becomes the composed scenario's third party.
    ``third_party_map`` sends the outer functional's second-party settings
    into the (possibly larger) setting range of the composed third party,
    whose total is ``third_party_settings``; unmapped settings get zero
    coefficients.
    """
    ok, residual = check_complete(fam)
    if not ok:
        raise ValueError(f"family is not complete (residual {residual:.3e})")
    if fam.scenario.parties != 2 or outer.scenario.parties != 2:
        raise ValueError("composition expects a bipartite family and a bipartite outer functional")
    n_xi = fam.n_settings
    n_alpha = fam.n_outcomes
    if outer.scenario.settings[0] != n_xi:
        raise ValueError("outer functional's first-party settings must match the family settings")
    if outer.scenario.outcomes != n_alpha:
        raise ValueError("outer functional's outcomes must match the family outcomes")
    if outer.scenario.outcomes != fam.scenario.outcomes:
        raise ValueError("uniform outcome counts are required for composition")

    m_z = outer.scenario.settings[1]
    if third_party_map is None:
        third_party_map = tuple(range(m_z))
    third_party_map = tuple(int(z) for z in third_party_map)
    if len(third_party_map) != m_z or len(set(third_party_map)) != m_z:
        raise ValueError("third_party_map must map each outer setting to a distinct target setting")
    settings_c = third_party_settings if third_party_settings is not None else max(third_party_map) + 1
    if any(z < 0 or z >= settings_c for z in third_party_map):
        raise ValueError("third_party_map exceeds the target setting range")

    target = Scenario(
        3, (fam.scenario.settings[0], fam.scenario.settings[1], settings_c), fam.scenario.outcomes
    )
    outer_table = representative_table(outer)  # axes (xi, z, alpha, c)
    member_tables = [
        np.stack([representative_table(fam.functionals[xi][alpha]) for alpha in range(n_alpha)])
        for xi in range(n_xi)
    ]
    table = np.zeros(target.table_shape)  # axes (x, y, zc, a, b, c)
    for xi in range(n_xi):
        for z in range(m_z):
            # sum_alpha outer(alpha, c | xi, z) * member(a, b | x, y)
            contracted = np.einsum("Axyab,Ac->xyabc", member_tables[xi], outer_table[xi, z])
            table[:, :, third_party_map[z], :, :, :] += contracted
    return functional_from_table(target, table)


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


REFERENCE_THIRD_PARTY_MAP = (0, 1)
REFERENCE_THIRD_PARTY_SETTINGS = 3


def reference_family() -> NbfFamily:
    first, second, _ = reference_functionals()
    return NbfFamily.two_outcome([first, second])


def compose_on_reference_layout(outer: BellFunctional, fam: NbfFamily) -> BellFunctional:
    """Composition on the uniform (3,3,2) scenario, with the outer
    functional's second-party settings on the third party's settings 0, 1."""
    return compose(
        outer,
        fam,
        third_party_map=REFERENCE_THIRD_PARTY_MAP,
        third_party_settings=REFERENCE_THIRD_PARTY_SETTINGS,
    )


def reference_composed_functional() -> BellFunctional:
    """Composition of the bundled trio on the uniform (3,3,2) scenario."""
    _, _, outer = reference_functionals()
    return compose_on_reference_layout(outer, reference_family())


def matrix_to_triplets(mat: np.ndarray) -> list:
    """Upper-triangle sparse triplets [i, j, value] of a symmetric matrix."""
    out = []
    n = mat.shape[0]
    for i in range(n):
        for j in range(i, n):
            if mat[i, j] != 0.0:
                out.append([i, j, float(mat[i, j])])
    return out


def matrix_from_triplets(n: int, triplets) -> np.ndarray:
    mat = np.zeros((n, n))
    for i, j, value in triplets:
        mat[int(i), int(j)] = float(value)
        mat[int(j), int(i)] = float(value)
    return mat


def certificate_to_json(cert: SosCertificate) -> dict:
    return {
        "scenario": scenario_to_json(cert.scenario),
        "lam": float(cert.lam),
        "target": [float(v) for v in cert.target],
        "z": matrix_to_triplets(cert.z),
    }


def certificate_from_json(obj: dict) -> SosCertificate:
    scenario = scenario_from_json(obj["scenario"])
    target = np.array([float(v) for v in obj["target"]])
    z = matrix_from_triplets(basis_size(scenario), obj["z"])
    return SosCertificate(scenario, target, float(obj["lam"]), z)
