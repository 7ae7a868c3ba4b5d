"""Almost-quantum Bell correlations as semidefinite programs: moment-matrix
extremization, normalized-functional certificates, composition and see-saw
search."""

__version__ = "0.1.0"

from .scenario import (
    Behavior,
    BellFunctional,
    Scenario,
    ToleranceConfig,
    behavior_from_table,
    enumerate_deterministic,
    evaluate,
    from_collins_gisin,
    make_scenario,
    to_collins_gisin,
)
from .sdp import SdpOperator, SdpProblem, SdpSolution, SdpStatus, check_certificate, solve
from .aqset import SosCertificate, aq_extremize, build_moment_structure, strictly_feasible_point
from .nbf import (
    NbfFamily,
    NbfVerdict,
    compose,
    reference_composed_functional,
    reference_functionals,
    verify_nbf,
)
from .oracles import deterministic_range, normalized_chsh, quantum_value, trace_moment_matrix
from .seesaw import SeesawConfig, SeesawTrace, step_behavior, step_functionals

__all__ = [
    "Behavior",
    "BellFunctional",
    "NbfFamily",
    "NbfVerdict",
    "Scenario",
    "SdpOperator",
    "SdpProblem",
    "SdpSolution",
    "SdpStatus",
    "SeesawConfig",
    "SeesawTrace",
    "SosCertificate",
    "ToleranceConfig",
    "aq_extremize",
    "behavior_from_table",
    "build_moment_structure",
    "check_certificate",
    "compose",
    "deterministic_range",
    "enumerate_deterministic",
    "evaluate",
    "from_collins_gisin",
    "make_scenario",
    "normalized_chsh",
    "quantum_value",
    "reference_composed_functional",
    "reference_functionals",
    "solve",
    "step_behavior",
    "step_functionals",
    "strictly_feasible_point",
    "to_collins_gisin",
    "trace_moment_matrix",
    "verify_nbf",
]
