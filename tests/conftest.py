import math
from functools import lru_cache

import numpy as np
import pytest

from aqbell import aq_extremize, make_scenario, sdp
from aqbell.nbf import NbfFamily, reference_composed_functional, reference_functionals
from aqbell.oracles import QuantumModel, planar_qubit_model
from aqbell.scenario import Behavior, Scenario, behavior_from_table, enumerate_deterministic
from aqbell.sdp import SdpOperator, SdpProblem

TIGHT = 1e-10  # gap and feasibility tolerance of the closed-form solves


def solve_tight(problem):
    """``sdp.solve`` to relative duality gap and residuals TIGHT."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdp, "FEAS_TOL", TIGHT)
        return sdp.solve(problem, TIGHT)


def triplets(stack):
    """The (rows, cells, values) of a dense (m, n, n) constraint stack's
    nonzeros, the constraint form SdpOperator takes."""
    flat = np.asarray(stack, dtype=float).reshape(len(stack), -1)
    rows, cells = np.nonzero(flat)
    return rows, cells, flat[rows, cells]


def sdp_problem(block_dims, c_blocks, a_triplets, b):
    """The problem over a new operator of the given blocks and triplets,
    with one constraint per entry of b."""
    return SdpProblem(SdpOperator(block_dims, a_triplets, len(b)), c_blocks, b)


# five problems with closed-form answers


def boundary_problem():
    # min x s.t. [[x, 1], [1, x]] >= 0, posed in standard form
    a_offdiag = np.array([[0.0, 0.5], [0.5, 0.0]])
    a_equal = np.diag([1.0, -1.0])
    return sdp_problem((2,), (np.diag([1.0, 0.0]),), (triplets([a_offdiag, a_equal]),), np.array([1.0, 0.0]))


def trace_problem():
    return sdp_problem((2,), (np.eye(2),), (triplets([np.diag([1.0, 0.0])]),), np.array([3.0]))


def lambda_max_problem():
    """min <-M, X> s.t. tr X = 1, whose optimum is -lambda_max(M); returns
    the problem and M."""
    rng = np.random.default_rng(11)
    mat = rng.normal(size=(3, 3))
    mat = 0.5 * (mat + mat.T)
    return sdp_problem((3,), (-mat,), (triplets([np.eye(3)]),), np.array([1.0])), mat


def primal_infeasible_problem():
    return sdp_problem((2,), (np.zeros((2, 2)),), (triplets([np.diag([1.0, 0.0])]),), np.array([-1.0]))


def dual_infeasible_problem():
    return sdp_problem((2,), (np.diag([-1.0, 0.0]),), (triplets([np.diag([0.0, 1.0])]),), np.array([1.0]))


@pytest.fixture(scope="session")
def scn222():
    return make_scenario(2, 2, 2)


@pytest.fixture(scope="session")
def scn232():
    return make_scenario(2, 3, 2)


@pytest.fixture(scope="session")
def scn332():
    return make_scenario(3, 3, 2)


@pytest.fixture(scope="session")
def reference_trio():
    return reference_functionals()


@pytest.fixture(scope="session")
def ref_family(reference_trio):
    first, second, _ = reference_trio
    return NbfFamily((first, second))


@pytest.fixture(scope="session")
def composed_w():
    return reference_composed_functional()


@pytest.fixture(scope="session")
def headline(composed_w):
    """Shared minimum of the composed functional over the tripartite set."""
    return aq_extremize(composed_w, "min")


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


def ghz_model() -> QuantumModel:
    """A fixed three-qubit GHZ model on the (3,3,2) scenario."""
    state = np.zeros(8)
    state[0] = state[7] = 1.0 / math.sqrt(2.0)
    angles = [[0.0, 0.7, 1.9], [0.3, 1.2, 2.4], [0.9, 1.7, 2.8]]
    return planar_qubit_model(make_scenario(3, 3, 2), angles, state)


def product_model() -> QuantumModel:
    """Uncorrelated two-qubit model (product state)."""
    state = np.zeros(4)
    state[0] = 1.0
    angles = [[0.0, math.pi / 2.0], [0.4, 1.8]]
    return planar_qubit_model(make_scenario(2, 2, 2), angles, state)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
