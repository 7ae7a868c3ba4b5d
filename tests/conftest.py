import numpy as np
import pytest

from aqbell import aq_extremize, make_scenario
from aqbell.nbf import reference_composed_functional, reference_family, reference_functionals
from aqbell.sdp import SdpProblem


def triplets(stack):
    """The (rows, cells, values) of a dense (m, n, n) constraint stack's
    nonzeros, the constraint form SdpProblem takes."""
    flat = np.asarray(stack, dtype=float).reshape(len(stack), -1)
    rows, cells = np.nonzero(flat)
    return rows, cells, flat[rows, cells]


# five problems with closed-form answers


def boundary_problem():
    # min x s.t. [[x, 1], [1, x]] >= 0, posed in standard form
    a_offdiag = np.array([[0.0, 0.5], [0.5, 0.0]])
    a_equal = np.diag([1.0, -1.0])
    return SdpProblem((2,), (np.diag([1.0, 0.0]),), (triplets([a_offdiag, a_equal]),), np.array([1.0, 0.0]))


def trace_problem():
    return SdpProblem((2,), (np.eye(2),), (triplets([np.diag([1.0, 0.0])]),), np.array([3.0]))


def lambda_max_problem():
    """min <-M, X> s.t. tr X = 1, whose optimum is -lambda_max(M); returns
    the problem and M."""
    rng = np.random.default_rng(11)
    mat = rng.normal(size=(3, 3))
    mat = 0.5 * (mat + mat.T)
    return SdpProblem((3,), (-mat,), (triplets([np.eye(3)]),), np.array([1.0])), mat


def primal_infeasible_problem():
    return SdpProblem((2,), (np.zeros((2, 2)),), (triplets([np.diag([1.0, 0.0])]),), np.array([-1.0]))


def dual_infeasible_problem():
    return SdpProblem((2,), (np.diag([-1.0, 0.0]),), (triplets([np.diag([0.0, 1.0])]),), np.array([1.0]))


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
def ref_family():
    return reference_family()


@pytest.fixture(scope="session")
def composed_w():
    return reference_composed_functional()


@pytest.fixture(scope="session")
def headline(composed_w):
    """Shared minimum of the composed functional over the tripartite set."""
    return aq_extremize(composed_w, "min")


def random_mixture(scenario, rng):
    from aqbell.scenario import random_local_behavior

    return random_local_behavior(scenario, rng)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
