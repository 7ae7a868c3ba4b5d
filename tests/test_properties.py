"""Property tests: canonical words, the Collins-Gisin round trip and the
multilinearity of compose, over randomly drawn scenarios and inputs."""
import numpy as np
from hypothesis import given, settings, strategies as st

from aqbell.algebra import adjoint, canonicalize
from aqbell.aqset import build_moment_structure
from aqbell.nbf import NbfFamily, compose
from aqbell.scenario import (
    BellFunctional,
    Scenario,
    basis,
    basis_size,
    from_collins_gisin,
    to_collins_gisin,
)
from conftest import random_local_behavior

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def scenarios(draw, parties=(1, 3), settings_range=(1, 3), outcomes=(2, 3)):
    n = draw(st.integers(*parties))
    counts = tuple(draw(st.integers(*settings_range)) for _ in range(n))
    return Scenario(n, counts, draw(st.integers(*outcomes)))


@PROPERTY
@given(scenarios(), st.data())
def test_canonical_word_is_shared_by_adjoint_and_swapped_product(scn, data):
    structure = build_moment_structure(scn) if basis_size(scn) <= 64 else None
    monomials = basis(scn).monomials
    i, j = (data.draw(st.integers(0, len(monomials) - 1)) for _ in range(2))
    word = canonicalize(monomials[i], monomials[j])
    assert canonicalize(monomials[j], monomials[i]) == word
    if word is not None:
        # the representative is the smaller of the word and its adjoint
        assert adjoint(adjoint(word)) == word
        assert min(word, adjoint(word)) == word
    if structure is not None:
        assert structure.cell_class[i, j] == structure.cell_class[j, i]
        assert (structure.cell_class[i, j] < 0) == (word is None)


@st.composite
def words(draw):
    """A letter sequence of any length over a drawn scenario, outcomes
    included, so that same-setting letters merge or vanish."""
    scn = draw(scenarios(parties=(1, 2), settings_range=(1, 2)))
    letter = st.tuples(st.integers(0, scn.parties - 1), st.integers(0, 1), st.integers(0, scn.outcomes - 1))
    return tuple(l for l in draw(st.lists(letter, max_size=8)) if l[1] < scn.settings[l[0]])


@PROPERTY
@given(words())
def test_reducer_is_idempotent_and_adjoint_invariant(word):
    reduced = canonicalize((), word)
    assert canonicalize((), word[::-1]) == reduced  # the adjoint reverses the letters
    if reduced is not None:
        assert canonicalize((), reduced) == reduced
        assert canonicalize(reduced, ()) == reduced


@PROPERTY
@given(scenarios(settings_range=(1, 2)), st.integers(0, 2**32 - 1))
def test_collins_gisin_round_trip_of_local_behaviors(scn, seed):
    behavior = random_local_behavior(scn, np.random.default_rng(seed))
    entries = to_collins_gisin(behavior)
    assert abs(entries[0] - 1.0) <= 1e-12
    rebuilt = from_collins_gisin(scn, entries)
    np.testing.assert_allclose(rebuilt.table, behavior.table, atol=1e-12)
    np.testing.assert_allclose(to_collins_gisin(rebuilt), entries, atol=1e-12)


@st.composite
def compositions(draw):
    """An outer functional, two families on one scenario, and a seed."""
    family_settings = tuple(draw(st.integers(1, 3)) for _ in range(2))
    n_xi, m_z = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return Scenario(2, (n_xi, m_z), 2), Scenario(2, family_settings, 2), draw(st.integers(0, 2**32 - 1))


def random_functional(scn, rng):
    return BellFunctional(scn, rng.uniform(-1, 1, basis_size(scn)))


@PROPERTY
@given(compositions(), st.floats(-2, 2), st.floats(-2, 2))
def test_compose_is_linear_in_the_outer_functional(setup, a, b):
    outer_scn, fam_scn, seed = setup
    rng = np.random.default_rng(seed)
    v, w = random_functional(outer_scn, rng), random_functional(outer_scn, rng)
    fam = NbfFamily([random_functional(fam_scn, rng) for _ in range(outer_scn.settings[0])])
    mixed = compose(BellFunctional(outer_scn, a * v.coeffs + b * w.coeffs), fam).coeffs
    expected = a * compose(v, fam).coeffs + b * compose(w, fam).coeffs
    np.testing.assert_allclose(mixed, expected, atol=1e-12)


@PROPERTY
@given(compositions(), st.floats(-1, 2), st.data())
def test_compose_is_affine_in_each_generator(setup, t, data):
    outer_scn, fam_scn, seed = setup
    rng = np.random.default_rng(seed)
    outer = random_functional(outer_scn, rng)
    generators = [random_functional(fam_scn, rng) for _ in range(outer_scn.settings[0])]
    other = random_functional(fam_scn, rng)
    s = data.draw(st.integers(0, len(generators) - 1))

    def with_generator(g):
        return compose(outer, NbfFamily(generators[:s] + [g] + generators[s + 1 :])).coeffs

    mixed = with_generator(BellFunctional(fam_scn, t * generators[s].coeffs + (1 - t) * other.coeffs))
    expected = t * with_generator(generators[s]) + (1 - t) * with_generator(other)
    np.testing.assert_allclose(mixed, expected, atol=1e-12)
