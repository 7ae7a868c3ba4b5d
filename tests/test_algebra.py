import itertools
import math

import numpy as np
import pytest

from aqbell.algebra import adjoint, canonicalize, word_classes
from aqbell.aqset import build_moment_structure
from aqbell.scenario import Scenario, basis, make_scenario


def test_basis_sizes_and_order():
    assert len(basis(make_scenario(2, 3, 2)).monomials) == 16
    assert len(basis(make_scenario(3, 3, 2)).monomials) == 64
    assert basis(make_scenario(2, 2, 2)).monomials == (
        (),
        ((0, 0, 0),),
        ((0, 1, 0),),
        ((1, 0, 0),),
        ((1, 1, 0),),
        ((0, 0, 0), (1, 0, 0)),
        ((0, 0, 0), (1, 1, 0)),
        ((0, 1, 0), (1, 0, 0)),
        ((0, 1, 0), (1, 1, 0)),
    )
    # the index and the settings table read the same order
    for scn in (make_scenario(2, 2, 2), Scenario(3, (1, 2, 3), 3)):
        b = basis(scn)
        assert b.index == {mono: i for i, mono in enumerate(b.monomials)}
        for mono, row in zip(b.monomials, b.settings):
            expected = [-1] * scn.parties
            for party, setting, _outcome in mono:
                expected[party] = setting
            assert list(row) == expected


def test_basis_size_formula():
    uniform = [make_scenario(n, m, d) for n, m, d in [(1, 4, 3), (2, 2, 4), (3, 2, 2)]]
    for scn in uniform + [Scenario(2, (2, 3), 3), Scenario(3, (1, 2, 3), 3)]:
        d = scn.outcomes
        assert len(basis(scn).monomials) == math.prod(1 + m * (d - 1) for m in scn.settings)


def test_canonicalize_idempotence():
    mono = (((0, 1, 0)),)
    assert canonicalize(mono, mono) == ((0, 1, 0),)


def test_canonicalize_orthogonality():
    # different outcomes of one setting only exist for d >= 3
    assert canonicalize(((0, 1, 0),), ((0, 1, 1),)) is None


def test_canonicalize_adjoint_identification():
    left = canonicalize(((0, 0, 0),), ((0, 1, 0),))
    right = canonicalize(((0, 1, 0),), ((0, 0, 0),))
    assert left == right
    assert left in (((0, 0, 0), (0, 1, 0)), ((0, 1, 0), (0, 0, 0)))


def test_canonicalize_cross_party():
    word = canonicalize(((0, 0, 0), (1, 1, 0)), ((0, 0, 0),))
    assert word == ((0, 0, 0), (1, 1, 0))


def _engine_reduce(sequence):
    """Independent reduction of an arbitrary letter sequence: bubble letters
    of different parties into sorted order, merge or kill same-setting
    neighbours, then take the adjoint-minimal representative."""
    seq = list(sequence)
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(seq):
            a, b = seq[i], seq[i + 1]
            if a[0] > b[0]:
                seq[i], seq[i + 1] = b, a
                changed = True
            elif a[0] == b[0] and a[1] == b[1]:
                if a[2] != b[2]:
                    return None
                del seq[i + 1]
                changed = True
            i += 1
    word = tuple(seq)
    return min(word, adjoint(word))


def _party_order_interleavings(u, v):
    """All shuffles of u + v that keep each party's letters in order."""
    letters = list(u) + list(v)
    n = len(letters)
    for perm in itertools.permutations(range(n)):
        ok = True
        seen = {}
        for pos in perm:
            party = letters[pos][0]
            if party in seen and pos < seen[party]:
                ok = False
                break
            seen[party] = pos
        if ok:
            yield [letters[i] for i in perm]


def test_canonicalize_matches_reference_engine():
    scn = make_scenario(2, 3, 2)
    monomials = basis(scn).monomials
    for u in monomials:
        for v in monomials:
            expected = canonicalize(u, v)
            for shuffled in _party_order_interleavings(u, v):
                reduced = _engine_reduce(shuffled)
                assert expected == reduced


def test_canonicalize_matches_reference_engine_on_longer_words():
    # up to four letters, three or four of them from one party, with two
    # outcome labels per setting so that letters can merge or vanish
    letters = [(0, x, a) for x in range(2) for a in range(2)] + [(1, 0, a) for a in range(2)]
    checked = 0
    for length in (3, 4):
        for word in itertools.product(letters, repeat=length):
            assert canonicalize((), word) == _engine_reduce(word)
            assert canonicalize(word[:1], word[1:]) == _engine_reduce(word)
            checked += sum(letter[0] == 0 for letter in word) >= 3
    assert checked


def test_reference_engine_orthogonality_case():
    scn = make_scenario(2, 2, 3)
    monomials = basis(scn).monomials
    zero_cells = np.argwhere(build_moment_structure(scn).cell_class < 0)
    assert len(zero_cells)
    for i, j in zero_cells:
        u, v = monomials[i], monomials[j]
        # zero exactly when some party carries one setting with two outcomes
        per_party = {}
        for letter in u + v:
            per_party.setdefault(letter[0], []).append(letter)
        assert any(
            len(ls) == 2 and ls[0][1] == ls[1][1] and ls[0][2] != ls[1][2] for ls in per_party.values()
        )


def test_word_classes_partition(scn232=make_scenario(2, 3, 2)):
    monomials = basis(scn232).monomials
    classes = word_classes(scn232)
    covered = {tuple(cell) for cell in np.argwhere(build_moment_structure(scn232).cell_class < 0)}
    for cells in classes.values():
        for cell in cells:
            assert cell not in covered
            covered.add(cell)
    assert len(covered) == len(monomials) ** 2
    assert next(iter(classes)) == ()


def test_word_classes_examples():
    scn = make_scenario(2, 2, 2)
    monomials = basis(scn).monomials
    classes = word_classes(scn)
    idx = {mono: i for i, mono in enumerate(monomials)}
    pair_class = None
    for cells in classes.values():
        if (idx[((0, 0, 0),)], idx[((1, 0, 0),)]) in cells:
            pair_class = cells
    assert (0, idx[((0, 0, 0), (1, 0, 0))]) in pair_class
    # every diagonal cell reduces to its own monomial's class
    for j, mono in enumerate(monomials):
        word = canonicalize((), mono)
        assert (j, j) in classes[word]
        assert (0, j) in classes[word]


def test_adjoint_involution():
    scn = make_scenario(2, 3, 2)
    classes = word_classes(scn)
    for word in classes:
        assert min(word, adjoint(word)) == word


def _family_instances(scn):
    """Direct enumeration of the two substitution-rule families: cells tied
    to each other by cancelling one same-setting projector on one side."""
    monomials = basis(scn).monomials
    idx = {mono: i for i, mono in enumerate(monomials)}
    pairs = []
    for party in range(scn.parties):
        others = [mono for mono in monomials if all(l[0] != party for l in mono)]
        for z in range(scn.settings[party]):
            for c in range(scn.outcomes - 1):
                letter = (party, z, c)
                for s in others:
                    gamma = tuple(sorted(s + (letter,)))
                    for t in others:
                        gamma_p = tuple(sorted(t + (letter,)))
                        # family 1: (gamma, gamma') == (s, gamma')
                        pairs.append(((idx[gamma], idx[gamma_p]), (idx[s], idx[gamma_p])))
                        # family 2: (gamma, gamma') == (gamma, t)
                        pairs.append(((idx[gamma], idx[gamma_p]), (idx[gamma], idx[t])))
    return pairs


@pytest.mark.parametrize("nmd", [(2, 2, 2), (2, 3, 2)])
def test_generated_classes_contain_substitution_families(nmd):
    scn = make_scenario(*nmd)
    classes = word_classes(scn)
    cell_to_class = {}
    for k, cells in enumerate(classes.values()):
        for cell in cells:
            cell_to_class[cell] = k
    for cell_a, cell_b in _family_instances(scn):
        assert cell_to_class[cell_a] == cell_to_class[cell_b]


def test_families_plus_symmetry_generate_exactly_the_classes():
    # union-find over cells using only the explicit families and symmetry
    scn = make_scenario(2, 2, 2)
    n = len(basis(scn).monomials)
    parent = list(range(n * n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for i in range(n):
        for j in range(n):
            union(i * n + j, j * n + i)
    for (a1, a2), (b1, b2) in _family_instances(scn):
        union(a1 * n + a2, b1 * n + b2)

    components = len({find(i) for i in range(n * n)})
    classes = word_classes(scn)
    assert (build_moment_structure(scn).cell_class >= 0).all()
    assert components == len(classes)
    # hence the same number of independent equalities: n^2 - #classes
    assert n * n - components == 64

