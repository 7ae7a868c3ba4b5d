"""Symbolic projector algebra: monomials, canonical words, cell classes.

A *letter* ``(party, setting, outcome)`` stands for the projector of one
outcome of one local measurement.  Letters of different parties commute;
within one party, projectors of the same setting are idempotent (same
outcome) or orthogonal (different outcomes).  Products of at most one
letter per party, with the last outcome of every setting dropped, form the
monomial basis used throughout the package (:func:`aqbell.scenario.basis`).
A product of letters of any length reduces to a *canonical word*, identified
with its adjoint (because all objectives and constraints are real, a word
and its adjoint always share one moment value); the product of two basis
monomials has at most two letters per party.
"""
from __future__ import annotations

from operator import itemgetter

from .scenario import basis

Monomial = tuple  # party-sorted (party, setting, outcome) letters, at most one per party


def adjoint(letters: tuple) -> tuple:
    """Adjoint of a party-sorted word: reverse the letters within each party."""
    out = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j][0] == letters[i][0]:
            j += 1
        out.extend(reversed(letters[i:j]))
        i = j
    return tuple(out)


def canonicalize(u: Monomial, v: Monomial) -> tuple | None:
    """Canonical form of the product u * v of two letter sequences of any
    length: a party-sorted letter tuple (``()`` is the identity), or None
    when the product vanishes.  Basis monomials are self-adjoint, so for
    them this is the word of moment-matrix cell (u, v), (adjoint of u) * v.

    Letters commute across parties into party-sorted order (a stable sort);
    within a party, a letter with the setting of the last kept letter merges
    into it by idempotence (same outcome) or kills the word (different
    outcomes).  The representative is the lexicographically smaller of the
    reduced word and its adjoint.
    """
    word = []
    for letter in sorted(u + v, key=itemgetter(0)):
        if word and word[-1][:2] == letter[:2]:
            if word[-1][2] != letter[2]:
                return None
        else:
            word.append(letter)
    word = tuple(word)
    return min(word, adjoint(word))


def word_classes(scenario):
    """Partition of the basis-pair cells by canonical word.

    Maps each non-zero canonical word to the list of (row, col) index pairs
    whose product reduces to it, in row-major first-occurrence order (the
    identity word always comes first).  Cells whose product vanishes by
    orthogonality belong to no class.
    """
    monomials = basis(scenario).monomials
    classes: dict[tuple, list] = {}
    for i, u in enumerate(monomials):
        for j, v in enumerate(monomials):
            word = canonicalize(u, v)
            if word is not None:
                classes.setdefault(word, []).append((i, j))
    return classes

