"""Symbolic projector algebra: monomials, canonical words, cell classes.

A *letter* ``(party, setting, outcome)`` stands for the projector of one
outcome of one local measurement.  Letters of different parties commute;
within one party, projectors of the same setting are idempotent (same
outcome) or orthogonal (different outcomes).  Products of at most one
letter per party, with the last outcome of every setting dropped, form the
monomial basis used throughout the package (:func:`aqbell.scenario.basis`).
The product of two basis monomials reduces to a *canonical word* with at
most two letters per party, identified with its adjoint (because all
objectives and constraints are real, a word and its adjoint always share
one moment value).
"""
from __future__ import annotations

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
    """Canonical form of the product (adjoint of u) * v: a party-sorted
    letter tuple (``()`` is the identity), or None when the product vanishes.

    Basis monomials are self-adjoint, so this is the reduction of u * v:
    letters commute across parties into party-sorted order; within a party,
    two letters with the same setting merge by idempotence (same outcome) or
    kill the word (different outcomes).  The representative is the
    lexicographically smaller of the reduced word and its adjoint.
    """
    merged: dict[int, list] = {}
    for letter in u + v:
        merged.setdefault(letter[0], []).append(letter)
    word = []
    for party in sorted(merged):
        seq = merged[party]
        # one letter per party per monomial, so at most two letters meet here
        assert len(seq) <= 2
        if len(seq) == 2 and seq[0][1] == seq[1][1]:
            if seq[0][2] != seq[1][2]:
                return None
            seq = seq[:1]
        word.extend(seq)
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

