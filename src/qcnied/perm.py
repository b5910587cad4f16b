"""Permutations as image tuples; the one home of their rules, importing only `errors`.

A permutation of {0..n-1} is its image tuple P, so P(i) is P[i], and
composition follows function application: (P Q)(i) = P[Q[i]], which
matches the product of the permutation matrices. Permutations act on
dense matrices two-sidedly: act(P, M, Q) has entry (i, j) equal to
M[P(i)][Q^-1(j)], which in matrix terms is P^-1 M Q^-1 (so the
stabilizer condition act(P, M, Q) = M reads P M Q = M).

Pair stabilizers are groups under (P1, Q1) o (P2, Q2) = (P1 P2, Q2 Q1);
the column side composes in reverse, as it must for a two-sided action.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .errors import SizeMismatch

# a stabilizing pair (P, Q), each permutation as its image tuple
Pair = tuple[tuple[int, ...], tuple[int, ...]]


def is_permutation(images) -> bool:
    """Whether images permute range(len(images))."""
    return sorted(images) == list(range(len(images)))


def inverse(images: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of the permutation with these images."""
    out = [0] * len(images)
    for i, img in enumerate(images):
        out[img] = i
    return tuple(out)


def pair_product(a: Pair, b: Pair) -> Pair:
    """The pair law: (P1, Q1) o (P2, Q2) = (P1 P2, Q2 Q1)."""
    (p1, q1), (p2, q2) = a, b
    return tuple(map(p1.__getitem__, p2)), tuple(map(q2.__getitem__, q1))


def act(p_row: tuple[int, ...], m: tuple[tuple[int, ...], ...],
        q_col: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Two-sided action: result[i][j] = m[p_row(i)][q_col^-1(j)].

    act(P, M, Q) = M exactly when P M Q = M as matrix products. The group
    law is act(p2, act(p1, m, q1), q2) = act(p1*p2, m, q2*q1); note the
    column side composes in reverse, as it must for a two-sided action.
    """
    if len(m) != len(p_row) or any(len(row) != len(q_col) for row in m):
        raise SizeMismatch(f"matrix rows do not fit perms ({len(p_row)}, {len(q_col)})")
    # an itemgetter of one index returns a scalar; one point only stays put
    pick = itemgetter(*inverse(q_col)) if len(q_col) > 1 else tuple
    return tuple(pick(m[i]) for i in p_row)


def support(perm: tuple[int, ...]) -> int:
    """Number of moved points."""
    return sum(i != img for i, img in enumerate(perm))


def minimal_degree(perms) -> float:
    """Least support among non-identity permutations; +inf if none."""
    return min(filter(None, map(support, perms)), default=math.inf)


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of the permutation with these images, longest
    first, fixed points included."""
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))
