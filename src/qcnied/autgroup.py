"""Stabilizers of block-circulant matrices under two-sided permutation action.

A pair (P, Q) of permutations stabilizes a matrix M when P M Q = M as
matrix products, i.e. act(P, M, Q) = M. The stabilizer of the full
matrix C comes from one search on C, whether or not condition iii
holds. When it holds, no row or column of C can leave its block row or
block column, so every pair acts block-diagonally. Each distinct first
row of the condition-iv shape is also searched once on its own, and
classify labels its blocks from the pairs that fix row 0; it proves
that their row projection is never A_p or S_p. The search is lazy, so
a block's search runs only until its label is decided.

Each group element (P1, P2) corresponds to a symmetry (A, P) of the
parity check [I | C]: A is the permutation matrix of P1^-1 and
P = P1^-1 (+) P2 permutes columns, satisfying A^-1 [I | C] P = [I | C].
Because the cycle structure of P1 and P1^-1 agree, every quantity
derived downstream (orders, supports, conjugacy class sizes) is
insensitive to that inversion. The relation holds exactly when
act(P1, C, P2) = C, which stab_full checks once for every element it
returns (the proof is in its docstring); verify_lemma1 returns the
premise of the correspondence that C fails (an identity-like column,
read from C's condition report, or a repeated column), or None. Pairs,
their law and their action on matrices are `perm`'s.

Every pair stabilizer, of one block or of the whole matrix, comes from
one exact search: a row-by-row backtrack in the spirit of partition
backtrack (Leon 1991, "Permutation group algorithms based on
partitions"), rooted on the cyclic shifts. The p block-diagonal shift
pairs fix every block-circulant matrix and move row 0 anywhere in its
block row, so the search pins row 0's image to one row per block row
and composes what it finds with the shifts (orbit-stabilizer; Dixon &
Mortimer 1996, "Permutation Groups"). It is complete at every size,
takes every matrix whatever conditions it fails, and is held to one work
budget, STAB_BUDGET, counted in candidate rows tried plus pairs listed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import chain, permutations, product

from .conditions import good_shape
from .errors import TooLarge
from .field import BlockCirculant, Dense, Record, expand_row
from .perm import Pair, act, is_permutation, minimal_degree, pair_product, support

# candidate rows tried plus pairs listed one stabilizer search may spend
STAB_BUDGET = 1 << 19

AFFINE = "affine-subgroup"
SYMMETRIC = "symmetric"
EXCEPTIONAL = "exceptional"


def _matching_qs(ids: list[int], classes: list[list[int]]) -> list[tuple[int, ...]]:
    """All Q with act(P, M, Q) = M at a leaf of the search, i.e. column c
    of the row-permuted matrix equals column Q(c) of M. ids[c] numbers
    column c of the row-permuted matrix as the search numbers M's whole
    columns, and classes[i] lists M's columns of id i, so Q(c) ranges
    over classes[ids[c]]: one Q per bijection within each class."""
    positions: list[list[int]] = [[] for _ in classes]
    for c, i in enumerate(ids):
        positions[i].append(c)
    images = [0] * len(ids)
    out = []
    for assignment in product(*map(permutations, classes)):
        for c, j in zip(chain.from_iterable(positions), chain.from_iterable(assignment)):
            images[c] = j
        out.append(tuple(images))
    return out


def _block_shift(n: int, p: int, s: int) -> tuple[int, ...]:
    """Images of i -> i + s mod p within each run of p points of n."""
    return tuple(i - i % p + (i + s) % p for i in range(n))


def _stabilizing_pairs(rows: Dense, p: int) -> Iterator[Pair]:
    """Every (P, Q) with act(P, M, Q) = M, for M made of p x p circulant
    blocks, yielded leaf by leaf, so a consumer reads only what it needs.

    The shift pairs (row r -> r + s, column c -> c - s, mod p within each
    block) fix M, so every pair is a shift pair times one that sends row
    0 to the first row of a block row. Only those rooted pairs are
    searched: P(0) ranges over rows 0, p, 2p, ..., then P(1), P(2), ...
    are picked in turn, and a branch is pruned unless the multiset of
    column prefixes of rows P(0)..P(t) equals that of rows 0..t of M. At
    a full P the multisets of whole columns agree, so P has exactly
    prod(|class|!) partners Q over the classes of equal columns, read off
    the leaf's column ids, and each (P, Q) is composed with the p shift
    pairs.

    Candidate rows tried plus pairs listed are held to STAB_BUDGET, each
    leaf's pairs counted before they are listed; TooLarge is raised
    before the work that would pass it. A matrix whose shape already
    forces more pairs is refused before any search: the shifts times
    every permutation of identical rows and of identical columns.
    """
    size = len(rows)
    base = 1 + max(map(max, rows))
    # levels[t] numbers the distinct column prefixes over rows 0..t of M,
    # keyed by the id of the prefix over rows 0..t-1 times base plus the
    # entry in row t; wants[t] is the sorted list of those ids by column
    levels, wants = [], []
    prefix = [0] * len(rows[0])
    for row in rows:
        level: dict[int, int] = {}
        prefix = [level.setdefault(i * base + v, len(level)) for i, v in zip(prefix, row)]
        levels.append(level)
        wants.append(sorted(prefix))
    # the last level numbers M's whole columns, so classes[i] lists M's
    # equal columns of id i, and a leaf's ids name each column's class
    classes: list[list[int]] = [[] for _ in levels[-1]]
    for j, i in enumerate(prefix):
        classes[i].append(j)
    per_q = math.prod(math.factorial(len(js)) for js in classes)
    per_p = math.prod(math.factorial(rows.count(row)) for row in set(rows))
    row_shifts = [_block_shift(size, p, s) for s in range(p)]
    # a shift that only permutes identical rows also only permutes
    # identical columns, so it is counted once in the forced subgroup
    inside = sum(all(rows[x] == row for x, row in zip(shift, rows)) for shift in row_shifts)
    forced = p // inside * per_p * per_q
    if forced > STAB_BUDGET:
        raise TooLarge(
            f"the shifts and repeated rows and columns of a {size}-row matrix "
            f"force {forced} stabilizing pairs, more than {STAB_BUDGET}"
        )
    shifts = list(zip(row_shifts, [_block_shift(len(rows[0]), p, -s) for s in range(p)]))
    per_leaf = p * per_q
    images: list[int] = []
    used = [False] * size
    spent = 0

    def spend(units: int) -> None:
        nonlocal spent
        if spent + units > STAB_BUDGET:
            raise TooLarge(
                f"stabilizer search of a {size}-row matrix needs more than "
                f"{STAB_BUDGET} nodes plus pairs"
            )
        spent += units

    def extend(ids: list[int]) -> Iterator[list[Pair]]:
        t = len(images)
        if t == size:
            spend(per_leaf)
            qs = _matching_qs(ids, classes)
            yield [pair_product(shift, (images, q)) for shift in shifts for q in qs]
            return
        level, want = levels[t], wants[t]
        for x in range(0, size, p) if t == 0 else range(size):
            if used[x]:
                continue
            spend(1)
            # -1 marks a prefix no column of M has, so the lists cannot match
            nxt = [level.get(i * base + v, -1) for i, v in zip(ids, rows[x])]
            if sorted(nxt) == want:
                used[x] = True
                images.append(x)
                yield from extend(nxt)
                images.pop()
                used[x] = False

    yield from chain.from_iterable(extend([0] * len(rows[0])))


def classify(row: tuple[int, ...], pairs: Iterable[Pair]) -> str:
    """Label the row projection G of a block's pairs, read from any
    iterable of them: the block's stabilizer, or a lazy search of it.

    A constant or near-constant block has all of S_p as G, so it is
    labelled symmetric from its shape. Any other G is affine-subgroup or
    exceptional, as it never holds A_p. If the row's entries are distinct,
    each value fills one wrapped diagonal and G is the shifts. Else some
    value occurs k times, 2 <= k <= p - 2; G permutes the at most p
    k-sets of rows where it sits, column by column, but a group holding
    A_p is k-homogeneous and would need all C(p, k) > p of them. At prime
    p an exceptional G is 2-transitive (Burnside 1911): PSL(d, q),
    PSL(2, 11), M11 or M23 by Feit (1980). The label reads G0, the row
    parts with P1(0) = 0: G holds the p shifts, so G = shifts . G0, and
    as an affine map fixing 0 is i -> u*i, G lies in AGL(1, p) exactly
    when every element of G0 is i -> u*i mod p. The pairs are read only
    up to the first element of G0 that is not: a lazy search stops there.
    """
    if not good_shape(row):
        return SYMMETRIC
    p = len(row)
    if all(p1 == tuple(p1[1] * i % p for i in range(p)) for p1, _ in pairs if p1[0] == 0):
        return AFFINE
    return EXCEPTIONAL


class AutGroup(Record):
    """Stabilizer of a full block-circulant matrix.

    elements holds (P1, P2): P1 permutes the k = m1*p rows, P2 the
    n - k columns, with P1 C P2 = C. block_labels maps each block (i, j)
    to the classification of its pair stabilizer.
    """

    __slots__ = ("p", "m1", "m2", "elements", "block_labels")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def min_degree_pi1(self) -> float:
        return minimal_degree(p1 for p1, _ in self.elements)

    @property
    def min_degree_pi2(self) -> float:
        """Least support of the full column permutation P1^-1 (+) P2."""
        supports = (support(p1) + support(p2) for p1, p2 in self.elements)
        return min(filter(None, supports), default=math.inf)

    @property
    def classification(self) -> str:
        labels = set(self.block_labels.values())
        for worst in (SYMMETRIC, EXCEPTIONAL):
            if worst in labels:
                return worst
        return AFFINE


def stab_full(c: BlockCirculant) -> AutGroup:
    """Stabilizer of the whole matrix C, from one search on C.

    Condition iii need not hold: a C that fails it is searched like any
    other. The only refusals are STAB_BUDGET's: a C whose shape forces
    more than STAB_BUDGET pairs is refused before any search, and a
    search that would spend more is refused before that work. Each
    distinct first row of the condition-iv shape (good_shape) is searched
    once, in grid order, for its pair stabilizer, and classify reads that
    lazy search only until the label is decided; on a one-block C the
    label reads the search on C. A constant or near-constant block,
    never searched, has all of S_p as its row projection and is labelled
    symmetric from its shape. Every element is verified before it is
    returned: both parts must be permutations, and the pair must fix the
    dense matrix.

    That check is Lemma 1's on H = [I | C], whose symmetry for (P1, P2)
    is A = P1^-1 with column permutation sigma = P1^-1 (+) P2, and it
    settles H whether or not the premise of verify_lemma1 holds:
    - The identity block never fails: sigma^-1 sends column j < k to
      P1(j), so entry (i, j < k) of act(P1, H, sigma) is
      delta(P1(i), P1(j)) = delta(i, j), and the relation holds on H
      exactly when act(P1, C, P2) = C.
    - P2 is unique per P1 when C's columns are distinct: if (P1, P2')
      fixes C too, columns P2^-1(j) and P2'^-1(j) of C agree on every
      row, so P2 = P2'.
    """
    dense = c.dense
    elements = tuple(sorted(_stabilizing_pairs(dense, c.p)))
    # one label per distinct row, in grid order
    label = {row: classify(row, elements if len(c.rows) == 1 else
                                _stabilizing_pairs(expand_row(row), c.p))
             for row in dict.fromkeys(c.rows)}
    labels = {(i, j): label[row] for i, block_row in enumerate(c.grid) for j, row in enumerate(block_row)}
    for p1, p2 in elements:
        for part in (p1, p2):
            if not is_permutation(part):
                raise AssertionError(f"searched element part is not a permutation: {part}")
        if act(p1, dense, p2) != dense:
            raise AssertionError("searched element fails to stabilize C")
    return AutGroup(p=c.p, m1=c.m1, m2=c.m2, elements=elements, block_labels=labels)


def verify_lemma1(c: BlockCirculant, rep) -> str | None:
    """The premise of Lemma 1 that C fails, or None when it holds: no
    column of C matches an identity column, which condition ii of rep,
    C's ConditionReport, decides, and no two columns of C coincide. The
    relation itself is stab_full's check of every element.
    """
    if not rep.ii.ok:
        return "identity-like column present (condition ii fails)"
    dense = c.dense
    if len(set(zip(*dense))) < len(dense[0]):
        return "repeated columns"
    return None
