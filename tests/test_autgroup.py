"""Stabilizer search, classification, orbit counts, and the key lemma."""

import itertools
import math
import time
from functools import reduce
from operator import xor
from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

from qcnied import autgroup
from qcnied.autgroup import (
    AFFINE,
    AutGroup,
    EXCEPTIONAL,
    SYMMETRIC,
    classify,
    stab_full,
    verify_lemma1,
)
from qcnied.conditions import check_ii, check_iii, good_shape, sample_compliant, validate_all
from qcnied.errors import EtaTooSmall, TooLarge
from qcnied.field import BlockCirculant, FieldCtx, expand_row
from qcnied.perm import act, inverse, minimal_degree

CTX = FieldCtx(2)

# the minority values of this first row sit on {3,4,6}, a (7,3,1) planar
# difference set, so the block is a Fano-plane incidence structure and
# its stabilizer is the full collineation group of order 168
FANO_ROW = (3, 3, 3, 1, 1, 3, 1)


def compose(a, b):
    """(a b)(i) = a(b(i)) on image tuples."""
    return tuple(a[i] for i in b)


def dsum(a, b):
    """Block-diagonal direct sum: a on the first len(a) points, b on the rest."""
    return a + tuple(len(a) + i for i in b)


def shift(n: int, k: int) -> tuple[int, ...]:
    """Cyclic shift i -> i + k mod n."""
    return tuple((i + k) % n for i in range(n))


def block_pairs(row: tuple[int, ...]) -> tuple:
    """Sorted pair stabilizer of the circulant block with this first row."""
    return tuple(sorted(autgroup._stabilizing_pairs(expand_row(row), len(row))))


def row_projection(pairs) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted({p for p, _ in pairs}))


def pair_mul(a, b):
    """Group law on stabilizer pairs: (P1 P2, Q2 Q1)."""
    return (compose(a[0], b[0]), compose(b[1], a[1]))


def pair_inv(a):
    return (inverse(a[0]), inverse(a[1]))


def reordering_count(row) -> int:
    """p! / prod(multiplicity!) distinct rearrangements of the row."""
    row = tuple(row)
    count = math.factorial(len(row))
    for value in set(row):
        count //= math.factorial(row.count(value))
    return count


def column_map(rows) -> dict[tuple[int, ...], list[int]]:
    """Each distinct column of rows -> the indices where it stands."""
    cols: dict[tuple[int, ...], list[int]] = {}
    for j, col in enumerate(zip(*rows)):
        cols.setdefault(col, []).append(j)
    return cols


def matching_qs(rows, col_map, p_images) -> list[tuple[int, ...]]:
    """All Q with act(P, M, Q) = M, i.e. column c of the row-permuted
    matrix equals column Q(c) of M, for any row permutation P: none when
    the column multisets differ, else one Q per class bijection."""
    per_class = []
    for col, positions in column_map([rows[i] for i in p_images]).items():
        targets = col_map.get(col)
        if targets is None or len(targets) != len(positions):
            return []
        per_class.append((positions, targets))
    positions = [c for ps, _ in per_class for c in ps]
    images = [0] * len(positions)
    out = []
    for assignment in itertools.product(*[itertools.permutations(t) for _, t in per_class]):
        for c, j in zip(positions, itertools.chain.from_iterable(assignment)):
            images[c] = j
        out.append(tuple(images))
    return out


def bruteforce_pairs(rows) -> tuple:
    """Every (P, Q) with act(P, M, Q) = M, over all len(rows)! row
    permutations P, sorted. Reference oracle for the pruned search."""
    col_map = column_map(rows)
    pairs = []
    for images in itertools.permutations(range(len(rows))):
        pairs.extend((images, q) for q in matching_qs(rows, col_map, images))
    return tuple(sorted(pairs))


def unrooted_pairs(rows, target=None) -> tuple:
    """Every (P, Q) with act(P, M, Q) = T, sorted, for M = rows and T =
    target (M itself by default), by the backtrack that tries every row
    as the image of row 0: the stabilizer search as it stood before it
    was rooted on the shift pairs, without its budget. Reference oracle
    for the rooted search at sizes past permutations(k), and, with a
    target, for the pairs that carry one matrix to another.

    P(0), P(1), ... are picked in turn, and a branch is pruned unless the
    multiset of column prefixes of rows P(0)..P(t) of M equals that of
    rows 0..t of T. At a full P the multisets of whole columns agree, so
    P has exactly prod(|class|!) partners Q over the classes of equal
    columns.
    """
    target = rows if target is None else target
    size = len(rows)
    col_map = column_map(target)
    base = 1 + max(max(map(max, rows)), max(map(max, target)))
    levels, wants = [], []
    prefix = [0] * len(target[0])
    for row in target:
        level: dict[int, int] = {}
        prefix = [level.setdefault(i * base + v, len(level)) for i, v in zip(prefix, row)]
        levels.append(level)
        wants.append(sorted(prefix))
    pairs: list = []
    images: list[int] = []
    used = [False] * size

    def extend(ids: list[int]) -> None:
        t = len(images)
        if t == size:
            perm = tuple(images)
            pairs.extend((perm, q) for q in matching_qs(rows, col_map, images))
            return
        level, want = levels[t], wants[t]
        for x in range(size):
            if used[x]:
                continue
            nxt = [level.get(i * base + v, -1) for i, v in zip(ids, rows[x])]
            if sorted(nxt) == want:
                used[x] = True
                images.append(x)
                extend(nxt)
                images.pop()
                used[x] = False

    extend([0] * len(rows[0]))
    return tuple(sorted(pairs))


def full_listing_elements(c: BlockCirculant) -> tuple:
    """The blockwise stabilizer of c by listing every block's pairs,
    constant blocks included, and joining them: for each choice of row
    perms P_i from the common row projections, Q_j ranges over the
    partners that every block (i, j) allows. Reference for stab_full."""
    m1, mc = c.m1, c.m2 - c.m1
    partners = {}
    for index, row in enumerate(c.rows):
        pq = partners[divmod(index, mc)] = {}
        for pr, qc in block_pairs(row):
            pq.setdefault(pr, set()).add(qc)
    p_domains = [set.intersection(*(set(partners[i, j]) for j in range(mc))) for i in range(m1)]
    out = []
    for ps in itertools.product(*map(sorted, p_domains)):
        qs = [set.intersection(*(partners[i, j][ps[i]] for i in range(m1))) for j in range(mc)]
        for q in itertools.product(*map(sorted, qs)):
            out.append((reduce(dsum, ps), reduce(dsum, q)))
    return tuple(sorted(out))


def column_orbit(v: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Orbit of the first column vector under shift-and-reorder.

    The acting group pairs a cyclic shift by u with an arbitrary
    coefficient reordering; the orbit is enumerated literally over all
    p * p! group elements. Shifts are themselves reorderings, so the
    orbit equals the set of distinct rearrangements of the coefficients.
    """
    p = len(v)
    out = set()
    for images in itertools.permutations(range(p)):
        base = tuple(v[images[m]] for m in range(p))
        for u in range(p):
            out.add(tuple(base[(m - u) % p] for m in range(p)))
    return out


def _f2_rank(rows) -> int:
    """Rank over F2 of int bit-rows, by keeping one row per leading bit."""
    basis: dict[int, int] = {}
    for x in rows:
        while x and x.bit_length() in basis:
            x ^= basis[x.bit_length()]
        if x:
            basis[x.bit_length()] = x
    return len(basis)


def h_group_exhaustive(c: BlockCirculant, max_n: int = 8) -> list[tuple[tuple, tuple]]:
    """Full symmetry search of [I | C] over all n! column permutations.

    Returns every (A, sigma) with A binary invertible and
    A^-1 [I | C] M_sigma = [I | C]. A is read off the first k permuted
    columns, so no search over invertible matrices is needed. Reference
    oracle for small n only.
    """
    n, k = c.m2 * c.p, c.m1 * c.p
    if n > max_n:
        raise TooLarge(f"{n}! column permutations exceed the exhaustive guard")
    cexp = c.dense
    dense = tuple((0,) * i + (1,) + (0,) * (k - 1 - i) + row for i, row in enumerate(cexp))
    out = []
    for sigma in itertools.permutations(range(n)):
        hp = tuple(tuple(row[j] for j in sigma) for row in dense)
        a = tuple(row[:k] for row in hp)
        if max(map(max, a)) > 1:
            continue
        if _f2_rank(int("".join(map(str, row)), 2) for row in a) != k:
            continue
        rhs = tuple(row[k:] for row in hp)
        ac = tuple(
            tuple(reduce(xor, (cexp[r][j] for r in range(k) if a_row[r]), 0) for j in range(n - k))
            for a_row in a
        )
        if ac == rhs:
            out.append((a, sigma))
    return out


def test_pair_group_operations():
    a = (shift(5, 1), shift(5, 4))
    b = (shift(5, 2), shift(5, 3))
    prod = pair_mul(a, b)
    assert prod == (shift(5, 3), shift(5, 2))
    ident = pair_mul(a, pair_inv(a))
    assert ident == (shift(5, 0), shift(5, 0))


def test_stab_block_generic_row_is_shifts_only():
    row = (0, 1, 2, 3, 4)
    ps = block_pairs(row)
    assert len(ps) == 5
    assert row_projection(ps) == tuple(shift(5, s) for s in range(5))
    assert classify(row, ps) == AFFINE


def test_stab_block_pairs_stabilize():
    row = (0, 1, 2, 3, 1)
    dense = expand_row(row)
    ps = block_pairs(row)
    for p, q in ps:
        assert act(p, dense, q) == dense
    # closure under the pair product
    pairs = set(ps)
    for a in list(pairs)[:10]:
        for c in list(pairs)[:10]:
            assert pair_mul(a, c) in pairs


def test_stab_block_constant_and_near_constant():
    ps = block_pairs((2,) * 5)
    assert len(ps) == 120 * 120
    assert len(row_projection(ps)) == 120
    assert classify((2,) * 5, ps) == SYMMETRIC
    ps2 = block_pairs((1, 2, 2, 2, 2))
    assert len(ps2) == 120
    assert len(row_projection(ps2)) == 120
    assert classify((1, 2, 2, 2, 2), ps2) == SYMMETRIC


def test_stab_block_fano_is_exceptional():
    ps = block_pairs(FANO_ROW)
    assert len(ps) == 168
    assert classify(FANO_ROW, ps) == EXCEPTIONAL
    assert minimal_degree(row_projection(ps)) == 4


def test_classify_stops_at_the_first_non_affine_row_part():
    # the label reads the pairs only up to a row part fixing 0 that is not
    # i -> u*i, so a lazy search of a large block stops there
    ident = shift(5, 0)

    def search():
        yield ident, ident
        yield (0, 2, 1, 3, 4), ident
        raise AssertionError("read past the first witness")

    assert classify((0, 1, 2, 3, 1), search()) == EXCEPTIONAL


def ordered_classify(row, pairs):
    """The labelling rule before A_p was proved impossible: affine first,
    then order tests for S_p and A_p, with a guarded affine predicate."""
    p = len(row)
    if not good_shape(row):
        return SYMMETRIC
    projection = {p1 for p1, _ in pairs}

    def affine(perm):
        if len(perm) != p:
            return False
        if p == 1:
            return True
        u = (perm[1] - perm[0]) % p
        return u != 0 and all(perm[i] == (u * i + perm[0]) % p for i in range(p))

    if all(map(affine, projection)):
        return AFFINE
    if len(projection) == math.factorial(p):
        return SYMMETRIC
    if 2 * len(projection) == math.factorial(p):
        return "alternating"
    return EXCEPTIONAL


def test_classify_equals_the_ordered_rule_on_every_good_shape_row():
    # every good-shape row over q values at p = 3..7, composite p included:
    # classify never needs an order test, and only A_3 = the shifts, which
    # is affine, has order p! or p!/2
    labels, big = [], []
    for p, q in ((3, 4), (4, 4), (5, 4), (6, 3), (7, 3)):
        for row in filter(good_shape, itertools.product(range(q), repeat=p)):
            pairs = block_pairs(row)
            label = classify(row, pairs)
            assert label == ordered_classify(row, pairs), row
            labels.append(label)
            if math.factorial(p) <= 2 * len({p1 for p1, _ in pairs}):
                big.append(p)
    assert labels.count(AFFINE) == 3672 and labels.count(EXCEPTIONAL) == 348
    assert len(labels) == 4020 and set(big) == {3}


def test_stab_block_matches_bruteforce():
    for seed in range(1, 8):
        c = sample_compliant(7, 1, 2, 2, seed=seed)
        (row,) = c.rows
        assert block_pairs(row) == bruteforce_pairs(expand_row(row))


@st.composite
def block_rows(draw, max_p=7):
    """(eta, first row) with p in 2..max_p and eta in 1..3; constant and
    near-constant rows are drawn on purpose. Constant rows stop at p = 5:
    from p = 6 on their (p!)^2 pairs are more than the oracle should list
    (and at p = 7 more than STAB_BUDGET admits). Near-constant rows stop
    at p = 7 for their p! pairs, and past it a row must have the
    condition-iv shape and p distinct rotations."""
    eta, p = draw(st.integers(1, 3)), draw(st.integers(2, max_p))
    values = st.integers(0, (1 << eta) - 1)
    kind = draw(st.sampled_from(["generic"] + ["near"] * (p <= 7) + ["constant"] * (p <= 5)))
    if kind == "generic":
        row = tuple(draw(values) for _ in range(p))
        assume(p <= 5 or len(set(row)) > 1)
        assume(p <= 7 or good_shape(row) and len(set(expand_row(row))) == p)
    elif kind == "near":
        a = draw(values)
        b, j = draw(values.filter(lambda v: v != a)), draw(st.integers(0, p - 1))
        row = tuple(a if i == j else b for i in range(p))
    else:
        row = (draw(values),) * p
    return eta, row


@given(block_rows())
def test_stab_block_equals_bruteforce_oracle(eta_row):
    _eta, row = eta_row
    assert block_pairs(row) == bruteforce_pairs(expand_row(row))


@given(block_rows(max_p=13))
def test_rooted_block_search_equals_unrooted_oracle(eta_row):
    _eta, row = eta_row
    assert block_pairs(row) == unrooted_pairs(expand_row(row))


@st.composite
def mixed_grids(draw):
    """Matrices with p <= 5 and m1, m2 - m1 in 1..2, each block drawn
    constant or not. Condition iii may fail. At most 720 choices of the
    block permutations that only constant blocks touch are drawn, so the
    oracle's listing stays quick."""
    p = draw(st.integers(2, 5))
    m1, mc, eta = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    values = st.integers(0, (1 << eta) - 1)
    rows = [
        (draw(values),) * p if draw(st.booleans()) else tuple(draw(values) for _ in range(p))
        for _ in range(m1 * mc)
    ]
    # a block row or block column repeated with its blocks rotated keeps
    # its multiset, so condition iii fails
    repeat, s = draw(st.sampled_from(["none", "row", "col"])), draw(st.integers(0, p - 1))
    for i in range(m1):
        for j in range(mc):
            if (repeat, i) == ("row", 1) or (repeat, j) == ("col", 1):
                row = rows[j] if repeat == "row" else rows[i * mc]
                rows[i * mc + j] = row[s:] + row[:s]
    constant = [[len(set(rows[i * mc + j])) == 1 for j in range(mc)] for i in range(m1)]
    free = sum(map(all, constant)) + sum(map(all, zip(*constant)))
    assume(math.factorial(p) ** free <= 720)
    return BlockCirculant(FieldCtx(eta), p, m1, m1 + mc, rows)


@given(mixed_grids())
def test_whole_matrix_search_equals_unrooted_oracle(c):
    assert stab_full(c).elements == unrooted_pairs(c.dense)


@st.composite
def iii_failing_past_eight(draw):
    """Matrices with k = m1 * p in 9..14 on which condition iii fails and
    no two rows of C are equal. Block row 1 (block column 1 when m1 = 1)
    repeats block row 0 (block column 0) with each block's first row
    moved by its own i -> u*i + s mod p, a rotation or a multiplication,
    which keeps the multiset of its entries."""
    p, m1 = draw(st.sampled_from(((3, 3), (3, 4), (5, 2), (7, 2), (11, 1), (13, 1))))
    mc = 2 if m1 == 1 else draw(st.integers(1, 2))
    eta = draw(st.integers(2, 3))
    values = st.integers(0, (1 << eta) - 1)
    rows = [tuple(draw(values) for _ in range(p)) for _ in range(m1 * mc)]
    copies = [(1, 0)] if m1 == 1 else [(j, mc + j) for j in range(mc)]
    for source, target in copies:
        u, s = draw(st.integers(1, p - 1)), draw(st.integers(0, p - 1))
        rows[target] = tuple(rows[source][(u * i + s) % p] for i in range(p))
    c = BlockCirculant(FieldCtx(eta), p, m1, m1 + mc, rows)
    assume(len(set(c.dense)) == len(c.dense))
    return c


@given(iii_failing_past_eight())
def test_iii_failures_past_eight_rows_equal_unrooted_oracle(c):
    assert check_iii(c).status == "fail"
    assert stab_full(c).elements == unrooted_pairs(c.dense)


@st.composite
def iii_failing(draw):
    """Matrices on which condition iii fails, with k = m1 * p <= 6 and at
    most 4 columns, so the permutations(k) oracle stays quick."""
    p, m1 = draw(st.sampled_from(((2, 2), (2, 3), (3, 2))))
    mc = draw(st.integers(1, 4 // p))
    eta = draw(st.integers(1, 2))
    values = st.integers(0, (1 << eta) - 1)
    rows = [tuple(draw(values) for _ in range(p)) for _ in range(m1 * mc)]
    c = BlockCirculant(FieldCtx(eta), p, m1, m1 + mc, rows)
    assume(check_iii(c).status == "fail")
    return c


@given(iii_failing())
def test_full_matrix_fallback_equals_bruteforce_oracle(c):
    assert stab_full(c).elements == bruteforce_pairs(c.dense)


def test_stab_block_guards():
    # no size guard but the work budget: a generic p = 11 block returns
    # its group, the 11 shifts
    row = tuple(j % 4 for j in range(11))
    ps = block_pairs(row)
    assert row_projection(ps) == tuple(shift(11, s) for s in range(11))
    assert len(ps) == 11 and classify(row, ps) == AFFINE


def test_stab_block_budget(monkeypatch):
    # constant p = 5, row 0 pinned to row 0: 1 + 4 + 12 + 24 + 24 = 65
    # candidate rows tried, and 24 leaves of 120 partners Q each, composed
    # with the 5 shifts, list 14,400 pairs; the budget admits exactly that
    flat = (2,) * 5
    monkeypatch.setattr(autgroup, "STAB_BUDGET", 65 + 14_400)
    assert len(block_pairs(flat)) == 14_400
    monkeypatch.setattr(autgroup, "STAB_BUDGET", 65 + 14_400 - 1)
    with pytest.raises(TooLarge, match="nodes plus pairs"):
        block_pairs(flat)
    # the shifts and the S_5 x S_5 of identical rows and columns force
    # 14,400 pairs, so a smaller budget refuses before any search
    monkeypatch.setattr(autgroup, "STAB_BUDGET", 14_400 - 1)
    with pytest.raises(TooLarge, match="force 14400 stabilizing pairs"):
        block_pairs(flat)


def test_minimal_degree_conventions():
    assert minimal_degree([(0, 1, 2, 3)]) == float("inf")
    assert minimal_degree([(1, 0, 2), (1, 2, 0)]) == 2


def test_stab_full_blockwise_product_structure():
    # good blocks on the diagonal, constant blocks off it: the stabilizer
    # is the direct product of the diagonal pair stabilizers
    c = BlockCirculant(
        CTX, 5, 2, 4,
        [(0, 1, 2, 3, 1), (2, 2, 2, 2, 2),
         (3, 3, 3, 3, 3), (1, 0, 2, 2, 3)],
    )
    g = stab_full(c)
    s00 = block_pairs(c.rows[0])
    s11 = block_pairs(c.rows[3])
    assert g.order == len(s00) * len(s11)
    dense = c.dense
    for p1, p2 in g.elements:
        assert act(p1, dense, p2) == dense


@st.composite
def with_constant_blocks(draw):
    """Matrices with p <= 5, m1 and m2 - m1 in 1..2 and at least one
    constant block, on which condition iii holds. A P_i or Q_j with only
    constant blocks ranges over S_p; at most 720 such choices are drawn,
    so the oracle's listing stays quick."""
    p = draw(st.integers(2, 5))
    m1, mc, eta = (draw(st.integers(1, 2)) for _ in range(3))
    values = st.integers(0, (1 << eta) - 1)
    rows = [
        (draw(values),) * p if draw(st.booleans()) else tuple(draw(values) for _ in range(p))
        for _ in range(m1 * mc)
    ]
    constant = [[len(set(rows[i * mc + j])) == 1 for j in range(mc)] for i in range(m1)]
    free = sum(map(all, constant)) + sum(map(all, zip(*constant)))
    assume(any(map(any, constant)) and math.factorial(p) ** free <= 720)
    c = BlockCirculant(FieldCtx(eta), p, m1, m1 + mc, rows)
    assume(check_iii(c).status == "pass")
    return c


@given(with_constant_blocks())
def test_stab_full_with_constant_blocks_equals_full_listing(c):
    assert stab_full(c).elements == full_listing_elements(c)


def watch_searches(monkeypatch) -> list:
    """The matrices whose stabilizer search starts, in order: C's, then
    each searched block's expansion."""
    searched, search = [], autgroup._stabilizing_pairs

    def started(rows, p):
        searched.append(rows)
        yield from search(rows, p)

    monkeypatch.setattr(autgroup, "_stabilizing_pairs", started)
    return searched


def test_stab_full_searches_only_non_constant_blocks(monkeypatch):
    searched = watch_searches(monkeypatch)
    blockwise = BlockCirculant(
        CTX, 5, 2, 4,
        [(0, 1, 2, 3, 1), (2, 2, 2, 2, 2),
         (3, 3, 3, 3, 3), (1, 0, 2, 2, 3)],
    )
    g = stab_full(blockwise)
    assert searched == [blockwise.dense, expand_row((0, 1, 2, 3, 1)), expand_row((1, 0, 2, 2, 3))]
    assert g.block_labels[0, 1] == g.block_labels[1, 0] == SYMMETRIC
    # a condition-iii failure labels its constant blocks unsearched too,
    # and at p = 2 the row (1, 2) is near-constant, so no block is searched
    searched.clear()
    fallback = BlockCirculant(
        FieldCtx(3), 2, 2, 4,
        [(1, 2), (3, 3), (1, 2), (3, 3)],
    )
    g = stab_full(fallback)
    assert searched == [fallback.dense]
    assert g.block_labels[0, 1] == g.block_labels[1, 1] == SYMMETRIC


def test_stab_full_searches_each_distinct_block_row_once(monkeypatch):
    # the two diagonal blocks share a first row, so its pair stabilizer is
    # searched once and labels both; a one-block C is searched once, as C
    row = (0, 1, 2, 3, 1)
    pairs = block_pairs(row)
    searched = watch_searches(monkeypatch)
    c = BlockCirculant(CTX, 5, 2, 4, [row, (2,) * 5, (3,) * 5, row])
    g = stab_full(c)
    assert searched == [c.dense, expand_row(row)]
    assert g.block_labels == {(0, 0): AFFINE, (0, 1): SYMMETRIC,
                              (1, 0): SYMMETRIC, (1, 1): AFFINE}
    assert g.order == len(pairs) ** 2
    searched.clear()
    one = BlockCirculant(CTX, 5, 1, 2, [row])
    assert stab_full(one).elements == pairs
    assert searched == [one.dense]


def test_stab_full_labels_a_near_constant_block_unsearched():
    # the near-constant block's own pair stabilizer holds all of S_11, far
    # past STAB_BUDGET; the whole C has only its 11 shift pairs
    c = BlockCirculant(CTX, 11, 1, 3, [(0, 1, 2, 3, 1, 2, 0, 3, 3, 1, 2), (1,) + (2,) * 10])
    t0 = time.perf_counter()
    g = stab_full(c)
    assert time.perf_counter() - t0 < 0.1
    assert g.order == 11
    assert g.block_labels == {(0, 0): AFFINE, (0, 1): SYMMETRIC}


def test_stab_full_free_block_perms_budget(monkeypatch):
    # P_1 meets only a constant block, so it ranges over S_9: the 9 shifts
    # times the 9! permutations of the identical rows of block row 1 pass
    # STAB_BUDGET and are refused before any search
    c = BlockCirculant(
        CTX, 9, 2, 3, [(0, 1, 2, 3, 0, 1, 2, 3, 0), (2,) * 9],
    )
    t0 = time.perf_counter()
    with pytest.raises(TooLarge, match="force 3265920 stabilizing pairs"):
        stab_full(c)
    assert time.perf_counter() - t0 < 0.25
    # a constant block beside a generic one leaves Q_1 free: the 5 shifts
    # times 5! elements. Row 0 pinned, the search tries 1 + 4 + 3 + 2 + 1
    # = 11 candidate rows and lists 600 pairs; the budget admits exactly
    # that, and below 600 the forced subgroup refuses before any search
    free_q = BlockCirculant(FieldCtx(3), 5, 1, 3, [(0, 1, 2, 3, 4), (2,) * 5])
    monkeypatch.setattr(autgroup, "STAB_BUDGET", 11 + 600)
    assert stab_full(free_q).order == 600
    monkeypatch.setattr(autgroup, "STAB_BUDGET", 11 + 600 - 1)
    with pytest.raises(TooLarge, match="nodes plus pairs"):
        stab_full(free_q)
    monkeypatch.setattr(autgroup, "STAB_BUDGET", 600 - 1)
    with pytest.raises(TooLarge, match="force 600 stabilizing pairs"):
        stab_full(free_q)


def test_stab_full_reverifies_assembled_elements(monkeypatch):
    # a search that proposes a non-stabilizing pair is caught against the
    # dense matrix before the group is returned
    bogus = ((shift(5, 1), shift(5, 0)),)
    monkeypatch.setattr(autgroup, "_stabilizing_pairs", lambda *args: bogus)
    with pytest.raises(AssertionError, match="fails to stabilize"):
        stab_full(sample_compliant(5, 1, 2, 2, seed=6))


def test_stab_full_reverifies_that_parts_are_permutations(monkeypatch):
    # on a constant C every map of rows and columns fixes the matrix, so
    # only the permutation check catches a part that repeats an image
    c = BlockCirculant(CTX, 5, 1, 2, [(2,) * 5])
    ident = shift(5, 0)
    for p1, p2 in (((0, 0, 1, 2, 3), ident), (ident, (4, 4, 4, 4, 4))):
        assert act(p1, c.dense, p2) == c.dense
        monkeypatch.setattr(autgroup, "_stabilizing_pairs", lambda *args, e=(p1, p2): (e,))
        with pytest.raises(AssertionError, match="not a permutation"):
            stab_full(c)


def test_stab_full_falls_back_when_iii_breaks():
    # m1 = 2 with identical block rows: condition iii fails, and the
    # search runs as on any matrix and finds the cross-row swap
    c = BlockCirculant(
        FieldCtx(3), 2, 2, 4,
        [(1, 2), (3, 4), (1, 2), (3, 4)],
    )
    g = stab_full(c)
    swap = (2, 3, 0, 1)
    assert any(p1 == swap for p1, _ in g.elements)


def test_stab_full_searches_large_iii_failures():
    # identical block rows: condition iii fails with k = 10, and the
    # search finds the group, the 5 shifts times the swaps of equal rows
    rows = [(0, 1, 2, 3, 1), (2, 3, 0, 2, 1),
            (0, 1, 2, 3, 1), (2, 3, 0, 2, 1)]
    c = BlockCirculant(CTX, 5, 2, 4, rows)
    assert check_iii(c).status == "fail"
    g = stab_full(c)
    assert g.order == 160
    assert g.elements == unrooted_pairs(c.dense)


def test_column_orbit_equals_reordering_set():
    # Lemma-4 style statement: the F_p x S_p orbit of the first column is
    # exactly the set of its reorderings
    for row in [(0, 1, 2, 3, 1), (1, 1, 2, 2, 3), (0, 1, 2, 2, 2)]:
        orb = column_orbit(row)
        dense = expand_row(row)
        col = tuple(r[0] for r in dense)
        reorderings = set(itertools.permutations(col))
        assert orb == reorderings
        assert len(orb) == reordering_count(row)


def test_column_orbit_three_two_shape_counterexample():
    # multiplicity shape {3,2} at p = 5: the orbit has 10 < 3p = 15
    # elements even though the block passes condition iv; the 3p floor
    # only holds from p = 7 up, where the worst good shape gives 21 = 3p
    row = (1, 1, 1, 2, 2)
    assert reordering_count(row) == 10
    assert len(column_orbit(row)) == 10


def test_h_group_matches_stabilizer_at_p3():
    c = sample_compliant(3, 1, 2, 2, seed=5)
    g = stab_full(c)
    pairs = h_group_exhaustive(c)
    assert len(pairs) == g.order
    # the exhaustive search verifies A^-1 H P = H internally; confirm the
    # column permutations are exactly the ones the searched group implies
    sigmas = {sigma for _, sigma in pairs}
    expect = {dsum(inverse(p1), p2) for p1, p2 in g.elements}
    assert sigmas == expect


def test_h_group_size_guard():
    c = sample_compliant(5, 1, 2, 2, seed=1)
    with pytest.raises(TooLarge):
        h_group_exhaustive(c, max_n=8)


def test_verify_lemma1_on_compliant_matrix():
    # the premise holds and stab_full passes every element, so no failed
    # premise is returned and nothing is raised
    c = sample_compliant(5, 1, 2, 2, seed=6)
    stab_full(c)
    assert verify_lemma1(c, validate_all(c, desk_scale=True)) is None


def test_verify_lemma1_premise_failure_reported():
    # a block column stuck in {0,1} admits identity-like columns, which
    # is exactly the precondition the lemma needs; no exception, just a
    # returned premise
    c = BlockCirculant(CTX, 5, 1, 2, [(1, 1, 0, 1, 0)])
    stab_full(c)
    assert verify_lemma1(c, validate_all(c, desk_scale=True)) == (
        "identity-like column present (condition ii fails)")
    # condition ii holds, but block columns 0 and 1 are equal
    twin = BlockCirculant(CTX, 5, 1, 3, [(0, 1, 2, 3, 1)] * 2)
    stab_full(twin)
    assert verify_lemma1(twin, validate_all(twin, desk_scale=True)) == "repeated columns"


def test_verify_lemma1_eta1_premise():
    # over GF(2) no C meets condition ii, and autgroup's validate_all
    # refuses it before the search, so verify_lemma1 never sees it
    c = BlockCirculant(FieldCtx(1), 5, 1, 2, [(1, 1, 0, 1, 0)])
    with pytest.raises(EtaTooSmall):
        validate_all(c, desk_scale=True)


def test_verify_lemma1_rejects_a_non_symmetry(monkeypatch):
    # a row shift with no matching column move maps H to another matrix,
    # and stab_full refuses it before any group is returned
    bogus = ((shift(5, 1), shift(5, 0)),)
    monkeypatch.setattr(autgroup, "_stabilizing_pairs", lambda *args: bogus)
    with pytest.raises(AssertionError, match="fails to stabilize"):
        stab_full(sample_compliant(5, 1, 2, 2, seed=6))
    # the check does not wait on the premise: with condition ii failed it
    # still refuses, and verify_lemma1 still names the failed premise
    degenerate = BlockCirculant(CTX, 5, 1, 2, [(1, 1, 0, 1, 0)])
    with pytest.raises(AssertionError, match="fails to stabilize"):
        stab_full(degenerate)
    assert verify_lemma1(degenerate, validate_all(degenerate, desk_scale=True)) == (
        "identity-like column present (condition ii fails)")


def test_verify_lemma1_rejects_an_element_broken_in_the_c_part(monkeypatch):
    # one searched element keeps its row part, but two of its C columns
    # trade images: the premise holds, so the replay must refuse it
    c = sample_compliant(5, 1, 2, 2, seed=6)
    g = stab_full(c)
    assert verify_lemma1(c, validate_all(c, desk_scale=True)) is None
    target = next(el for el in g.elements if el[0] != tuple(range(5)))
    p1, p2 = target
    broken = (p1, (p2[1], p2[0]) + p2[2:])
    elements = tuple(broken if el == target else el for el in g.elements)
    monkeypatch.setattr(autgroup, "_stabilizing_pairs", lambda *args: elements)
    with pytest.raises(AssertionError, match="fails to stabilize"):
        stab_full(c)


def replay_on_h(c: BlockCirculant, g: AutGroup) -> str | None:
    """Lemma 1's check as it stood before it replayed on C alone: build
    H = [I | C], replay act(P1, H, sigma) = H with sigma = P1^-1 (+) P2
    for every element, then check per-P1 uniqueness of P2 by counting.
    Reference oracle for stab_full's replay on C."""
    dense_c = c.dense
    premise = None
    if check_ii(c).status == "fail":
        premise = "identity-like column present (condition ii fails)"
    elif len(set(zip(*dense_c))) < len(dense_c[0]):
        premise = "repeated columns"
    k = c.m1 * c.p
    dense = tuple((0,) * i + (1,) + (0,) * (k - 1 - i) + row for i, row in enumerate(dense_c))
    for p1, p2 in g.elements:
        sigma = inverse(p1) + tuple(k + j for j in p2)
        if act(p1, dense, sigma) != dense and premise is None:
            raise AssertionError(f"element (P1={p1}, P2={p2}) fails the symmetry relation")
    if premise is None and len({p1 for p1, _ in g.elements}) != len(set(g.elements)):
        raise AssertionError("multiple column partners for one row permutation")
    return premise


@st.composite
def lemma1_cases(draw):
    """(C, group) with k <= 5 rows, at most 6 columns and eta in 2..3;
    p = 1 makes C an arbitrary dense matrix. Each element is either a
    row permutation with its first column partner, when it has one, kept
    or spoiled, or two tuples that are or are not permutations."""
    eta, p = draw(st.integers(2, 3)), draw(st.integers(1, 5))
    m1, mc = draw(st.integers(1, 5 // p)), draw(st.integers(1, 6 // p))
    k, width = m1 * p, mc * p
    values = st.integers(0, (1 << eta) - 1)
    rows = [tuple(draw(values) for _ in range(p)) for _ in range(m1 * mc)]
    c = BlockCirculant(FieldCtx(eta), p, m1, m1 + mc, rows)
    dense = c.dense

    def part(size):
        images = st.lists(st.integers(0, size - 1), min_size=size, max_size=size)
        return tuple(draw(st.permutations(range(size)) | images))

    elements = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            p1 = tuple(draw(st.permutations(range(k))))
            qs = matching_qs(dense, column_map(dense), p1)
            if qs:
                q = qs[0]
                # a later image copied over image 0 leaves inverse(q) as it
                # was, so only a permutation test tells the tuple apart
                if width > 1 and draw(st.booleans()):
                    q = (q[draw(st.integers(1, width - 1))],) + q[1:]
                elements.append((p1, q))
        else:
            elements.append((part(k), part(width)))
    return c, AutGroup(p=p, m1=m1, m2=m1 + mc, elements=tuple(elements), block_labels={})


def with_elements(c, *elements):
    return c, AutGroup(p=c.p, m1=c.m1, m2=c.m2, elements=elements, block_labels={})


# tuples that only a permutation test refuses: inverse((1, 1)) is (0, 1),
# and P1 = (0, 0) picks the two equal rows of C = ((2, 3), (2, 3)); then
# a column swap of C = ((2, 2), (2, 3)) that only row 1 refuses, and
# C = ((2, 2),), whose only failed premise is its repeated column
@given(lemma1_cases())
@example(with_elements(BlockCirculant(FieldCtx(2), 1, 1, 3, [(2,), (3,)]), ((0,), (1, 1))))
@example(with_elements(BlockCirculant(FieldCtx(2), 1, 2, 4, [(2,), (3,)] * 2), ((0, 0), (0, 1))))
@example(with_elements(BlockCirculant(FieldCtx(2), 1, 2, 4, [(2,), (2,), (2,), (3,)]), ((0, 1), (1, 0))))
@example(with_elements(BlockCirculant(FieldCtx(2), 1, 1, 3, [(2,), (2,)])))
def test_lemma1_replay_on_c_equals_replay_on_h(case):
    c, g = case
    try:
        oracle, refused = replay_on_h(c, g), False
    except AssertionError:
        oracle, refused = None, True
    assert verify_lemma1(c, validate_all(c, desk_scale=True)) == oracle
    if oracle is None:
        # the drawn elements as the search's result; the block labels
        # read the same patched search
        with mock.patch.object(autgroup, "_stabilizing_pairs", lambda *args: g.elements):
            try:
                stab_full(c)
            except AssertionError:
                assert refused
            else:
                assert not refused


def test_full_group_on_fano_matrix():
    c = BlockCirculant(CTX, 7, 1, 2, [FANO_ROW])
    g = stab_full(c)
    assert g.order == 168
    assert g.classification == EXCEPTIONAL
    assert g.min_degree_pi1 == 4
    assert verify_lemma1(c, validate_all(c, desk_scale=True)) is None
