"""Permutations, circulant blocks, and the two-sided action."""

import itertools
import random

import pytest

from qcnied.circulant import BlockCirculant
from qcnied.distinguish import class_size_sn
from qcnied.errors import OutOfRange, ParseError, SizeMismatch
from qcnied.field import FieldCtx, expand_row
from qcnied.perm import act, cycle_type, inverse, support
from qcnied.report import read_report

from test_autgroup import block_pairs

CTX = FieldCtx(2)


class LengthMismatch(ValueError):
    pass


def perm_equivalent(v, w) -> bool:
    """Whether some reordering of v equals w, decided by multiset
    equality as check_iii decides it; held against exhaustive search."""
    v = list(v)
    w = list(w)
    if len(v) != len(w):
        raise LengthMismatch(f"lengths {len(v)} and {len(w)} differ")
    return sorted(v) == sorted(w)


def rotate(row: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Multiply the defining polynomial by x^k (cyclic coefficient shift)."""
    p = len(row)
    return tuple(row[(j - k) % p] for j in range(p))


def compose(a, b):
    """(a b)(i) = a(b(i)) on image tuples: the product of the
    permutation matrices."""
    return tuple(a[i] for i in b)


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def shift(n: int, k: int) -> tuple[int, ...]:
    """Cyclic shift i -> i + k mod n."""
    return tuple((i + k) % n for i in range(n))


def test_perm_composition_convention():
    a = (1, 2, 0)
    b = (0, 2, 1)
    ab = compose(a, b)
    for i in range(3):
        assert ab[i] == a[b[i]]
    assert inverse(a) == (2, 0, 1)
    assert compose(a, inverse(a)) == compose(inverse(a), a) == identity(3)
    assert inverse(identity(4)) == identity(4)


def test_perm_validation():
    # a permutation read from a file is checked where it enters
    for bad in ("0 0 1", "0 3 1"):
        images = tuple(map(int, bad.split()))
        with pytest.raises(ParseError) as refused:
            read_report(f"QCREP v1\nelem: {bad} | 0 1\n")
        assert str(refused.value) == f"report: not a permutation: {images}"
    with pytest.raises(ParseError, match="element images"):
        read_report("QCREP v1\nelem:  | 0 1\n")


def affine(p: int, u: int, v: int) -> tuple[int, ...]:
    """The map i -> u*i + v mod p."""
    return tuple((u * i + v) % p for i in range(p))


def test_perm_shift_and_affine():
    s = shift(5, 1)
    assert list(s) == [1, 2, 3, 4, 0]
    assert cycle_type(s) == (5,)
    assert support(s) == 5
    t = affine(5, 2, 0)
    assert list(t) == [0, 2, 4, 1, 3]
    assert t[0] == 0 and support(t) == 4
    # affine maps with u != 1 fix exactly one point
    for u in range(2, 5):
        for v in range(5):
            assert support(affine(5, u, v)) == 4


def test_cycle_type_and_dsum():
    p = (1, 0, 2, 3)
    assert cycle_type(p) == (2, 1, 1)
    assert cycle_type(identity(3)) == (1, 1, 1)
    q = (1, 2, 0)
    # the direct sum acts on the first 4 points by p, on the rest by q
    d = p + tuple(len(p) + i for i in q)
    assert list(d) == [1, 0, 2, 3, 5, 6, 4]
    assert cycle_type(d) == (3, 2, 1, 1)
    # its class in S_7 depends only on the merged cycle types
    assert class_size_sn(cycle_type(d)) == class_size_sn(cycle_type(p) + cycle_type(q))


def test_perm_ordering_and_hash():
    # a block's pair stabilizer is a tuple of (P, Q) image-tuple pairs,
    # sorted and each listed once
    for row in ((0, 1, 2, 3, 1), (0, 1, 2, 3, 4), (1, 2, 2, 2, 2)):
        pairs = block_pairs(row)
        assert pairs == tuple(sorted(set(pairs)))
        assert all(type(part) is tuple for pair in pairs for part in pair)


def test_block_expand_layout():
    m = expand_row((0, 1, 2))
    # entry (i, j) = first_row[(j - i) mod p]: each row shifts right
    assert m == ((0, 1, 2), (2, 0, 1), (1, 2, 0))
    assert expand_row((5,)) == ((5,),)


def test_block_rotate():
    row = (0, 1, 2)
    r = rotate(row, 1)
    assert r == (2, 0, 1)
    assert expand_row(r)[0] == expand_row(row)[1]


def test_block_rejects_foreign_values():
    with pytest.raises(OutOfRange):
        BlockCirculant(CTX, 3, 1, 2, [(0, 4, 1)])


def test_block_circulant_expand():
    c = BlockCirculant(CTX, 3, 2, 4, [(0, 1, 2), (1, 1, 3), (3, 2, 1), (0, 0, 2)])
    m = c.dense
    assert len(m) == 6 and all(len(row) == 6 for row in m)
    # block (i, j) is the circulant of grid[i][j] = rows[i * (m2 - m1) + j]
    for index, row in enumerate(c.rows):
        i, j = divmod(index, 2)
        assert c.grid[i][j] == row
        assert tuple(line[3 * j:3 * j + 3] for line in m[3 * i:3 * i + 3]) == expand_row(row)
    assert c.rows == ((0, 1, 2), (1, 1, 3), (3, 2, 1), (0, 0, 2))
    assert list(zip(*c.grid)) == [((0, 1, 2), (3, 2, 1)), ((1, 1, 3), (0, 0, 2))]


def test_block_circulant_shape_validation():
    with pytest.raises(SizeMismatch):
        BlockCirculant(CTX, 3, 1, 3, [(0, 1, 2)])
    with pytest.raises(SizeMismatch):
        BlockCirculant(CTX, 3, 1, 2, [(0, 1)])
    # a bad shape is refused before the row count and the entries are read
    for p, m1, m2 in ((0, 1, 2), (3, 0, 2), (3, 2, 2), (3, 2, 1)):
        with pytest.raises(SizeMismatch, match="1 <= m1 < m2"):
            BlockCirculant(CTX, p, m1, m2, [(9, 9, 9)])
    # a wrong row count or length is refused before a foreign entry
    for rows in ([(9, 9, 9)] * 2, [(9, 9)]):
        with pytest.raises(SizeMismatch):
            BlockCirculant(CTX, 3, 1, 2, rows)


def test_perm_equivalent_matches_exhaustive_search():
    rng = random.Random(11)

    def exhaustive(v, w):
        return any(
            tuple(v[perm[i]] for i in range(len(v))) == tuple(w)
            for perm in itertools.permutations(range(len(v)))
        )

    for length in (5, 6):
        for _ in range(40):
            v = tuple(rng.randrange(4) for _ in range(length))
            if rng.random() < 0.5:
                w = list(v)
                rng.shuffle(w)
                w = tuple(w)
            else:
                w = tuple(rng.randrange(4) for _ in range(length))
            assert perm_equivalent(v, w) == exhaustive(v, w)
    with pytest.raises(LengthMismatch):
        perm_equivalent((0, 1), (0, 1, 2))


def test_act_definition_and_group_law():
    rng = random.Random(3)
    m = tuple(tuple(rng.randrange(4) for _ in range(4)) for _ in range(4))
    for _ in range(20):
        rows = list(range(4))
        cols = list(range(4))
        rng.shuffle(rows)
        rng.shuffle(cols)
        p, q = tuple(rows), tuple(cols)
        out = act(p, m, q)
        for i in range(4):
            for j in range(4):
                assert out[i][j] == m[p[i]][inverse(q)[j]]
    # act(p2, act(p1, m, q1), q2) = act(p1*p2, m, q2*q1)
    for _ in range(20):
        perms = []
        for _ in range(4):
            images = list(range(4))
            rng.shuffle(images)
            perms.append(tuple(images))
        p1, q1, p2, q2 = perms
        lhs = act(p2, act(p1, m, q1), q2)
        rhs = act(compose(p1, p2), m, compose(q2, q1))
        assert lhs == rhs


def test_act_shift_pair_stabilizes_circulants():
    b = expand_row((0, 1, 2, 3, 1))
    p = shift(5, 1)
    q = shift(5, 4)
    assert act(p, b, q) == b
    assert act(p, b, identity(5)) != b


def test_act_size_mismatch():
    m = ((0, 0, 0), (0, 0, 0))
    with pytest.raises(SizeMismatch):
        act(identity(3), m, identity(3))
    with pytest.raises(SizeMismatch):
        act(identity(2), m, identity(2))
    with pytest.raises(SizeMismatch):
        act(identity(2), ((0, 0, 0), (0, 0)), identity(3))
