"""Permutations, circulant blocks, and the two-sided action."""

import itertools
import random

import pytest

from qcnied.circulant import (
    BlockCirculant,
    CirculantBlock,
    Perm,
    act,
)
from qcnied.errors import OutOfRange, SizeMismatch
from qcnied.field import FieldCtx

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


def rotate(b: CirculantBlock, k: int) -> CirculantBlock:
    """Multiply the defining polynomial by x^k (cyclic coefficient shift)."""
    p = b.p
    return CirculantBlock(b.ctx, tuple(b.first_row[(j - k) % p] for j in range(p)))


def test_perm_composition_convention():
    a = Perm((1, 2, 0))
    b = Perm((0, 2, 1))
    # (a*b)(i) = a(b(i))
    for i in range(3):
        assert (a * b)(i) == a(b(i))
    assert a * a.inv() == Perm.identity(3)
    assert a.inv() * a == Perm.identity(3)


def test_perm_validation():
    with pytest.raises(OutOfRange):
        Perm((0, 0, 1))
    with pytest.raises(OutOfRange):
        Perm((0, 3, 1))
    with pytest.raises(OutOfRange):
        Perm(())


def affine(p: int, u: int, v: int) -> Perm:
    """The map i -> u*i + v mod p."""
    return Perm((u * i + v) % p for i in range(p))


def test_perm_shift_and_affine():
    s = Perm.shift(5, 1)
    assert [s(i) for i in range(5)] == [1, 2, 3, 4, 0]
    assert s.cycle_type() == (5,)
    assert s.support() == 5
    t = affine(5, 2, 0)
    assert [t(i) for i in range(5)] == [0, 2, 4, 1, 3]
    assert t(0) == 0 and t.support() == 4
    # affine maps with u != 1 fix exactly one point
    for u in range(2, 5):
        for v in range(5):
            assert affine(5, u, v).support() == 4


def test_cycle_type_and_dsum():
    p = Perm((1, 0, 2, 3))
    assert p.cycle_type() == (2, 1, 1)
    q = Perm((1, 2, 0))
    d = p.dsum(q)
    assert d.n == 7
    assert d.cycle_type() == (3, 2, 1, 1)
    assert [d(i) for i in range(7)] == [1, 0, 2, 3, 5, 6, 4]


def test_perm_ordering_and_hash():
    a, b = Perm((0, 1, 2)), Perm((0, 2, 1))
    assert a < b
    assert len({a, b, Perm((0, 1, 2))}) == 2


def test_block_expand_layout():
    b = CirculantBlock(CTX, (0, 1, 2))
    m = b.expand()
    # entry (i, j) = first_row[(j - i) mod p]: each row shifts right
    assert m == ((0, 1, 2), (2, 0, 1), (1, 2, 0))
    assert b.p == 3


def test_block_rotate():
    b = CirculantBlock(CTX, (0, 1, 2))
    r = rotate(b, 1)
    assert r.first_row == (2, 0, 1)
    assert r.expand()[0] == b.expand()[1]


def test_block_multiset_helpers():
    b = CirculantBlock(CTX, (1, 2, 2, 3, 2))
    assert b.multiset() == (1, 2, 2, 2, 3)
    assert b.multiplicity(2) == 3
    assert b.multiplicity_classes() == (1, 1, 3)


def test_block_rejects_foreign_values():
    with pytest.raises(OutOfRange):
        CirculantBlock(CTX, (0, 4, 1))


def test_block_circulant_expand():
    c = BlockCirculant.from_rows(CTX, 3, 1, 3, [(0, 1, 2), (1, 1, 3)])
    m = c.expand()
    assert len(m) == 3 and all(len(row) == 6 for row in m)
    assert tuple(row[:3] for row in m) == CirculantBlock(CTX, (0, 1, 2)).expand()
    assert tuple(row[3:] for row in m) == CirculantBlock(CTX, (1, 1, 3)).expand()
    assert c.block(0, 1).first_row == (1, 1, 3)
    assert c.n_block_cols == 2


def test_block_circulant_shape_validation():
    with pytest.raises(SizeMismatch):
        BlockCirculant.from_rows(CTX, 3, 1, 3, [(0, 1, 2)])
    with pytest.raises(SizeMismatch):
        BlockCirculant.from_rows(CTX, 3, 1, 2, [(0, 1)])


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
        p, q = Perm(rows), Perm(cols)
        out = act(p, m, q)
        for i in range(4):
            for j in range(4):
                assert out[i][j] == m[p(i)][q.inv()(j)]
    # act(p2, act(p1, m, q1), q2) = act(p1*p2, m, q2*q1)
    for _ in range(20):
        perms = []
        for _ in range(4):
            images = list(range(4))
            rng.shuffle(images)
            perms.append(Perm(images))
        p1, q1, p2, q2 = perms
        lhs = act(p2, act(p1, m, q1), q2)
        rhs = act(p1 * p2, m, q2 * q1)
        assert lhs == rhs


def test_act_shift_pair_stabilizes_circulants():
    b = CirculantBlock(CTX, (0, 1, 2, 3, 1)).expand()
    p = Perm.shift(5, 1)
    q = Perm.shift(5, 4)
    assert act(p, b, q) == b
    assert act(p, b, Perm.identity(5)) != b


def test_act_size_mismatch():
    m = ((0, 0, 0), (0, 0, 0))
    with pytest.raises(SizeMismatch):
        act(Perm.identity(3), m, Perm.identity(3))
    with pytest.raises(SizeMismatch):
        act(Perm.identity(2), m, Perm.identity(2))
    with pytest.raises(SizeMismatch):
        act(Perm.identity(2), ((0, 0, 0), (0, 0)), Perm.identity(3))
