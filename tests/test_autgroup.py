"""Stabilizer search, classification, orbit counts, and the key lemma."""

import itertools
import math
import time
from functools import reduce
from operator import xor

import pytest
from hypothesis import assume, given, settings, strategies as st

from qcnied import autgroup
from qcnied.autgroup import (
    AFFINE,
    AutGroup,
    EXCEPTIONAL,
    SYMMETRIC,
    _column_map,
    _matching_qs,
    classify,
    is_affine,
    minimal_degree,
    stab_block,
    stab_full,
    verify_lemma1,
)
from qcnied.circulant import BlockCirculant, CirculantBlock, Perm, act
from qcnied.conditions import check_iii, sample_compliant
from qcnied.errors import ConditionIIIViolated, LemmaViolated, TooLarge
from qcnied.field import FieldCtx

CTX = FieldCtx(2)

# the minority values of this first row sit on {3,4,6}, a (7,3,1) planar
# difference set, so the block is a Fano-plane incidence structure and
# its stabilizer is the full collineation group of order 168
FANO_ROW = (3, 3, 3, 1, 1, 3, 1)


def pair_mul(a: tuple[Perm, Perm], b: tuple[Perm, Perm]) -> tuple[Perm, Perm]:
    """Group law on stabilizer pairs: (P1 P2, Q2 Q1)."""
    return (a[0] * b[0], b[1] * a[1])


def pair_inv(a: tuple[Perm, Perm]) -> tuple[Perm, Perm]:
    return (a[0].inv(), a[1].inv())


def reordering_count(row) -> int:
    """p! / prod(multiplicity!) distinct rearrangements of the row."""
    row = tuple(row)
    count = math.factorial(len(row))
    for value in set(row):
        count //= math.factorial(row.count(value))
    return count


def bruteforce_pairs(rows) -> tuple[tuple[Perm, Perm], ...]:
    """Every (P, Q) with act(P, M, Q) = M, over all len(rows)! row
    permutations P, sorted. Reference oracle for the pruned search."""
    col_map = _column_map(rows)
    pairs = []
    for images in itertools.permutations(range(len(rows))):
        perm = Perm(images)
        pairs.extend((perm, q) for q in _matching_qs(rows, col_map, images))
    return tuple(sorted(pairs))


def full_listing_elements(c: BlockCirculant) -> tuple[tuple[Perm, Perm], ...]:
    """The blockwise stabilizer of c by listing every block's pairs,
    constant blocks included, and joining them: for each choice of row
    perms P_i from the common row projections, Q_j ranges over the
    partners that every block (i, j) allows. Reference for stab_full."""
    m1, mc = c.m1, c.n_block_cols
    partners = {}
    for i in range(m1):
        for j in range(mc):
            pq = partners[i, j] = {}
            for pr, qc in stab_block(c.block(i, j)).pairs:
                pq.setdefault(pr, set()).add(qc)
    p_domains = [set.intersection(*(set(partners[i, j]) for j in range(mc))) for i in range(m1)]
    out = []
    for ps in itertools.product(*map(sorted, p_domains)):
        qs = [set.intersection(*(partners[i, j][ps[i]] for i in range(m1))) for j in range(mc)]
        for q in itertools.product(*map(sorted, qs)):
            out.append((reduce(Perm.dsum, ps), reduce(Perm.dsum, q)))
    return tuple(sorted(out))


def column_orbit(b: CirculantBlock) -> set[tuple[int, ...]]:
    """Orbit of the first column vector under shift-and-reorder.

    The acting group pairs a cyclic shift by u with an arbitrary
    coefficient reordering; the orbit is enumerated literally over all
    p * p! group elements. Shifts are themselves reorderings, so the
    orbit equals the set of distinct rearrangements of the coefficients.
    """
    v = b.first_row
    p = b.p
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


def h_group_exhaustive(c: BlockCirculant, max_n: int = 8) -> list[tuple[tuple, Perm]]:
    """Full symmetry search of [I | C] over all n! column permutations.

    Returns every (A, sigma) with A binary invertible and
    A^-1 [I | C] M_sigma = [I | C]. A is read off the first k permuted
    columns, so no search over invertible matrices is needed. Reference
    oracle for small n only.
    """
    n, k = c.m2 * c.p, c.m1 * c.p
    if n > max_n:
        raise TooLarge(f"{n}! column permutations exceed the exhaustive guard")
    cexp = c.expand()
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
            out.append((a, Perm(sigma)))
    return out


def test_affine_predicates():
    assert is_affine(Perm((2 * i + 1) % 5 for i in range(5)), 5)
    assert is_affine(Perm((3 * i + 4) % 5 for i in range(5)), 5)
    assert not is_affine(Perm((1, 0, 2, 3, 4)), 5)


def test_pair_group_operations():
    a = (Perm.shift(5, 1), Perm.shift(5, 4))
    b = (Perm.shift(5, 2), Perm.shift(5, 3))
    prod = pair_mul(a, b)
    assert prod == (Perm.shift(5, 3), Perm.shift(5, 2))
    ident = pair_mul(a, pair_inv(a))
    assert ident == (Perm.identity(5), Perm.identity(5))


def test_stab_block_generic_row_is_shifts_only():
    b = CirculantBlock(FieldCtx(3), (0, 1, 2, 3, 4))
    ps = stab_block(b)
    assert ps.order == 5
    assert sorted(ps.row_projection()) == sorted(
        Perm.shift(5, s) for s in range(5)
    )
    assert classify(ps) == AFFINE


def test_stab_block_pairs_stabilize():
    b = CirculantBlock(CTX, (0, 1, 2, 3, 1))
    dense = b.expand()
    ps = stab_block(b)
    for p, q in ps.pairs:
        assert act(p, dense, q) == dense
    # closure under the pair product
    pairs = set(ps.pairs)
    for a in list(pairs)[:10]:
        for c in list(pairs)[:10]:
            assert pair_mul(a, c) in pairs


def test_stab_block_constant_and_near_constant():
    allsame = CirculantBlock(CTX, (2,) * 5)
    ps = stab_block(allsame)
    assert ps.order == 120 * 120
    assert len(set(ps.row_projection())) == 120
    assert classify(ps) == SYMMETRIC
    nearconst = CirculantBlock(CTX, (1, 2, 2, 2, 2))
    ps2 = stab_block(nearconst)
    assert ps2.order == 120
    assert len(set(ps2.row_projection())) == 120
    assert classify(ps2) == SYMMETRIC


def test_stab_block_fano_is_exceptional():
    ps = stab_block(CirculantBlock(CTX, FANO_ROW))
    assert ps.order == 168
    assert classify(ps) == EXCEPTIONAL
    assert minimal_degree(ps.row_projection()) == 4


def test_stab_block_matches_bruteforce():
    for seed in range(1, 8):
        c = sample_compliant(7, 1, 2, 2, seed=seed)
        b = c.block(0, 0)
        assert stab_block(b).pairs == bruteforce_pairs(b.expand())


@st.composite
def block_rows(draw):
    """(eta, first row) with p in 2..7 and eta in 1..3; constant and
    near-constant rows are drawn on purpose. Constant rows stop at p = 5:
    from p = 6 on their (p!)^2 pairs are more than the oracle should list
    (and at p = 7 more than STAB_BUDGET admits)."""
    eta, p = draw(st.integers(1, 3)), draw(st.integers(2, 7))
    values = st.integers(0, (1 << eta) - 1)
    kind = draw(st.sampled_from(["generic", "near"] + ["constant"] * (p <= 5)))
    if kind == "generic":
        row = tuple(draw(values) for _ in range(p))
        assume(p <= 5 or len(set(row)) > 1)
    elif kind == "near":
        a = draw(values)
        b, j = draw(values.filter(lambda v: v != a)), draw(st.integers(0, p - 1))
        row = tuple(a if i == j else b for i in range(p))
    else:
        row = (draw(values),) * p
    return eta, row


@settings(max_examples=60, deadline=None)
@given(block_rows())
def test_stab_block_equals_bruteforce_oracle(eta_row):
    eta, row = eta_row
    b = CirculantBlock(FieldCtx(eta), row)
    assert stab_block(b).pairs == bruteforce_pairs(b.expand())


@st.composite
def iii_failing(draw):
    """Matrices on which condition iii fails, with k = m1 * p <= 6 and at
    most 4 columns, so the permutations(k) oracle stays quick."""
    p, m1 = draw(st.sampled_from(((2, 2), (2, 3), (3, 2))))
    mc = draw(st.integers(1, 4 // p))
    eta = draw(st.integers(1, 2))
    values = st.integers(0, (1 << eta) - 1)
    rows = [tuple(draw(values) for _ in range(p)) for _ in range(m1 * mc)]
    c = BlockCirculant.from_rows(FieldCtx(eta), p, m1, m1 + mc, rows)
    assume(check_iii(c).status == "fail")
    return c


@settings(max_examples=60, deadline=None)
@given(iii_failing())
def test_full_matrix_fallback_equals_bruteforce_oracle(c):
    g = stab_full(c)
    assert g.method == "full-matrix"
    assert g.elements == bruteforce_pairs(c.expand())


def test_stab_block_guards():
    # no size guard but the work budget: a generic p = 11 block returns
    # its group, the 11 shifts
    ps = stab_block(CirculantBlock(CTX, tuple(j % 4 for j in range(11))))
    assert ps.row_projection() == tuple(sorted(Perm.shift(11, s) for s in range(11)))
    assert ps.order == 11 and classify(ps) == AFFINE


def test_stab_block_budget(monkeypatch):
    # constant p = 5: 5 + 20 + 60 + 120 + 120 = 325 candidate rows tried
    # and 120 * 120 = 14,400 pairs; the budget admits exactly that much
    flat = CirculantBlock(CTX, (2,) * 5)
    monkeypatch.setattr(autgroup, "STAB_BUDGET", 325 + 14_400)
    assert stab_block(flat).order == 14_400
    monkeypatch.setattr(autgroup, "STAB_BUDGET", 325 + 14_400 - 1)
    with pytest.raises(TooLarge):
        stab_block(flat)
    monkeypatch.setattr(autgroup, "STAB_BUDGET", 14_000)
    with pytest.raises(TooLarge):
        stab_block(flat)


def test_minimal_degree_conventions():
    assert minimal_degree([Perm.identity(4)]) == float("inf")
    assert minimal_degree([Perm((1, 0, 2)), Perm((1, 2, 0))]) == 2


def test_stab_full_blockwise_product_structure():
    # good blocks on the diagonal, constant blocks off it: the stabilizer
    # is the direct product of the diagonal pair stabilizers
    c = BlockCirculant.from_rows(
        CTX, 5, 2, 4,
        [(0, 1, 2, 3, 1), (2, 2, 2, 2, 2),
         (3, 3, 3, 3, 3), (1, 0, 2, 2, 3)],
    )
    g = stab_full(c)
    s00 = stab_block(c.block(0, 0))
    s11 = stab_block(c.block(1, 1))
    assert g.order == s00.order * s11.order
    assert g.method == "blockwise"
    dense = c.expand()
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
    c = BlockCirculant.from_rows(FieldCtx(eta), p, m1, m1 + mc, rows)
    assume(check_iii(c).status == "pass")
    return c


@settings(max_examples=60, deadline=None)
@given(with_constant_blocks())
def test_stab_full_with_constant_blocks_equals_full_listing(c):
    g = stab_full(c)
    assert g.method == "blockwise"
    assert g.elements == full_listing_elements(c)


def test_stab_full_searches_only_non_constant_blocks(monkeypatch):
    searched = []
    search = autgroup.stab_block
    monkeypatch.setattr(autgroup, "stab_block", lambda b: searched.append(b.first_row) or search(b))
    blockwise = BlockCirculant.from_rows(
        CTX, 5, 2, 4,
        [(0, 1, 2, 3, 1), (2, 2, 2, 2, 2),
         (3, 3, 3, 3, 3), (1, 0, 2, 2, 3)],
    )
    g = stab_full(blockwise)
    assert searched == [(0, 1, 2, 3, 1), (1, 0, 2, 2, 3)]
    assert g.block_labels[0, 1] == g.block_labels[1, 0] == SYMMETRIC
    # the condition-iii fallback labels its constant blocks unsearched too
    searched.clear()
    fallback = BlockCirculant.from_rows(
        FieldCtx(3), 2, 2, 4,
        [(1, 2), (3, 3), (1, 2), (3, 3)],
    )
    g = stab_full(fallback)
    assert g.method == "full-matrix"
    assert searched == [(1, 2), (1, 2)]
    assert g.block_labels[0, 1] == g.block_labels[1, 1] == SYMMETRIC


def test_stab_full_free_block_perms_budget(monkeypatch):
    # P_1 meets only a constant block, so it ranges over S_9: the 9 shifts
    # of block (0, 0) times 9! elements pass STAB_BUDGET and are refused
    # before any is listed
    c = BlockCirculant.from_rows(
        CTX, 9, 2, 3, [(0, 1, 2, 3, 0, 1, 2, 3, 0), (2,) * 9],
    )
    t0 = time.perf_counter()
    with pytest.raises(TooLarge):
        stab_full(c)
    assert time.perf_counter() - t0 < 0.25
    # a lone constant p = 5 block leaves P_0 and Q_0 free: 120 * 120
    # elements, which the budget admits exactly
    flat = BlockCirculant.from_rows(CTX, 5, 1, 2, [(2,) * 5])
    monkeypatch.setattr(autgroup, "STAB_BUDGET", 14_400)
    assert stab_full(flat).order == 14_400
    monkeypatch.setattr(autgroup, "STAB_BUDGET", 14_400 - 1)
    with pytest.raises(TooLarge):
        stab_full(flat)


def test_stab_full_reverifies_assembled_elements(monkeypatch):
    # an assembly that proposes a non-stabilizing pair is caught against
    # the dense matrix before the group is returned
    bogus = {("P", 0): Perm.shift(5, 1), ("Q", 0): Perm.identity(5)}
    monkeypatch.setattr(autgroup, "_assemble", lambda *args: [bogus])
    with pytest.raises(AssertionError, match="fails to stabilize"):
        stab_full(sample_compliant(5, 1, 2, 2, seed=6))


def test_stab_full_falls_back_when_iii_breaks():
    # m1 = 2 with identical block rows: condition iii fails, k = 4 <= 8,
    # so the full-matrix search runs and finds the cross-row swap
    c = BlockCirculant.from_rows(
        FieldCtx(3), 2, 2, 4,
        [(1, 2), (3, 4), (1, 2), (3, 4)],
    )
    g = stab_full(c)
    assert g.method == "full-matrix"
    swap = Perm((2, 3, 0, 1))
    assert any(p1 == swap for p1, _ in g.elements)


def test_stab_full_refuses_large_iii_failures():
    rows = [(0, 1, 2, 3, 1), (2, 3, 0, 2, 1),
            (0, 1, 2, 3, 1), (2, 3, 0, 2, 1)]
    c = BlockCirculant.from_rows(CTX, 5, 2, 4, rows)
    with pytest.raises(ConditionIIIViolated):
        stab_full(c)


def test_column_orbit_equals_reordering_set():
    # Lemma-4 style statement: the F_p x S_p orbit of the first column is
    # exactly the set of its reorderings
    for row in [(0, 1, 2, 3, 1), (1, 1, 2, 2, 3), (0, 1, 2, 2, 2)]:
        b = CirculantBlock(CTX, row)
        orb = column_orbit(b)
        dense = b.expand()
        col = tuple(r[0] for r in dense)
        reorderings = set(itertools.permutations(col))
        assert orb == reorderings
        assert len(orb) == reordering_count(row)


def test_column_orbit_three_two_shape_counterexample():
    # multiplicity shape {3,2} at p = 5: the orbit has 10 < 3p = 15
    # elements even though the block passes condition iv; the 3p floor
    # only holds from p = 7 up, where the worst good shape gives 21 = 3p
    b = CirculantBlock(CTX, (1, 1, 1, 2, 2))
    assert reordering_count(b.first_row) == 10
    assert len(column_orbit(b)) == 10


def test_h_group_matches_stabilizer_at_p3():
    c = sample_compliant(3, 1, 2, 2, seed=5)
    g = stab_full(c)
    pairs = h_group_exhaustive(c)
    assert len(pairs) == g.order
    # the exhaustive search verifies A^-1 H P = H internally; confirm the
    # column permutations are exactly the ones the assembled group implies
    sigmas = {sigma for _, sigma in pairs}
    expect = {p1.inv().dsum(p2) for p1, p2 in g.elements}
    assert sigmas == expect


def test_h_group_size_guard():
    c = sample_compliant(5, 1, 2, 2, seed=1)
    with pytest.raises(TooLarge):
        h_group_exhaustive(c, max_n=8)


def test_verify_lemma1_on_compliant_matrix():
    c = sample_compliant(5, 1, 2, 2, seed=6)
    g = stab_full(c)
    rep = verify_lemma1(c, g)
    assert rep.ok and rep.premise_ok and rep.relation_ok and rep.uniqueness_ok
    assert rep.checked == g.order


def test_verify_lemma1_premise_failure_reported():
    # a block column stuck in {0,1} admits identity-like columns, which
    # is exactly the precondition the lemma needs; no exception, just a
    # premise-failed report
    c = BlockCirculant.from_rows(CTX, 5, 1, 2, [(1, 1, 0, 1, 0)])
    g = stab_full(c)
    rep = verify_lemma1(c, g)
    assert not rep.premise_ok and not rep.ok


def test_verify_lemma1_eta1_premise():
    c = BlockCirculant.from_rows(FieldCtx(1), 5, 1, 2, [(1, 1, 0, 1, 0)])
    g = stab_full(c)
    rep = verify_lemma1(c, g)
    assert not rep.premise_ok


def test_verify_lemma1_rejects_a_non_symmetry():
    # a row shift with no matching column move maps H to another matrix
    bogus = AutGroup(p=5, m1=1, m2=2, elements=((Perm.shift(5, 1), Perm.identity(5)),),
                     block_labels={}, method="report")
    c = sample_compliant(5, 1, 2, 2, seed=6)
    with pytest.raises(LemmaViolated):
        verify_lemma1(c, bogus)
    # with the premise already failed the relation is reported, not raised
    degenerate = BlockCirculant.from_rows(CTX, 5, 1, 2, [(1, 1, 0, 1, 0)])
    rep = verify_lemma1(degenerate, bogus)
    assert not rep.premise_ok and not rep.relation_ok


def test_full_group_on_fano_matrix():
    c = BlockCirculant.from_rows(CTX, 7, 1, 2, [FANO_ROW])
    g = stab_full(c)
    assert g.order == 168
    assert g.classification == EXCEPTIONAL
    assert g.min_degree_pi1 == 4
    assert verify_lemma1(c, g).ok
