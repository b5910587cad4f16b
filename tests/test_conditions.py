"""Admission conditions i..v, the variant pair, and the samplers."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from qcnied import conditions
from qcnied.cli import main
from qcnied.conditions import (
    DESK_SCALE_MAX_P,
    FAIL,
    PASS,
    WAIVED,
    Verdict,
    check_i,
    check_ii,
    check_iii,
    check_iv,
    check_v,
    check_variant,
    good_shape,
    sample_compliant,
    sample_variant,
    validate_all,
)
from qcnied.errors import BudgetExhausted, EtaTooSmall, OutOfRange, SizeMismatch
from qcnied.field import BlockCirculant, FieldCtx, is_prime

CTX = FieldCtx(2)


def mat(rows, p=5, m1=1, m2=None, ctx=CTX):
    if m2 is None:
        m2 = m1 + len(rows) // m1
    return BlockCirculant(ctx, p, m1, m2, rows)


def test_is_prime():
    assert [n for n in range(2, 32) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
    ]
    assert not is_prime(1)


def test_good_shape_table():
    assert not good_shape((2, 2, 2, 2, 2))        # constant
    assert not good_shape((2, 2, 2, 2, 1))        # {4, 1}
    assert not good_shape((1, 3, 3, 3, 3))
    assert good_shape((1, 1, 1, 2, 2))            # {3, 2}
    assert good_shape((0, 1, 2, 3, 1))
    assert good_shape((0, 1, 2, 2, 3))


def test_check_i_witness():
    c = mat([(2, 2, 2, 2, 2), (0, 1, 2, 3, 1)], m1=1, m2=3)
    v = check_i(c)
    assert v.status == FAIL and v.witness == {"block": [0, 0], "value": 2}
    assert check_i(mat([(0, 1, 2, 3, 1)])).status == PASS


def test_check_ii():
    # block column 0 never leaves {0, 1}: identity-like columns possible
    c = mat([(1, 1, 0, 1, 0), (0, 1, 2, 3, 1)], m1=1, m2=3)
    v = check_ii(c)
    assert v.status == FAIL and v.witness == {"block_col": 0}
    assert check_ii(mat([(0, 1, 2, 3, 1)])).status == PASS
    with pytest.raises(EtaTooSmall):
        check_ii(mat([(0, 1, 1, 0, 1)], ctx=FieldCtx(1)))


def test_check_iii_row_and_column_collisions():
    # two block rows sharing a multiset collide across the block boundary
    c = BlockCirculant(
        CTX, 3, 2, 4, [(0, 1, 2), (1, 1, 3), (2, 0, 1), (1, 3, 1)]
    )
    v = check_iii(c)
    assert v.status == FAIL and v.witness == {"side": "rows", "pair": [0, 3]}
    ok = BlockCirculant(
        CTX, 3, 2, 4, [(0, 1, 2), (1, 1, 3), (2, 2, 3), (0, 3, 3)]
    )
    assert check_iii(ok).status == PASS
    # one block row, so no row pair crosses a block boundary, but both
    # block columns hold the multiset {0, 1, 2}: columns 0 and 3 collide
    cols = BlockCirculant(CTX, 3, 1, 3, [(0, 1, 2), (2, 1, 0)])
    v = check_iii(cols)
    assert v.status == FAIL and v.witness == {"side": "cols", "pair": [0, 3]}


def dense_check_iii(c: BlockCirculant) -> Verdict:
    """Condition iii on the expanded C: the first pair of expanded rows
    from distinct block-rows with equal multisets, then likewise for
    columns. Reference oracle for check_iii, which reads block multisets."""
    p = c.p
    dense = c.dense
    row_ms = [tuple(sorted(row)) for row in dense]
    for i in range(len(row_ms)):
        for i2 in range(i + 1, len(row_ms)):
            if i // p != i2 // p and row_ms[i] == row_ms[i2]:
                return Verdict(FAIL, {"side": "rows", "pair": [i, i2]})
    col_ms = [tuple(sorted(col)) for col in zip(*dense)]
    for j in range(len(col_ms)):
        for j2 in range(j + 1, len(col_ms)):
            if j // p != j2 // p and col_ms[j] == col_ms[j2]:
                return Verdict(FAIL, {"side": "cols", "pair": [j, j2]})
    return Verdict(PASS)


@st.composite
def mixed_grids(draw):
    """Grids with p in {2, 3, 5, 7}, m1 and m2 - m1 in 1..3 and eta in
    1..2. Each block is drawn at random, constant, or as a reordering of
    an earlier block, so that block multisets often collide."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    m1, mc, eta = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    values = st.integers(0, (1 << eta) - 1)
    rows = []
    for _ in range(m1 * mc):
        kind = draw(st.sampled_from(("random", "constant", "reordered")))
        if kind == "reordered" and rows:
            row = tuple(draw(st.permutations(draw(st.sampled_from(rows)))))
        elif kind == "constant":
            row = (draw(values),) * p
        else:
            row = tuple(draw(values) for _ in range(p))
        rows.append(row)
    return BlockCirculant(FieldCtx(eta), p, m1, m1 + mc, rows)


@given(mixed_grids())
def test_check_iii_equals_dense_oracle(c):
    assert check_iii(c) == dense_check_iii(c)


def test_check_iv():
    c = mat([(2, 2, 2, 2, 2), (1, 2, 2, 2, 2)], m1=1, m2=3)
    v = check_iv(c)
    assert v.status == FAIL
    assert v.witness == {
        "all_blocks_degenerate": [[0, 0, [5]], [0, 1, [1, 4]]]
    }
    assert check_iv(mat([(2, 2, 2, 2, 2), (0, 1, 2, 3, 1)], m1=1, m2=3)).status == PASS


def test_check_v_regimes():
    small = mat([(0, 1, 2, 3, 1)])
    assert check_v(small).status == FAIL
    assert check_v(small, desk_scale=True).status == WAIVED
    composite = mat([(0, 1, 2, 3, 1, 2, 3, 1, 0)], p=9, m1=1, m2=2)
    assert check_v(composite).status == FAIL
    assert check_v(composite, desk_scale=True).status == FAIL
    assert check_v(composite).witness == {"p": 9, "reason": "composite"}
    # 1 is neither prime nor composite
    unit = mat([(2,)], p=1, m1=1, m2=2)
    assert check_v(unit, desk_scale=True).status == FAIL
    assert check_v(unit).witness == {"p": 1, "reason": "p < 2 is not prime"}
    big = BlockCirculant(CTX, 31, 1, 2, [tuple(j % 4 for j in range(31))])
    assert check_v(big).status == PASS
    assert DESK_SCALE_MAX_P == 30


def test_check_variant():
    c = BlockCirculant(
        CTX, 5, 2, 4, [(0, 1, 2, 3, 1), (2, 2, 2, 2, 2),
                       (3, 3, 3, 3, 3), (1, 0, 2, 2, 3)]
    )
    vi, viv = check_variant(c, ratio_threshold=0.5)
    assert vi.status == PASS and viv.status == PASS
    vi_strict, _ = check_variant(c, ratio_threshold=0.25)
    assert vi_strict.status == FAIL
    # a block row with no good block fails iv'
    bad = BlockCirculant(
        CTX, 5, 2, 4, [(2, 2, 2, 2, 2), (3, 3, 3, 3, 3),
                       (0, 1, 2, 3, 1), (1, 0, 2, 2, 3)]
    )
    _, viv_bad = check_variant(bad, ratio_threshold=0.5)
    assert viv_bad.status == FAIL and viv_bad.witness == {"block_row": 0}


def test_validate_all_report_shape():
    c = mat([(0, 1, 2, 3, 1)])
    rep = validate_all(c, desk_scale=True)
    names = [name for name, _ in rep.items()]
    assert names == ["i", "ii", "iii", "iv", "v", "i_variant", "iv_variant"]
    assert rep.strict_ok()
    assert rep.variant_ok()
    assert not validate_all(c).strict_ok()  # v fails at p=5 without the waiver


def test_sample_compliant_is_deterministic_and_compliant():
    a = sample_compliant(5, 1, 2, 2, seed=9)
    b = sample_compliant(5, 1, 2, 2, seed=9)
    assert a.rows == b.rows
    assert validate_all(a, desk_scale=True).strict_ok()
    c = sample_compliant(5, 2, 4, 2, seed=9)
    assert validate_all(c, desk_scale=True).strict_ok()


def test_sample_compliant_rejections(monkeypatch):
    with pytest.raises(OutOfRange):
        sample_compliant(6, 1, 2, 2, seed=0)
    for sampler in (sample_compliant, sample_variant):
        for p, m1, m2 in ((5, 2, 1), (5, 1, 1), (5, 0, 2), (0, 1, 2)):
            with pytest.raises(SizeMismatch, match="1 <= m1 < m2"):
                sampler(p, m1, m2, 2, seed=0)
    with pytest.raises(EtaTooSmall):
        sample_compliant(5, 1, 2, 1, seed=0)
    # with no draws allowed, both samplers give up
    monkeypatch.setattr(conditions, "MAX_ATTEMPTS", 0)
    with pytest.raises(BudgetExhausted):
        sample_compliant(5, 1, 2, 2, seed=0)
    with pytest.raises(BudgetExhausted):
        sample_variant(5, 2, 4, 2, seed=0)


def test_sample_variant_regime():
    for seed in range(1, 6):
        c = sample_variant(5, 2, 4, 2, seed=seed)
        rep = validate_all(c, desk_scale=True, ratio_threshold=0.5)
        assert rep.i.status == FAIL
        assert rep.ii.ok and rep.iii.ok and rep.iv_variant.ok and rep.v.ok
        assert rep.variant_ok()
        assert not rep.strict_ok()
        # at least one constant block, but never a fully constant block column
        assert any(len(set(r)) == 1 for r in c.rows)
        mc = c.m2 - c.m1
        for j in range(mc):
            assert any(len(set(r)) > 1 for r in c.rows[j::mc])


@pytest.mark.parametrize("sampler, args, accepted, what", [
    (sample_compliant, (3, 1, 2, 2, 0), 5, "compliant"),
    (sample_variant, (5, 2, 4, 2, 1), 4, "variant"),
])
def test_sampler_attempt_boundary(monkeypatch, sampler, args, accepted, what):
    """Each sampler is allowed exactly MAX_ATTEMPTS draws: with the budget
    at the accepting draw it returns its matrix, one draw fewer and it
    refuses, naming the budget."""
    *shape, seed = args
    unbounded = sampler(*shape, seed=seed)
    monkeypatch.setattr(conditions, "MAX_ATTEMPTS", accepted)
    assert sampler(*shape, seed=seed) == unbounded
    monkeypatch.setattr(conditions, "MAX_ATTEMPTS", accepted - 1)
    with pytest.raises(BudgetExhausted, match=f"^no {what} matrix in {accepted - 1} attempts$"):
        sampler(*shape, seed=seed)


# sha256 of `search P 2 4 2 --variant --seed S`, taken from the sampler's
# own rejection loop before it was shared with sample_compliant
VARIANT_STREAM_PINS = {
    (7, 1): "1624068698e657e3613637ad7ba29345a6d25a83357101139d01d22de13639a8",
    (7, 2): "a3127da2163e016b29af692a1f6e75a61b07dd5a8ea3347f33693b8fe99179c5",
    (7, 3): "b3f7b0495b7b23432a55c6aaf701222c91a6ad7266c4527c4f74f420bf4ada11",
    (11, 1): "c79e922ae40dd47e867596d086f530b94f15408656ed24a46b2c98ddc67f0844",
    (11, 2): "34b37ecea0f0206884e6f5a5e5c01079c6eebf70ed18318364dabf466776bf67",
    (11, 3): "53cffc1af0d7c7ad199d9605c8dcdb1ea6165073ea1cb6f3124865085b2ebe69",
}


@pytest.mark.parametrize("p, seed", sorted(VARIANT_STREAM_PINS))
def test_variant_search_stream_pins(capsys, p, seed):
    assert main(["search", str(p), "2", "4", "2", "--variant", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VARIANT_STREAM_PINS[p, seed]
