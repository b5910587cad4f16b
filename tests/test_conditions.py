"""Admission conditions i..v, the variant pair, and the samplers."""

import pytest

from qcnied import conditions
from qcnied.circulant import BlockCirculant
from qcnied.conditions import (
    DESK_SCALE_MAX_P,
    FAIL,
    PASS,
    WAIVED,
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
from qcnied.errors import BudgetExhausted, EtaTooSmall, OutOfRange
from qcnied.field import FieldCtx, is_prime

CTX = FieldCtx(2)


def mat(rows, p=5, m1=1, m2=None, ctx=CTX):
    if m2 is None:
        m2 = m1 + len(rows) // m1
    return BlockCirculant.from_rows(ctx, p, m1, m2, rows)


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
    c = BlockCirculant.from_rows(
        CTX, 3, 2, 4, [(0, 1, 2), (1, 1, 3), (2, 0, 1), (1, 3, 1)]
    )
    v = check_iii(c)
    assert v.status == FAIL and v.witness["side"] == "rows"
    ok = BlockCirculant.from_rows(
        CTX, 3, 2, 4, [(0, 1, 2), (1, 1, 3), (2, 2, 3), (0, 3, 3)]
    )
    assert check_iii(ok).status == PASS
    # one block row, so no row pair crosses a block boundary, but both
    # block columns hold the multiset {0, 1, 2}: columns 0 and 3 collide
    cols = BlockCirculant.from_rows(CTX, 3, 1, 3, [(0, 1, 2), (2, 1, 0)])
    v = check_iii(cols)
    assert v.status == FAIL and v.witness == {"side": "cols", "pair": [0, 3]}


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
    big = BlockCirculant.from_rows(CTX, 31, 1, 2, [tuple(j % 4 for j in range(31))])
    assert check_v(big).status == PASS
    assert DESK_SCALE_MAX_P == 30


def test_check_variant():
    c = BlockCirculant.from_rows(
        CTX, 5, 2, 4, [(0, 1, 2, 3, 1), (2, 2, 2, 2, 2),
                       (3, 3, 3, 3, 3), (1, 0, 2, 2, 3)]
    )
    vi, viv = check_variant(c, ratio_threshold=0.5)
    assert vi.status == PASS and viv.status == PASS
    vi_strict, _ = check_variant(c, ratio_threshold=0.25)
    assert vi_strict.status == FAIL
    # a block row with no good block fails iv'
    bad = BlockCirculant.from_rows(
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
    assert list(a.block_first_rows()) == list(b.block_first_rows())
    assert validate_all(a, desk_scale=True).strict_ok()
    c = sample_compliant(5, 2, 4, 2, seed=9)
    assert validate_all(c, desk_scale=True).strict_ok()


def test_sample_compliant_rejections(monkeypatch):
    with pytest.raises(OutOfRange):
        sample_compliant(6, 1, 2, 2, seed=0)
    with pytest.raises(EtaTooSmall):
        sample_compliant(5, 1, 2, 1, seed=0)
    # with no draws allowed, both samplers give up
    monkeypatch.setattr(conditions, "MAX_ATTEMPTS", 0)
    with pytest.raises(BudgetExhausted):
        sample_compliant(5, 1, 2, 2, seed=0)
    with pytest.raises(BudgetExhausted):
        sample_variant(5, 1, 2, 2, seed=0)


def test_sample_variant_regime():
    for seed in range(1, 6):
        c = sample_variant(5, 2, 4, 2, seed=seed)
        rep = validate_all(c, desk_scale=True, ratio_threshold=0.5)
        assert rep.i.status == FAIL
        assert rep.ii.ok and rep.iii.ok and rep.iv_variant.ok and rep.v.ok
        assert rep.variant_ok()
        assert not rep.strict_ok()
        # at least one constant block, but never a fully constant block column
        rows = [b.first_row for row in c.blocks for b in row]
        assert any(len(set(r)) == 1 for r in rows)
        for j in range(c.n_block_cols):
            assert any(
                len(set(c.block(i, j).first_row)) > 1 for i in range(c.m1)
            )
