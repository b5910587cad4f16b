"""The value types are frozen records: field-wise ==, hash and repr,
positional or keyword construction with defaults, no mutation."""

import pytest

from qcnied._record import Record
from qcnied.autgroup import AutGroup
from qcnied.circulant import BlockCirculant
from qcnied.conditions import ConditionReport, Verdict
from qcnied.distinguish import BoundReport
from qcnied.field import FieldCtx, expand_row
from qcnied.niederreiter import PrivateKey, PublicKey, keygen

CTX = FieldCtx(2)
ROW, OTHER_ROW = (0, 1, 2), (1, 2, 3)
GRID = BlockCirculant(CTX, 3, 1, 2, (ROW,))
PRIV, PUB = keygen(GRID, seed=1)
PRIV_FIELDS = (PRIV.a0, PRIV.rows, PRIV.b0, 3, 1, 2, CTX)
SHIFT = ((1, 2, 0), (2, 0, 1))
PASS, FAIL = Verdict("pass"), Verdict("fail", (0, 1))

# class -> (field values, field values differing in one field)
SAMPLES = {
    BlockCirculant: ((CTX, 3, 1, 2, (ROW,)), (CTX, 3, 1, 2, (OTHER_ROW,))),
    PrivateKey: (PRIV_FIELDS + (PRIV.e,), PRIV_FIELDS + (PRIV.e - 1,)),
    PublicKey: ((PUB.hprime, 3, 1, 2, CTX, PUB.e), (PUB.hprime, 3, 1, 2, CTX, PUB.e - 1)),
    Verdict: (("fail", (0, 1)), ("fail", (1, 0))),
    ConditionReport: ((PASS,) * 7, (PASS,) * 6 + (FAIL,)),
    FieldCtx: ((4, 0x13), (4, 0x19)),
    AutGroup: ((3, 1, 2, (SHIFT,), {(0, 0): "affine-subgroup"}),
               (3, 1, 2, (SHIFT,), {(0, 0): "symmetric"})),
    BoundReport: (("envelope", 5, 10, 25, 1.5, -2.0, -3.0, -1.9, 4.0, 0, 5, 1, 2),
                  ("exact", 5, 10, 25, 1.5, -2.0, -3.0, -1.9, 4.0, 0, 5, 1, 2)),
}


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_value_types_are_frozen_records(cls):
    values, other_values = SAMPLES[cls]
    fields = cls._fields
    assert len(fields) == len(values)
    a = cls(*values)
    b = cls(**dict(zip(fields, values)))
    assert tuple(getattr(a, f) for f in fields) == values

    # positional and keyword construction agree; == and hash follow the fields
    assert a == b and not a != b
    assert a != cls(*other_values)
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected

    # a different class with equal fields is not equal
    twin = type(f"Twin{cls.__name__}", (Record,), {"__slots__": fields})(*values)
    assert a != twin and twin != a

    # frozen: no field may be assigned, deleted or added
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert tuple(getattr(a, f) for f in fields) == values

    # a missing, repeated or unknown field is a TypeError
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:1], **dict(zip(fields, values)))
    with pytest.raises(TypeError):
        cls(**dict(zip(fields, values)), bogus=1)

    # FieldCtx prints its modulus in hex, as the matrix files write it
    shown = {"modulus": hex} if cls is FieldCtx else {}
    body = ", ".join(f"{f}={shown.get(f, repr)(v)}" for f, v in zip(fields, values))
    assert repr(a) == f"{cls.__name__}({body})"


def test_record_defaults_and_repr():
    assert Verdict("pass") == Verdict("pass", None)
    assert repr(Verdict("pass")) == "Verdict(status='pass', witness=None)"
    assert Verdict(status="fail").witness is None


def test_private_key_equality_ignores_derived_fields():
    twin = PrivateKey(*PRIV_FIELDS, PRIV.e)
    object.__setattr__(twin, "pivots", {})
    object.__setattr__(twin, "kernel", ())
    assert twin == PRIV and hash(twin) == hash(PRIV)
    assert "a0inv" not in repr(PRIV) and "pivots" not in repr(PRIV)
    assert PRIV.a0inv and PRIV.pivots


def test_field_ctx_derived_slots_are_frozen():
    ctx = FieldCtx(4)
    for name in ("order", "hex_width"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, 1)
    with pytest.raises(AttributeError):
        GRID.ctx.order = 1
    assert (ctx.order, ctx.hex_width, GRID.ctx.order) == (16, 1, 4)


def test_block_circulant_equality_ignores_its_dense_form():
    twin = BlockCirculant(CTX, 3, 1, 2, (ROW,))
    assert twin.dense is twin.dense == expand_row(ROW)
    assert twin.grid == GRID.grid == ((ROW,),)
    assert twin == GRID and hash(twin) == hash(GRID) and repr(twin) == repr(GRID)
    for name in ("dense", "grid"):
        with pytest.raises(AttributeError):
            setattr(twin, name, ())
