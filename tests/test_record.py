"""The value types are frozen records: field-wise ==, hash and repr,
positional or keyword construction with defaults, no mutation."""

import pytest

from qcnied._record import Record
from qcnied.autgroup import AutGroup, Lemma1Report, PairStab
from qcnied.circulant import BlockCirculant, CirculantBlock, Perm
from qcnied.conditions import ConditionReport, Verdict
from qcnied.distinguish import BoundReport, EnvelopeStats
from qcnied.field import FieldCtx
from qcnied.niederreiter import PrivateKey, PublicKey, keygen

CTX = FieldCtx(2)
BLOCK = CirculantBlock(CTX, (0, 1, 2))
OTHER_BLOCK = CirculantBlock(CTX, (1, 2, 3))
GRID = BlockCirculant(CTX, 3, 1, 2, ((BLOCK,),))
PRIV, PUB = keygen(GRID, seed=1)
PRIV_FIELDS = (PRIV.a0, PRIV.rows, PRIV.b0, 3, 1, 2, CTX)
SHIFT = (Perm.shift(3, 1), Perm.shift(3, 2))
PASS, FAIL = Verdict("pass"), Verdict("fail", (0, 1))

# class -> (field values, field values differing in one field)
SAMPLES = {
    CirculantBlock: ((CTX, (0, 1, 2)), (CTX, (1, 2, 3))),
    BlockCirculant: ((CTX, 3, 1, 2, ((BLOCK,),)), (CTX, 3, 1, 2, ((OTHER_BLOCK,),))),
    PrivateKey: (PRIV_FIELDS + (PRIV.e,), PRIV_FIELDS + (PRIV.e - 1,)),
    PublicKey: ((PUB.hprime, 3, 1, 2, CTX, PUB.e), (PUB.hprime, 3, 1, 2, CTX, PUB.e - 1)),
    Verdict: (("fail", (0, 1)), ("fail", (1, 0))),
    ConditionReport: ((PASS,) * 7, (PASS,) * 6 + (FAIL,)),
    PairStab: ((BLOCK, (SHIFT,)), (OTHER_BLOCK, (SHIFT,))),
    AutGroup: ((3, 1, 2, (SHIFT,), {(0, 0): "affine-subgroup"}, "blockwise"),
               (3, 1, 2, (SHIFT,), {(0, 0): "affine-subgroup"}, "report")),
    Lemma1Report: ((True, None, True, True, 3, True), (False, {"premise": "x"}, True, True, 3, False)),
    BoundReport: (("envelope", 5, 10, 25, 1.5, -2.0, -3.0, -1.9, 4.0, 0, 5, 1, 2),
                  ("exact", 5, 10, 25, 1.5, -2.0, -3.0, -1.9, 4.0, 0, 5, 1, 2)),
    EnvelopeStats: ((25, 4, 5, 6), (25, 4, 5, 7)),
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

    body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(a) == f"{cls.__name__}({body})"


def test_record_defaults_and_repr():
    assert Verdict("pass") == Verdict("pass", None)
    assert repr(Verdict("pass")) == "Verdict(status='pass', witness=None)"
    assert Verdict(status="fail").witness is None
    r = BoundReport("envelope", 5, 10, 25, 1.5, -2.0, -3.0, -1.9, 4.0, 0)
    assert (r.p, r.m1, r.m2) == (None, None, None)
    assert repr(EnvelopeStats(25, 4, 5, 6)) == (
        "EnvelopeStats(order=25, delta=4, min_class_k=5, min_class_n=6)"
    )


def test_private_key_equality_ignores_derived_fields():
    twin = PrivateKey(*PRIV_FIELDS, PRIV.e)
    object.__setattr__(twin, "pivots", {})
    object.__setattr__(twin, "kernel", ())
    assert twin == PRIV and hash(twin) == hash(PRIV)
    assert "a0inv" not in repr(PRIV) and "pivots" not in repr(PRIV)
    assert PRIV.a0inv and PRIV.pivots
