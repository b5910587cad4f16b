"""Field arithmetic against independent oracles and known tables."""

import math

import pytest

from qcnied.errors import (
    BadDegree,
    BadDigit,
    DivisionByZero,
    OutOfRange,
    ReducibleModulus,
)
from qcnied.field import (
    FieldCtx,
    default_modulus,
    is_irreducible,
    poly_degree,
    poly_mulmod_f2,
    poly_rem_f2,
)


# Rabin's criterion, implemented from scratch so the trial-division
# routine in the package is checked by a genuinely different algorithm:
# m (degree d) is irreducible over F2 iff x^(2^d) == x (mod m) and
# gcd(x^(2^(d/q)) - x, m) = 1 for every prime q dividing d.

def _pmul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _pmod(a, m):
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _pgcd(a, b):
    while b:
        a, b = b, _pmod(a, b)
    return a


def _x_pow_pow2(t, m):
    # x^(2^t) mod m by repeated squaring
    r = 2
    for _ in range(t):
        r = _pmod(_pmul(r, r), m)
    return r


def _prime_divisors(d):
    out, q = [], 2
    while q * q <= d:
        if d % q == 0:
            out.append(q)
            while d % q == 0:
                d //= q
        q += 1
    if d > 1:
        out.append(d)
    return out


def _rabin_irreducible(m):
    d = m.bit_length() - 1
    if d < 1:
        return False
    if _pmod(_x_pow_pow2(d, m) ^ 2, m) != 0:
        return False
    for q in _prime_divisors(d):
        if _pgcd(_x_pow_pow2(d // q, m) ^ 2, m) != 1:
            return False
    return True


def test_irreducibility_matches_rabin_oracle():
    for m in range(2, 1 << 11):
        assert is_irreducible(m) == _rabin_irreducible(m), bin(m)


def test_constants_are_not_irreducible():
    # degree below 1: neither 0 nor 1 is a field modulus
    assert is_irreducible(0) is False
    assert is_irreducible(1) is False


def test_default_moduli_are_smallest_odd_irreducible():
    assert default_modulus(1) == 0b11
    assert default_modulus(2) == 0b111
    assert default_modulus(3) == 0b1011
    assert default_modulus(4) == 0b10011
    for eta in range(1, 11):
        m = default_modulus(eta)
        assert poly_degree(m) == eta and m & 1
        oracle = min(
            cand
            for cand in range((1 << eta) + 1, 1 << (eta + 1), 2)
            if _rabin_irreducible(cand)
        )
        assert m == oracle


def test_poly_primitives():
    # (x+1)(x+1) = x^2 + 1
    assert poly_mulmod_f2(0b11, 0b11) == 0b101
    assert poly_rem_f2(0b101, 0b111) == 0b010
    assert poly_degree(0) == -1
    assert poly_degree(1) == 0


def test_gf4_known_tables():
    ctx = FieldCtx(2)
    a = 2  # the generator x
    assert ctx.mul(a, a) == 3          # x^2 = x + 1
    assert ctx.mul(a, 3) == 1          # x(x+1) = x^2 + x = 1
    assert ctx.add(2, 3) == 1
    # inverse oracle: exhaustive scan for the unique product-1 partner
    for v in ctx.nonzero():
        partners = [w for w in ctx.nonzero() if ctx.mul(v, w) == 1]
        assert partners == [ctx.inv(v)]


@pytest.mark.parametrize("eta", [1, 2, 3, 5, 8])
def test_inverse_and_pow_laws(eta):
    ctx = FieldCtx(eta)
    for a in ctx.nonzero():
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.pow(a, ctx.order - 1) == 1
    # Frobenius is additive in characteristic 2
    for a in range(0, ctx.order, 7):
        for b in range(0, ctx.order, 5):
            lhs = ctx.pow(ctx.add(a, b), 2)
            assert lhs == ctx.add(ctx.pow(a, 2), ctx.pow(b, 2))


def test_eta16_smoke():
    ctx = FieldCtx(16)
    for a in (1, 2, 0x1234, 0xFFFF):
        assert ctx.mul(a, ctx.inv(a)) == 1


def test_context_rejections():
    with pytest.raises(BadDegree):
        FieldCtx(0)
    with pytest.raises(BadDegree):
        FieldCtx(17)
    with pytest.raises(BadDegree):
        FieldCtx(3, modulus=0b10011)  # degree 4 modulus for eta 3
    with pytest.raises(ReducibleModulus):
        FieldCtx(2, modulus=0b101)  # x^2 + 1 = (x+1)^2
    ctx = FieldCtx(2)
    with pytest.raises(OutOfRange):
        ctx.mul(4, 1)
    with pytest.raises(OutOfRange):
        ctx.pow(1, -1)
    with pytest.raises(DivisionByZero):
        ctx.inv(0)


def test_hex_format_and_parse():
    ctx = FieldCtx(9)
    assert ctx.hex_width == 3
    assert ctx.format_hex(0) == "000"
    assert ctx.format_hex(0x1FF) == "1ff"
    for a in ctx.elements():
        assert ctx.parse_hex(ctx.format_hex(a)) == a
    for bad in ("", "0x1", "1F", "g", " 1", "-1", "1", "01", "0001", "01ff"):
        with pytest.raises(BadDigit):
            ctx.parse_hex(bad)
    with pytest.raises(OutOfRange):
        ctx.parse_hex("200")


def test_context_identity():
    assert FieldCtx(4) == FieldCtx(4, 0b10011)
    assert FieldCtx(4) != FieldCtx(4, 0b11001)
    assert hash(FieldCtx(3)) == hash(FieldCtx(3, 0b1011))
    assert "0xb" in repr(FieldCtx(3))


def test_math_log_sanity():
    # the distinguishability module leans on exact ints fed to math.log;
    # confirm the field order fits comfortably
    assert math.log(FieldCtx(16).order) == pytest.approx(16 * math.log(2))
