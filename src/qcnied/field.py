"""Arithmetic in GF(2^eta) for extension degrees 1 through 16.

Field elements are plain ints in [0, 2^eta): bit i holds the coefficient
of x^i in the polynomial basis. A FieldCtx carries the degree and the
defining modulus so elements themselves stay lightweight; every operation
takes the context explicitly.

Addition is XOR. Multiplication reduces the carry-less product by the
modulus. Inversion uses a^(2^eta - 2), which is the inverse for every
nonzero a in a field of order 2^eta.

C's block first rows, held by `BlockCirculant` and the key records alike,
are admitted by `check_block_rows` and expanded by `expand`/`expand_row`.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._record import Record
from .errors import BadDegree, BadDigit, DivisionByZero, OutOfRange, ReducibleModulus, SizeMismatch

MAX_ETA = 16
# every hex token of the file formats is lowercase
HEX_DIGITS = frozenset("0123456789abcdef")


def poly_degree(a: int) -> int:
    """Degree of the polynomial encoded by a (deg(0) = -1)."""
    return a.bit_length() - 1


def poly_mulmod_f2(a: int, b: int) -> int:
    """Carry-less product of two F2[x] polynomials, no reduction."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly_rem_f2(a: int, m: int) -> int:
    """Remainder of a modulo m in F2[x]."""
    dm = poly_degree(m)
    while poly_degree(a) >= dm:
        a ^= m << (poly_degree(a) - dm)
    return a


def is_irreducible(m: int) -> bool:
    """Trial division by every polynomial of degree 1 up to deg(m)/2."""
    d = poly_degree(m)
    if d < 1:
        return False
    for div in range(2, 1 << (d // 2 + 1)):
        if poly_rem_f2(m, div) == 0:
            return False
    return True


def is_prime(p: int) -> bool:
    """Trial division; the circulant size p of every shape must pass it."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_shape(p: int, m1: int, m2: int) -> None:
    """Refuse a shape without p >= 1 and 1 <= m1 < m2 (SizeMismatch)."""
    if p < 1 or not 1 <= m1 < m2:
        raise SizeMismatch(f"need p >= 1 and 1 <= m1 < m2, got p={p} m1={m1} m2={m2}")


def check_block_rows(ctx: FieldCtx, p: int, m1: int, m2: int, rows) -> tuple:
    """The m1 * (m2 - m1) block first rows of C as tuples, after refusing
    a bad shape, then rows of the wrong count or length (SizeMismatch),
    then an entry outside the field (OutOfRange)."""
    check_shape(p, m1, m2)
    rows = tuple(tuple(row) for row in rows)
    if len(rows) != m1 * (m2 - m1) or any(len(row) != p for row in rows):
        raise SizeMismatch(f"expected {m1 * (m2 - m1)} block rows of {p} entries")
    if any(not 0 <= a < ctx.order for row in rows for a in row):
        raise OutOfRange(f"block entry outside [0, {ctx.order})")
    return rows


def expand_row(row: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Dense p x p circulant of a first row: entry (i, j) = row[(j - i) mod p]."""
    return tuple(row[-i:] + row[:-i] for i in range(len(row)))


def expand(rows, mc: int) -> tuple[tuple[int, ...], ...]:
    """Dense C of block first rows in row-major grid order, mc to a block row."""
    return tuple(sum(parts, ()) for i in range(0, len(rows), mc)
                 for parts in zip(*map(expand_row, rows[i:i + mc])))


def default_modulus(eta: int) -> int:
    """Smallest odd irreducible of degree eta (x+1, x^2+x+1, x^3+x+1, ...),
    searched on every call; a command needs it at most once."""
    m = (1 << eta) | 1
    while not is_irreducible(m):
        m += 2
    return m


class FieldCtx(Record):
    """Context for GF(2^eta) arithmetic on int-encoded elements: a frozen
    record of eta and the modulus, which alone set ==, hash and repr (the
modulus in hex, as the matrix files write it).

    Parameters
    ----------
    eta : int
        Extension degree, 1 <= eta <= 16.
    modulus : int, optional
        Bit-encoded irreducible polynomial of degree eta with leading
        coefficient 1. Defaults to the smallest odd irreducible of that
        degree.

    Raises
    ------
    BadDegree
        If eta is out of range or the modulus degree is not eta.
    ReducibleModulus
        If the modulus factors over F2.
    """

    _fields = ("eta", "modulus")
    __slots__ = _fields + ("order", "hex_width")

    def __init__(self, eta: int, modulus: int | None = None):
        if not 1 <= eta <= MAX_ETA:
            raise BadDegree(f"eta must be in [1, {MAX_ETA}], got {eta}")
        if modulus is None:
            modulus = default_modulus(eta)
        if poly_degree(modulus) != eta:
            raise BadDegree(
                f"modulus degree {poly_degree(modulus)} does not match eta {eta}"
            )
        if not is_irreducible(modulus):
            raise ReducibleModulus(f"modulus {modulus:#x} factors over F2")
        super().__init__(eta, modulus)
        object.__setattr__(self, "order", 1 << eta)
        object.__setattr__(self, "hex_width", (eta + 3) // 4)

    def check(self, a: int) -> int:
        """Validate that a encodes an element of this field."""
        if not 0 <= a < self.order:
            raise OutOfRange(f"{a} outside [0, {self.order})")
        return a

    @staticmethod
    def add(a: int, b: int) -> int:
        """Characteristic-2 addition (also subtraction)."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        self.check(a)
        self.check(b)
        return poly_rem_f2(poly_mulmod_f2(a, b), self.modulus)

    def pow(self, a: int, n: int) -> int:
        self.check(a)
        if n < 0:
            raise OutOfRange("negative exponent")
        out = 1
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise DivisionByZero("0 has no inverse")
        return self.pow(a, self.order - 2)

    def elements(self) -> Iterator[int]:
        return iter(range(self.order))

    def nonzero(self) -> Iterator[int]:
        return iter(range(1, self.order))

    def format_hex(self, a: int) -> str:
        """Lowercase fixed-width hex for one element."""
        self.check(a)
        return format(a, f"0{self.hex_width}x")

    def parse_hex(self, s: str) -> int:
        if len(s) != self.hex_width or not HEX_DIGITS.issuperset(s):
            raise BadDigit(f"not a lowercase hex token of {self.hex_width} digits: {s!r}")
        a = int(s, 16)
        if a >= self.order:
            raise OutOfRange(f"{s!r} encodes {a}, outside [0, {self.order})")
        return a

    def __repr__(self) -> str:
        return f"FieldCtx(eta={self.eta}, modulus={self.modulus:#x})"
