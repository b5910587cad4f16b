"""Syndrome-based public-key encryption over block-circulant parity checks.

The private key is (A0, H, B0, e): an invertible binary scrambler, a
parity check H = [I | C], a column permutation and the error capacity.
It holds them as its key file does: A0's bit-rows, C's block first
rows, B0's image tuple and the shape. The public key is H' = A0 H B0
with e. A plaintext is a binary vector of weight at most e; its
ciphertext is the syndrome H' x^T, the XOR of the columns on its
support, so no field multiplication runs here.

Binary matrices are Python ints: A0 and A0^-1 are k bit-rows (bit j =
column j) as the key file stores them; H, H' and syndromes are packed
columns, entry i in bits [i*eta, (i+1)*eta). One F2 elimination serves
A0's rank and inverse and the binary syndrome map z -> H z^T. e, the
largest t with that map injective on weights <= t, is n when its kernel
is trivial, else found by enumerating weights or by walking the kernel.

Decryption strips A0, eliminates for a solution z0 that is zero off the
pivot columns, and searches z0 + ker H over sums of at most e kernel
basis vectors. Each basis vector has exactly one non-pivot position, so
the unique solution of weight <= e is among them (Prange's
information-set argument).
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import accumulate, combinations
from math import comb
from operator import xor

from ._record import Record
from .errors import DecodeFailure, OutOfRange, SizeMismatch, TooLarge, WeightTooHigh

ENUM_BUDGET = 1 << 24


def _cancel(pivots: dict[int, int], x: int, width: int) -> int:
    """Cancel the bits of x at and above width against the echelon rows."""
    while x >> width:
        row = pivots.get(x.bit_length() - 1)
        if row is None:
            break
        x ^= row
    return x


def _echelon(vectors) -> tuple[dict[int, int], list[int]]:
    """F2 elimination of int vectors, each tagged with its own index bit.

    Vector i enters as (v << m) | (1 << i), m = len(vectors), so the low m
    bits of every row record which inputs it sums. Returns the echelon
    rows keyed by leading bit, and the tags of the vectors that reduced to
    zero: a basis of {z : XOR of vectors on z = 0} in which basis vector i
    has exactly one non-pivot index, i itself.
    """
    m = len(vectors)
    pivots: dict[int, int] = {}
    kernel: list[int] = []
    for i, v in enumerate(vectors):
        x = _cancel(pivots, (v << m) | (1 << i), m)
        if x >> m:
            pivots[x.bit_length() - 1] = x
        else:
            kernel.append(x)
    return pivots, kernel


def _inverse(rows) -> tuple[int, ...] | None:
    """Inverse of a square F2 matrix given as bit-rows; None when singular."""
    k = len(rows)
    pivots, kernel = _echelon(rows)
    if kernel:
        return None
    # the tag of the sum of rows equal to e_c is row c of the inverse
    return tuple(_cancel(pivots, 1 << (k + c), k) for c in range(k))


def _mix(rows, column: int, eta: int) -> int:
    """Packed column with lane i = XOR of its lanes l where rows[i] has bit l."""
    mask = (1 << eta) - 1
    lanes = [(column >> (l * eta)) & mask for l in range(len(rows))]
    out = 0
    for i, row in enumerate(rows):
        acc = 0
        for l, lane in enumerate(lanes):
            if row >> l & 1:
                acc ^= lane
        out |= acc << (i * eta)
    return out


def pack_column(values, eta: int) -> int:
    """Field elements as one packed column, entry i in bits [i*eta, (i+1)*eta)."""
    out = 0
    for i, a in enumerate(values):
        out |= a << (i * eta)
    return out


def unpack_column(packed: int, k: int, eta: int) -> tuple[int, ...]:
    """The k field elements of a packed column."""
    mask = (1 << eta) - 1
    return tuple((packed >> (i * eta)) & mask for i in range(k))


def _columns(rows, p: int, m1: int, m2: int, eta: int) -> list[int]:
    """The n packed columns of H = [I | C], C given by its block first rows
    in row-major grid order; entry (r, s) of a block is row[(s - r) % p]."""
    mc = m2 - m1
    cols = [1 << (i * eta) for i in range(m1 * p)]
    for bj in range(mc):
        for s in range(p):
            cols.append(pack_column(
                (rows[bi * mc + bj][(s - r) % p] for bi in range(m1) for r in range(p)),
                eta,
            ))
    return cols


def _capacity(cols: list[int], kernel: list[int]) -> int:
    """Largest t with distinct syndromes on all vectors of weight <= t.

    A trivial kernel makes the map injective outright. Otherwise weights
    are enumerated in turn until two syndromes collide, at weight ceil(d/2)
    for the least kernel weight d; once a level outnumbers the 2^dim kernel
    vectors, a Gray-code walk of the kernel gives d instead. TooLarge is
    raised before a level would take the cumulative count past ENUM_BUDGET.
    """
    n = len(cols)
    if not kernel:
        return n
    seen = {0}
    enumerated = 1
    collision = 0  # weight of the first collision, once the kernel walk ran
    for t in range(1, n + 1):
        enumerated += comb(n, t)
        if enumerated > ENUM_BUDGET:
            raise TooLarge(f"syndrome enumeration through weight {t} needs {enumerated} vectors")
        if enumerated > 1 << len(kernel):  # so are all later levels
            if not collision:
                steps = (kernel[(i & -i).bit_length() - 1] for i in range(1, 1 << len(kernel)))
                collision = (min(z.bit_count() for z in accumulate(steps, xor)) + 1) // 2
            if t == collision:
                return t - 1
            continue
        for support in combinations(cols, t):
            s = reduce(xor, support)
            if s in seen:
                return t - 1
            seen.add(s)
    raise AssertionError("a nonzero kernel vector must collide with zero")


class _Key(Record):
    """Shape of a key: k = m1*p syndrome entries, n = m2*p columns."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return self.m1 * self.p

    @property
    def n(self) -> int:
        return self.m2 * self.p


class PrivateKey(_Key):
    """A0's bit-rows, C's block first rows, B0's images, the shape, the
    field and e, with what decryption derives from them once.

    Construction refuses a shape without 1 <= m1 < m2 and p >= 1, block
    rows of the wrong count, length or field, and a B0 that does not
    permute range(n) (SizeMismatch or OutOfRange); it inverts A0
    (SizeMismatch when singular) and eliminates H's binary syndrome map,
    so decrypt does neither. The derived a0inv, pivots and kernel stay
    out of ==, hash and repr.
    """

    _fields = ("a0", "rows", "b0", "p", "m1", "m2", "ctx", "e")
    __slots__ = _fields + ("a0inv", "pivots", "kernel")

    def __init__(self, a0: tuple[int, ...], rows, b0: tuple[int, ...],
                 p: int, m1: int, m2: int, ctx: FieldCtx, e: int):
        if p < 1 or not 1 <= m1 < m2:
            raise SizeMismatch(f"need p >= 1 and 1 <= m1 < m2, got p={p} m1={m1} m2={m2}")
        if len(rows) != m1 * (m2 - m1) or any(len(row) != p for row in rows):
            raise SizeMismatch(f"expected {m1 * (m2 - m1)} block rows of {p} entries")
        if any(not 0 <= a < ctx.order for row in rows for a in row):
            raise OutOfRange(f"block entry outside [0, {ctx.order})")
        if sorted(b0) != list(range(m2 * p)):
            raise OutOfRange(f"not a permutation: {tuple(b0)}")
        if len(a0) != m1 * p:
            raise SizeMismatch(f"A0 has {len(a0)} rows, expected k = {m1 * p}")
        a0inv = _inverse(a0)
        if a0inv is None:
            raise SizeMismatch("A0 is singular over F2")
        pivots, kernel = _echelon(_columns(rows, p, m1, m2, ctx.eta))
        super().__init__(a0, rows, b0, p, m1, m2, ctx, e)
        object.__setattr__(self, "a0inv", a0inv)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "kernel", tuple(kernel))


class PublicKey(_Key):
    """H' = A0 H B0 as n packed columns, with its shape, field and e."""

    __slots__ = ("hprime", "p", "m1", "m2", "ctx", "e")


def keygen(c: BlockCirculant, seed: int) -> tuple[PrivateKey, PublicKey]:
    """Find e, draw (A0, B0) from a seeded stream, publish H' = A0 H B0
    for H = [I | c].

    A0 is rejection-sampled until invertible over F2; B0 is a
    Fisher-Yates shuffle from the same stream. TooLarge when the
    capacity enumeration exceeds ENUM_BUDGET.
    """
    p, m1, m2, ctx = c.p, c.m1, c.m2, c.ctx
    rows = tuple(c.block_first_rows())
    cols = _columns(rows, p, m1, m2, ctx.eta)
    e = _capacity(cols, _echelon(cols)[1])
    rng = random.Random(seed)
    k, n, eta = m1 * p, m2 * p, ctx.eta
    a0 = tuple(rng.getrandbits(k) for _ in range(k))
    while _inverse(a0) is None:
        a0 = tuple(rng.getrandbits(k) for _ in range(k))
    b0 = list(range(n))
    rng.shuffle(b0)
    priv = PrivateKey(a0, rows, tuple(b0), p, m1, m2, ctx, e)
    hprime = tuple(_mix(a0, cols[b0[j]], eta) for j in range(n))
    pub = PublicKey(hprime, p, m1, m2, ctx, e)
    # key relation sanity: undoing A0 and B0 must restore the structured matrix
    b0inv = [0] * n
    for j, i in enumerate(b0):
        b0inv[i] = j
    if any(_mix(priv.a0inv, hprime[b0inv[j]], eta) != cols[j] for j in range(n)):
        raise AssertionError("key relation A0^-1 H' B0^-1 == H failed")
    return priv, pub


def encrypt(pub: PublicKey, x) -> tuple[int, ...]:
    """Ciphertext y = H' x^T for a binary plaintext of weight <= e."""
    x = tuple(x)
    if len(x) != pub.n:
        raise SizeMismatch(f"plaintext length {len(x)} != n = {pub.n}")
    if any(b not in (0, 1) for b in x):
        raise SizeMismatch("plaintext must be binary")
    weight = sum(x)
    if weight > pub.e:
        raise WeightTooHigh(f"weight {weight} exceeds capacity e = {pub.e}")
    y = reduce(xor, (col for col, bit in zip(pub.hprime, x) if bit), 0)
    return unpack_column(y, pub.k, pub.ctx.eta)


def decrypt(priv: PrivateKey, y) -> tuple[int, ...]:
    """Invert the scrambler, decode the syndrome, undo the permutation.

    TooLarge, before any search, when the coset search would try more
    than ENUM_BUDGET candidates; only a key whose e overstates the
    capacity can get there.
    """
    e, k, n, eta = priv.e, priv.k, priv.n, priv.ctx.eta
    y = tuple(y)
    if len(y) != k:
        raise SizeMismatch(f"ciphertext length {len(y)} != k = {k}")
    dim = len(priv.kernel)
    weights = range(min(e, dim) + 1)
    candidates = sum(comb(dim, w) for w in weights)
    if candidates > ENUM_BUDGET:
        raise TooLarge(f"coset search over {candidates} kernel combinations")
    z0 = _cancel(priv.pivots, _mix(priv.a0inv, pack_column(y, eta), eta) << n, n)
    if z0 >> n:
        raise DecodeFailure("syndrome outside the column span of H")
    for w in weights:
        for combo in combinations(priv.kernel, w):
            z = reduce(xor, combo, z0)
            if z.bit_count() <= e:
                return tuple(z >> priv.b0[j] & 1 for j in range(n))
    raise DecodeFailure(f"no preimage of weight <= {e}")
