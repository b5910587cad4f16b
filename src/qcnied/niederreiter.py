"""Syndrome-based public-key encryption over block-circulant parity checks.

The private key is (A0, H, B0, e): an invertible binary scrambler, a
parity check H = [I | C], a column permutation and the error capacity.
It holds them as its key file does: A0's bit-rows, C's block first
rows, B0's image tuple and the shape. The public key is H' = A0 H B0
with e. A plaintext is a binary vector of weight at most e; its
ciphertext is the syndrome H' x^T, the XOR of the columns on its
support, so no field multiplication runs here.

Binary matrices are Python ints: A0 and A0^-1 are k bit-rows (bit j =
column j) as the key file stores them. H, H' and syndromes are packed
columns of eta bit-planes, bit b*k + i holding bit b of entry i, so each
plane is a k-bit vector indexed like A0's rows and the scrambler is one
parity per row and plane. One F2 elimination serves A0's rank and inverse
and the binary syndrome map z -> H z^T. e, the largest t with that map
injective on weights <= t, is n when its kernel is trivial. Else weights
are enumerated while cheaper than a kernel walk, then one walk gives d
and e = (d - 1) // 2, each within ENUM_BUDGET.

Decryption strips A0, eliminates for a solution z0 that is zero off the
pivot columns, and searches z0 + ker H over sums of at most e kernel
basis vectors. Each basis vector has exactly one non-pivot position, so
the unique solution of weight <= e is among them (Prange's
information-set argument).
"""

from __future__ import annotations

import random
from functools import lru_cache, reduce
from itertools import accumulate, combinations
from math import comb
from operator import xor
from types import MappingProxyType

from ._record import Record
from .errors import DecodeFailure, OutOfRange, SizeMismatch, TooLarge, WeightTooHigh
from .field import check_block_rows

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


@lru_cache(maxsize=1)
def _inverse(rows: tuple[int, ...]) -> tuple[int, ...] | None:
    """Inverse of a square F2 matrix as bit-rows, None when singular; the last one is kept."""
    k = len(rows)
    pivots, kernel = _echelon(rows)
    if kernel:
        return None
    # the tag of the sum of rows equal to e_c is row c of the inverse
    return tuple(_cancel(pivots, 1 << (k + c), k) for c in range(k))


def _mix(rows, column: int, eta: int) -> int:
    """Packed column with entry i = XOR of its entries l where rows[i] has
    bit l: bit i of plane b is the parity of rows[i] & plane b."""
    k = len(rows)
    out = 0
    for b in range(eta):
        plane = column >> (b * k) & ((1 << k) - 1)
        for i, row in enumerate(rows):
            out |= ((row & plane).bit_count() & 1) << (b * k + i)
    return out


def pack_column(values, eta: int) -> int:
    """A sequence of k field elements as one packed column, bit b of entry
    i at bit b*k + i."""
    k = len(values)
    return sum((a >> b & 1) << (b * k + i) for b in range(eta) for i, a in enumerate(values))


def unpack_column(packed: int, k: int, eta: int) -> tuple[int, ...]:
    """The k field elements of a packed column."""
    return tuple(sum((packed >> (b * k + i) & 1) << b for b in range(eta)) for i in range(k))


def _columns(rows, p: int, m1: int, m2: int, eta: int) -> list[int]:
    """The n packed columns of H = [I | C], C given by its block first rows
    in row-major grid order; entry (r, s) of a block is row[(s - r) % p]."""
    mc = m2 - m1
    return [1 << i for i in range(m1 * p)] + [
        pack_column([rows[bi * mc + bj][(s - r) % p] for bi in range(m1) for r in range(p)], eta)
        for bj in range(mc) for s in range(p)
    ]


@lru_cache(maxsize=1)
def _syndrome_map(rows, p: int, m1: int, m2: int, eta: int) -> tuple:
    """H's _columns, then their _echelon rows and kernel basis, all read-only;
    the last H is kept, so keygen and its PrivateKey derive it once."""
    cols = _columns(rows, p, m1, m2, eta)
    pivots, kernel = _echelon(cols)
    return tuple(cols), MappingProxyType(pivots), tuple(kernel)


def _capacity(cols, kernel) -> int:
    """Largest t with distinct syndromes on all vectors of weight <= t.

    A trivial kernel makes the map injective outright. Otherwise weights
    are enumerated in turn while the cumulative count stays within the
    2^dim kernel vectors, until two syndromes collide at weight ceil(d/2)
    for the least kernel weight d. Past that count one Gray-code walk of
    the kernel gives d. Either way e = ceil(d/2) - 1 = (d - 1) // 2.
    TooLarge is raised before a level or the walk would pass ENUM_BUDGET.
    """
    n = len(cols)
    if not kernel:
        return n
    walk = 1 << len(kernel)
    seen = {0}
    enumerated = 1
    for t in range(1, n + 1):
        enumerated += comb(n, t)
        if enumerated > walk:
            break
        if enumerated > ENUM_BUDGET:
            raise TooLarge(f"syndrome enumeration through weight {t} needs {enumerated} vectors")
        for support in combinations(cols, t):
            s = reduce(xor, support)
            if s in seen:
                return t - 1
            seen.add(s)
    if walk > ENUM_BUDGET:
        raise TooLarge(f"kernel walk over {walk} vectors")
    steps = (kernel[(i & -i).bit_length() - 1] for i in range(1, walk))
    return (min(z.bit_count() for z in accumulate(steps, xor)) - 1) // 2


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

    Construction refuses C's block rows by BlockCirculant's rule
    (field.check_block_rows), then a B0 that does not permute range(n)
    (OutOfRange) and an A0 of other than k rows; it inverts A0
    (SizeMismatch when singular) and eliminates H's binary syndrome map,
    so decrypt does neither; a key built by keygen reuses keygen's. The
    derived a0inv, pivots and kernel stay out of ==, hash and repr.
    """

    _fields = ("a0", "rows", "b0", "p", "m1", "m2", "ctx", "e")
    __slots__ = _fields + ("a0inv", "pivots", "kernel")

    def __init__(self, a0: tuple[int, ...], rows, b0: tuple[int, ...],
                 p: int, m1: int, m2: int, ctx: FieldCtx, e: int):
        a0, rows = tuple(a0), check_block_rows(ctx, p, m1, m2, rows)
        if sorted(b0) != list(range(m2 * p)):
            raise OutOfRange(f"not a permutation: {tuple(b0)}")
        if len(a0) != m1 * p:
            raise SizeMismatch(f"A0 has {len(a0)} rows, expected k = {m1 * p}")
        a0inv = _inverse(a0)
        if a0inv is None:
            raise SizeMismatch("A0 is singular over F2")
        _, pivots, kernel = _syndrome_map(rows, p, m1, m2, ctx.eta)
        super().__init__(a0, rows, b0, p, m1, m2, ctx, e)
        object.__setattr__(self, "a0inv", a0inv)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "kernel", kernel)


class PublicKey(_Key):
    """H' = A0 H B0 as n packed columns, with its shape, field and e."""

    __slots__ = ("hprime", "p", "m1", "m2", "ctx", "e")


def keygen(c: BlockCirculant, seed: int) -> tuple[PrivateKey, PublicKey]:
    """Find e, draw (A0, B0) from a seeded stream, publish H' = A0 H B0
    for H = [I | c].

    A0 is rejection-sampled until invertible over F2; B0 is a
    Fisher-Yates shuffle from the same stream. TooLarge, before the
    draw, when the capacity search would pass ENUM_BUDGET.
    """
    p, m1, m2, ctx = c.p, c.m1, c.m2, c.ctx
    cols, _, kernel = _syndrome_map(c.rows, p, m1, m2, ctx.eta)
    e = _capacity(cols, kernel)
    rng = random.Random(seed)
    k, n, eta = m1 * p, m2 * p, ctx.eta
    a0 = tuple(rng.getrandbits(k) for _ in range(k))
    while _inverse(a0) is None:
        a0 = tuple(rng.getrandbits(k) for _ in range(k))
    b0 = list(range(n))
    rng.shuffle(b0)
    priv = PrivateKey(a0, c.rows, tuple(b0), p, m1, m2, ctx, e)
    hprime = tuple(_mix(a0, cols[b0[j]], eta) for j in range(n))
    pub = PublicKey(hprime, p, m1, m2, ctx, e)
    # key relation sanity: undoing A0 and B0 must restore the structured
    # matrix, whose column b0[j] is column j of H'
    if any(_mix(priv.a0inv, hprime[j], eta) != cols[i] for j, i in enumerate(b0)):
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
