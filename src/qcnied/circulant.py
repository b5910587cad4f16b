"""Circulant blocks, block-circulant matrices, and two-sided permutation actions.

A circulant block of size p over GF(2^eta) is determined by its first row
(c_0, ..., c_{p-1}); row i is that row cyclically shifted i places right,
so entry (i, j) is c_{(j-i) mod p}. A block-circulant matrix is an
m1 x (m2-m1) grid of such blocks sharing p and the field; the parity
check built on it is the k x n matrix [I | C] with k = m1*p, n = m2*p.

A dense matrix is an immutable tuple of rows, each a tuple of ints, so
two matrices are equal exactly when they compare equal as tuples, and
column j is the j-th item of zip(*rows).

Permutations act on dense matrices two-sidedly: act(P, M, Q) has entry
(i, j) equal to M[P(i)][Q^-1(j)], which in matrix terms is P^-1 M Q^-1
(so the stabilizer condition act(P, M, Q) = M reads P M Q = M).
"""

from __future__ import annotations

from ._record import Record
from .errors import OutOfRange, SizeMismatch
from .field import FieldCtx

Dense = tuple[tuple[int, ...], ...]


class Perm:
    """Permutation of {0..n-1} stored as its image tuple.

    Composition follows function application: (a * b)(i) = a(b(i)), which
    matches the product of the corresponding permutation matrices.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if not images or sorted(images) != list(range(len(images))):
            raise OutOfRange(f"not a permutation: {images}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n))

    @classmethod
    def shift(cls, n: int, k: int) -> "Perm":
        """Cyclic shift i -> i + k mod n."""
        return cls((i + k) % n for i in range(n))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.n != other.n:
            raise SizeMismatch("composing permutations of different sizes")
        return Perm(self.images[other.images[i]] for i in range(self.n))

    def inv(self) -> "Perm":
        out = [0] * self.n
        for i, img in enumerate(self.images):
            out[img] = i
        return Perm(out)

    def is_identity(self) -> bool:
        return all(i == img for i, img in enumerate(self.images))

    def support(self) -> int:
        """Number of moved points."""
        return sum(1 for i, img in enumerate(self.images) if i != img)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths, longest first, fixed points included."""
        seen = [False] * self.n
        lengths = []
        for i in range(self.n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    def dsum(self, other: "Perm") -> "Perm":
        """Block-diagonal direct sum acting on the first n then the rest."""
        return Perm(self.images + tuple(self.n + i for i in other.images))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Perm{self.images}"


class CirculantBlock(Record):
    """One p x p circulant block over GF(2^eta), held as its first row.

    p is not forced prime here; primality is a compliance condition and
    is reported by the condition checkers rather than enforced on the
    container.
    """

    __slots__ = ("ctx", "first_row")

    def __init__(self, ctx: FieldCtx, first_row):
        first_row = tuple(first_row)
        for a in first_row:
            ctx.check(a)
        if not first_row:
            raise SizeMismatch("empty block")
        super().__init__(ctx, first_row)

    @property
    def p(self) -> int:
        return len(self.first_row)

    def expand(self) -> Dense:
        """Dense p x p matrix with entry (i, j) = first_row[(j - i) mod p]."""
        row = self.first_row
        return tuple(row[-i:] + row[:-i] for i in range(self.p))

    def multiplicity(self, a: int) -> int:
        """How many first-row coefficients equal a."""
        self.ctx.check(a)
        return self.first_row.count(a)

    def multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.first_row))

    def multiplicity_classes(self) -> tuple[int, ...]:
        """Sorted multiplicities of the distinct coefficient values."""
        return tuple(sorted(self.first_row.count(v) for v in set(self.first_row)))


class BlockCirculant(Record):
    """m1 x (m2 - m1) grid of circulant blocks sharing p and the field."""

    __slots__ = ("ctx", "p", "m1", "m2", "blocks")

    def __init__(self, ctx: FieldCtx, p: int, m1: int, m2: int, blocks):
        if not (1 <= m1 < m2):
            raise SizeMismatch(f"need 1 <= m1 < m2, got m1={m1} m2={m2}")
        blocks = tuple(tuple(r) for r in blocks)
        if len(blocks) != m1 or any(len(r) != m2 - m1 for r in blocks):
            raise SizeMismatch("block grid shape does not match m1, m2")
        for r in blocks:
            for b in r:
                if b.p != p or b.ctx != ctx:
                    raise SizeMismatch("blocks disagree on p or field")
        super().__init__(ctx, p, m1, m2, blocks)

    @classmethod
    def from_rows(cls, ctx: FieldCtx, p: int, m1: int, m2: int, rows) -> "BlockCirculant":
        """Build from an iterable of first rows in row-major grid order."""
        rows = [tuple(r) for r in rows]
        mc = m2 - m1
        if len(rows) != m1 * mc:
            raise SizeMismatch(f"expected {m1 * mc} block rows, got {len(rows)}")
        grid = tuple(
            tuple(CirculantBlock(ctx, rows[i * mc + j]) for j in range(mc))
            for i in range(m1)
        )
        return cls(ctx, p, m1, m2, grid)

    def block(self, i: int, j: int) -> CirculantBlock:
        return self.blocks[i][j]

    @property
    def n_block_cols(self) -> int:
        return self.m2 - self.m1

    def expand(self) -> Dense:
        """Dense (m1*p) x ((m2-m1)*p) matrix."""
        return tuple(
            sum(parts, ())
            for row in self.blocks
            for parts in zip(*(b.expand() for b in row))
        )

    def block_first_rows(self):
        """First rows in row-major grid order (serialization order)."""
        for row in self.blocks:
            for b in row:
                yield b.first_row


def act(p_row: Perm, m: Dense, q_col: Perm) -> Dense:
    """Two-sided action: result[i][j] = m[p_row(i)][q_col^-1(j)].

    act(P, M, Q) = M exactly when P M Q = M as matrix products. The group
    law is act(p2, act(p1, m, q1), q2) = act(p1*p2, m, q2*q1); note the
    column side composes in reverse, as it must for a two-sided action.
    """
    if len(m) != p_row.n or any(len(row) != q_col.n for row in m):
        raise SizeMismatch(f"matrix rows do not fit perms ({p_row.n}, {q_col.n})")
    cols = q_col.inv().images
    return tuple(tuple(m[i][j] for j in cols) for i in p_row.images)
