"""Circulant blocks and block-circulant matrices.

A circulant block of size p over GF(2^eta) is determined by its first row
(c_0, ..., c_{p-1}); row i is that row cyclically shifted i places right,
so entry (i, j) is c_{(j-i) mod p}. A block-circulant matrix is an
m1 x (m2-m1) grid of such blocks sharing p and the field, held as their
first rows; the parity check built on it is the k x n matrix [I | C]
with k = m1*p, n = m2*p. BlockCirculant is the gate for such a grid;
the rules on first rows that the key records share live in `field`.

A dense matrix is an immutable tuple of rows, each a tuple of ints, so
two matrices are equal exactly when they compare equal as tuples, and
column j is the j-th item of zip(*rows). Permutations and their
two-sided action on dense matrices live in `perm`.
"""

from __future__ import annotations

from ._record import Record
from .field import FieldCtx, check_block_rows, expand

Dense = tuple[tuple[int, ...], ...]


class BlockCirculant(Record):
    """C as its QCMAT file carries it: the field, the shape and the
    m1 * (m2 - m1) block first rows in row-major grid order. `grid` holds
    the same rows as m1 block rows of m2 - m1 each, so block (i, j) has
    first row grid[i][j], and zip(*grid) gives the block columns.

    Construction refuses a bad shape, then rows of the wrong count or
    length (SizeMismatch), then an entry outside the field (OutOfRange):
    field.check_block_rows, the rule PrivateKey applies to the same rows.
    p is not forced prime here; primality is a compliance condition and
    is reported by the condition checkers rather than enforced on the
    container. `dense` is C's one dense form, built on first use; it and
    `grid` stay out of ==, hash and repr.
    """

    _fields = ("ctx", "p", "m1", "m2", "rows")
    __slots__ = _fields + ("grid", "_dense")

    def __init__(self, ctx: FieldCtx, p: int, m1: int, m2: int, rows):
        rows = check_block_rows(ctx, p, m1, m2, rows)
        super().__init__(ctx, p, m1, m2, rows)
        mc = m2 - m1
        object.__setattr__(self, "grid", tuple(rows[i:i + mc] for i in range(0, len(rows), mc)))

    @property
    def dense(self) -> Dense:
        """The dense (m1*p) x ((m2-m1)*p) matrix (field.expand), built on
        first use."""
        if getattr(self, "_dense", None) is None:
            object.__setattr__(self, "_dense", expand(self.rows, self.m2 - self.m1))
        return self._dense
