"""Compliance conditions for block-circulant parity-check matrices.

Five conditions gate a matrix C = (C_ij) of p x p circulants over
GF(2^eta):

  i    no block is a * (1 + x + ... + x^(p-1)) for any a, zero included;
       equivalently no block has a constant first row.
  ii   every block-column contains, in some block, an entry outside {0, 1};
       meaningless at eta = 1, which is rejected outright.
  iii  no two expanded rows of C from distinct block-rows are permutation
       equivalent, and likewise for expanded columns of C from distinct
       block-columns. Multiset comparison decides this exactly, and C is
       never expanded for it: each expanded row of block-row i is made of
       rotations of that block-row's first rows, and each column of a
       circulant holds its first row's entries, so every row of block-row
       i has the multiset of those first rows together, and likewise every
       column of block-column j. Comparing these m1 block-row and m2 - m1
       block-column multisets gives the same verdict, and the first
       colliding pair (a, b) names the expanded rows or columns a*p, b*p.
  iv   at least one block has a first-row multiset that is neither
       {a x p} nor {a x (p-1), b x 1}: at least three multiplicity
       classes, or two classes both of size >= 2.
  v    p is prime and exceeds 30. Desk-scale runs waive the size bound
       for prime p <= 30 rather than pass it.

The variant regime replaces i by a row-count ratio test (i') and iv by a
per-block-row demand (iv'): every block-row owns a block passing the
condition-iv shape test.

Verdicts are pass / fail / waived, and every fail carries a witness that
can be replayed against the matrix.
"""

from __future__ import annotations

import random

from ._record import Record
from .circulant import BlockCirculant
from .errors import BudgetExhausted, EtaTooSmall, OutOfRange
from .field import FieldCtx, check_shape, is_prime

PASS = "pass"
FAIL = "fail"
WAIVED = "waived"

DESK_SCALE_MAX_P = 30
VARIANT_RATIO_DEFAULT = 0.25
MAX_ATTEMPTS = 10000       # draws a sampler makes before BudgetExhausted
CONSTANT_FRACTION = 0.35   # chance that sample_variant draws a block constant


class Verdict(Record):
    """A status (pass, fail or waived) and, for a fail, its witness."""

    __slots__ = ("status", "witness")

    def __init__(self, status: str, witness=None):
        super().__init__(status, witness)

    @property
    def ok(self) -> bool:
        return self.status in (PASS, WAIVED)


class ConditionReport(Record):
    """One Verdict per condition, strict and variant."""

    __slots__ = ("i", "ii", "iii", "iv", "v", "i_variant", "iv_variant")

    def strict_ok(self) -> bool:
        return all(v.ok for v in (self.i, self.ii, self.iii, self.iv, self.v))

    def variant_ok(self) -> bool:
        return all(v.ok for v in (self.i_variant, self.ii, self.iii, self.iv_variant, self.v))

    def items(self):
        return zip(self._fields, self._values())


def _constant_row(row: tuple[int, ...]) -> bool:
    return len(set(row)) == 1


def _classes(row: tuple[int, ...]) -> list[int]:
    """Sorted multiplicities of the distinct values of a first row."""
    return sorted(row.count(v) for v in set(row))


def good_shape(row: tuple[int, ...]) -> bool:
    """Neither constant nor near-constant, {a x (p-1), b x 1} with a != b:
    the condition-iv block shape."""
    return not _constant_row(row) and _classes(row) != [1, len(row) - 1]


def check_i(c: BlockCirculant) -> Verdict:
    for i, block_row in enumerate(c.grid):
        for j, row in enumerate(block_row):
            if _constant_row(row):
                return Verdict(FAIL, {"block": [i, j], "value": row[0]})
    return Verdict(PASS)


def check_ii(c: BlockCirculant) -> Verdict:
    if c.ctx.eta < 2:
        raise EtaTooSmall("condition ii needs a proper extension field (eta >= 2)")
    for j, block_col in enumerate(zip(*c.grid)):
        if not any(a >= 2 for row in block_col for a in row):
            return Verdict(FAIL, {"block_col": j})
    return Verdict(PASS)


def check_iii(c: BlockCirculant) -> Verdict:
    block_rows = [sorted(a for row in block_row for a in row) for block_row in c.grid]
    block_cols = [sorted(a for row in block_col for a in row) for block_col in zip(*c.grid)]
    for side, multisets in (("rows", block_rows), ("cols", block_cols)):
        for a, multiset in enumerate(multisets):
            for b in range(a + 1, len(multisets)):
                if multisets[b] == multiset:
                    return Verdict(FAIL, {"side": side, "pair": [a * c.p, b * c.p]})
    return Verdict(PASS)


def check_iv(c: BlockCirculant) -> Verdict:
    shapes = []
    for i, block_row in enumerate(c.grid):
        for j, row in enumerate(block_row):
            if good_shape(row):
                return Verdict(PASS)
            shapes.append([i, j, _classes(row)])
    return Verdict(FAIL, {"all_blocks_degenerate": shapes})


def check_v(c: BlockCirculant, desk_scale: bool = False) -> Verdict:
    p = c.p
    if not is_prime(p):
        return Verdict(FAIL, {"p": p, "reason": "composite" if p > 1 else "p < 2 is not prime"})
    if p > DESK_SCALE_MAX_P:
        return Verdict(PASS)
    if desk_scale:
        return Verdict(WAIVED, {"p": p})
    return Verdict(FAIL, {"p": p, "reason": "p <= 30 outside desk-scale mode"})


def check_variant(
    c: BlockCirculant, ratio_threshold: float = VARIANT_RATIO_DEFAULT
) -> tuple[Verdict, Verdict]:
    """Variant verdicts (i', iv'); i' compares m1/p against the threshold."""
    ratio = c.m1 / c.p
    if c.m1 <= ratio_threshold * c.p:
        vi = Verdict(PASS, {"ratio": ratio})
    else:
        vi = Verdict(FAIL, {"ratio": ratio, "threshold": ratio_threshold})
    for i, block_row in enumerate(c.grid):
        if not any(good_shape(row) for row in block_row):
            return vi, Verdict(FAIL, {"block_row": i})
    return vi, Verdict(PASS)


def validate_all(
    c: BlockCirculant,
    desk_scale: bool = False,
    ratio_threshold: float = VARIANT_RATIO_DEFAULT,
) -> ConditionReport:
    vi, viv = check_variant(c, ratio_threshold)
    return ConditionReport(
        i=check_i(c),
        ii=check_ii(c),
        iii=check_iii(c),
        iv=check_iv(c),
        v=check_v(c, desk_scale=desk_scale),
        i_variant=vi,
        iv_variant=viv,
    )


def _sample(what: str, p: int, m1: int, m2: int, eta: int, seed: int, draw_row, accept):
    """Both samplers' seeded rejection loop: the first matrix that accept
    takes within MAX_ATTEMPTS draws, each block first row drawn in grid
    order by draw_row(rng, order, p). Refused first: a bad shape, a
    composite p, p = 2 (no first row then has the condition-iv shape both
    samplers need), eta < 2, and for variant matrices m1 = 1 or m2 - m1 = 1."""
    check_shape(p, m1, m2)
    if not is_prime(p):
        raise OutOfRange(f"p must be prime, got {p}")
    if p == 2:
        raise OutOfRange("p = 2 leaves no block of the condition-iv shape")
    if eta < 2:
        raise EtaTooSmall(f"{what} matrices need eta >= 2")
    if what == "variant" and (m1 == 1 or m2 - m1 == 1):
        raise OutOfRange(f"variant matrices need m1 >= 2 and m2 - m1 >= 2, got m1={m1} m2={m2}: "
                         "the constant block would fill its block column or block row")
    ctx = FieldCtx(eta)
    rng = random.Random(seed)
    for _ in range(MAX_ATTEMPTS):
        rows = [draw_row(rng, ctx.order, p) for _ in range(m1 * (m2 - m1))]
        c = BlockCirculant(ctx, p, m1, m2, rows)
        if accept(c):
            return c
    raise BudgetExhausted(f"no {what} matrix in {MAX_ATTEMPTS} attempts")


def _uniform_row(rng: random.Random, order: int, p: int) -> tuple[int, ...]:
    return tuple(rng.randrange(order) for _ in range(p))


def sample_compliant(p: int, m1: int, m2: int, eta: int, seed: int) -> BlockCirculant:
    """Uniform rejection sampling over matrices passing conditions i..v,
    with v waived at desk scale.

    Draws every block first row uniformly and rejects until the full
    report passes, so the output is uniform over the compliant set.
    `_sample` refuses bad input before the first draw.
    """
    return _sample("compliant", p, m1, m2, eta, seed, _uniform_row,
                   lambda c: validate_all(c, desk_scale=True).strict_ok())


def sample_variant(p: int, m1: int, m2: int, eta: int, seed: int) -> BlockCirculant:
    """Seeded sampler for the variant regime.

    Produces matrices that keep conditions ii and iii, give every block-row
    a condition-iv block (iv'), and contain at least one constant block, so
    condition i fails. Every block-column also keeps a non-constant block,
    which leaves the expanded columns pairwise distinct. Blocks are drawn
    constant with probability CONSTANT_FRACTION because this set has
    negligible mass under the uniform draw. Condition v is waived at desk
    scale. `_sample` refuses bad input before the first draw, among it the
    shapes with no such matrix: with m1 = 1 the constant block is its whole
    block column, and with m2 - m1 = 1 its whole block row, which then has
    no condition-iv block.
    """
    def draw_row(rng, order, p):
        if rng.random() < CONSTANT_FRACTION:
            return (rng.randrange(order),) * p
        return _uniform_row(rng, order, p)

    def accept(c):
        rep = validate_all(c, desk_scale=True)
        return (rep.i.status == FAIL and rep.ii.ok and rep.iii.ok and rep.iv_variant.ok
                and rep.v.ok and not any(all(map(_constant_row, col)) for col in zip(*c.grid)))

    return _sample("variant", p, m1, m2, eta, seed, draw_row, accept)
