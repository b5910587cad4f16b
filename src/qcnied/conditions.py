"""Compliance conditions for block-circulant parity-check matrices.

Five conditions gate a matrix C = (C_ij) of p x p circulants over
GF(2^eta):

  i    no block is a * (1 + x + ... + x^(p-1)) for any a, zero included;
       equivalently no block has a constant first row.
  ii   every block-column contains, in some block, an entry outside {0, 1};
       meaningless at eta = 1, which is rejected outright.
  iii  no two expanded rows of C from distinct block-rows are permutation
       equivalent, and likewise for expanded columns of C from distinct
       block-columns. Multiset comparison decides this exactly.
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
from .field import FieldCtx, is_prime

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
    _defaults = {"witness": None}

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
        yield "i", self.i
        yield "ii", self.ii
        yield "iii", self.iii
        yield "iv", self.iv
        yield "v", self.v
        yield "i_variant", self.i_variant
        yield "iv_variant", self.iv_variant


def _constant_row(row: tuple[int, ...]) -> bool:
    return len(set(row)) == 1


def _near_constant_row(row: tuple[int, ...]) -> bool:
    """Shape {a x (p-1), b x 1} with a != b."""
    counts = sorted(row.count(v) for v in set(row))
    return counts == [1, len(row) - 1]


def good_shape(row: tuple[int, ...]) -> bool:
    """Neither constant nor near-constant: the condition-iv block shape."""
    return not _constant_row(row) and not _near_constant_row(row)


def check_i(c: BlockCirculant) -> Verdict:
    for i, row in enumerate(c.blocks):
        for j, b in enumerate(row):
            if _constant_row(b.first_row):
                return Verdict(FAIL, {"block": [i, j], "value": b.first_row[0]})
    return Verdict(PASS)


def check_ii(c: BlockCirculant) -> Verdict:
    if c.ctx.eta < 2:
        raise EtaTooSmall("condition ii needs a proper extension field (eta >= 2)")
    for j in range(c.n_block_cols):
        if not any(
            any(a >= 2 for a in c.block(i, j).first_row) for i in range(c.m1)
        ):
            return Verdict(FAIL, {"block_col": j})
    return Verdict(PASS)


def check_iii(c: BlockCirculant) -> Verdict:
    p = c.p
    dense = c.expand()
    row_ms = [tuple(sorted(row)) for row in dense]
    for i in range(len(row_ms)):
        for i2 in range(i + 1, len(row_ms)):
            if i // p != i2 // p and row_ms[i] == row_ms[i2]:
                return Verdict(FAIL, {"side": "rows", "pair": [i, i2]})
    col_ms = [tuple(sorted(col)) for col in zip(*dense)]
    for j in range(len(col_ms)):
        for j2 in range(j + 1, len(col_ms)):
            if j // p != j2 // p and col_ms[j] == col_ms[j2]:
                return Verdict(FAIL, {"side": "cols", "pair": [j, j2]})
    return Verdict(PASS)


def check_iv(c: BlockCirculant) -> Verdict:
    shapes = []
    for i, row in enumerate(c.blocks):
        for j, b in enumerate(row):
            if good_shape(b.first_row):
                return Verdict(PASS)
            shapes.append([i, j, list(b.multiplicity_classes())])
    return Verdict(FAIL, {"all_blocks_degenerate": shapes})


def check_v(c: BlockCirculant, desk_scale: bool = False) -> Verdict:
    p = c.p
    if not is_prime(p):
        return Verdict(FAIL, {"p": p, "reason": "composite"})
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
    for i, row in enumerate(c.blocks):
        if not any(good_shape(b.first_row) for b in row):
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


def _draw_matrix(rng: random.Random, p: int, m1: int, m2: int, order: int, ctx) -> BlockCirculant:
    rows = [
        tuple(rng.randrange(order) for _ in range(p))
        for _ in range(m1 * (m2 - m1))
    ]
    return BlockCirculant.from_rows(ctx, p, m1, m2, rows)


def sample_compliant(p: int, m1: int, m2: int, eta: int, seed: int) -> BlockCirculant:
    """Uniform rejection sampling over matrices passing conditions i..v,
    with v waived at desk scale.

    Draws every block first row uniformly and rejects until the full
    report passes, so the output is uniform over the compliant set.
    """
    if not is_prime(p):
        raise OutOfRange(f"p must be prime, got {p}")
    if eta < 2:
        raise EtaTooSmall("compliant matrices need eta >= 2")
    ctx = FieldCtx(eta)
    rng = random.Random(seed)
    for _ in range(MAX_ATTEMPTS):
        c = _draw_matrix(rng, p, m1, m2, ctx.order, ctx)
        if validate_all(c, desk_scale=True).strict_ok():
            return c
    raise BudgetExhausted(f"no compliant matrix in {MAX_ATTEMPTS} attempts")


def sample_variant(p: int, m1: int, m2: int, eta: int, seed: int) -> BlockCirculant:
    """Seeded sampler for the variant regime.

    Produces matrices that keep conditions ii and iii, give every
    block-row a condition-iv block (iv'), and contain at least one
    constant block, so condition i fails. Every block-column also keeps
    a non-constant block, which leaves the expanded columns pairwise
    distinct. Blocks are drawn constant with probability
    CONSTANT_FRACTION because this set has negligible mass under the
    uniform draw. Condition v is waived at desk scale.
    """
    if not is_prime(p):
        raise OutOfRange(f"p must be prime, got {p}")
    if eta < 2:
        raise EtaTooSmall("variant matrices need eta >= 2")
    ctx = FieldCtx(eta)
    rng = random.Random(seed)
    mc = m2 - m1
    for _ in range(MAX_ATTEMPTS):
        rows = []
        for _ in range(m1 * mc):
            if rng.random() < CONSTANT_FRACTION:
                rows.append((rng.randrange(ctx.order),) * p)
            else:
                rows.append(tuple(rng.randrange(ctx.order) for _ in range(p)))
        c = BlockCirculant.from_rows(ctx, p, m1, m2, rows)
        rep = validate_all(c, desk_scale=True)
        if rep.i.status != FAIL:
            continue
        if not (rep.ii.ok and rep.iii.ok and rep.iv_variant.ok and rep.v.ok):
            continue
        if any(
            all(_constant_row(c.block(i, j).first_row) for i in range(m1))
            for j in range(mc)
        ):
            continue
        return c
    raise BudgetExhausted(f"no variant matrix in {MAX_ATTEMPTS} attempts")
