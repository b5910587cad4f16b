"""
Circulant blocks and the admissibility conditions
=================================================

A block circulant is an m1 x (m2 - m1) grid of p x p circulants. The
conditions i..v reject degenerate shapes: shared values across a block,
rows that are reorderings of each other, multiplicity patterns whose
stabilizer would be too large.
"""

from qcnied import BlockCirculant, CirculantBlock, FieldCtx
from qcnied import sample_compliant, validate_all

ctx = FieldCtx(2)

b = CirculantBlock(ctx, (1, 2, 3, 0, 1))
print("first row", b.first_row)
# a dense matrix is a tuple of rows
for row in b.expand():
    print(row)

# row k of the expansion is the first row rotated k steps right
assert b.first_row[-1:] + b.first_row[:-1] == b.expand()[1]

# the multiset ignores order; multiplicities are what the conditions read
print("multiset", b.multiset(), "multiplicities", b.multiplicity_classes())

# a full matrix, one block here since m1 = 1 and m2 = 2
c = BlockCirculant.from_rows(ctx, 5, 1, 2, [(1, 2, 3, 0, 1)])
rep = validate_all(c, desk_scale=True)
for name, verdict in rep.items():
    print(f"condition {name:<10} {verdict.status}", verdict.witness or "")
print("strict ok:", rep.strict_ok())

# a constant row fails condition i (all multiplicities collapse) and the
# witness names the offending block
flat = BlockCirculant.from_rows(ctx, 5, 1, 2, [(3, 3, 3, 3, 3)])
rep = validate_all(flat, desk_scale=True)
print("\nconstant block:", rep.i.status, rep.i.witness)

# rejection sampling draws until the full report passes; a seed makes
# the draw reproducible
c = sample_compliant(5, 1, 2, 2, seed=7)
print("\nsampled compliant first rows:", list(c.block_first_rows()))
assert validate_all(c, desk_scale=True).strict_ok()

# the systematic parity check [I | C] is what the cryptosystem uses
k, n = c.m1 * c.p, c.m2 * c.p
dense = tuple((0,) * i + (1,) + (0,) * (k - 1 - i) + row for i, row in enumerate(c.expand()))
print(f"parity check: {len(dense)} rows x {len(dense[0])} columns (k={k}, n={n})")
