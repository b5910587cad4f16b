"""
Circulant blocks and the admissibility conditions
=================================================

A block circulant is an m1 x (m2 - m1) grid of p x p circulants, held
as the first rows of its blocks. The conditions i..v reject degenerate
shapes: shared values across a block, rows that are reorderings of each
other, multiplicity patterns whose stabilizer would be too large.
"""

from qcnied import BlockCirculant, FieldCtx
from qcnied import sample_compliant, validate_all

ctx = FieldCtx(2)

# one block, since m1 = 1 and m2 = 2; the matrix holds its first row
first_row = (1, 2, 3, 0, 1)
c = BlockCirculant(ctx, 5, 1, 2, [first_row])
print("first rows", c.rows)
# a dense matrix is a tuple of rows
dense = c.dense
for row in dense:
    print(row)

# row k of the expansion is the first row rotated k steps right
assert first_row[-1:] + first_row[:-1] == dense[1]

# every row and every column of a circulant holds the first row's
# entries in some order, so the conditions read first-row multisets
# and their multiplicities, never the expansion
multiset = sorted(first_row)
assert all(sorted(line) == multiset for line in dense + tuple(zip(*dense)))
print("multiset", tuple(multiset),
      "multiplicities", tuple(sorted(first_row.count(v) for v in set(first_row))))

rep = validate_all(c, desk_scale=True)
for name, verdict in rep.items():
    print(f"condition {name:<10} {verdict.status}", verdict.witness or "")
print("strict ok:", rep.strict_ok())

# a constant row fails condition i (all multiplicities collapse) and the
# witness names the offending block
flat = BlockCirculant(ctx, 5, 1, 2, [(3, 3, 3, 3, 3)])
rep = validate_all(flat, desk_scale=True)
print("\nconstant block:", rep.i.status, rep.i.witness)

# rejection sampling draws until the full report passes; a seed makes
# the draw reproducible
c = sample_compliant(5, 1, 2, 2, seed=7)
print("\nsampled compliant first rows:", list(c.rows))
assert validate_all(c, desk_scale=True).strict_ok()

# the systematic parity check [I | C] is what the cryptosystem uses
k, n = c.m1 * c.p, c.m2 * c.p
dense = tuple((0,) * i + (1,) + (0,) * (k - 1 - i) + row for i, row in enumerate(c.dense))
print(f"parity check: {len(dense)} rows x {len(dense[0])} columns (k={k}, n={n})")
