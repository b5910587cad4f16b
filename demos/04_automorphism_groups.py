"""
Stabilizer groups of block circulants
=====================================

The pairs (P1, P2) with P1 C P2 = C form a group. For admissible blocks
it stays inside the affine ceiling p(p-1), usually just the p cyclic
shifts. Forbidden shapes blow it up to the full symmetric group, and
one genuinely exceptional family escapes the affine bound while still
passing every condition: that case trips the surveillance check.
"""

from qcnied import BlockCirculant, FieldCtx
from qcnied import sample_compliant, stab_full, verify_lemma1

ctx = FieldCtx(2)

c = sample_compliant(5, 1, 2, 2, seed=1)
g = stab_full(c)
print("compliant block:", list(c.block_first_rows()))
print("order", g.order, "classification", g.classification)
print("min degree rows", g.min_degree_pi1, "cols", g.min_degree_pi2)
for p1, p2 in sorted(g.elements)[:3]:
    print("  element", p1.images, "|", p2.images)

# structural relation behind the group: undoing P1 on the rows of the
# dense matrix is the same as applying the induced column permutation
lem = verify_lemma1(c, g)
print("relation checked on", lem.checked, "elements:", lem.ok)

# constant block: every (P1, P2) works, the projection is all of S_5
flat = BlockCirculant.from_rows(ctx, 5, 1, 2, [(2, 2, 2, 2, 2)])
g = stab_full(flat)
rows = {p1 for p1, _ in g.elements}
print("\nconstant block order", g.order, "row projection", len(rows), g.classification)

# the exceptional case: minority positions {3, 4, 6} form a planar
# difference set mod 7, so the stabilizer is the order-168 simple group
# acting on the 7 positions, far beyond the affine ceiling 42
fano = BlockCirculant.from_rows(ctx, 7, 1, 2, [(3, 3, 3, 1, 1, 3, 1)])
g = stab_full(fano)
print("\ndifference-set block order", g.order, g.classification)
print("min degree", g.min_degree_pi1, "(affine elements move at least p-1 = 6)")
