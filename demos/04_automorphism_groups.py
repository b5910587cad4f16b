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
from qcnied import sample_compliant, stab_full, validate_all, verify_lemma1

ctx = FieldCtx(2)

c = sample_compliant(5, 1, 2, 2, seed=1)
g = stab_full(c)
print("compliant block:", list(c.rows))
print("order", g.order, "classification", g.classification)
print("min degree rows", g.min_degree_pi1, "cols", g.min_degree_pi2)
for p1, p2 in sorted(g.elements)[:3]:
    print("  element", p1, "|", p2)

# structural relation behind the group: undoing P1 on the rows of the
# dense matrix is the same as applying the induced column permutation;
# stab_full replayed every element before returning (a broken relation
# would raise), and verify_lemma1 reads C's condition report and
# returns the failed premise, or None when the premise holds
premise = verify_lemma1(c, validate_all(c, desk_scale=True))
print("relation checked on", g.order, "elements, failed premise:", premise)

# a block column stuck in {0, 1} admits identity-like columns, so the
# lemma's premise fails and its claims are not judged
stuck = BlockCirculant(ctx, 5, 1, 2, [(1, 1, 0, 1, 0)])
print("failed premise:", verify_lemma1(stuck, validate_all(stuck, desk_scale=True)))

# constant block: every (P1, P2) works, the projection is all of S_5
flat = BlockCirculant(ctx, 5, 1, 2, [(2, 2, 2, 2, 2)])
g = stab_full(flat)
rows = {p1 for p1, _ in g.elements}
print("\nconstant block order", g.order, "row projection", len(rows), g.classification)

# the exceptional case: minority positions {3, 4, 6} form a planar
# difference set mod 7, so the stabilizer is the order-168 simple group
# acting on the 7 positions, far beyond the affine ceiling 42
fano = BlockCirculant(ctx, 7, 1, 2, [(3, 3, 3, 1, 1, 3, 1)])
g = stab_full(fano)
print("\ndifference-set block order", g.order, g.classification)
print("min degree", g.min_degree_pi1, "(affine elements move at least p-1 = 6)")
