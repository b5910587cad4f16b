"""
Distinguishability bounds in the log domain
===========================================

How visible is the stabilizer group to Fourier sampling? The bound dk
is a sum over non-identity elements weighted by inverse square roots of
conjugacy class sizes, plus a closing term in the group order. The
numbers underflow any float in linear scale, so everything is carried
as logarithms.
"""

import math

from qcnied import dk_bound, dk_bound_envelope, sample_compliant, stab_full

# exact bound from an explicit group at desk scale
c = sample_compliant(5, 1, 2, 2, seed=1)
g = stab_full(c)
r = dk_bound(g.elements, g.p, g.m1, g.m2)
print(f"exact  p=5   ln_s0={r.s0_log:+.3f} ln_s1={r.s1_log:+.3f} ln_dk={r.dk_log:+.3f}")

# the envelope needs no group: it assumes the worst order p^2 and the
# worst class sizes compatible with minimal degree p - 1
for p in (7, 11, 13, 17, 23, 31):
    r = dk_bound_envelope(p)
    print(
        f"envelope p={p:<3} ln_dk={r.dk_log:+10.3f}  "
        f"max_c={r.max_c:>2}  (|H| <= {r.h_order})"
    )

# max_c is the largest c with dk <= (ln |G^2 x| F2|)^-c. At p = 7 the
# bound exceeds 1 and certifies nothing; from p = 11 on it bites, and
# at p = 31 any distinguisher needs more than (ln |G^2|)^5 samples.
r = dk_bound_envelope(31)
assert r.max_c == 5 and math.isfinite(r.dk_log)
print(f"\np=31: dk <= exp({r.dk_log:.4f}) ~ {math.exp(r.dk_log):.3e}")

# the class sizes and ln |GL_k(F2)| have closed forms, so the envelope
# reaches real QC block sizes: BIKE level 1 has r = 12323, n = 2r, where
# max_c reaches its cap of 64
r = dk_bound_envelope(12323)
print(f"BIKE level 1, p={r.p}: n={r.n}  ln_dk={r.dk_log:.2f}  max_c={r.max_c}")
