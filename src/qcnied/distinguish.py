"""Distinguishability bounds for the hidden-subgroup view of key recovery.

The ambient group is G = GL_k(F2) x S_n. A symmetry group H inside it
bounds how distinguishable the induced hidden-subgroup states are:

  s0 = |H| * sum over non-identity (s1, s2) in H of
       1 / sqrt(|class of s1 in S_k| * |class of s2 in S_n|)
  s1 = |H|^2 * sqrt(|H|^2 + |H|) / sqrt(|G|)
  dk = s0 + s1

dk is compared against (ln |G^2 x| F2|)^(-c) and the largest admissible
c is reported (capped at MAX_C). Class sizes are exact integers, logged
once each; ln |GL_k(F2)| is a correctly rounded sum of logs. Sums in the
linear domain go through log-sum-exp with one rounding (math.fsum), so
nothing underflows and every term has the same bits on every Python.
s0_exact reads cycle types through `perm`, which no envelope loads.

The worst-case envelope (dk_bound_envelope) replaces an explicit H by
the most pessimistic statistics compatible with the structural
guarantees: order p^2 and every non-identity component sitting in the
smallest conjugacy class that still moves at least p - 1 points, a
closed form (min_class_size). Its refusals all come before any class
size, among them TooLarge above n = ENVELOPE_MAX_N.
"""

from __future__ import annotations

import math
from math import factorial

from .errors import InfeasibleSupport, StructureViolation, TooLarge
from .field import Record, check_shape, is_prime

# Largest n = m2*p the envelope accepts; near it one envelope, a few
# exact factorials of at most n, takes at most 0.25 s on a 2-vCPU host.
ENVELOPE_MAX_N = 32768

MAX_C = 64

# ln 2 as an exact sum: a 21-bit high part, whose product with any
# k^2 < 2^32 is exact, and the double nearest the rest.
LN2_HI = float.fromhex("0x1.62e42p-1")
LN2_LO = float.fromhex("0x1.fdf473de6af28p-22")


def class_size_sn(t) -> int:
    """Conjugacy class size in S_n of the cycle type t (n = sum of parts)."""
    t = tuple(t)
    n = sum(t)
    centralizer = 1
    for length in set(t):
        c = t.count(length)
        centralizer *= length**c * factorial(c)
    return factorial(n) // centralizer


def log_factorial(n: int) -> float:
    return math.log(factorial(n)) if n >= 2 else 0.0


def log_gl_order(k: int) -> float:
    """ln |GL_k(F2)| for k >= 1, with no big integer: the order is
    prod_{i<k} (2^k - 2^i) = 2^(k^2 - 1) prod_{2<=j<=k} (1 - 2^-j), so its
    log is one math.fsum of (k^2 - 1) (LN2_HI + LN2_LO) and log1p(-2^-j).
    It is correctly rounded at every k <= 600, and 0.0 at k = 1."""
    e = k * k - 1
    terms = (math.log1p(-0.5**j) for j in range(2, k + 1))
    return math.fsum([LN2_HI * e, LN2_LO * e, *terms])


def logsumexp(values) -> float:
    """ln sum exp(v) over values, -inf when all are -inf; the shifted
    terms are added with math.fsum, so the sum is rounded once."""
    values = [v for v in values if v != -math.inf]
    if not values:
        return -math.inf
    m = max(values)
    return m + math.log(math.fsum(math.exp(v - m) for v in values))


def s0_exact(elements) -> float:
    """ln s0 for a group given as its (P1, P2) elements; -inf for the
    trivial group.

    Each element contributes through the conjugacy classes of its row
    part (in S_k) and of its full column permutation (in S_n, cycle type
    merged from both parts). Any non-identity element with an identity
    component breaks the structural uniqueness this sum relies on and is
    rejected.
    """
    from .perm import cycle_type

    term_logs = []
    for p1, p2 in elements:
        t1, t2 = cycle_type(p1), cycle_type(p2)
        # a permutation is the identity when every point is its own cycle
        id1, id2 = len(t1) == len(p1), len(t2) == len(p2)
        if id1 and id2:
            continue
        if id1 or id2:
            raise StructureViolation(
                "non-identity element with an identity component"
            )
        c_row = class_size_sn(t1)
        c_col = class_size_sn(t1 + t2)
        term_logs.append(-0.5 * (math.log(c_row) + math.log(c_col)))
    if not term_logs:
        return -math.inf
    return math.log(len(elements)) + logsumexp(term_logs)


def _s1_log(h_order: int, log_g: float) -> float:
    """ln s1 = ln(|H|^2 sqrt(|H|^2 + |H|) / sqrt(|G|)), given ln |G|."""
    if h_order < 1:
        raise StructureViolation("group order must be positive")
    return 2.0 * math.log(h_order) + 0.5 * math.log(h_order * h_order + h_order) - 0.5 * log_g


def s1_term(h_order: int, k: int, n: int) -> float:
    """ln s1 = ln(|H|^2 sqrt(|H|^2 + |H|) / sqrt(|GL_k(F2)| n!))."""
    return _s1_log(h_order, log_gl_order(k) + log_factorial(n))


class BoundReport(Record):
    """dk and its terms in the log domain, with the shape they bound."""

    __slots__ = ("mode", "k", "n", "h_order", "log_g", "s0_log", "s1_log",
                 "dk_log", "log_group2", "max_c", "p", "m1", "m2")


def _max_c(dk_log: float, log_group2: float) -> int:
    """Largest integer c >= 0 with dk <= (ln |G^2 x| F2|)^(-c); -1 if none.
    dk_log is finite, since its s1 term is."""
    if dk_log > 0.0:
        return -1
    return min(MAX_C, int(math.floor(-dk_log / math.log(log_group2))))


def _report(mode, p, m1, m2, h_order, s0_log) -> BoundReport:
    """The bound on a code of shape (p, m1, m2): k = m1*p, n = m2*p."""
    k, n = m1 * p, m2 * p
    log_g = log_gl_order(k) + log_factorial(n)
    s1_log = _s1_log(h_order, log_g)
    dk_log = logsumexp([s0_log, s1_log])
    log_group2 = math.log(2.0) + 2.0 * log_g
    return BoundReport(
        mode=mode, k=k, n=n, h_order=h_order, log_g=log_g,
        s0_log=s0_log, s1_log=s1_log, dk_log=dk_log,
        log_group2=log_group2, max_c=_max_c(dk_log, log_group2),
        p=p, m1=m1, m2=m2,
    )


def dk_bound(elements, p: int, m1: int, m2: int) -> BoundReport:
    """Exact bound from the elements of a group of shape (p, m1, m2):
    P1 on the k = m1*p rows, P2 on the n - k columns of C."""
    return _report("exact", p, m1, m2, len(elements), s0_exact(elements))


def _centralizer_weight(s: int) -> int:
    """w[s], s != 1: the greatest prod(j^c_j c_j!) over cycle types on s
    points with no fixed point, where c_j counts the j-cycles.

    Parts 2 and 3 suffice: c cycles of length j = 2m give way to m*c
    2-cycles, and of length j = 2m+1 >= 5 to c 3-cycles and (m-1)*c
    2-cycles; by (a+b)! >= a! b! and (mc)! >= (m!)^c c!, the product
    grows by at least (2^(m-1) (m-1)!)^c or (3 2^(m-1) / (2m+1))^c >= 1.
    With a 2-cycles and b 3-cycles, turning two 3-cycles into three
    2-cycles multiplies it by 8(a+1)(a+2)(a+3) / (9b(b-1)), which falls
    as b grows, so the best b is the least (0 or 1) or the greatest
    (a <= 2). From s to s + 6 the greatest-b product gains 9(b+1)(b+2),
    b <= s/3, and the least-b one 8(a+1)(a+2)(a+3), a >= (s-3)/2, no
    less for s >= 9. The least b wins at s = 10..15, so at all s >= 10;
    below that it loses only at s = 9.
    """
    if s == 9:
        return 162  # three 3-cycles: 3^3 * 3!
    if s % 2:
        return 3 * _centralizer_weight(s - 3)  # one 3-cycle, the rest 2-cycles
    return factorial(s // 2) << (s // 2)  # s/2 2-cycles


def min_class_size(n: int, delta: int) -> int:
    """Smallest S_n conjugacy class among elements moving >= delta points.

    A class is n! over its centralizer order (n - s)! * w, where s points
    move and w, the cycle-type factor, is at most w[s] (_centralizer_weight).
    So the exact answer is n! / max f(s), f(s) = (n - s)! * w[s], over
    max(2, delta) <= s <= n. Within one parity, f(s+2)/f(s) =
    (w[s+2]/w[s]) / ((n-s)(n-s-1)): the w ratios (2, 4, 6, 8, ... for even
    s; 2, 4, 6.75, 7.11, 10, 12, ... for odd s) rise and the denominator
    falls, so f peaks at an end of each parity class: at max(2, delta),
    max(2, delta) + 1, n - 1 or n. For the winning s, n! / f(s) is
    perm(n, s) / w[s], an exact division with no n! to build.
    """
    if delta <= 0:
        return 1
    low = max(2, delta)
    if low > n:
        raise InfeasibleSupport(f"no element of S_{n} moves >= {delta} points")
    s = max((s for s in {low, low + 1, n - 1, n} if low <= s <= n),
            key=lambda s: factorial(n - s) * _centralizer_weight(s))
    return math.perm(n, s) // _centralizer_weight(s)


def dk_bound_envelope(p: int, m1: int = 1, m2: int = 2) -> BoundReport:
    """Bound from the envelope of shape (p, m1, m2) alone, no explicit
    group required: order p^2, and every non-identity element moving at
    least p - 1 of the k = m1*p rows and of the n = m2*p columns.

    InfeasibleSupport for p < 2, which leaves no non-identity element,
    and for a composite p, which no admissible shape has; SizeMismatch
    without 1 <= m1 < m2; TooLarge, before the primality test and any
    class size, for n above ENVELOPE_MAX_N.
    """
    if p < 2:
        raise InfeasibleSupport(f"the envelope needs p >= 2, got p = {p}")
    check_shape(p, m1, m2)
    if m2 * p > ENVELOPE_MAX_N:
        raise TooLarge(
            f"the envelope at n = {m2 * p} is above n = {ENVELOPE_MAX_N}"
        )
    if not is_prime(p):
        raise InfeasibleSupport(f"the envelope needs a prime p, got p = {p}")
    order = p * p
    s0_log = (
        math.log(order)
        + math.log(order - 1)
        - 0.5 * (math.log(min_class_size(m1 * p, p - 1))
                 + math.log(min_class_size(m2 * p, p - 1)))
    )
    return _report("envelope", p, m1, m2, order, s0_log)
