"""Distinguishability bounds for the hidden-subgroup view of key recovery.

The ambient group is G = GL_k(F2) x S_n. A symmetry group H inside it
bounds how distinguishable the induced hidden-subgroup states are:

  s0 = |H| * sum over non-identity (s1, s2) in H of
       1 / sqrt(|class of s1 in S_k| * |class of s2 in S_n|)
  s1 = |H|^2 * sqrt(|H|^2 + |H|) / sqrt(|G|)
  dk = s0 + s1

dk is compared against (ln |G^2 x| F2|)^(-c) and the largest admissible
c is reported (capped at 64). Class sizes and group orders are exact
integers; a log is taken once of each, and sums in the linear domain go
through log-sum-exp with one rounding (math.fsum), so nothing underflows
for n into the hundreds and every term has the same bits on every
supported Python.

The worst-case envelope replaces an explicit H by the most pessimistic
statistics compatible with the structural guarantees: order p^2 and every
non-identity component sitting in the smallest conjugacy class that
still moves at least p - 1 points. It is refused (TooLarge) above
n = ENVELOPE_MAX_N columns, before any class size is computed.
"""

from __future__ import annotations

import math
from math import factorial
from operator import mul

from ._record import Record
from .errors import InfeasibleSupport, StructureViolation, TooLarge
from .field import is_prime

# Largest n = m2*p the envelope accepts. Its cost grows as n^2 exact
# integer products; near n = 1024 one envelope takes 0.15-0.6 s on a
# 2-vCPU host (most when m1*p is close to n and p is small).
ENVELOPE_MAX_N = 1024


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


def gl2_order(k: int) -> int:
    """Order of GL_k(F2), exact: prod_{i<k} (2^k - 2^i), built as
    prod_{j<=k} (2^j - 1) shifted left by k(k-1)/2."""
    out = 1
    for j in range(1, k + 1):
        out *= (1 << j) - 1
    return out << (k * (k - 1) // 2)


def log_gl_order(k: int) -> float:
    """ln |GL_k(F2)|, one math.log of the exact order for every k."""
    return math.log(gl2_order(k))


def logsumexp(values) -> float:
    """ln sum exp(v) over values, -inf when all are -inf; the shifted
    terms are added with math.fsum, so the sum is rounded once."""
    values = [v for v in values if v != -math.inf]
    if not values:
        return -math.inf
    m = max(values)
    return m + math.log(math.fsum(math.exp(v - m) for v in values))


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of the permutation with these images, longest
    first, fixed points included."""
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def s0_exact(elements) -> float:
    """ln s0 for a group given as its (P1, P2) elements; -inf for the
    trivial group.

    Each element contributes through the conjugacy classes of its row
    part (in S_k) and of its full column permutation (in S_n, cycle type
    merged from both parts). Any non-identity element with an identity
    component breaks the structural uniqueness this sum relies on and is
    rejected.
    """
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


def s1_term(h_order: int, k: int, n: int) -> float:
    """ln s1 = ln(|H|^2 sqrt(|H|^2 + |H|) / sqrt(|GL_k(F2)| n!))."""
    if h_order < 1:
        raise StructureViolation("group order must be positive")
    return (
        2.0 * math.log(h_order)
        + 0.5 * math.log(h_order * h_order + h_order)
        - 0.5 * (log_gl_order(k) + log_factorial(n))
    )


class BoundReport(Record):
    """dk and its terms in the log domain, with the shape they bound."""

    __slots__ = ("mode", "k", "n", "h_order", "log_g", "s0_log", "s1_log",
                 "dk_log", "log_group2", "max_c", "p", "m1", "m2")


def _max_c(dk_log: float, log_group2: float, cap: int = 64) -> int:
    """Largest integer c >= 0 with dk <= (ln |G^2 x| F2|)^(-c); -1 if none."""
    if dk_log == -math.inf:
        return cap
    if dk_log > 0.0:
        return -1
    return min(cap, int(math.floor(-dk_log / math.log(log_group2))))


def _report(mode, p, m1, m2, h_order, s0_log) -> BoundReport:
    """The bound on a code of shape (p, m1, m2): k = m1*p, n = m2*p."""
    k, n = m1 * p, m2 * p
    log_g = log_gl_order(k) + log_factorial(n)
    s1_log = s1_term(h_order, k, n)
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


def _centralizer_weights(n: int) -> list[int]:
    """w[s] for s in 0..n: the greatest prod(j^c_j c_j!) over cycle types
    on s points with parts 2 and 3 only, 0 when there is none (s = 1).

    Parts 2 and 3 suffice. Take the c cycles of one length j >= 4. If
    j = 2m, m*c 2-cycles replace them; if j = 2m+1, c 3-cycles and
    (m-1)*c 2-cycles do. By (a+b)! >= a! b! and (mc)! >= (m!)^c c!, the
    product grows by a factor of at least (2^(m-1) (m-1)!)^c in the even
    case and (3 2^(m-1) / (2m+1))^c >= 1 in the odd one. Repeating this
    for each length >= 4 never lowers the product, so w[s] is also the
    greatest over all parts >= 2.

    A knapsack over the two part sizes: size j enters with multiplicity
    c at weight j*c and factor j^c c!, and the factors multiply.
    """
    w = [1] + [0] * n
    for j in (2, 3):
        factors = [1]  # factors[c] = j^c c!
        for c in range(1, n // j + 1):
            factors.append(factors[-1] * j * c)
        # totals descend, so w[s - c*j] still excludes part size j
        for s in range(n, j - 1, -1):
            w[s] = max(map(mul, factors, w[s::-j]))
    return w


def min_class_size(n: int, delta: int) -> int:
    """Smallest S_n conjugacy class among elements moving >= delta points.

    A class is n! over its centralizer order (n - s)! * prod(j^c_j c_j!),
    where s is the moved-point count and the c_j count the cycles of each
    length j >= 2. The greatest centralizer for each s is read from a
    table built for this call (_centralizer_weights), so the result is
    exact and the search is a maximum over s in [delta, n].
    """
    if delta > n:
        raise InfeasibleSupport(f"no element of S_{n} moves {delta} points")
    if delta <= 0:
        return 1
    weights = _centralizer_weights(n)
    best = 0
    for s in range(max(2, delta), n + 1):
        best = max(best, factorial(n - s) * weights[s])
    if best == 0:
        raise InfeasibleSupport(f"no element of S_{n} moves >= {delta} points")
    return factorial(n) // best


class EnvelopeStats(Record):
    """Worst-case group statistics implied by the structural guarantees."""

    __slots__ = ("order", "delta", "min_class_k", "min_class_n")


def worst_case_h(p: int, m1: int = 1, m2: int = 2) -> EnvelopeStats:
    """Pessimistic envelope for shape (p, m1, m2): order p^2, minimum
    displacement p - 1 on the k = m1*p rows and the n = m2*p columns.

    InfeasibleSupport for p < 2, which leaves no non-identity element,
    and for a composite p, which no admissible shape has. TooLarge, before
    the primality test and any class size, for n above ENVELOPE_MAX_N.
    """
    if p < 2:
        raise InfeasibleSupport(f"the envelope needs p >= 2, got p = {p}")
    if m2 * p > ENVELOPE_MAX_N:
        raise TooLarge(
            f"the envelope at n = {m2 * p} is above n = {ENVELOPE_MAX_N}"
        )
    if not is_prime(p):
        raise InfeasibleSupport(f"the envelope needs a prime p, got p = {p}")
    delta = p - 1
    return EnvelopeStats(
        order=p * p,
        delta=delta,
        min_class_k=min_class_size(m1 * p, delta),
        min_class_n=min_class_size(m2 * p, delta),
    )


def dk_bound_envelope(p: int, m1: int = 1, m2: int = 2) -> BoundReport:
    """Bound from the envelope of shape (p, m1, m2) alone, no explicit
    group required."""
    stats = worst_case_h(p, m1, m2)
    s0_log = (
        math.log(stats.order)
        + math.log(stats.order - 1)
        - 0.5 * (math.log(stats.min_class_k) + math.log(stats.min_class_n))
    )
    return _report("envelope", p, m1, m2, stats.order, s0_log)
