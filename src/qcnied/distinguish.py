"""Distinguishability bounds for the hidden-subgroup view of key recovery.

The ambient group is G = GL_k(F2) x S_n. A symmetry group H inside it
bounds how distinguishable the induced hidden-subgroup states are:

  s0 = |H| * sum over non-identity (s1, s2) in H of
       1 / sqrt(|class of s1 in S_k| * |class of s2 in S_n|)
  s1 = |H|^2 * sqrt(|H|^2 + |H|) / sqrt(|G|)
  dk = s0 + s1

dk is compared against (ln |G^2 x| F2|)^(-c) and the largest admissible
c is reported (capped at 64). Class sizes and group orders are exact
integers; logs are taken only at the final reduction, and sums in the
linear domain go through log-sum-exp, so nothing underflows for n into
the hundreds.

The worst-case envelope replaces an explicit H by the most pessimistic
statistics compatible with the structural guarantees: order p^2 and every
non-identity component sitting in the smallest conjugacy class that
still moves at least p - 1 points.
"""

from __future__ import annotations

import math
from math import factorial
from operator import mul

from ._record import Record
from .errors import InfeasibleSupport, StructureViolation
from .field import is_prime


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
    """Order of GL_k(F2), exact."""
    out = 1
    for i in range(k):
        out *= (1 << k) - (1 << i)
    return out


def log_gl_order(k: int) -> float:
    """ln |GL_k(F2)|; exact product for k <= 64, summed logs beyond."""
    if k <= 0:
        return 0.0
    if k <= 64:
        return math.log(gl2_order(k))
    return sum(math.log((1 << k) - (1 << i)) for i in range(k))


def logsumexp(values) -> float:
    values = [v for v in values if v != -math.inf]
    if not values:
        return -math.inf
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def _merged_type(p1, p2) -> tuple[int, ...]:
    return tuple(sorted(p1.cycle_type() + p2.cycle_type(), reverse=True))


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
        id1, id2 = p1.is_identity(), p2.is_identity()
        if id1 and id2:
            continue
        if id1 or id2:
            raise StructureViolation(
                "non-identity element with an identity component"
            )
        c_row = class_size_sn(p1.cycle_type())
        c_col = class_size_sn(_merged_type(p1, p2))
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
    _defaults = {"p": None, "m1": None, "m2": None}


def _max_c(dk_log: float, log_group2: float, cap: int = 64) -> int:
    """Largest integer c >= 0 with dk <= (ln |G^2 x| F2|)^(-c); -1 if none."""
    if dk_log == -math.inf:
        return cap
    if dk_log > 0.0:
        return -1
    return min(cap, int(math.floor(-dk_log / math.log(log_group2))))


def _report(mode, k, n, h_order, s0_log, p=None, m1=None, m2=None) -> BoundReport:
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
    return _report("exact", m1 * p, m2 * p, len(elements), s0_exact(elements),
                   p=p, m1=m1, m2=m2)


# _weights[s]: the greatest prod(j^c_j c_j!) over partitions of s into
# parts >= 2, 0 when there is none (s = 1). It does not depend on n, so
# one table, grown to the largest n asked, serves every call.
_weights = [1]


def _centralizer_weights(n: int) -> list[int]:
    """The table above through index n, built by a knapsack over part sizes.

    Part size j enters with multiplicity c at weight j*c and factor
    j^c c!; the factors of different part sizes multiply, so taking the
    sizes one at a time and keeping the best product per total is exact.
    O(n^2 log n) integer products.
    """
    global _weights
    if len(_weights) <= n:
        w = [1] + [0] * n
        for j in range(2, n + 1):
            factors = [1]  # factors[c] = j^c c!
            for c in range(1, n // j + 1):
                factors.append(factors[-1] * j * c)
            # totals descend, so w[s - c*j] still excludes part size j
            for s in range(n, j - 1, -1):
                w[s] = max(map(mul, factors, w[s::-j]))
        _weights = w
    return _weights


def min_class_size(n: int, delta: int) -> int:
    """Smallest S_n conjugacy class among elements moving >= delta points.

    A class is n! over its centralizer order (n - s)! * prod(j^c_j c_j!),
    where s is the moved-point count and the c_j count the cycles of each
    length j >= 2. The greatest centralizer for each s comes from one
    knapsack table (_centralizer_weights), so the result is exact and
    the search is a maximum over s in [delta, n].
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


def worst_case_h(p: int, k: int, n: int) -> EnvelopeStats:
    """Pessimistic envelope: order p^2, minimum displacement p - 1.

    InfeasibleSupport for p < 2, which leaves no non-identity element,
    and for a composite p, which no admissible shape has.
    """
    if p < 2:
        raise InfeasibleSupport(f"the envelope needs p >= 2, got p = {p}")
    if not is_prime(p):
        raise InfeasibleSupport(f"the envelope needs a prime p, got p = {p}")
    delta = p - 1
    if delta > k:
        raise InfeasibleSupport(f"support floor {delta} exceeds k = {k}")
    return EnvelopeStats(
        order=p * p,
        delta=delta,
        min_class_k=min_class_size(k, delta),
        min_class_n=min_class_size(n, delta),
    )


def dk_bound_envelope(p: int, k: int, n: int, m1=None, m2=None) -> BoundReport:
    """Bound from the envelope alone, no explicit group required."""
    stats = worst_case_h(p, k, n)
    s0_log = (
        math.log(stats.order)
        + math.log(stats.order - 1)
        - 0.5 * (math.log(stats.min_class_k) + math.log(stats.min_class_n))
    )
    return _report("envelope", k, n, stats.order, s0_log, p=p, m1=m1, m2=m2)
