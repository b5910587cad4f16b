"""Bound arithmetic: exact class sizes, log-domain sums, envelopes."""

import contextlib
import io
import itertools
import math
import time
from collections import Counter
from functools import lru_cache
from math import comb, factorial

import mpmath as mp
import pytest

from qcnied import distinguish
from qcnied.circulant import Perm
from qcnied.cli import main
from qcnied.conditions import sample_compliant
from qcnied.autgroup import stab_full
from qcnied.distinguish import (
    BoundReport,
    class_size_sn,
    dk_bound,
    dk_bound_envelope,
    gl2_order,
    log_factorial,
    log_gl_order,
    logsumexp,
    min_class_size,
    s0_exact,
    s1_term,
    worst_case_h,
)
from qcnied.errors import InfeasibleSupport, StructureViolation

mp.mp.dps = 50


def cycle_types(n: int):
    """All partitions of n, parts descending."""

    def rec(rem, mx):
        if rem == 0:
            yield ()
            return
        for part in range(min(rem, mx), 0, -1):
            for rest in rec(rem - part, part):
                yield (part,) + rest

    yield from rec(n, n)


def type_support(t) -> int:
    """Points moved by a permutation of this cycle type."""
    return sum(part for part in t if part > 1)


@lru_cache(maxsize=None)
def max_one_free_weight(rem: int, min_part: int) -> int:
    """Largest centralizer factor prod(j^c_j c_j!) over partitions of rem
    into parts >= max(2, min_part), by recursion over the smallest part;
    0 when no such partition exists. Reference for the knapsack table."""
    if rem == 0:
        return 1
    best = 0
    for part in range(max(2, min_part), rem + 1):
        mult = 1
        total = part
        while total <= rem:
            tail = max_one_free_weight(rem - total, part + 1)
            if tail:
                best = max(best, part**mult * factorial(mult) * tail)
            mult += 1
            total += part
    return best


def recursive_min_class_size(n: int, delta: int) -> int | None:
    """min_class_size by the recursive search; None where it refuses."""
    if delta > n:
        return None
    if delta <= 0:
        return 1
    best = max(
        (factorial(n - s) * max_one_free_weight(s, 2) for s in range(max(2, delta), n + 1)),
        default=0,
    )
    return factorial(n) // best if best else None


class ConstantsRequired(ValueError):
    pass


def gamma_t_bound(k: int, t: int, delta: int, eps=None, b=None) -> float:
    """ln of k^(-eps*delta/2) * sqrt(C(k, t)) * (t!)^(1/4).

    The constants eps and b are model parameters with no canonical
    values; both must be supplied, and delta must be at least b.
    """
    if eps is None or b is None:
        raise ConstantsRequired("gamma_t needs explicit eps and b")
    if eps <= 0 or b <= 0:
        raise ConstantsRequired("eps and b must be positive")
    if delta < b:
        raise ConstantsRequired(f"delta = {delta} below the validity floor b = {b}")
    if not 0 <= t <= k:
        raise InfeasibleSupport(f"need 0 <= t <= k, got t={t}, k={k}")
    return (
        -0.5 * eps * delta * math.log(k)
        + 0.5 * math.log(comb(k, t))
        + 0.25 * log_factorial(t)
    )


def brute_class_sizes(n):
    buckets = Counter()
    for images in itertools.permutations(range(n)):
        buckets[Perm(images).cycle_type()] += 1
    return buckets


def test_class_size_matches_bucketing():
    for n in range(3, 7):
        buckets = brute_class_sizes(n)
        for t, size in buckets.items():
            assert class_size_sn(t) == size
        assert set(buckets) == set(cycle_types(n))


def test_class_sizes_partition_the_group():
    for n in range(1, 11):
        assert sum(class_size_sn(t) for t in cycle_types(n)) == math.factorial(n)


def test_type_support():
    assert type_support((3, 2, 1, 1)) == 5
    assert type_support((1, 1, 1)) == 0


def test_gl_orders():
    assert gl2_order(1) == 1
    assert gl2_order(2) == 6
    assert gl2_order(3) == 168
    assert log_gl_order(3) == pytest.approx(math.log(168), rel=1e-15)
    # against direct product form at k = 8
    exact = 1
    for i in range(8):
        exact *= (1 << 8) - (1 << i)
    assert log_gl_order(8) == pytest.approx(math.log(exact), rel=1e-14)


def test_logsumexp_against_mpmath():
    cases = [
        [0.0, 0.0],
        [-1000.0, -1000.5, -999.0],
        [3.0, -50.0],
        [-math.inf, -2.0],
        [-math.inf, -math.inf],
    ]
    for vals in cases:
        got = logsumexp(vals)
        if all(v == -math.inf for v in vals):
            assert got == -math.inf
        else:
            want = mp.log(mp.fsum(mp.e ** mp.mpf(v) for v in vals if v != -math.inf))
            assert got == pytest.approx(float(want), rel=1e-12)


def test_s1_term_known_value():
    # |H| = 1, k = 2, n = 3: s1 = sqrt(2) / sqrt(|GL_2| 3!) = sqrt(2)/6
    assert s1_term(1, 2, 3) == pytest.approx(math.log(math.sqrt(2) / 6), rel=1e-9)
    with pytest.raises(StructureViolation):
        s1_term(0, 2, 3)


def test_s0_exact_cyclic_group_oracle():
    c = sample_compliant(5, 1, 2, 2, seed=1)
    g = stab_full(c)
    assert g.order == 5  # the shift subgroup only
    # hand computation: each of the 4 non-identity elements has row type
    # (5) with class size 4! = 24 and merged column type (5,5) in S_10
    c_row = math.factorial(4)
    c_col = math.factorial(10) // (5 * 5 * 2)
    want = mp.log(5 * 4 / mp.sqrt(mp.mpf(c_row) * c_col))
    assert s0_exact(g.elements) == pytest.approx(float(want), rel=1e-12)


def test_s0_trivial_group():
    assert s0_exact(((Perm.identity(3), Perm.identity(4)),)) == -math.inf


def test_s0_rejects_identity_component():
    with pytest.raises(StructureViolation):
        s0_exact(((Perm.identity(3), Perm((1, 0, 2, 3))),))


def test_dk_bound_linear_domain_additivity():
    c = sample_compliant(5, 1, 2, 2, seed=1)
    g = stab_full(c)
    r = dk_bound(g.elements, g.p, g.m1, g.m2)
    lhs = mp.e ** mp.mpf(r.dk_log)
    rhs = mp.e ** mp.mpf(r.s0_log) + mp.e ** mp.mpf(r.s1_log)
    assert float(lhs) == pytest.approx(float(rhs), rel=1e-12)
    assert isinstance(r, BoundReport)
    assert r.mode == "exact" and r.h_order == 5


def test_min_class_size_against_bruteforce():
    def brute(n, delta):
        sizes = brute_class_sizes(n)
        vals = [v for t, v in sizes.items() if type_support(t) >= delta]
        return min(vals) if vals else None

    for n in range(2, 8):
        for delta in range(0, n + 1):
            want = brute(n, delta)
            if want is None:
                with pytest.raises(InfeasibleSupport):
                    min_class_size(n, delta)
            else:
                assert min_class_size(n, delta) == want
    with pytest.raises(InfeasibleSupport):
        min_class_size(5, 6)


def test_min_class_size_against_recursive_search(monkeypatch):
    # a fresh table, grown in steps as a sweep grows it, then read at
    # small n once it holds all of 0..202
    monkeypatch.setattr(distinguish, "_weights", [1])
    for n in [*range(41), 62, 122, 202, *range(41)]:
        for delta in range(-1, n + 2):
            want = recursive_min_class_size(n, delta)
            if want is None:
                with pytest.raises(InfeasibleSupport):
                    min_class_size(n, delta)
            else:
                assert min_class_size(n, delta) == want, (n, delta)


def test_sweep_time_budget(monkeypatch):
    # from an empty table, so the knapsack runs inside the timed region
    monkeypatch.setattr(distinguish, "_weights", [1])
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        assert main(["sweep", "--p", "31,61,101"]) == 0
    assert time.perf_counter() - t0 < 0.5
    assert out.getvalue().splitlines()[-1].startswith("101,1,2,101,202,10201,")


def test_worst_case_h_small():
    st = worst_case_h(3, 3, 6)
    assert (st.order, st.delta) == (9, 2)
    # S_3: the 3-cycle class (2 elements) is the smallest moving >= 2 points;
    # S_6: the transposition class of size 15
    assert st.min_class_k == 2
    assert st.min_class_n == 15
    with pytest.raises(InfeasibleSupport):
        worst_case_h(7, 3, 6)
    with pytest.raises(InfeasibleSupport):  # composite p
        worst_case_h(4, 4, 8)


def test_envelope_anchor_p31():
    # frozen regression anchor, cross-checked against a 60-digit mpmath
    # recomputation with class sizes from full cycle-type enumeration
    r = dk_bound_envelope(31, 31, 62, m1=1, m2=2)
    assert r.h_order == 961
    assert r.dk_log == pytest.approx(-44.6688360993728881, rel=1e-12)
    assert r.max_c == 5
    assert r.mode == "envelope"


def test_envelope_dominates_exact_on_samples():
    for seed in (1, 2, 3):
        c = sample_compliant(7, 1, 2, 2, seed=seed)
        g = stab_full(c)
        env = dk_bound_envelope(7, 7, 14, m1=1, m2=2)
        assert env.dk_log >= dk_bound(g.elements, g.p, g.m1, g.m2).dk_log


def test_max_c_semantics():
    # at p = 7 the envelope dk exceeds 1, so no admissible exponent exists
    r = dk_bound_envelope(7, 7, 14)
    assert r.dk_log > 0 and r.max_c == -1
    r31 = dk_bound_envelope(31, 31, 62)
    assert r31.max_c >= 1


def test_gamma_t_bound():
    k, t, delta, eps, b = 10, 3, 5, 0.5, 2.0
    want = mp.log(
        mp.mpf(k) ** (-eps * delta / 2)
        * mp.sqrt(mp.binomial(k, t))
        * mp.factorial(t) ** mp.mpf(0.25)
    )
    assert gamma_t_bound(k, t, delta, eps=eps, b=b) == pytest.approx(
        float(want), rel=1e-12
    )
    with pytest.raises(ConstantsRequired):
        gamma_t_bound(k, t, delta)
    with pytest.raises(ConstantsRequired):
        gamma_t_bound(k, t, delta, eps=-1.0, b=b)
    with pytest.raises(ConstantsRequired):
        gamma_t_bound(k, t, 1, eps=eps, b=b)
    with pytest.raises(InfeasibleSupport):
        gamma_t_bound(k, 11, delta, eps=eps, b=b)


def test_log_factorial_exact():
    assert log_factorial(0) == 0.0
    assert log_factorial(20) == pytest.approx(math.log(math.factorial(20)), rel=1e-15)
