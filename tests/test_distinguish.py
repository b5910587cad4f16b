"""Bound arithmetic: exact class sizes, log-domain sums, envelopes."""

import contextlib
import io
import itertools
import math
import time
from collections import Counter
from functools import lru_cache
from math import comb, factorial
from operator import mul

import mpmath as mp
import pytest

from qcnied import distinguish
from qcnied.cli import main
from qcnied.conditions import sample_compliant
from qcnied.autgroup import stab_full
from qcnied.distinguish import (
    BoundReport,
    class_size_sn,
    dk_bound,
    dk_bound_envelope,
    log_factorial,
    log_gl_order,
    logsumexp,
    min_class_size,
    s0_exact,
    s1_term,
)
from qcnied.errors import InfeasibleSupport, SizeMismatch, StructureViolation, TooLarge
from qcnied.perm import cycle_type

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


def all_lengths_weights(n: int) -> list[int]:
    """w[s] for s in 0..n: the greatest prod(j^c_j c_j!) over partitions
    of s into parts >= 2 of every length, 0 when there is none, by a
    knapsack over all part sizes 2..n. Reference for the 2/3-cycle table."""
    w = [1] + [0] * n
    for j in range(2, n + 1):
        factors = [1]  # factors[c] = j^c c!
        for c in range(1, n // j + 1):
            factors.append(factors[-1] * j * c)
        for s in range(n, j - 1, -1):
            w[s] = max(map(mul, factors, w[s::-j]))
    return w


def gl2_order(k: int) -> int:
    """Order of GL_k(F2), exact: prod_{i<k} (2^k - 2^i), built as
    prod_{j<=k} (2^j - 1) shifted left by k(k-1)/2. Reference for
    log_gl_order."""
    out = 1
    for j in range(1, k + 1):
        out *= (1 << j) - 1
    return out << (k * (k - 1) // 2)


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
        buckets[cycle_type(images)] += 1
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


def test_log_gl_order_within_one_ulp_of_the_exact_order():
    # |GL_k| = |GL_(k-1)| * (2^k - 1) * 2^(k-1); mpmath converts a huge
    # int slowly, so it takes the log of the top 200 bits and adds the
    # shift's, a relative error of at most 2^-199
    order = 1
    for k in range(1, 601):
        order = order * ((1 << k) - 1) << (k - 1)
        shift = max(0, order.bit_length() - 200)
        want = float(mp.log(order >> shift) + shift * mp.log(2))
        assert abs(log_gl_order(k) - want) <= math.ulp(want), k
    assert order == gl2_order(600)


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
    assert s0_exact((((0, 1, 2), (0, 1, 2, 3)),)) == -math.inf


def test_s0_rejects_identity_component():
    with pytest.raises(StructureViolation):
        s0_exact((((0, 1, 2), (1, 0, 2, 3)),))


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


def test_min_class_size_against_recursive_search():
    for n in [*range(41), 62, 122, 202]:
        for delta in range(-1, n + 2):
            want = recursive_min_class_size(n, delta)
            if want is None:
                with pytest.raises(InfeasibleSupport):
                    min_class_size(n, delta)
            else:
                assert min_class_size(n, delta) == want, (n, delta)


def test_closed_form_weights_equal_all_lengths_knapsack():
    # parts of length >= 4 never give a greater centralizer factor, and
    # among 2- and 3-cycles the closed form picks the greatest product
    want = all_lengths_weights(400)
    assert want[1] == 0  # one point cannot move
    for s in [0, *range(2, 401)]:
        assert distinguish._centralizer_weight(s) == want[s], s


def _cli_in_process(argv) -> tuple[float, list[str]]:
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return time.perf_counter() - t0, out.getvalue().splitlines()


def test_sweep_time_budget():
    elapsed, lines = _cli_in_process(["sweep", "--p", "31,61,101"])
    assert elapsed < 0.5
    assert lines[-1].startswith("101,1,2,101,202,10201,")


def test_sweep_time_budget_every_prime_to_127():
    primes = [q for q in range(2, 128) if all(q % d for d in range(2, q))]
    elapsed, lines = _cli_in_process(
        ["sweep", "--p", ",".join(map(str, primes)), "--m1", "2", "--m2", "4"]
    )
    assert elapsed < 0.5
    assert len(lines) == 32 and lines[-1].startswith("127,2,4,254,508,16129,")


def test_envelope_time_budget_at_bike_level_1():
    # BIKE's level-1 block size r = 12323, n = 2r
    elapsed, lines = _cli_in_process(["bound", "--envelope", "--p", "12323"])
    assert elapsed < 0.5
    assert "n: 24646" in lines and "max_c: 64" in lines


def test_envelope_time_budget_near_the_size_limit():
    for p, m1, m2 in ((16381, 1, 2), (8191, 3, 4), (2, 16383, 16384)):
        elapsed, lines = _cli_in_process(
            ["bound", "--envelope", "--p", str(p), "--m1", str(m1), "--m2", str(m2)]
        )
        assert elapsed < 1.0, (p, m1, m2)
        assert f"n: {m2 * p}" in lines


def test_envelope_size_guard_comes_first(monkeypatch):
    # refused above ENVELOPE_MAX_N before the primality test (a composite
    # p is refused as too large) and before any class size
    calls = []
    monkeypatch.setattr(distinguish, "min_class_size",
                        lambda n, delta: calls.append(n) or 1)
    limit = distinguish.ENVELOPE_MAX_N
    assert limit == 32768  # BIKE's level-1 n = 24646 is accepted
    for p, m1, m2 in ((2, 1, limit // 2 + 1), (3, 1, 10923), (limit + 1, 1, 2),
                      (100003, 1, 2), (10**12, 1, 2)):
        with pytest.raises(TooLarge):
            dk_bound_envelope(p, m1, m2)
    assert calls == []
    dk_bound_envelope(2, 1, limit // 2)
    assert calls == [2, limit]


def test_envelope_refuses_a_bad_shape(monkeypatch):
    # k > n and k = n are no QC shape; refused before any class size, after
    # p < 2 and before the size guard and the primality test
    calls = []
    monkeypatch.setattr(distinguish, "min_class_size",
                        lambda n, delta: calls.append(n) or 1)
    for p, m1, m2 in ((7, 3, 2), (7, 2, 2), (7, 0, 2), (10**12, 2, 1), (9, 3, 2)):
        with pytest.raises(SizeMismatch):
            dk_bound_envelope(p, m1, m2)
    with pytest.raises(InfeasibleSupport):
        dk_bound_envelope(1, 3, 2)
    assert calls == []


def test_envelope_small():
    # S_3: the 3-cycle class (2 elements) is the smallest moving >= 2 points;
    # S_6: the transposition class of size 15
    assert min_class_size(3, 2) == 2
    assert min_class_size(6, 2) == 15
    r = dk_bound_envelope(3)
    assert r.h_order == 9
    assert r.s0_log == math.log(9) + math.log(8) - 0.5 * (math.log(2) + math.log(15))
    with pytest.raises(InfeasibleSupport):  # composite p
        dk_bound_envelope(4)


def test_envelope_anchor_p31():
    # frozen regression anchor, cross-checked against a 60-digit mpmath
    # recomputation with class sizes from full cycle-type enumeration
    r = dk_bound_envelope(31)
    assert r.h_order == 961
    assert r.dk_log == pytest.approx(-44.6688360993728881, rel=1e-12)
    assert r.max_c == 5
    assert r.mode == "envelope"


def test_envelope_dominates_exact_on_samples():
    for seed in (1, 2, 3):
        c = sample_compliant(7, 1, 2, 2, seed=seed)
        g = stab_full(c)
        env = dk_bound_envelope(7)
        assert env.dk_log >= dk_bound(g.elements, g.p, g.m1, g.m2).dk_log


def test_max_c_semantics():
    # at p = 7 the envelope dk exceeds 1, so no admissible exponent exists
    r = dk_bound_envelope(7)
    assert r.dk_log > 0 and r.max_c == -1
    r31 = dk_bound_envelope(31)
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
