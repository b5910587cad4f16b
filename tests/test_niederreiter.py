"""Key generation, the F2 decoder, and the encrypt/decrypt pair.

The oracle is the syndrome-table construction this module used before it
moved to elimination: enumerate syndromes weight by weight, stop at the
first collision, and decode by table lookup. Its columns come from the
dense expansion of H and the public columns as published, so it shares
no code with the elimination path.
"""

import itertools
import random
from functools import reduce
from operator import xor

import pytest

from qcnied import io, niederreiter
from qcnied.circulant import BlockCirculant
from qcnied.conditions import sample_compliant
from qcnied.errors import (
    DecodeFailure,
    OutOfRange,
    SizeMismatch,
    TooLarge,
    WeightTooHigh,
)
from qcnied.niederreiter import (
    PrivateKey,
    _echelon,
    _inverse,
    decrypt,
    encrypt,
    keygen,
)

from test_golden_corpus import CORPUS


def small_matrix(seed=1, p=5, m1=1, m2=2, eta=2):
    return sample_compliant(p, m1, m2, eta, seed=seed)


def shape(c):
    """(k, n) of the parity check [I | c]."""
    return c.m1 * c.p, c.m2 * c.p


def dense_h(c):
    """The dense parity check [I | c]."""
    k = c.m1 * c.p
    return tuple((0,) * i + (1,) + (0,) * (k - 1 - i) + row for i, row in enumerate(c.expand()))


def packed_columns(c):
    """Columns of the dense expansion of [I | c], entry i in bits [i*eta, (i+1)*eta)."""
    eta = c.ctx.eta
    return [sum(a << (i * eta) for i, a in enumerate(col)) for col in zip(*dense_h(c))]


def oracle_table(cols):
    """(e, table): table maps each syndrome of weight <= e to its support."""
    n = len(cols)
    table = {0: ()}
    for t in range(1, n + 1):
        level = {}
        for support in itertools.combinations(range(n), t):
            s = 0
            for j in support:
                s ^= cols[j]
            if s in table or s in level:
                return t - 1, table
            level[s] = support
        table.update(level)
    return n, table


def lanes(packed, k, eta):
    return tuple((packed >> (i * eta)) & ((1 << eta) - 1) for i in range(k))


def mix(rows, lanes_in):
    """Binary matrix (bit-rows) times a vector of field elements."""
    out = []
    for row in rows:
        acc = 0
        for j, a in enumerate(lanes_in):
            if row >> j & 1:
                acc ^= a
        out.append(acc)
    return tuple(out)


def check_against_oracle(priv, pub, supports):
    """decrypt agrees with the oracle's table lookup on each support."""
    _e, table = oracle_table(list(pub.hprime))
    n = pub.n
    for sup in supports:
        s = 0
        for j in sup:
            s ^= pub.hprime[j]
        want = table.get(s)
        y = lanes(s, pub.k, pub.ctx.eta)
        if want is None:
            with pytest.raises(DecodeFailure):
                decrypt(priv, y)
        else:
            assert decrypt(priv, y) == tuple(1 if j in want else 0 for j in range(n))


def test_gf2_rank_and_inv():
    rng = random.Random(4)
    eye = tuple(1 << i for i in range(6))
    invertible = 0
    for _ in range(40):
        m = tuple(rng.getrandbits(6) for _ in range(6))
        inv = _inverse(m)
        pivots, kernel = _echelon(m)
        assert len(pivots) + len(kernel) == 6
        if inv is not None:
            invertible += 1
            assert not kernel
            assert mix(inv, m) == eye and mix(m, inv) == eye
        else:
            # every dependency is a nonzero combination summing to zero
            assert kernel
            for dep in kernel:
                assert dep and mix([dep], m) == (0,)
    assert 0 < invertible < 40
    assert _inverse((0, 0, 0)) is None
    assert _inverse(eye) == eye


def test_error_capacity_against_exhaustive_oracle():
    for seed in range(1, 6):
        c = small_matrix(seed=seed)
        priv, pub = keygen(c, seed=seed)
        assert priv.e == pub.e == oracle_table(packed_columns(c))[0]


def test_corpus_matches_enumeration_oracle():
    # the golden-corpus keys: e against the oracle on H, decrypt against
    # the oracle's table on H', for sampled supports of weight <= e + 1
    for p, m1, m2, eta, seed in CORPUS:
        c = sample_compliant(p, m1, m2, eta, seed=seed)
        _k, n = shape(c)
        priv, pub = keygen(c, seed)
        assert pub.e == oracle_table(packed_columns(c))[0]
        rng = random.Random(seed)
        supports = [
            sorted(rng.sample(range(n), rng.randint(0, min(pub.e + 1, n))))
            for _ in range(60)
        ]
        check_against_oracle(priv, pub, supports)


def test_all_weights_match_oracle_at_5_1_2_2():
    for seed in (1, 2, 3):
        c = small_matrix(seed=seed)
        _k, n = shape(c)
        priv, pub = keygen(c, seed=seed)
        weights = range(min(pub.e + 1, n) + 1)
        supports = [s for w in weights for s in itertools.combinations(range(n), w)]
        check_against_oracle(priv, pub, supports)


def test_trivial_kernel_gets_full_capacity():
    # (13,1,2,2) seed 1: the 26 x 26 binary syndrome map is bijective, so
    # e = n without enumerating 2^26 vectors
    c = sample_compliant(13, 1, 2, 2, seed=1)
    priv, pub = keygen(c, seed=1)
    n = shape(c)[1]
    assert priv.kernel == ()
    assert pub.e == priv.e == n == 26
    x = tuple(1 if j % 3 else 0 for j in range(n))
    assert decrypt(priv, encrypt(pub, x)) == x


def test_kernel_walk_replaces_enumeration(monkeypatch):
    # (13,1,2,2) seeds 5 and 2 have a one-vector kernel, of weight 13 and
    # 26. Weight 1 already outnumbers its two vectors, so the collision
    # weight ceil(d/2) comes from the kernel walk: 7 gives e = 6, and 13
    # is refused, as the enumeration would pass ENUM_BUDGET at weight 11,
    # before any vector is enumerated
    def no_enumeration(*args):
        raise AssertionError("syndrome enumeration started")

    monkeypatch.setattr(niederreiter, "combinations", no_enumeration)
    for seed, d in ((5, 13), (2, 26)):
        c = sample_compliant(13, 1, 2, 2, seed=seed)
        cols = packed_columns(c)
        (v,) = _echelon(cols)[1]
        syndrome = 0
        for j in range(len(cols)):
            if v >> j & 1:
                syndrome ^= cols[j]
        assert syndrome == 0 and v.bit_count() == d
    assert keygen(sample_compliant(13, 1, 2, 2, seed=5), seed=1)[1].e == 6
    with pytest.raises(TooLarge, match="through weight 11 "):
        keygen(sample_compliant(13, 1, 2, 2, seed=2), seed=1)


def test_error_capacity_budget_guard(monkeypatch):
    # seed 3 has a nontrivial kernel and e = 4: the enumeration through
    # weight 5 needs 638 vectors
    c = small_matrix(seed=3)
    monkeypatch.setattr(niederreiter, "ENUM_BUDGET", 637)
    with pytest.raises(TooLarge):
        keygen(c, seed=5)
    monkeypatch.setattr(niederreiter, "ENUM_BUDGET", 638)
    assert keygen(c, seed=5)[1].e == 4


def test_inflated_e_refused_before_search(monkeypatch):
    # (5,1,8,2): kernel dimension 30, e = 1; claiming e = 10 would need
    # sum_{w <= 10} C(30, w) > 2^24 candidates
    c = sample_compliant(5, 1, 8, 2, seed=1)
    priv, pub = keygen(c, seed=1)
    assert (priv.e, len(priv.kernel)) == (1, 30)
    text = io.write_private_key(priv).replace("5 1 8 2 1\n", "5 1 8 2 10\n")
    inflated = io.read_private_key(text)
    assert inflated.e == 10
    y = encrypt(pub, [1] + [0] * (pub.n - 1))

    def no_search(*args):
        raise AssertionError("coset search started")

    monkeypatch.setattr(niederreiter, "combinations", no_search)
    with pytest.raises(TooLarge):
        decrypt(inflated, y)


def test_keygen_publishes_scrambled_matrix():
    c = small_matrix(seed=3)
    k, n = shape(c)
    priv, pub = keygen(c, seed=12)
    assert len(pub.hprime) == n
    assert pub.e >= 1
    assert _inverse(priv.a0) == priv.a0inv
    # undo the scrambler and the column permutation: structure returns
    cols = packed_columns(c)
    for j in range(n):
        undone = mix(priv.a0inv, lanes(pub.hprime[j], k, c.ctx.eta))
        assert undone == lanes(cols[priv.b0[j]], k, c.ctx.eta)


def test_keygen_public_matrix_is_a0_h_b0():
    """Every entry of the published H' equals that of A0 H B0, built
    densely from the private key's A0 bit-rows, C's block rows and B0's
    images."""
    c = small_matrix(seed=3)
    (k, n), eta = shape(c), c.ctx.eta
    for seed in (0, 1, 2):
        priv, pub = keygen(c, seed=seed)
        dense = dense_h(BlockCirculant.from_rows(priv.ctx, priv.p, priv.m1, priv.m2, priv.rows))
        expected = tuple(
            tuple(
                reduce(xor, (dense[l][priv.b0[j]] for l in range(k) if priv.a0[i] >> l & 1), 0)
                for j in range(n)
            )
            for i in range(k)
        )
        assert tuple(zip(*(lanes(col, k, eta) for col in pub.hprime))) == expected


def test_roundtrip_all_weights():
    c = small_matrix(seed=2)
    priv, pub = keygen(c, seed=77)
    n = pub.n
    for w in range(pub.e + 1):
        for sup in itertools.combinations(range(n), w):
            x = tuple(1 if j in sup else 0 for j in range(n))
            assert decrypt(priv, encrypt(pub, x)) == x


def test_encrypt_rejections():
    # seed 3 has e = 4 < n; seed 2's syndrome map happens to be bijective
    # (e = n = 10), which would make every weight admissible
    c = small_matrix(seed=3)
    priv, pub = keygen(c, seed=5)
    n = pub.n
    assert pub.e < n
    with pytest.raises(SizeMismatch):
        encrypt(pub, (0,) * (n - 1))
    with pytest.raises(SizeMismatch):
        encrypt(pub, (2,) + (0,) * (n - 1))
    heavy = tuple(1 if j <= pub.e else 0 for j in range(n))
    with pytest.raises(WeightTooHigh):
        encrypt(pub, heavy)


def test_decrypt_rejections():
    c = small_matrix(seed=3)
    k, n = shape(c)
    priv, pub = keygen(c, seed=5)
    assert priv.e < n
    with pytest.raises(SizeMismatch):
        decrypt(priv, (0,) * (k + 1))
    # feed a syndrome that is absent from the oracle's table: pick the
    # smallest packed value not present and push it through A0
    _e, table = oracle_table(packed_columns(c))
    packed = 0
    while packed in table:
        packed += 1
    y = mix(priv.a0, lanes(packed, k, c.ctx.eta))
    with pytest.raises(DecodeFailure):
        decrypt(priv, y)


def test_zero_plaintext_roundtrip():
    c = small_matrix(seed=4)
    k, n = shape(c)
    priv, pub = keygen(c, seed=9)
    zero = (0,) * n
    y = encrypt(pub, zero)
    assert y == (0,) * k
    assert decrypt(priv, y) == zero


def test_private_key_carries_decoder():
    c = small_matrix(seed=1)
    k, n = shape(c)
    priv, pub = keygen(c, seed=1)
    assert priv.e == pub.e
    assert len(priv.a0) == len(priv.a0inv) == k
    assert all(0 <= row < 1 << k for row in priv.a0)
    # one pivot per independent column, one kernel vector per other column
    assert len(priv.pivots) + len(priv.kernel) == n
    cols = packed_columns(c)
    for v in priv.kernel:
        s = 0
        for j in range(n):
            if v >> j & 1:
                s ^= cols[j]
        assert v and s == 0
    assert decrypt(priv, (0,) * k) == (0,) * n
    with pytest.raises(SizeMismatch):
        PrivateKey((0,) * k, priv.rows, priv.b0, priv.p, priv.m1, priv.m2, priv.ctx, priv.e)


def test_private_key_refuses_a_malformed_key():
    # the checks BlockCirculant, CirculantBlock and Perm made when the key
    # held them: shape, block rows, field entries, B0, and a singular A0
    priv, _pub = keygen(small_matrix(seed=1), seed=1)
    good = dict(a0=priv.a0, rows=priv.rows, b0=priv.b0, p=5, m1=1, m2=2, ctx=priv.ctx, e=priv.e)
    (row,) = priv.rows
    bad = [
        (SizeMismatch, dict(p=0)),
        (SizeMismatch, dict(m1=0)),
        (SizeMismatch, dict(m1=2)),                        # m1 = m2
        (SizeMismatch, dict(m1=3)),                        # m1 > m2
        (SizeMismatch, dict(m2=3)),                        # one block row short
        (SizeMismatch, dict(rows=(row, row))),
        (SizeMismatch, dict(rows=(row[:-1],))),
        (SizeMismatch, dict(p=4)),                         # rows of 5 entries
        (OutOfRange, dict(rows=((4,) + row[1:],))),        # outside GF(4)
        (OutOfRange, dict(b0=priv.b0[:-1])),
        (OutOfRange, dict(b0=(priv.b0[1],) + priv.b0[1:])),
        (OutOfRange, dict(b0=tuple(range(1, 11)))),
        (SizeMismatch, dict(a0=priv.a0[:-1])),
        (SizeMismatch, dict(a0=(0,) * 5)),                 # singular
    ]
    for error, change in bad:
        with pytest.raises(error):
            PrivateKey(**{**good, **change})
    assert PrivateKey(**good) == priv
