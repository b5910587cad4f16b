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
from qcnied.circulant import ParityCheck
from qcnied.conditions import sample_compliant
from qcnied.errors import (
    DecodeFailure,
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


def small_pc(seed=1, p=5, m1=1, m2=2, eta=2):
    return ParityCheck(sample_compliant(p, m1, m2, eta, seed=seed))


def packed_columns(h):
    """Columns of the dense expansion of H, entry i in bits [i*eta, (i+1)*eta)."""
    eta = h.ctx.eta
    return [sum(a << (i * eta) for i, a in enumerate(col)) for col in zip(*h.expand())]


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
        y = lanes(s, pub.k, pub.eta)
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
        h = small_pc(seed=seed)
        priv, pub = keygen(h, seed=seed)
        assert priv.e == pub.e == oracle_table(packed_columns(h))[0]


def test_corpus_matches_enumeration_oracle():
    # the golden-corpus keys: e against the oracle on H, decrypt against
    # the oracle's table on H', for sampled supports of weight <= e + 1
    for p, m1, m2, eta, seed in CORPUS:
        h = ParityCheck(sample_compliant(p, m1, m2, eta, seed=seed))
        priv, pub = keygen(h, seed)
        assert pub.e == oracle_table(packed_columns(h))[0]
        rng = random.Random(seed)
        supports = [
            sorted(rng.sample(range(h.n), rng.randint(0, min(pub.e + 1, h.n))))
            for _ in range(60)
        ]
        check_against_oracle(priv, pub, supports)


def test_all_weights_match_oracle_at_5_1_2_2():
    for seed in (1, 2, 3):
        h = small_pc(seed=seed)
        priv, pub = keygen(h, seed=seed)
        weights = range(min(pub.e + 1, h.n) + 1)
        supports = [s for w in weights for s in itertools.combinations(range(h.n), w)]
        check_against_oracle(priv, pub, supports)


def test_trivial_kernel_gets_full_capacity():
    # (13,1,2,2) seed 1: the 26 x 26 binary syndrome map is bijective, so
    # e = n without enumerating 2^26 vectors
    h = ParityCheck(sample_compliant(13, 1, 2, 2, seed=1))
    priv, pub = keygen(h, seed=1)
    assert priv.kernel == ()
    assert pub.e == priv.e == h.n == 26
    x = tuple(1 if j % 3 else 0 for j in range(h.n))
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
        h = ParityCheck(sample_compliant(13, 1, 2, 2, seed=seed))
        cols = packed_columns(h)
        (v,) = _echelon(cols)[1]
        syndrome = 0
        for j in range(h.n):
            if v >> j & 1:
                syndrome ^= cols[j]
        assert syndrome == 0 and v.bit_count() == d
    assert keygen(ParityCheck(sample_compliant(13, 1, 2, 2, seed=5)), seed=1)[1].e == 6
    with pytest.raises(TooLarge, match="through weight 11 "):
        keygen(ParityCheck(sample_compliant(13, 1, 2, 2, seed=2)), seed=1)


def test_error_capacity_budget_guard(monkeypatch):
    # seed 3 has a nontrivial kernel and e = 4: the enumeration through
    # weight 5 needs 638 vectors
    h = small_pc(seed=3)
    monkeypatch.setattr(niederreiter, "ENUM_BUDGET", 637)
    with pytest.raises(TooLarge):
        keygen(h, seed=5)
    monkeypatch.setattr(niederreiter, "ENUM_BUDGET", 638)
    assert keygen(h, seed=5)[1].e == 4


def test_inflated_e_refused_before_search(monkeypatch):
    # (5,1,8,2): kernel dimension 30, e = 1; claiming e = 10 would need
    # sum_{w <= 10} C(30, w) > 2^24 candidates
    h = ParityCheck(sample_compliant(5, 1, 8, 2, seed=1))
    priv, pub = keygen(h, seed=1)
    assert (priv.e, len(priv.kernel)) == (1, 30)
    text = io.write_private_key(priv).replace("5 1 8 2 1\n", "5 1 8 2 10\n")
    inflated = io.read_private_key(text)
    assert inflated.e == 10
    y = encrypt(pub, [1] + [0] * (h.n - 1))

    def no_search(*args):
        raise AssertionError("coset search started")

    monkeypatch.setattr(niederreiter, "combinations", no_search)
    with pytest.raises(TooLarge):
        decrypt(inflated, y)


def test_keygen_publishes_scrambled_matrix():
    h = small_pc(seed=3)
    priv, pub = keygen(h, seed=12)
    assert len(pub.hprime) == h.n
    assert pub.e >= 1
    assert _inverse(priv.a0) == priv.a0inv
    # undo the scrambler and the column permutation: structure returns
    cols = packed_columns(h)
    for j in range(h.n):
        undone = mix(priv.a0inv, lanes(pub.hprime[j], h.k, h.ctx.eta))
        assert undone == lanes(cols[priv.b0(j)], h.k, h.ctx.eta)


def test_keygen_public_matrix_is_a0_h_b0():
    """Every entry of the published H' equals that of A0 H B0, built
    densely from the private key's A0 bit-rows, H and B0 images."""
    h = small_pc(seed=3)
    k, n, eta = h.k, h.n, h.ctx.eta
    for seed in (0, 1, 2):
        priv, pub = keygen(h, seed=seed)
        dense = priv.h.expand()
        expected = tuple(
            tuple(
                reduce(xor, (dense[l][priv.b0(j)] for l in range(k) if priv.a0[i] >> l & 1), 0)
                for j in range(n)
            )
            for i in range(k)
        )
        assert tuple(zip(*(lanes(col, k, eta) for col in pub.hprime))) == expected


def test_roundtrip_all_weights():
    h = small_pc(seed=2)
    priv, pub = keygen(h, seed=77)
    n = h.n
    for w in range(pub.e + 1):
        for sup in itertools.combinations(range(n), w):
            x = tuple(1 if j in sup else 0 for j in range(n))
            assert decrypt(priv, encrypt(pub, x)) == x


def test_encrypt_rejections():
    # seed 3 has e = 4 < n; seed 2's syndrome map happens to be bijective
    # (e = n = 10), which would make every weight admissible
    h = small_pc(seed=3)
    priv, pub = keygen(h, seed=5)
    assert pub.e < h.n
    with pytest.raises(SizeMismatch):
        encrypt(pub, (0,) * (h.n - 1))
    with pytest.raises(SizeMismatch):
        encrypt(pub, (2,) + (0,) * (h.n - 1))
    heavy = tuple(1 if j <= pub.e else 0 for j in range(h.n))
    with pytest.raises(WeightTooHigh):
        encrypt(pub, heavy)


def test_decrypt_rejections():
    h = small_pc(seed=3)
    priv, pub = keygen(h, seed=5)
    assert priv.e < h.n
    with pytest.raises(SizeMismatch):
        decrypt(priv, (0,) * (h.k + 1))
    # feed a syndrome that is absent from the oracle's table: pick the
    # smallest packed value not present and push it through A0
    _e, table = oracle_table(packed_columns(h))
    packed = 0
    while packed in table:
        packed += 1
    y = mix(priv.a0, lanes(packed, h.k, h.ctx.eta))
    with pytest.raises(DecodeFailure):
        decrypt(priv, y)


def test_zero_plaintext_roundtrip():
    h = small_pc(seed=4)
    priv, pub = keygen(h, seed=9)
    zero = (0,) * h.n
    y = encrypt(pub, zero)
    assert y == (0,) * h.k
    assert decrypt(priv, y) == zero


def test_private_key_carries_decoder():
    h = small_pc(seed=1)
    priv, pub = keygen(h, seed=1)
    assert priv.e == pub.e
    assert len(priv.a0) == len(priv.a0inv) == h.k
    assert all(0 <= row < 1 << h.k for row in priv.a0)
    # one pivot per independent column, one kernel vector per other column
    assert len(priv.pivots) + len(priv.kernel) == h.n
    cols = packed_columns(h)
    for v in priv.kernel:
        s = 0
        for j in range(h.n):
            if v >> j & 1:
                s ^= cols[j]
        assert v and s == 0
    assert decrypt(priv, (0,) * h.k) == (0,) * h.n
    with pytest.raises(SizeMismatch):
        PrivateKey(a0=(0,) * h.k, h=h, b0=priv.b0, e=priv.e)
