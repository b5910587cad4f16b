"""Key generation, the F2 decoder, and the encrypt/decrypt pair.

The oracle is the syndrome-table construction this module used before it
moved to elimination: enumerate syndromes weight by weight, stop at the
first collision, and decode by table lookup. Its columns come from the
dense expansion of H and the public columns as published, so it shares
no code with the elimination path. A second oracle, `stepwise_capacity`,
is the capacity search as it stood before its enumeration and kernel
walk ran one after the other; the new search must give its e wherever it
gives one.
"""

import itertools
import random
from functools import reduce
from itertools import accumulate, combinations
from math import comb
from operator import xor

import pytest
from hypothesis import example, given, strategies as st

from qcnied import io, niederreiter
from qcnied.conditions import sample_compliant, sample_variant
from qcnied.errors import (
    DecodeFailure,
    OutOfRange,
    SizeMismatch,
    TooLarge,
    WeightTooHigh,
)
from qcnied.field import BlockCirculant, FieldCtx
from qcnied.niederreiter import (
    PrivateKey,
    _cancel,
    _capacity,
    _echelon,
    _inverse,
    _mix,
    decrypt,
    encrypt,
    keygen,
    pack_column,
    unpack_column,
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
    return tuple((0,) * i + (1,) + (0,) * (k - 1 - i) + row for i, row in enumerate(c.dense))


def packed_columns(c):
    """Columns of the dense expansion of [I | c], packed by pack_column."""
    return [pack_column(col, c.ctx.eta) for col in zip(*dense_h(c))]


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


def stepwise_capacity(cols, kernel, budget=1 << 24):
    """The capacity search as it stood before the enumeration and the
    kernel walk ran one after the other: the walk ran inside the level
    loop, and the levels after it still counted toward the budget."""
    n = len(cols)
    if not kernel:
        return n
    seen = {0}
    enumerated = 1
    collision = 0  # weight of the first collision, once the kernel walk ran
    for t in range(1, n + 1):
        enumerated += comb(n, t)
        if enumerated > budget:
            raise TooLarge(f"syndrome enumeration through weight {t} needs {enumerated} vectors")
        if enumerated > 1 << len(kernel):  # so are all later levels
            if not collision:
                steps = (kernel[(i & -i).bit_length() - 1] for i in range(1, 1 << len(kernel)))
                collision = (min(z.bit_count() for z in accumulate(steps, xor)) + 1) // 2
            if t == collision:
                return t - 1
            continue
        for support in combinations(cols, t):
            s = reduce(xor, support)
            if s in seen:
                return t - 1
            seen.add(s)
    raise AssertionError("a nonzero kernel vector must collide with zero")


def least_kernel_weight(cols, kernel):
    """d by brute force: the least weight over every nonzero sum of kernel
    basis vectors, each checked to have zero syndrome."""
    for v in kernel:
        assert reduce(xor, (col for j, col in enumerate(cols) if v >> j & 1), 0) == 0
    return min(
        reduce(xor, (v for i, v in enumerate(kernel) if mask >> i & 1)).bit_count()
        for mask in range(1, 1 << len(kernel))
    )


# the shapes with p <= 7, m1 <= 2, m2 - m1 <= 3 and eta 2-3 that each
# sampler can fill; sample_variant needs two blocks in a block-row
CAPACITY_SHAPES = [
    (sampler, p, m1, m1 + mc, eta)
    for sampler in (sample_compliant, sample_variant)
    for p in (3, 5, 7)
    for m1 in (1, 2)
    for mc in (1, 2, 3)
    for eta in (2, 3)
    if sampler is sample_compliant or (m1 == 2 and mc >= 2)
]


@given(st.sampled_from(CAPACITY_SHAPES), st.integers(1, 1 << 20))
@example((sample_compliant, 5, 1, 4, 2), 2)
@example((sample_compliant, 7, 1, 4, 2), 2)
def test_capacity_against_stepwise_oracle_and_kernel_walk(shape_, seed):
    # the stepwise search's e wherever it gives one, and (d - 1) // 2 for
    # the brute-force d wherever the kernel is small enough to walk here.
    # Few random shapes have a kernel large enough for the enumeration to
    # find the collision, so two that do (at weight 2 and 3) are explicit
    sampler, p, m1, m2, eta = shape_
    cols = packed_columns(sampler(p, m1, m2, eta, seed=seed))
    kernel = _echelon(cols)[1]
    try:
        e = _capacity(cols, kernel)
    except TooLarge:
        e = None
    try:
        assert e == stepwise_capacity(cols, kernel)
    except TooLarge:
        pass
    if e is not None and kernel and len(kernel) <= 16:
        assert e == (least_kernel_weight(cols, kernel) - 1) // 2
    elif e is not None and not kernel:
        assert e == len(cols)


def lane_pack(values, eta):
    """The lane layout packed columns had before the bit-planes: entry i in
    bits [i*eta, (i+1)*eta)."""
    return sum(a << (i * eta) for i, a in enumerate(values))


def lane_unpack(packed, k, eta):
    return tuple((packed >> (i * eta)) & ((1 << eta) - 1) for i in range(k))


def lane_mix(rows, column, eta):
    """The scrambler as it was applied to a lane-packed column: lane i =
    XOR of its lanes l where rows[i] has bit l."""
    mask = (1 << eta) - 1
    lanes = [(column >> (l * eta)) & mask for l in range(len(rows))]
    out = 0
    for i, row in enumerate(rows):
        acc = 0
        for l, lane in enumerate(lanes):
            if row >> l & 1:
                acc ^= lane
        out |= acc << (i * eta)
    return out


@st.composite
def mix_cases(draw):
    """(rows, values, eta): k in 1..40 rows of k bits, singular ones
    included, and k entries of GF(2^eta) for eta in 1..4."""
    k, eta = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=k, max_size=k))
    values = draw(st.lists(st.integers(0, (1 << eta) - 1), min_size=k, max_size=k))
    return rows, values, eta


@given(mix_cases())
def test_plane_mix_equals_lane_mix(case):
    # the old lane-by-lane scrambler is the oracle, read through each
    # layout's own unpacking
    rows, values, eta = case
    k = len(values)
    assert unpack_column(pack_column(values, eta), k, eta) == tuple(values)
    planes = _mix(rows, pack_column(values, eta), eta)
    lanes = lane_mix(rows, lane_pack(values, eta), eta)
    assert unpack_column(planes, k, eta) == lane_unpack(lanes, k, eta)


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
        y = unpack_column(s, pub.k, pub.ctx.eta)
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
    # 26. Weight 1 already outnumbers its two vectors, so e = (d - 1) // 2
    # comes from the kernel walk, before any vector is enumerated
    def no_enumeration(*args):
        raise AssertionError("syndrome enumeration started")

    monkeypatch.setattr(niederreiter, "combinations", no_enumeration)
    for seed, d, e in ((5, 13, 6), (2, 26, 12)):
        c = sample_compliant(13, 1, 2, 2, seed=seed)
        cols = packed_columns(c)
        (v,) = _echelon(cols)[1]
        syndrome = 0
        for j in range(len(cols)):
            if v >> j & 1:
                syndrome ^= cols[j]
        assert syndrome == 0 and v.bit_count() == d
        assert keygen(c, seed=1)[1].e == e


def test_error_capacity_budget_guard(monkeypatch):
    # each method is refused before it would pass ENUM_BUDGET. (7,1,4,2)
    # seed 2 has a 14-dimensional kernel, and its enumeration collides at
    # weight 3 after 1 + 28 + 378 + 3276 = 3683 vectors
    c = sample_compliant(7, 1, 4, 2, seed=2)
    monkeypatch.setattr(niederreiter, "ENUM_BUDGET", 3682)
    with pytest.raises(TooLarge, match="through weight 3 needs 3683 vectors"):
        keygen(c, seed=5)
    monkeypatch.setattr(niederreiter, "ENUM_BUDGET", 3683)
    assert keygen(c, seed=5)[1].e == 2
    # (5,1,2,2) seed 3 has a one-vector kernel: the walk covers 2 vectors
    # and gives e = 4, and it is refused before it starts
    c = small_matrix(seed=3)

    def no_walk(*args):
        raise AssertionError("kernel walk started")

    monkeypatch.setattr(niederreiter, "ENUM_BUDGET", 1)
    with monkeypatch.context() as m:
        m.setattr(niederreiter, "accumulate", no_walk)
        with pytest.raises(TooLarge, match="kernel walk over 2 vectors"):
            keygen(c, seed=5)
    monkeypatch.setattr(niederreiter, "ENUM_BUDGET", 2)
    assert keygen(c, seed=5)[1].e == 4


def test_keys_past_condition_v_round_trip_at_capacity():
    # the paper's keys need p > 30: every (p,1,2,2) key at p in {31, 37,
    # 41}, seeds 1-40, carries a message of weight exactly e
    for p in (31, 37, 41):
        for seed in range(1, 41):
            priv, pub = keygen(sample_compliant(p, 1, 2, 2, seed=seed), seed)
            support = set(random.Random(seed).sample(range(pub.n), pub.e))
            x = tuple(1 if j in support else 0 for j in range(pub.n))
            assert decrypt(priv, encrypt(pub, x)) == x


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
        undone = mix(priv.a0inv, unpack_column(pub.hprime[j], k, c.ctx.eta))
        assert undone == unpack_column(cols[priv.b0[j]], k, c.ctx.eta)


def test_keygen_public_matrix_is_a0_h_b0():
    """Every entry of the published H' equals that of A0 H B0, built
    densely from the private key's A0 bit-rows, C's block rows and B0's
    images."""
    c = small_matrix(seed=3)
    (k, n), eta = shape(c), c.ctx.eta
    for seed in (0, 1, 2):
        priv, pub = keygen(c, seed=seed)
        dense = dense_h(BlockCirculant(priv.ctx, priv.p, priv.m1, priv.m2, priv.rows))
        expected = tuple(
            tuple(
                reduce(xor, (dense[l][priv.b0[j]] for l in range(k) if priv.a0[i] >> l & 1), 0)
                for j in range(n)
            )
            for i in range(k)
        )
        assert tuple(zip(*(unpack_column(col, k, eta) for col in pub.hprime))) == expected


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
    y = mix(priv.a0, unpack_column(packed, k, c.ctx.eta))
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
    # the checks BlockCirculant and Perm make: shape, block rows, field
    # entries and B0, then A0's rows (count and width), then a singular A0
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
        (OutOfRange, dict(a0=(priv.a0[0] | 1 << 8,) + priv.a0[1:])),
        (OutOfRange, dict(a0=priv.a0[:-1] + (priv.a0[-1] | 1 << 5,))),  # bit k
        (OutOfRange, dict(a0=(-1,) + priv.a0[1:])),
        (SizeMismatch, dict(a0=(0,) * 5)),                 # singular
    ]
    for error, change in bad:
        with pytest.raises(error):
            PrivateKey(**{**good, **change})
    assert PrivateKey(**good) == priv
    # lists are taken and stored as tuples; the shared elimination is read-only
    twin = PrivateKey(**{**good, "a0": list(priv.a0), "rows": [list(row)]})
    assert twin == priv and hash(twin) == hash(priv) and twin.kernel == priv.kernel
    with pytest.raises(TypeError):
        twin.pivots[0] = 0


@st.composite
def block_grids(draw):
    """(ctx, p, m1, m2, rows) near the rule's edges: shapes with p, m1 or
    m2 - m1 at zero or below, row counts and lengths one off, and entries
    up to the field's order."""
    ctx = FieldCtx(draw(st.integers(1, 3)))
    # each of p, m1 and m2 - m1 is in range five times in six, else 0 or -1
    edge = st.integers(0, 5).flatmap(lambda k: st.integers(1, 3) if k else st.integers(-1, 0))
    p, m1 = draw(edge), draw(edge)
    m2 = m1 + draw(edge)
    blocks = max(m1 * (m2 - m1), 0)
    count = draw(st.sampled_from([blocks] * 4 + [blocks - 1, blocks + 1]))
    lengths = st.sampled_from([p] * 6 + [p - 1, p + 1]).filter(lambda n: n >= 0)
    entries = st.integers(0, ctx.order)
    rows = [draw(lengths.flatmap(lambda n: st.lists(entries, min_size=n, max_size=n)))
            for _ in range(max(count, 0))]
    return ctx, p, m1, m2, rows


@given(block_grids())
def test_constructors_share_one_block_grid_gate(grid):
    """BlockCirculant and PrivateKey accept the same grids, as the same
    rows, and refuse the rest with the same error and message."""
    ctx, p, m1, m2, rows = grid

    def outcome(build):
        try:
            return build().rows
        except (SizeMismatch, OutOfRange) as exc:
            return type(exc), str(exc)

    a0, b0 = tuple(1 << i for i in range(max(m1 * p, 0))), tuple(range(max(m2 * p, 0)))
    assert outcome(lambda: BlockCirculant(ctx, p, m1, m2, rows)) == outcome(
        lambda: PrivateKey(a0, rows, b0, p, m1, m2, ctx, 0))


# the key wrap has no trapdoor: the public key alone shows the identity
# block and decrypts, on these keys
WRAP_KEYS = [(shape_, seed) for shape_ in ((5, 1, 2, 2), (7, 1, 3, 2), (5, 2, 4, 2),
                                           (11, 1, 2, 3), (13, 1, 2, 2))
             for seed in range(1, 6)]


@pytest.mark.parametrize("shape_,seed", WRAP_KEYS)
def test_public_key_shows_the_identity_block(shape_, seed):
    # A0 scrambles each bit-plane on its own, and condition ii gives every
    # column of C an entry outside {0, 1}: so the columns of H' with all
    # entries 0 or 1 are exactly B0's images of the identity block
    priv, pub = keygen(sample_compliant(*shape_, seed=seed), seed)
    binary = [j for j, col in enumerate(pub.hprime) if not col >> pub.k]
    assert binary == [j for j in range(pub.n) if priv.b0[j] < pub.k]


def public_decrypt(pub, y):
    """decrypt's elimination and coset search, run on H' alone."""
    n = pub.n
    pivots, kernel = _echelon(pub.hprime)
    z0 = _cancel(pivots, pack_column(y, pub.ctx.eta) << n, n)
    assert not z0 >> n
    for w in range(min(pub.e, len(kernel)) + 1):
        for combo in combinations(kernel, w):
            z = reduce(xor, combo, z0)
            if z.bit_count() <= pub.e:
                return tuple(z >> j & 1 for j in range(n))
    raise AssertionError("no preimage of weight <= e")


@pytest.mark.parametrize("shape_,seed", WRAP_KEYS)
def test_public_key_alone_decrypts(shape_, seed):
    priv, pub = keygen(sample_compliant(*shape_, seed=seed), seed)
    rng = random.Random(seed)
    for _ in range(4):
        x = [0] * pub.n
        for j in rng.sample(range(pub.n), rng.randint(0, pub.e)):
            x[j] = 1
        y = encrypt(pub, x)
        assert public_decrypt(pub, y) == decrypt(priv, y) == tuple(x)
