"""The image-tuple rules of `perm`: the pair law, the inverse, the
permutation test and the two-sided action, held against the test-side
`compose` oracles and brute force."""

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from qcnied.errors import SizeMismatch
from qcnied.perm import act, inverse, is_permutation, pair_product

from test_autgroup import pair_mul


def brute_inverse(p):
    """The q with p[q[i]] == i, found by search."""
    return tuple(next(j for j in range(len(p)) if p[j] == i) for i in range(len(p)))


@st.composite
def pairs(draw, count):
    """count pairs (P, Q) of one shape: P permutes k points, Q m points."""
    k, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    side = {size: st.permutations(range(size)).map(tuple) for size in (k, m)}
    return [(draw(side[k]), draw(side[m])) for _ in range(count)]


@given(pairs(3))
def test_pair_product_is_a_group_law(abc):
    a, b, c = abc
    assert pair_product(pair_product(a, b), c) == pair_product(a, pair_product(b, c))
    e = tuple(tuple(range(len(side))) for side in a)
    assert pair_product(e, a) == a == pair_product(a, e)
    a_inv = (brute_inverse(a[0]), brute_inverse(a[1]))
    assert (inverse(a[0]), inverse(a[1])) == a_inv
    assert pair_product(a, a_inv) == e == pair_product(a_inv, a)


@given(pairs(2), st.data())
def test_act_of_a_product_is_two_actions(ab, data):
    a, b = ab
    k, n = len(a[0]), len(a[1])
    m = tuple(tuple(data.draw(st.integers(0, 3)) for _ in range(n)) for _ in range(k))
    p, q = pair_product(a, b)
    # the law written with the compose oracles, sides as the act docstring orders them
    assert (p, q) == pair_mul(a, b)
    assert act(p, m, q) == act(b[0], act(a[0], m, a[1]), b[1])
    # entry (i, Q(j)) of the result is m[P(i)][j]
    out = act(p, m, q)
    assert all(out[i][q[j]] == m[p[i]][j] for i in range(k) for j in range(n))


@given(st.lists(st.integers(-2, 7), max_size=6))
def test_is_permutation_agrees_with_brute_force(images):
    assert is_permutation(images) == (tuple(images) in set(permutations(range(len(images)))))


def test_act_at_zero_one_and_two_points():
    assert act((), (), ()) == ()
    assert act((0,), ((5,),), (0,)) == ((5,),)
    assert act((1, 0), ((), ()), ()) == ((), ())
    assert act((1, 0), ((1,), (2,)), (0,)) == ((2,), (1,))
    m = ((1, 2), (3, 4))
    assert act((0, 1), m, (0, 1)) == m
    assert act((1, 0), m, (0, 1)) == ((3, 4), (1, 2))
    assert act((0, 1), m, (1, 0)) == ((2, 1), (4, 3))
    assert act((1, 0), m, (1, 0)) == ((4, 3), (2, 1))
    with pytest.raises(SizeMismatch):
        act((0,), ((1, 2),), (0,))
