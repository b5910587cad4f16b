"""Property tests for the QCMAT and NIEDQC formats.

Canonical text read back and written again is the same text, and any
integer token with a leading zero or a sign, or any hex token in
uppercase, is refused with ParseError.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcnied import io
from qcnied.circulant import BlockCirculant
from qcnied.errors import ParseError
from qcnied.field import FieldCtx, is_irreducible
from qcnied.niederreiter import PrivateKey, PublicKey

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw):
    eta = draw(st.integers(1, 6))
    modulus = draw(st.sampled_from(
        [m for m in range(1 << eta, 1 << (eta + 1)) if is_irreducible(m)]
    ))
    ctx = FieldCtx(eta, modulus)
    p = draw(st.integers(1, 7))
    m1 = draw(st.integers(1, 2))
    m2 = draw(st.integers(m1 + 1, m1 + 2))
    row = st.tuples(*[st.integers(0, ctx.order - 1)] * p)
    n_blocks = m1 * (m2 - m1)
    rows = draw(st.lists(row, min_size=n_blocks, max_size=n_blocks))
    return BlockCirculant.from_rows(ctx, p, m1, m2, rows)


@st.composite
def private_keys(draw):
    c = draw(matrices())
    k, n = c.m1 * c.p, c.m2 * c.p
    # a unit lower-triangular matrix with its rows shuffled is invertible
    lower = [(1 << i) | draw(st.integers(0, (1 << i) - 1)) for i in range(k)]
    a0 = tuple(draw(st.permutations(lower)))
    b0 = tuple(draw(st.permutations(range(n))))
    rows = tuple(c.block_first_rows())
    return PrivateKey(a0, rows, b0, c.p, c.m1, c.m2, c.ctx, draw(st.integers(0, n)))


@st.composite
def public_keys(draw):
    c = draw(matrices())
    k, n, eta = c.m1 * c.p, c.m2 * c.p, c.ctx.eta
    column = st.integers(0, (1 << (k * eta)) - 1)
    hprime = tuple(draw(st.lists(column, min_size=n, max_size=n)))
    e = draw(st.integers(0, n))
    return PublicKey(hprime, c.p, c.m1, c.m2, c.ctx, e)


FORMATS = {
    "matrix": (matrices(), io.write_matrix, io.read_matrix),
    "private": (private_keys(), io.write_private_key, io.read_private_key),
    "public": (public_keys(), io.write_public_key, io.read_public_key),
}


def tokens(kind: str, text: str):
    """(line, position, token, is_int) for every token after the kind line.

    The params line and a private key's permutation line hold integers;
    every other token is hex (modulus, A0 rows, field elements).
    """
    lines = text[:-1].split("\n")
    params = 1 if kind == "matrix" else 2
    int_lines = {params}
    if kind == "private":
        p, m1 = (int(t) for t in lines[params].split(" ")[:2])
        int_lines.add(params + 2 + m1 * p)
    return [
        (i, j, tok, i in int_lines)
        for i in range(params, len(lines))
        for j, tok in enumerate(lines[i].split(" "))
    ]


def with_token(text: str, i: int, j: int, new: str) -> str:
    lines = text[:-1].split("\n")
    toks = lines[i].split(" ")
    toks[j] = new
    lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", FORMATS)
@PROPERTY
@given(data=st.data())
def test_canonical_text_roundtrips(kind, data):
    strategy, write, read = FORMATS[kind]
    text = write(data.draw(strategy))
    assert write(read(text)) == text


@pytest.mark.parametrize("kind", FORMATS)
@PROPERTY
@given(data=st.data())
def test_integer_token_with_leading_zero_or_sign_is_refused(kind, data):
    strategy, write, read = FORMATS[kind]
    text = write(data.draw(strategy))
    ints = [(i, j, tok) for i, j, tok, is_int in tokens(kind, text) if is_int]
    i, j, tok = data.draw(st.sampled_from(ints))
    prefix = data.draw(st.sampled_from(["0", "+", "-"]))
    with pytest.raises(ParseError):
        read(with_token(text, i, j, prefix + tok))


@pytest.mark.parametrize("kind", FORMATS)
@PROPERTY
@given(data=st.data())
def test_uppercase_hex_token_is_refused(kind, data):
    strategy, write, read = FORMATS[kind]
    text = write(data.draw(strategy))
    lettered = [
        (i, j, tok) for i, j, tok, is_int in tokens(kind, text)
        if not is_int and tok != tok.upper()
    ]
    assume(lettered)
    i, j, tok = data.draw(st.sampled_from(lettered))
    with pytest.raises(ParseError):
        read(with_token(text, i, j, tok.upper()))
