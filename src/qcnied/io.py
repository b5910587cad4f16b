"""Line-oriented text formats for matrices, keys and ciphertexts.

All files are UTF-8 with LF endings, lowercase fixed-width hex, and a
version header that is matched exactly; unknown versions are rejected,
never guessed. Serializers are canonical, so write(read(x)) == x byte
for byte.

  QCMAT v1    block-circulant matrix: params `p m1 m2 eta`, modulus hex,
              then one line of p hex tokens per block in row-major grid
              order.
  NIEDQC v1   key files: `private` carries the scrambler rows (bit-packed
              hex, bit j of a row = column j), the column permutation as
              an image list, and the structured blocks; `public` carries
              dense hex rows of H'. Both carry `p m1 m2 eta e`.
  ciphertext  k lines, one hex field element per line, no header.

Every reader refuses a shape without p >= 1 and 1 <= m1 < m2. The key
records are flat, as their files are, so the key readers build no
circulant objects.

The QCREP v1 report format lives in `report`, with the commands that
write it. Each reader and writer imports the layer whose types it
builds, so a command loads only the layers its files need.
"""

from __future__ import annotations

from .errors import ParseError, QcniedError
from .field import FieldCtx

QCMAT_HEADER = "QCMAT v1"
NIEDQC_HEADER = "NIEDQC v1"
_HEX_DIGITS = frozenset("0123456789abcdef")


def _int_token(tok: str, what: str) -> int:
    """A nonnegative integer in canonical form: `0` or ASCII digits
    without a leading zero. No field of these formats is negative."""
    if not (tok.isascii() and tok.isdigit()) or (tok[0] == "0" and tok != "0"):
        raise ParseError(f"bad {what}: {tok!r}")
    return int(tok)


def _parse_params(line: str, n_fields: int, what: str) -> list[int]:
    toks = line.split(" ")
    if len(toks) != n_fields:
        raise ParseError(f"{what}: expected {n_fields} fields, got {len(toks)}")
    return [_int_token(t, what) for t in toks]


def _check_shape(p: int, m1: int, m2: int, what: str) -> None:
    if p < 1 or m1 < 1 or m2 <= m1:
        raise ParseError(f"{what}: bad shape p={p} m1={m1} m2={m2}")


def _ctx_from(eta: int, modulus_hex: str) -> FieldCtx:
    # same lowercase-only discipline as every other token in these formats
    if not modulus_hex or not _HEX_DIGITS.issuperset(modulus_hex):
        raise ParseError(f"bad modulus hex {modulus_hex!r}")
    modulus = int(modulus_hex, 16)
    try:
        return FieldCtx(eta, modulus)
    except QcniedError as exc:
        raise ParseError(f"bad field parameters: {exc}") from exc


def _parse_row(ctx: FieldCtx, line: str, p: int) -> tuple[int, ...]:
    toks = line.split(" ")
    if len(toks) != p:
        raise ParseError(f"block row: expected {p} tokens, got {len(toks)}")
    try:
        return tuple(ctx.parse_hex(t) for t in toks)
    except QcniedError as exc:
        raise ParseError(f"bad block row {line!r}: {exc}") from exc


def _format_row(ctx: FieldCtx, row) -> str:
    return " ".join(ctx.format_hex(a) for a in row)


def _lines(text: str, what: str) -> list[str]:
    if "\r" in text:
        raise ParseError(f"{what}: CR line endings are not accepted")
    if not text.endswith("\n"):
        raise ParseError(f"{what}: missing trailing newline")
    return text[:-1].split("\n")


def write_matrix(c: BlockCirculant) -> str:
    out = [QCMAT_HEADER, f"{c.p} {c.m1} {c.m2} {c.ctx.eta}", format(c.ctx.modulus, "x")]
    out.extend(_format_row(c.ctx, row) for row in c.block_first_rows())
    return "\n".join(out) + "\n"


def read_matrix(text: str) -> BlockCirculant:
    from .circulant import BlockCirculant

    lines = _lines(text, "matrix file")
    if not lines or lines[0] != QCMAT_HEADER:
        raise ParseError(f"matrix file: expected header {QCMAT_HEADER!r}")
    if len(lines) < 3:
        raise ParseError("matrix file: truncated")
    p, m1, m2, eta = _parse_params(lines[1], 4, "matrix params")
    ctx = _ctx_from(eta, lines[2])
    n_blocks = m1 * (m2 - m1)
    body = lines[3:]
    if len(body) != n_blocks:
        raise ParseError(f"matrix file: expected {n_blocks} block rows, got {len(body)}")
    _check_shape(p, m1, m2, "matrix file")
    rows = [_parse_row(ctx, line, p) for line in body]
    try:
        return BlockCirculant.from_rows(ctx, p, m1, m2, rows)
    except QcniedError as exc:
        raise ParseError(f"matrix file: {exc}") from exc


def _unpack_bits(tok: str, width: int) -> int:
    if len(tok) != (width + 3) // 4 or not _HEX_DIGITS.issuperset(tok):
        raise ParseError(f"bad bit-packed row {tok!r}")
    value = int(tok, 16)
    if value >> width:
        raise ParseError(f"bit-packed row {tok!r} wider than {width} bits")
    return value


def _key_params(line: str) -> tuple[int, int, int, int, int]:
    """`p m1 m2 eta e` of a key file; a bad shape or a capacity e above
    n = m2*p is refused."""
    p, m1, m2, eta, e = _parse_params(line, 5, "key params")
    _check_shape(p, m1, m2, "key params")
    if e > m2 * p:
        raise ParseError(f"key params: capacity e = {e} exceeds n = {m2 * p}")
    return p, m1, m2, eta, e


def write_private_key(priv: PrivateKey) -> str:
    out = [NIEDQC_HEADER, "private", f"{priv.p} {priv.m1} {priv.m2} {priv.ctx.eta} {priv.e}",
           format(priv.ctx.modulus, "x")]
    out.extend(format(row, f"0{(priv.k + 3) // 4}x") for row in priv.a0)
    out.append(" ".join(str(i) for i in priv.b0))
    out.extend(_format_row(priv.ctx, row) for row in priv.rows)
    return "\n".join(out) + "\n"


def read_private_key(text: str) -> PrivateKey:
    from .niederreiter import PrivateKey

    lines = _lines(text, "private key")
    if len(lines) < 4 or lines[0] != NIEDQC_HEADER:
        raise ParseError(f"private key: expected header {NIEDQC_HEADER!r}")
    if lines[1] != "private":
        raise ParseError(f"private key: expected kind 'private', got {lines[1]!r}")
    p, m1, m2, eta, e = _key_params(lines[2])
    ctx = _ctx_from(eta, lines[3])
    k, n = m1 * p, m2 * p
    n_blocks = m1 * (m2 - m1)
    expect = 4 + k + 1 + n_blocks
    if len(lines) != expect:
        raise ParseError(f"private key: expected {expect} lines, got {len(lines)}")
    a0 = tuple(_unpack_bits(lines[4 + i], k) for i in range(k))
    b0 = tuple(_parse_params(lines[4 + k], n, "permutation images"))
    rows = tuple(_parse_row(ctx, lines[5 + k + i], p) for i in range(n_blocks))
    try:
        return PrivateKey(a0, rows, b0, p, m1, m2, ctx, e)
    except QcniedError as exc:
        raise ParseError(f"private key: {exc}") from exc


def write_public_key(pub: PublicKey) -> str:
    from .niederreiter import unpack_column

    ctx = pub.ctx
    out = [NIEDQC_HEADER, "public", f"{pub.p} {pub.m1} {pub.m2} {ctx.eta} {pub.e}",
           format(ctx.modulus, "x")]
    columns = [unpack_column(col, pub.k, ctx.eta) for col in pub.hprime]
    out.extend(_format_row(ctx, row) for row in zip(*columns))
    return "\n".join(out) + "\n"


def read_public_key(text: str) -> PublicKey:
    from .niederreiter import PublicKey, pack_column

    lines = _lines(text, "public key")
    if len(lines) < 4 or lines[0] != NIEDQC_HEADER:
        raise ParseError(f"public key: expected header {NIEDQC_HEADER!r}")
    if lines[1] != "public":
        raise ParseError(f"public key: expected kind 'public', got {lines[1]!r}")
    p, m1, m2, eta, e = _key_params(lines[2])
    ctx = _ctx_from(eta, lines[3])
    k, n = m1 * p, m2 * p
    if len(lines) != 4 + k:
        raise ParseError(f"public key: expected {4 + k} lines, got {len(lines)}")
    rows = [_parse_row(ctx, lines[4 + i], n) for i in range(k)]
    hprime = tuple(pack_column(col, eta) for col in zip(*rows))
    return PublicKey(hprime, p, m1, m2, ctx, e)


def write_ciphertext(ctx: FieldCtx, y) -> str:
    return "\n".join(ctx.format_hex(a) for a in y) + "\n"


def read_ciphertext(ctx: FieldCtx, text: str, k: int) -> tuple[int, ...]:
    lines = _lines(text, "ciphertext")
    if len(lines) != k:
        raise ParseError(f"ciphertext: expected {k} lines, got {len(lines)}")
    try:
        return tuple(ctx.parse_hex(line) for line in lines)
    except QcniedError as exc:
        raise ParseError(f"ciphertext: {exc}") from exc

