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

Every reader refuses a bad shape (field.check_shape) before it reads
the lines the shape lays out. The matrix reader parses at most one
block line past the count and leaves the count's refusal to
BlockCirculant; a record's refusal becomes ParseError. A row refusal
names its file and row kind.
The records are flat, as their files are, so the key readers build no
circulant objects.

This module owns the file boundary: `_read`, `_emit` and `_emit_all`
open every file, and `_framed` checks every header. The QCREP v1
report format lives in `report`, with the commands that write it. Each
reader and writer imports the layer whose types it builds, so a command
loads only the layers its files need.
"""

from __future__ import annotations

import os
import sys

from .errors import ParseError, QcniedError, SizeMismatch
from .field import HEX_DIGITS, FieldCtx, check_shape

QCMAT_HEADER = "QCMAT v1"
NIEDQC_HEADER = "NIEDQC v1"


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
    """check_shape, refused as ParseError before the shape lays out the lines."""
    try:
        check_shape(p, m1, m2)
    except SizeMismatch:
        raise ParseError(f"{what}: bad shape p={p} m1={m1} m2={m2}") from None


def _ctx_from(eta: int, modulus_hex: str) -> FieldCtx:
    # lowercase like every other hex token, and canonical: no leading zero
    if not modulus_hex or modulus_hex[0] == "0" or not HEX_DIGITS.issuperset(modulus_hex):
        raise ParseError(f"bad modulus hex {modulus_hex!r}")
    modulus = int(modulus_hex, 16)
    try:
        return FieldCtx(eta, modulus)
    except QcniedError as exc:
        raise ParseError(f"bad field parameters: {exc}") from exc


def _parse_row(ctx: FieldCtx, line: str, p: int, what: str) -> tuple[int, ...]:
    """p hex field elements; what names the file and the row kind."""
    toks = line.split(" ")
    if len(toks) != p:
        raise ParseError(f"{what}: expected {p} tokens, got {len(toks)}")
    try:
        return tuple(ctx.parse_hex(t) for t in toks)
    except QcniedError as exc:
        raise ParseError(f"{what} {line!r}: {exc}") from exc


def _format_row(ctx: FieldCtx, row) -> str:
    return " ".join(ctx.format_hex(a) for a in row)


def _read(path: str) -> str:
    try:
        # newline="" hands CR through to the parsers, which refuse it
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {out}: {exc}") from exc


def _emit_all(outputs) -> None:
    """Write each (text, path) of outputs, or none of them: each text goes
    to a temporary file beside the file it replaces, with that file's
    mode, and the temporary files are renamed into place once all are
    written. A refusal names the path, as _emit's does, and leaves no
    temporary file. A path that exists but is no regular file (a device,
    a directory) is written, or refused, in place by _emit."""
    staged = []
    try:
        for text, path in outputs:
            real = os.path.realpath(path)
            if os.path.exists(real) and not os.path.isfile(real):
                _emit(text, path)
                continue
            tmp = f"{real}.{os.getpid()}.tmp"
            try:
                with open(tmp, "x", encoding="utf-8", newline="") as fh:
                    staged.append((tmp, real))
                    fh.write(text)
                if os.path.isfile(real):
                    os.chmod(tmp, os.stat(real).st_mode)
            except OSError as exc:
                named = OSError(exc.errno, exc.strerror, path)
                raise ParseError(f"cannot write {path}: {named}") from exc
        while staged:
            os.replace(*staged[-1])
            staged.pop()
    finally:
        for tmp, _ in staged:
            os.remove(tmp)


def _int_list(arg: str, what: str) -> list[int]:
    """Comma-separated canonical integers, spaces around an entry allowed;
    an empty entry is refused like any other bad token."""
    return [_int_token(tok.strip(), what) for tok in arg.split(",")]


def _lines(text: str, what: str) -> list[str]:
    if "\r" in text:
        raise ParseError(f"{what}: CR line endings are not accepted")
    if not text.endswith("\n"):
        raise ParseError(f"{what}: missing trailing newline")
    return text[:-1].split("\n")


def _framed(text: str, what: str, header: str, least: int = 1) -> list[str]:
    """The lines of text, refused unless header is the first of at least
    `least` lines."""
    lines = _lines(text, what)
    if len(lines) < least or lines[0] != header:
        raise ParseError(f"{what}: expected header {header!r}")
    return lines


def write_matrix(c: BlockCirculant) -> str:
    out = [QCMAT_HEADER, f"{c.p} {c.m1} {c.m2} {c.ctx.eta}", format(c.ctx.modulus, "x")]
    out.extend(_format_row(c.ctx, row) for row in c.rows)
    return "\n".join(out) + "\n"


def read_matrix(text: str) -> BlockCirculant:
    from .circulant import BlockCirculant

    lines = _framed(text, "matrix file", QCMAT_HEADER)
    if len(lines) < 3:
        raise ParseError("matrix file: truncated")
    p, m1, m2, eta = _parse_params(lines[1], 4, "matrix params")
    _check_shape(p, m1, m2, "matrix file")
    ctx = _ctx_from(eta, lines[2])
    # one line past the block count is enough for BlockCirculant to refuse it
    body = lines[3:4 + m1 * (m2 - m1)]
    rows = [_parse_row(ctx, line, p, "matrix file: block row") for line in body]
    try:
        return BlockCirculant(ctx, p, m1, m2, rows)
    except QcniedError as exc:
        raise ParseError(f"matrix file: {exc}") from exc


def _unpack_bits(tok: str, width: int) -> int:
    if len(tok) != (width + 3) // 4 or not HEX_DIGITS.issuperset(tok):
        raise ParseError(f"bad bit-packed row {tok!r}")
    value = int(tok, 16)
    if value >> width:
        raise ParseError(f"bit-packed row {tok!r} wider than {width} bits")
    return value


def _key_head(key: PrivateKey | PublicKey, kind: str) -> list[str]:
    return [NIEDQC_HEADER, kind, f"{key.p} {key.m1} {key.m2} {key.ctx.eta} {key.e}",
            format(key.ctx.modulus, "x")]


def _read_key_head(text: str, kind: str) -> tuple:
    """The lines of a `kind` key file and its head: `p m1 m2 e` and the
    field. A bad shape or a capacity e above n = m2*p is refused."""
    lines = _framed(text, f"{kind} key", NIEDQC_HEADER, 4)
    if lines[1] != kind:
        raise ParseError(f"{kind} key: expected kind {kind!r}, got {lines[1]!r}")
    p, m1, m2, eta, e = _parse_params(lines[2], 5, "key params")
    _check_shape(p, m1, m2, "key params")
    if e > m2 * p:
        raise ParseError(f"key params: capacity e = {e} exceeds n = {m2 * p}")
    return lines, p, m1, m2, e, _ctx_from(eta, lines[3])


def write_private_key(priv: PrivateKey) -> str:
    out = _key_head(priv, "private")
    out.extend(format(row, f"0{(priv.k + 3) // 4}x") for row in priv.a0)
    out.append(" ".join(str(i) for i in priv.b0))
    out.extend(_format_row(priv.ctx, row) for row in priv.rows)
    return "\n".join(out) + "\n"


def read_private_key(text: str) -> PrivateKey:
    from .niederreiter import PrivateKey

    lines, p, m1, m2, e, ctx = _read_key_head(text, "private")
    k, n = m1 * p, m2 * p
    n_blocks = m1 * (m2 - m1)
    expect = 4 + k + 1 + n_blocks
    if len(lines) != expect:
        raise ParseError(f"private key: expected {expect} lines, got {len(lines)}")
    a0 = tuple(_unpack_bits(lines[4 + i], k) for i in range(k))
    b0 = tuple(_parse_params(lines[4 + k], n, "permutation images"))
    rows = tuple(_parse_row(ctx, lines[5 + k + i], p, "private key: block row")
                 for i in range(n_blocks))
    try:
        return PrivateKey(a0, rows, b0, p, m1, m2, ctx, e)
    except QcniedError as exc:
        raise ParseError(f"private key: {exc}") from exc


def write_public_key(pub: PublicKey) -> str:
    from .niederreiter import unpack_column

    ctx = pub.ctx
    out = _key_head(pub, "public")
    columns = [unpack_column(col, pub.k, ctx.eta) for col in pub.hprime]
    out.extend(_format_row(ctx, row) for row in zip(*columns))
    return "\n".join(out) + "\n"


def read_public_key(text: str) -> PublicKey:
    from .niederreiter import PublicKey, pack_column

    lines, p, m1, m2, e, ctx = _read_key_head(text, "public")
    k, n = m1 * p, m2 * p
    if len(lines) != 4 + k:
        raise ParseError(f"public key: expected {4 + k} lines, got {len(lines)}")
    rows = [_parse_row(ctx, lines[4 + i], n, "public key: H' row") for i in range(k)]
    hprime = tuple(pack_column(col, ctx.eta) for col in zip(*rows))
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

