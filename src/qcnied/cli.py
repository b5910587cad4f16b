"""Command line front end.

Subcommands: validate, search, keygen, encrypt, decrypt, autgroup,
bound, sweep. Exit codes: 0 success, 1 domain failure (a check or
computation legitimately refused), 2 malformed input or usage,
3 invariant-surveillance trip. Outputs are deterministic: identical
inputs and seeds give byte-identical files.

Seeds come from --seed when given, else the QCNIED_SEED environment
variable, else 0.

Each command imports the layers it runs inside its handler, so an
encrypt or decrypt process never loads the condition checks, the
stabilizer search or the bounds.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import io
from .errors import LemmaViolated, ParseError, QcniedError
from .io import _int_token


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
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


def _int_arg(what: str):
    """argparse type for an integer argument: the canonical token rule of
    the file formats, refused as a ParseError (exit 2, one line)."""
    return lambda tok: _int_token(tok, what)


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QCNIED_SEED")
    return 0 if env is None else _int_token(env, "QCNIED_SEED")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def _shape_fields(p: int, m1: int, m2: int, eta: int | None = None):
    fields = [("p", p), ("m1", m1), ("m2", m2)]
    if eta is not None:
        fields.append(("eta", eta))
    return fields


def _threshold(args) -> float:
    from .conditions import VARIANT_RATIO_DEFAULT

    return VARIANT_RATIO_DEFAULT if args.threshold is None else args.threshold


def _cmd_validate(args) -> int:
    from .conditions import validate_all

    c = io.read_matrix(_read(args.matrix))
    rep = validate_all(c, desk_scale=args.desk_scale, ratio_threshold=_threshold(args))
    fields = [("kind", "conditions")]
    fields += _shape_fields(c.p, c.m1, c.m2, c.ctx.eta)
    for name, verdict in rep.items():
        fields.append((f"cond_{name}", verdict.status))
        if not verdict.ok and verdict.witness is not None:
            fields.append((f"witness_{name}", _fmt(verdict.witness)))
    ok = rep.variant_ok() if args.variant else rep.strict_ok()
    fields.append(("ok", _fmt(ok)))
    _emit(io.write_report(fields), args.out)
    return 0 if ok else 1


def _cmd_search(args) -> int:
    from .conditions import sample_compliant, sample_variant

    seed = _seed_of(args)
    sampler = sample_variant if args.variant else sample_compliant
    c = sampler(args.p, args.m1, args.m2, args.eta, seed)
    _emit(io.write_matrix(c), args.out)
    return 0


def _cmd_keygen(args) -> int:
    from .circulant import ParityCheck
    from .niederreiter import keygen

    c = io.read_matrix(_read(args.matrix))
    priv, pub = keygen(ParityCheck(c), _seed_of(args))
    priv_text, pub_text = io.write_private_key(priv), io.write_public_key(pub)
    _emit(priv_text, args.priv)
    try:
        _emit(pub_text, args.pub)
    except ParseError:
        # no private key is left behind without its public key
        if args.priv != "-":
            try:
                os.remove(args.priv)
            except FileNotFoundError:
                pass
        raise
    print(f"e: {pub.e}")
    return 0


def _parse_support(arg: str, n: int) -> tuple[int, ...]:
    if arg == "":
        return ()
    out = []
    for tok in arg.split(","):
        j = _int_token(tok.strip(), "support index")
        if j >= n:
            raise ParseError(f"support index {j} out of range for n = {n}")
        out.append(j)
    if len(set(out)) != len(out):
        raise ParseError("repeated support index")
    return tuple(sorted(out))


def _cmd_encrypt(args) -> int:
    from .field import FieldCtx
    from .niederreiter import encrypt

    pub = io.read_public_key(_read(args.pub))
    x = [0] * pub.n
    for j in _parse_support(args.support, pub.n):
        x[j] = 1
    y = encrypt(pub, x)
    _emit(io.write_ciphertext(FieldCtx(pub.eta, pub.modulus), y), args.out)
    return 0


def _cmd_decrypt(args) -> int:
    from .niederreiter import decrypt

    priv = io.read_private_key(_read(args.priv))
    y = io.read_ciphertext(priv.h.ctx, _read(args.ciphertext), priv.h.k)
    x = decrypt(priv, y)
    support = ",".join(str(j) for j in range(len(x)) if x[j])
    _emit(support + "\n", args.out)
    return 0


def _surveillance(c: "BlockCirculant", g: "AutGroup", threshold: float) -> tuple[str, bool]:
    """Judge the computed group against the structural guarantees.

    Compliant matrices must have |H| <= p^2 and both minimal degrees at
    least p - 1 with the column one no smaller than the row one; variant
    matrices get the weaker |H| <= p^(2 m1) ceiling. A breach means the
    guarantees themselves failed, which is reported as a trip, never
    absorbed.
    """
    from .conditions import validate_all

    rep = validate_all(c, desk_scale=True, ratio_threshold=threshold)
    p = c.p
    if rep.strict_ok():
        if g.order > p * p:
            return f"tripped (order {g.order} > p^2 = {p * p})", True
        if g.min_degree_pi1 < p - 1:
            return (
                f"tripped (row minimal degree {_fmt(g.min_degree_pi1)} < {p - 1})",
                True,
            )
        if g.min_degree_pi2 < g.min_degree_pi1:
            return "tripped (column minimal degree below row minimal degree)", True
        return "clear", False
    if rep.variant_ok():
        ceiling = p ** (2 * c.m1)
        if g.order > ceiling:
            return f"tripped (order {g.order} > p^(2 m1) = {ceiling})", True
        return "clear", False
    return "not-applicable", False


def _cmd_autgroup(args) -> int:
    from .autgroup import EXCEPTIONAL, stab_full, verify_lemma1
    from .circulant import ParityCheck

    c = io.read_matrix(_read(args.matrix))
    g = stab_full(c)
    lem = verify_lemma1(ParityCheck(c), g)
    verdict, tripped = _surveillance(c, g, _threshold(args))
    fields = [("kind", "autgroup")]
    fields += _shape_fields(c.p, c.m1, c.m2, c.ctx.eta)
    fields += [
        ("method", g.method),
        ("order", g.order),
        ("min_degree_rows", _fmt(g.min_degree_pi1)),
        ("min_degree_cols", _fmt(g.min_degree_pi2)),
        ("classification", EXCEPTIONAL if tripped else g.classification),
    ]
    for (i, j), label in sorted(g.block_labels.items()):
        fields.append((f"block_{i}_{j}", label))
    fields.append(("lemma1", "ok" if lem.ok else "premise-failed"))
    fields.append(("lemma1_checked", lem.checked))
    fields.append(("surveillance", verdict))
    _emit(io.write_report(fields, elems=g.elements), args.out)
    return 3 if tripped else 0


def _bound_fields(r) -> list:
    fields = [("kind", "bound"), ("mode", r.mode)]
    if r.p is not None:
        fields += _shape_fields(r.p, r.m1, r.m2)
    fields += [
        ("k", r.k),
        ("n", r.n),
        ("h_order", r.h_order),
        ("ln_g", _fmt(r.log_g)),
        ("ln_s0", _fmt(r.s0_log)),
        ("ln_s1", _fmt(r.s1_log)),
        ("ln_dk", _fmt(r.dk_log)),
        ("ln_group2", _fmt(r.log_group2)),
        ("max_c", r.max_c),
    ]
    return fields


def _group_from_report(path: str) -> "AutGroup":
    from .autgroup import AutGroup

    fields, elems = io.read_report(_read(path))
    if fields.get("kind") != "autgroup":
        raise ParseError(f"{path}: expected an autgroup report")
    try:
        p, m1, m2 = (_int_token(fields[key], key) for key in ("p", "m1", "m2"))
    except KeyError as exc:
        raise ParseError(f"{path}: missing p/m1/m2") from exc
    k, n = m1 * p, m2 * p
    for p1, p2 in elems:
        if p1.n != k or p2.n != n - k:
            raise ParseError(
                f"{path}: element shape {p1.n}/{p2.n}, expected {k}/{n - k}"
            )
    if not elems:
        raise ParseError(f"{path}: report carries no group elements")
    return AutGroup(
        p=p, m1=m1, m2=m2, elements=tuple(elems),
        block_labels={}, method="report",
    )


def _cmd_bound(args) -> int:
    from .distinguish import dk_bound, dk_bound_envelope

    if args.report is not None:
        g = _group_from_report(args.report)
        r = dk_bound(g)
    else:
        if args.p is None:
            raise ParseError("envelope mode needs --p")
        m1 = args.m1 if args.m1 is not None else 1
        m2 = args.m2 if args.m2 is not None else 2
        k = args.k if args.k is not None else m1 * args.p
        n = args.n if args.n is not None else m2 * args.p
        if k > n:
            raise ParseError(f"envelope shape has k = {k} > n = {n}")
        r = dk_bound_envelope(args.p, k, n, m1=m1, m2=m2)
    _emit(io.write_report(_bound_fields(r)), args.out)
    return 0


def _cmd_sweep(args) -> int:
    from .distinguish import dk_bound_envelope

    ps = [_int_token(tok.strip(), "p list entry") for tok in args.p.split(",") if tok != ""]
    if not ps:
        raise ParseError("empty p list")
    if args.m1 > args.m2:
        raise ParseError(f"--m1 {args.m1} > --m2 {args.m2} gives k > n")
    lines = ["p,m1,m2,k,n,h_order,ln_s0,ln_s1,ln_dk,max_c"]
    for p in ps:
        k, n = args.m1 * p, args.m2 * p
        r = dk_bound_envelope(p, k, n, m1=args.m1, m2=args.m2)
        lines.append(
            ",".join(
                [
                    str(p), str(args.m1), str(args.m2), str(k), str(n),
                    str(r.h_order), _fmt(r.s0_log), _fmt(r.s1_log),
                    _fmt(r.dk_log), str(r.max_c),
                ]
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcnied",
        description="Quasi-cyclic code toolkit: condition checks, keys, stabilizers, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check conditions i..v on a matrix file")
    sp.add_argument("matrix")
    sp.add_argument("--desk-scale", action="store_true", help="waive condition v for p <= 30")
    sp.add_argument("--variant", action="store_true", help="judge i', ii, iii, iv', v instead")
    sp.add_argument("--threshold", type=float, default=None,
                    help="ratio ceiling for condition i'")
    sp.add_argument("-o", "--out")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("search", help="sample a condition-compliant matrix")
    sp.add_argument("p", type=_int_arg("p"))
    sp.add_argument("m1", type=_int_arg("m1"))
    sp.add_argument("m2", type=_int_arg("m2"))
    sp.add_argument("eta", type=_int_arg("eta"))
    sp.add_argument("--seed", type=_int_arg("--seed"), default=None)
    sp.add_argument("--variant", action="store_true",
                    help="sample the constant-block regime (i fails, iv' holds)")
    sp.add_argument("-o", "--out")
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("keygen", help="derive a key pair from a matrix file")
    sp.add_argument("matrix")
    sp.add_argument("--seed", type=_int_arg("--seed"), default=None)
    sp.add_argument("--priv", required=True)
    sp.add_argument("--pub", required=True)
    sp.set_defaults(func=_cmd_keygen)

    sp = sub.add_parser("encrypt", help="map a support set through the public matrix")
    sp.add_argument("pub")
    sp.add_argument("--support", required=True,
                    help="comma-separated plaintext support indices; empty for the zero word")
    sp.add_argument("-o", "--out")
    sp.set_defaults(func=_cmd_encrypt)

    sp = sub.add_parser("decrypt", help="recover the plaintext support from a ciphertext")
    sp.add_argument("priv")
    sp.add_argument("ciphertext")
    sp.add_argument("-o", "--out")
    sp.set_defaults(func=_cmd_decrypt)

    sp = sub.add_parser("autgroup", help="compute the stabilizer group of a matrix file")
    sp.add_argument("matrix")
    sp.add_argument("--threshold", type=float, default=None,
                    help="ratio ceiling for condition i' in the surveillance gate")
    sp.add_argument("-o", "--out")
    sp.set_defaults(func=_cmd_autgroup)

    sp = sub.add_parser("bound", help="distinguishability bound, exact or envelope")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--report", help="autgroup report to bound exactly")
    mode.add_argument("--envelope", action="store_true", help="worst-case envelope bound")
    sp.add_argument("--p", type=_int_arg("--p"))
    sp.add_argument("--m1", type=_int_arg("--m1"))
    sp.add_argument("--m2", type=_int_arg("--m2"))
    sp.add_argument("--k", type=_int_arg("--k"))
    sp.add_argument("--n", type=_int_arg("--n"))
    sp.add_argument("-o", "--out")
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("sweep", help="envelope bounds over a list of p, as CSV")
    sp.add_argument("--p", required=True, help="comma-separated primes")
    sp.add_argument("--m1", type=_int_arg("--m1"), default=1)
    sp.add_argument("--m2", type=_int_arg("--m2"), default=2)
    sp.add_argument("-o", "--out")
    sp.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()  # built once per process, however often main runs


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LemmaViolated, AssertionError) as exc:
        print(f"surveillance: {exc}", file=sys.stderr)
        return 3
    except QcniedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
