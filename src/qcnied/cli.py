"""Command line front end.

Subcommands: validate, search, keygen, encrypt, decrypt, autgroup,
bound, sweep. Exit codes: 0 success, 1 domain failure (a check or
computation legitimately refused), 2 malformed input or usage,
3 invariant-surveillance trip. Outputs are deterministic: identical
inputs and seeds give byte-identical files.

Seeds come from --seed when given, else 0.

`COMMANDS` is the whole command surface: each command's one-line help,
the name of its handler and its argument specs. `parse` reads an
argument list against it and `render_help` prints it. The handlers of
validate, autgroup, bound and sweep live in `report` with the report
format. Every handler reads and writes files through `io`, and no
module imports this one. Each handler imports the layers it runs, so
each command loads only those: a keygen, encrypt or decrypt process
loads neither the report code nor the condition checks, the stabilizer
search or the bounds, and no analysis command loads the key layer.
"""

from __future__ import annotations

import math
import os
import sys

from . import io
from .errors import ParseError, QcniedError
from .io import _emit, _int_list, _int_token, _read

# argument kinds
STR = "string"           # any string, may be omitted
REQUIRED = "required"    # a string that must be given
FLAG = "flag"            # present or absent, takes no value
INT = "int"              # a canonical nonnegative integer (io._int_token)
THRESHOLD = "threshold"  # a finite, positive decimal such as 0.5

_OUT = ("--out", STR, "file to write; stdout when omitted or '-'")
_SEED = ("--seed", INT, "seed; else 0")
_SHORT = {"-o": "--out"}
_HELP = ("-h", "--help")

# command -> (one-line help, handler name, argument specs); a spec is
# (name, kind, help), and a name without leading dashes is a positional.
# A `report.` handler lives in the report module, loaded only to run it.
COMMANDS = {
    "validate": ("check conditions i..v on a matrix file", "report._cmd_validate", (
        ("matrix", STR, "matrix file"),
        ("--desk-scale", FLAG, "waive condition v for p <= 30"),
        ("--variant", FLAG, "judge i', ii, iii, iv', v instead"),
        ("--threshold", THRESHOLD, "ratio ceiling for condition i', a positive decimal"),
        _OUT,
    )),
    "search": ("sample a condition-compliant matrix", "_cmd_search", (
        ("p", INT, "circulant size, a prime"),
        ("m1", INT, "block rows"),
        ("m2", INT, "block columns, identity part included"),
        ("eta", INT, "field degree: elements of GF(2^eta)"),
        _SEED,
        ("--variant", FLAG, "sample the constant-block regime (i fails, iv' holds)"),
        _OUT,
    )),
    "keygen": ("derive a key pair from a matrix file", "_cmd_keygen", (
        ("matrix", STR, "matrix file"),
        _SEED,
        ("--priv", REQUIRED, "private key file to write"),
        ("--pub", REQUIRED, "public key file to write"),
    )),
    "encrypt": ("map a support set through the public matrix", "_cmd_encrypt", (
        ("pub", STR, "public key file"),
        ("--support", REQUIRED, "comma-separated support indices; empty for the zero word"),
        _OUT,
    )),
    "decrypt": ("recover the plaintext support from a ciphertext", "_cmd_decrypt", (
        ("priv", STR, "private key file"),
        ("ciphertext", STR, "ciphertext file"),
        _OUT,
    )),
    "autgroup": ("compute the stabilizer group of a matrix file", "report._cmd_autgroup", (
        ("matrix", STR, "matrix file"),
        ("--threshold", THRESHOLD, "condition i' ratio ceiling for the surveillance gate"),
        _OUT,
    )),
    "bound": ("distinguishability bound: exact (--report) or envelope (--envelope)",
              "report._cmd_bound", (
        ("--report", STR, "autgroup report to bound exactly"),
        ("--envelope", FLAG, "worst-case envelope bound"),
        ("--p", INT, "envelope circulant size"),
        ("--m1", INT, "envelope block rows (default 1)"),
        ("--m2", INT, "envelope block columns (default 2)"),
        _OUT,
    )),
    "sweep": ("envelope bounds over a list of p, as CSV", "report._cmd_sweep", (
        ("--p", REQUIRED, "comma-separated primes"),
        ("--m1", INT, "block rows (default 1)"),
        ("--m2", INT, "block columns (default 2)"),
        _OUT,
    )),
}


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _is_option(tok: str) -> bool:
    # `-` is a value (stdout), and so is a negative number, which the
    # integer kinds then refuse with their own message
    return tok.startswith("-") and tok != "-" and not tok[1:2].isdigit()


def _convert(name: str, kind: str, value: str):
    if kind == INT:
        return _int_token(value, name)
    if kind == THRESHOLD:
        whole, dot, frac = value.partition(".")
        if (whole + frac).isascii() and whole.isdigit() and (frac.isdigit() or not dot):
            number = float(value)
            if 0 < number < math.inf:
                return number
        raise ParseError(f"bad {name}: {value!r} (a finite positive decimal)")
    return value


def parse(argv) -> tuple[str, dict]:
    """Read an argument list against COMMANDS: (handler name, keyword
    arguments). Only the arguments given are returned; the handler's own
    defaults fill in the rest. `-h`/`--help` anywhere before `--` returns
    the help handler; every other malformed form raises ParseError."""
    argv = list(argv)
    if not argv:
        raise ParseError("no command given; see qcnied --help")
    command, rest = argv[0], argv[1:]
    if command in _HELP:
        return "_cmd_help", {}
    if command not in COMMANDS:
        raise ParseError(f"unknown command {command!r}; see qcnied --help")
    _, handler, specs = COMMANDS[command]
    if any(tok in _HELP for tok in rest[:rest.index("--") if "--" in rest else len(rest)]):
        return "_cmd_help", {"command": command}
    options = {name: kind for name, kind, _ in specs if name.startswith("-")}
    positionals = [(name, kind) for name, kind, _ in specs if not name.startswith("-")]
    args, words = {}, []
    tokens = iter(rest)
    for tok in tokens:
        if tok == "--":
            words.extend(tokens)
        elif not _is_option(tok):
            words.append(tok)
        else:
            given, eq, value = tok.partition("=")
            name = _SHORT.get(given, given)
            if name not in options:
                raise ParseError(f"{command}: unknown option {given!r}")
            kind = options[name]
            if _dest(name) in args:
                raise ParseError(f"{command}: {name} given twice")
            if kind == FLAG:
                if eq:
                    raise ParseError(f"{command}: {name} takes no value")
                args[_dest(name)] = True
                continue
            if not eq:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    raise ParseError(f"{command}: {name} needs a value")
            args[_dest(name)] = _convert(name, kind, value)
    if len(words) > len(positionals):
        raise ParseError(f"{command}: unexpected argument {words[len(positionals)]!r}")
    if len(words) < len(positionals):
        raise ParseError(f"{command}: missing argument {positionals[len(words)][0]}")
    for (name, kind), word in zip(positionals, words):
        args[name] = _convert(name, kind, word)
    for name, kind in options.items():
        if kind == REQUIRED and _dest(name) not in args:
            raise ParseError(f"{command}: {name} is required")
    return handler, args


def _flags(name: str, kind: str) -> str:
    if not name.startswith("-"):
        return name
    short = "".join(f"{s}, " for s, full in _SHORT.items() if full == name)
    return short + name + ("" if kind == FLAG else " " + _dest(name).upper())


def render_help(command: str | None = None) -> str:
    if command is None:
        width = max(map(len, COMMANDS))
        lines = ["usage: qcnied <command> [arguments]", "",
                 "Quasi-cyclic code toolkit: condition checks, keys, stabilizers, bounds.", "",
                 "commands:"]
        lines += [f"  {name:<{width}}  {summary}" for name, (summary, _, _) in COMMANDS.items()]
        lines += ["", "`qcnied <command> --help` lists a command's arguments. Options go before",
                  "or after positionals, as `--name value` or `--name=value`; `--` ends them."]
        return "\n".join(lines) + "\n"
    summary, _, specs = COMMANDS[command]
    usage = [name for name, _, _ in specs if not name.startswith("-")]
    usage += [_flags(name, kind) for name, kind, _ in specs if kind == REQUIRED]
    rows = [(_flags(name, kind), text) for name, kind, text in specs]
    rows.append(("-h, --help", "show this help"))
    width = max(len(left) for left, _ in rows)
    lines = [f"usage: qcnied {command} {' '.join(usage + ['[options]'])}", "", summary, "",
             "arguments:"]
    lines += [f"  {left:<{width}}  {text}" for left, text in rows]
    return "\n".join(lines) + "\n"


def _cmd_help(command: str | None = None) -> int:
    sys.stdout.write(render_help(command))
    return 0


def _cmd_search(p, m1, m2, eta, seed=0, variant=False, out=None) -> int:
    from .conditions import sample_compliant, sample_variant

    sampler = sample_variant if variant else sample_compliant
    c = sampler(p, m1, m2, eta, seed)
    _emit(io.write_matrix(c), out)
    return 0


def _cmd_keygen(matrix, priv, pub, seed=0) -> int:
    from .niederreiter import keygen

    # stdout carries the `e:` line, and one path would hold only the public key
    if "-" in (priv, pub):
        raise ParseError("keygen: --priv and --pub must name files, not stdout")
    if os.path.realpath(priv) == os.path.realpath(pub) or (
            os.path.exists(priv) and os.path.exists(pub) and os.path.samefile(priv, pub)):
        raise ParseError(f"keygen: --priv and --pub name the same file {pub!r}")
    c = io.read_matrix(_read(matrix))
    sk, pk = keygen(c, seed)
    io._emit_all(((io.write_public_key(pk), pub), (io.write_private_key(sk), priv)))
    print(f"e: {pk.e}")
    return 0


def _parse_support(arg: str, n: int) -> tuple[int, ...]:
    out = _int_list(arg, "support index") if arg else []
    for j in out:
        if j >= n:
            raise ParseError(f"support index {j} out of range for n = {n}")
    if len(set(out)) != len(out):
        raise ParseError("repeated support index")
    return tuple(sorted(out))


def _cmd_encrypt(pub, support, out=None) -> int:
    from .niederreiter import encrypt

    pk = io.read_public_key(_read(pub))
    x = [0] * pk.n
    for j in _parse_support(support, pk.n):
        x[j] = 1
    y = encrypt(pk, x)
    _emit(io.write_ciphertext(pk.ctx, y), out)
    return 0


def _cmd_decrypt(priv, ciphertext, out=None) -> int:
    from .niederreiter import decrypt

    sk = io.read_private_key(_read(priv))
    y = io.read_ciphertext(sk.ctx, _read(ciphertext), sk.k)
    x = decrypt(sk, y)
    support = ",".join(str(j) for j in range(len(x)) if x[j])
    _emit(support + "\n", out)
    return 0


def _handler(name: str):
    if name.startswith("report."):
        from . import report

        return getattr(report, name[len("report."):])
    return globals()[name]


def main(argv=None) -> int:
    try:
        handler, args = parse(sys.argv[1:] if argv is None else argv)
        return _handler(handler)(**args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"surveillance: {exc}", file=sys.stderr)
        return 3
    except QcniedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    # io refuses every decimal token over MAX_DIGITS before int(), so a
    # message may print the integers worked out from them at any size
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
