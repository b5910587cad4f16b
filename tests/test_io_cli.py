"""File formats and the command line driver."""

import ast
import inspect
import os
import re
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import pytest

from qcnied import cli, conditions, io, niederreiter, report
from qcnied.circulant import BlockCirculant
from qcnied.cli import main
from qcnied.conditions import ConditionReport, Verdict, sample_compliant, sample_variant
from qcnied.distinguish import dk_bound
from qcnied.errors import ParseError
from qcnied.field import FieldCtx
from qcnied.niederreiter import encrypt, keygen, unpack_column
from qcnied.perm import inverse
from qcnied.autgroup import AutGroup, stab_full

from test_autgroup import FANO_ROW
from test_paper_p import AUDIT, audit_run


@pytest.fixture
def c512():
    return sample_compliant(5, 1, 2, 2, seed=3)


def keypair(c, seed=9):
    return keygen(c, seed)


# ---------------------------------------------------------------- formats


def test_matrix_roundtrip_custom_modulus():
    # x^3 + x^2 + 1, not the default modulus for eta = 3
    ctx = FieldCtx(3, 0b1101)
    c = BlockCirculant(ctx, 5, 1, 2, [(1, 2, 3, 4, 5)])
    text = io.write_matrix(c)
    assert text.splitlines()[2] == "d"
    back = io.read_matrix(text)
    assert back.ctx == ctx
    assert back.rows == c.rows
    assert io.write_matrix(back) == text


def test_matrix_rejections(c512):
    good = io.write_matrix(c512)
    bad = [
        good.replace("QCMAT v1", "QCMAT v2"),
        good.replace("\n", "\r\n"),
        good[:-1],
        good + "0 0 0 0 0\n",
        good.replace("5 1 2 2", "5 1 2"),
        good.replace("5 1 2 2", "5 2 1 2"),
        good.replace("5 1 2 2", "0 1 2 2"),
        good.replace("5 1 2 2", "05 1 2 2"),            # leading zero
        good.replace("5 1 2 2", "+5 1 2 2"),
    ]
    for text in bad:
        with pytest.raises(ParseError):
            io.read_matrix(text)
    with pytest.raises(ParseError):
        io.read_matrix("QCMAT v1\n")
    # the shape is refused before the block lines are counted
    for params in ("5 2 1 2", "5 1 1 2", "5 0 2 2", "0 1 2 2"):
        with pytest.raises(ParseError, match="bad shape"):
            io.read_matrix(good.replace("5 1 2 2", params))


def test_matrix_reader_parses_one_block_line_past_the_count(monkeypatch):
    # a (5,1,2,2) text with 200,001 block lines: the reader parses the one
    # block line the shape lays out and one more, and the constructor
    # refuses the count
    calls = []
    real = io._parse_row
    monkeypatch.setattr(io, "_parse_row", lambda *args: calls.append(args) or real(*args))
    text = "QCMAT v1\n5 1 2 2\n7\n" + "0 1 2 3 1\n" * 200_001
    with pytest.raises(ParseError, match="matrix file: expected 1 block rows of 5 entries"):
        io.read_matrix(text)
    assert len(calls) == 2


def test_matrix_rejects_bad_tokens():
    ctx = FieldCtx(4)
    c = BlockCirculant(ctx, 5, 1, 2, [(1, 10, 3, 2, 5)])
    good = io.write_matrix(c)
    assert " a " in good.splitlines()[3] + " "
    for tampered in (
        good.replace(" a ", " A "),       # uppercase digit
        good.replace(" a ", " 10 "),      # extra token
        good.replace("13\n", "1G\n"),     # bad modulus hex
        good.replace("13\n", "D\n"),      # uppercase modulus
    ):
        with pytest.raises(ParseError):
            io.read_matrix(tampered)
    # out of range for eta = 2 even though the digit itself is valid hex
    ctx2 = FieldCtx(2)
    c2 = BlockCirculant(ctx2, 5, 1, 2, [(1, 2, 3, 0, 1)])
    with pytest.raises(ParseError):
        io.read_matrix(io.write_matrix(c2).replace("1 2 3 0 1", "1 2 7 0 1"))


def test_private_key_roundtrip(c512):
    priv, _pub = keypair(c512)
    text = io.write_private_key(priv)
    back = io.read_private_key(text)
    assert back.e == priv.e
    assert back.a0 == priv.a0 and back.a0inv == priv.a0inv
    assert back.b0 == priv.b0
    assert back.rows == c512.rows
    assert back == priv
    assert io.write_private_key(back) == text


def test_private_key_rejections(c512, tmp_path):
    priv, _pub = keypair(c512)
    good = io.write_private_key(priv)
    lines = good[:-1].split("\n")
    images = lines[9].split(" ")
    dup = list(images)
    dup[0] = dup[1]

    def with_line(i, line):
        return "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n"

    # k = 5, so each A0 row is exactly two lowercase hex digits
    row = lines[5]
    assert row == "13" and io.read_private_key(with_line(5, row)).a0[1] == 0x13
    cases = [
        "\n".join(["NIEDQC v2"] + lines[1:]) + "\n",
        "\n".join([lines[0], "public"] + lines[2:]) + "\n",
        "\n".join(lines[:-1]) + "\n",                     # short one line
        good + lines[-1] + "\n",                          # long one line
        with_line(9, " ".join(dup)),
        with_line(4, "0E"),                               # uppercase hex
        with_line(5, "0x13"),                             # prefix
        with_line(5, " 13"),                              # leading space
        with_line(5, "1_3"),                              # separator
        with_line(5, "013"),                              # extra width
        with_line(5, "3"),                                # short width
        with_line(5, "20"),                               # bit 5 of a 5-bit row
        with_line(2, "\u0665 1 2 2 4"),                    # Arabic-Indic five
        with_line(2, "5 1 2 2 \uff14"),                    # fullwidth four
        with_line(2, "5 1 2 2 --4"),
    ]
    for text in cases:
        with pytest.raises(ParseError):
            io.read_private_key(text)

    # a singular A0 is refused when the key loads: ParseError, exit 2
    singular = "\n".join(lines[:4] + ["00"] * 5 + lines[9:]) + "\n"
    with pytest.raises(ParseError, match="singular"):
        io.read_private_key(singular)
    sk, ct = tmp_path / "sk", tmp_path / "ct"
    sk.write_text(singular)
    ct.write_text("0\n" * 5)
    assert main(["decrypt", str(sk), str(ct)]) == 2


def test_key_readers_refuse_degenerate_shapes(tmp_path, capsys):
    # p = 0 (so k = n = 0), m1 > m2 and m1 = m2, refused as read_matrix
    # refuses them, before encrypt would write an empty or bogus ciphertext
    pk = tmp_path / "pk"
    for params, rows in (("0 1 2 2 0", []), ("1 2 1 2 0", ["0", "0"]), ("1 1 1 2 0", ["0"])):
        text = "\n".join(["NIEDQC v1", "public", params, "7"] + rows) + "\n"
        with pytest.raises(ParseError, match="bad shape"):
            io.read_public_key(text)
        pk.write_text(text)
        capsys.readouterr()
        assert main(["encrypt", str(pk), "--support", ""]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        private = "\n".join(["NIEDQC v1", "private", params, "7"] + rows + ["0"]) + "\n"
        with pytest.raises(ParseError, match="bad shape"):
            io.read_private_key(private)


def test_key_capacity_is_a_count_at_most_n(c512, tmp_path):
    priv, pub = keypair(c512)
    assert (priv.e, pub.n) == (4, 10)
    for good, read in ((io.write_private_key(priv), io.read_private_key),
                       (io.write_public_key(pub), io.read_public_key)):
        assert "\n5 1 2 2 4\n" in good
        assert read(good.replace("\n5 1 2 2 4\n", "\n5 1 2 2 10\n")).e == 10
        for e in ("-1", "11", "04"):
            with pytest.raises(ParseError):
                read(good.replace("\n5 1 2 2 4\n", f"\n5 1 2 2 {e}\n"))
    pk = tmp_path / "pk"
    pk.write_text(io.write_public_key(pub).replace("\n5 1 2 2 4\n", "\n5 1 2 2 -1\n"))
    assert main(["encrypt", str(pk), "--support", ""]) == 2


def test_public_key_roundtrip_custom_modulus():
    ctx = FieldCtx(3, 0b1101)
    c = BlockCirculant(ctx, 5, 1, 2, [(1, 2, 3, 4, 5)])
    _priv, pub = keypair(c)
    text = io.write_public_key(pub)
    back = io.read_public_key(text)
    assert back.ctx == ctx and back.ctx.modulus == 0b1101
    assert back == pub
    assert io.write_public_key(back) == text


def test_ciphertext_roundtrip(c512):
    _priv, pub = keypair(c512)
    ctx = pub.ctx
    y = encrypt(pub, [1, 0, 0, 1] + [0] * 6)
    text = io.write_ciphertext(ctx, y)
    assert io.read_ciphertext(ctx, text, pub.k) == tuple(y)
    with pytest.raises(ParseError):
        io.read_ciphertext(ctx, text, pub.k + 1)
    with pytest.raises(ParseError):
        io.read_ciphertext(ctx, "x" + text[1:], pub.k)


def test_report_roundtrip():
    fields = [("kind", "autgroup"), ("p", 5), ("order", 25)]
    elems = [((1, 2, 0), (0, 1, 2, 3))]
    text = report.write_report(fields, elems)
    back_fields, back_elems = report.read_report(text)
    assert back_fields == {"kind": "autgroup", "p": "5", "order": "25"}
    assert back_elems == elems
    assert report.write_report(back_fields.items(), back_elems) == text
    assert report.read_report(report.write_report(fields))[1] == []


def test_report_rejections():
    with pytest.raises(ParseError):
        report.read_report("QCREP v2\nkind: x\n")
    with pytest.raises(ParseError):
        report.read_report("QCREP v1\nno-separator\n")
    with pytest.raises(ParseError):
        report.read_report("QCREP v1\nelem: 0 1 2\n")
    with pytest.raises(ParseError):
        report.read_report("QCREP v1\nelem: 0 1 | 1 1\n")


# -------------------------------------------------------------------- cli


# Argument lists of the README, the demos and perfbench/workloads.py (a
# double space is an empty argument), with the values each handler was
# called with under the argparse front end the command table replaced.
PARENT_FORMS = [
    ("search 5 1 2 2 --seed 3 -o m.qcm",
     {"p": 5, "m1": 1, "m2": 2, "eta": 2, "seed": 3, "variant": False, "out": "m.qcm"}),
    ("search 5 2 4 2 --variant --seed 17 -o m.qcm",
     {"p": 5, "m1": 2, "m2": 4, "eta": 2, "seed": 17, "variant": True, "out": "m.qcm"}),
    ("search 5 2 4 2 --seed 17 --variant -o m.qcm",
     {"p": 5, "m1": 2, "m2": 4, "eta": 2, "seed": 17, "variant": True, "out": "m.qcm"}),
    ("validate m.qcm --desk-scale",
     {"matrix": "m.qcm", "desk_scale": True, "variant": False, "threshold": None, "out": None}),
    ("validate m.qcm --desk-scale -o v.qcr",
     {"matrix": "m.qcm", "desk_scale": True, "variant": False, "threshold": None,
      "out": "v.qcr"}),
    ("validate m.qcm --desk-scale --variant --threshold 0.5 -o v.qcr",
     {"matrix": "m.qcm", "desk_scale": True, "variant": True, "threshold": 0.5,
      "out": "v.qcr"}),
    ("validate m.qcm --desk-scale --variant -o -",
     {"matrix": "m.qcm", "desk_scale": True, "variant": True, "threshold": None, "out": "-"}),
    ("validate --desk-scale m.qcm --out=v.qcr",
     {"matrix": "m.qcm", "desk_scale": True, "variant": False, "threshold": None,
      "out": "v.qcr"}),
    ("keygen m.qcm --seed 9 --priv sk --pub pk",
     {"matrix": "m.qcm", "seed": 9, "priv": "sk", "pub": "pk"}),
    ("keygen --priv sk m.qcm --pub=pk",
     {"matrix": "m.qcm", "seed": 0, "priv": "sk", "pub": "pk"}),
    ("encrypt pk --support 0,3 -o ct", {"pub": "pk", "support": "0,3", "out": "ct"}),
    ("encrypt pk --support  -o ct", {"pub": "pk", "support": "", "out": "ct"}),
    ("encrypt pk --support= --out=ct", {"pub": "pk", "support": "", "out": "ct"}),
    ("encrypt --support 0,3 pk", {"pub": "pk", "support": "0,3", "out": None}),
    ("decrypt sk ct", {"priv": "sk", "ciphertext": "ct", "out": None}),
    ("decrypt sk ct -o -", {"priv": "sk", "ciphertext": "ct", "out": "-"}),
    ("decrypt -o out -- sk ct", {"priv": "sk", "ciphertext": "ct", "out": "out"}),
    ("decrypt -- sk -", {"priv": "sk", "ciphertext": "-", "out": None}),
    ("autgroup m.qcm -o g.qcr", {"matrix": "m.qcm", "threshold": None, "out": "g.qcr"}),
    ("autgroup m.qcm --threshold 0.5 -o g.qcr",
     {"matrix": "m.qcm", "threshold": 0.5, "out": "g.qcr"}),
    ("bound --report g.qcr",
     {"report": "g.qcr", "envelope": False, "p": None, "m1": None, "m2": None, "out": None}),
    ("bound --report g.qcr -o b.qcr",
     {"report": "g.qcr", "envelope": False, "p": None, "m1": None, "m2": None, "out": "b.qcr"}),
    ("bound --envelope --p 31",
     {"report": None, "envelope": True, "p": 31, "m1": None, "m2": None, "out": None}),
    ("bound --envelope --p 31 -o env.qcr",
     {"report": None, "envelope": True, "p": 31, "m1": None, "m2": None, "out": "env.qcr"}),
    ("sweep --p 7,11,13,17,23,31 -o sweep.csv",
     {"p": "7,11,13,17,23,31", "m1": 1, "m2": 2, "out": "sweep.csv"}),
    ("sweep --p 31,61,101 -o sweep.csv",
     {"p": "31,61,101", "m1": 1, "m2": 2, "out": "sweep.csv"}),
    ("sweep --p 7,31 --m1 2 --m2 3", {"p": "7,31", "m1": 2, "m2": 3, "out": None}),
]


MALFORMED_FORMS = [
    "",                                                  # no command
    "frobnicate",
    "--seed 3",
    "keygen m.qcm --pri sk --pub pk",                    # prefix abbreviation
    "keygen m.qcm --priv sk",                            # required option missing
    "keygen m.qcm --priv sk --pub pk -o x",              # option of another command
    "sweep",
    "encrypt pk --support",                              # missing value
    "encrypt pk --support -o ct",
    "decrypt sk",                                        # missing positional
    "decrypt sk ct extra",                               # extra positional
    "decrypt sk ct -oout",                               # no attached short values
    "search 5 1 2 2 --seed 1 --seed 2",                  # repeated option
    "decrypt sk ct -o a --out b",
    "validate m.qcm --desk-scale=yes",                   # a flag takes no value
    "bound --report g.qcr --envelope",                   # both modes
    "bound",                                             # neither mode
    "bound --p 31",
    "bound --envelope --p 5 --k 9",                      # k and n follow from the shape
    "bound --report g.qcr --p 7 --m1 3 --m2 9",          # a report carries its shape
]


def test_cli_parser_table(tmp_path, monkeypatch, capsys):
    """Every documented form reaches its handler with the values argparse
    gave it; every malformed form exits 2 with one error line, before any
    file is touched."""
    for form, values in PARENT_FORMS:
        argv = form.split(" ")
        handler, args = cli.parse(argv)
        assert handler.rpartition(".")[2] == f"_cmd_{argv[0]}", form
        real = cli._handler(handler)
        seen = []
        home = report if handler.startswith("report.") else cli
        with monkeypatch.context() as patch:
            patch.setattr(home, real.__name__, lambda **kw: seen.append(kw) or 0)
            assert main(argv) == 0, form
        call = inspect.signature(real).bind(**seen[0])
        call.apply_defaults()
        assert call.arguments == values, form
    monkeypatch.chdir(tmp_path)
    for form in MALFORMED_FORMS:
        assert refused(capsys, form.split(" ") if form else []), form
    assert list(tmp_path.iterdir()) == []


def test_cli_help_from_the_table(capsys):
    assert main(["--help"]) == 0
    top = capsys.readouterr().out
    assert all(f"\n  {name} " in top for name in cli.COMMANDS)
    for argv in (["decrypt", "-h"], ["decrypt", "sk", "--help"], ["decrypt", "-o", "x", "-h"]):
        assert main(argv) == 0
        assert capsys.readouterr().out == cli.render_help("decrypt")
    # after `--` every argument is a positional, `-h` included
    assert cli.parse(["decrypt", "--", "-h", "ct"]) == (
        "_cmd_decrypt", {"priv": "-h", "ciphertext": "ct"})


def test_cli_entry_exits_with_main_code(monkeypatch, capsys):
    # the [project.scripts] target reads sys.argv and exits with main's code
    for argv, code in ((["--help"], 0), (["frobnicate"], 2),
                       (["bound", "--envelope", "--p", "4"], 1)):
        monkeypatch.setattr(sys, "argv", ["qcnied", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == code, argv
    out, err = capsys.readouterr()
    assert out.startswith("usage: qcnied")
    assert err.count("\n") == 2 and err.startswith("error: ")


def refused(capsys, argv) -> bool:
    """main exits 2 with a single stderr line (and so no traceback)."""
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    return code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_cli_usage_errors(tmp_path):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["validate", str(tmp_path / "missing.qcm")]) == 2


def test_cli_non_utf8_input_refused(tmp_path, capsys, c512):
    mat, priv_p, pub_p, ct = (tmp_path / n for n in ("m.qcm", "sk", "pk", "ct"))
    mat.write_text(io.write_matrix(c512))
    assert main(["keygen", str(mat), "--priv", str(priv_p), "--pub", str(pub_p)]) == 0
    assert main(["encrypt", str(pub_p), "--support", "0", "-o", str(ct)]) == 0
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff" + mat.read_bytes())
    for argv in (
        ["validate", bad],
        ["keygen", bad, "--priv", tmp_path / "sk2", "--pub", tmp_path / "pk2"],
        ["encrypt", bad, "--support", "0"],
        ["decrypt", bad, ct],
        ["decrypt", priv_p, bad],
        ["autgroup", bad],
        ["bound", "--report", bad],
    ):
        assert refused(capsys, [str(a) for a in argv]), argv


def test_cli_crlf_input_refused(tmp_path, capsys, c512):
    mat, priv_p, pub_p, ct, rep = (tmp_path / n for n in ("m.qcm", "sk", "pk", "ct", "g.qcr"))
    mat.write_text(io.write_matrix(c512))
    assert main(["keygen", str(mat), "--priv", str(priv_p), "--pub", str(pub_p)]) == 0
    assert main(["encrypt", str(pub_p), "--support", "0", "-o", str(ct)]) == 0
    assert main(["autgroup", str(mat), "-o", str(rep)]) == 0

    def crlf(path):
        bad = tmp_path / f"crlf-{path.name}"
        bad.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        return str(bad)

    for argv in (
        ["validate", crlf(mat), "--desk-scale"],
        ["decrypt", crlf(priv_p), str(ct)],
        ["encrypt", crlf(pub_p), "--support", "0"],
        ["decrypt", str(priv_p), crlf(ct)],
        ["bound", "--report", crlf(rep)],
    ):
        assert refused(capsys, argv), argv


def test_cli_threshold_is_a_finite_positive_decimal(tmp_path, capsys, c512):
    mat = tmp_path / "m.qcm"
    mat.write_text(io.write_matrix(c512))
    for value in ("nan", "inf", "-inf", "1e400", "0", "-1", "0x1", "0.0", "+0.5", " 0.5",
                  ".5", "5.", "1_0", "\u0660.\u0665", "9" * 400):
        for command in ("validate", "autgroup"):
            assert refused(capsys, [command, str(mat), "--threshold", value]), value
    assert main(["validate", str(mat), "--desk-scale", "--variant", "--threshold", "0.5"]) == 0
    assert main(["validate", str(mat), "--desk-scale", "--variant", "--threshold", "1"]) == 0
    assert cli.parse(["autgroup", "m", "--threshold", "0.25"])[1]["threshold"] == 0.25


def test_cli_unwritable_output_refused(tmp_path, capsys, c512):
    mat, missing = tmp_path / "m.qcm", tmp_path / "missing"
    mat.write_text(io.write_matrix(c512))
    assert refused(capsys, ["search", "5", "1", "2", "2", "-o", str(missing / "x")])
    assert refused(capsys, ["keygen", str(mat), "--priv", str(missing / "sk"),
                            "--pub", str(tmp_path / "pk")])
    assert refused(capsys, ["keygen", str(mat), "--priv", str(tmp_path / "sk"),
                            "--pub", str(missing / "pk")])
    # both keys are staged and renamed together, so a refused public key
    # leaves no private key
    assert not (tmp_path / "sk").exists()


def test_cli_keygen_refused_keeps_an_existing_private_key(tmp_path, capsys, c512):
    mat, missing = tmp_path / "m.qcm", tmp_path / "missing"
    sk, pk = tmp_path / "sk", tmp_path / "pk"
    mat.write_text(io.write_matrix(c512))
    sk.write_bytes(b"OLD KEY\n")
    assert refused(capsys, ["keygen", str(mat), "--priv", str(sk), "--pub", str(missing / "pk")])
    assert sk.read_bytes() == b"OLD KEY\n"
    # the staged public key is removed with its private key refused
    assert refused(capsys, ["keygen", str(mat), "--priv", str(missing / "sk"), "--pub", str(pk)])
    assert not pk.exists()


def test_cli_keygen_key_relation_trip_exits_3(tmp_path, monkeypatch, capsys, c512):
    # a wrong A0^-1 breaks the key relation keygen checks before it
    # writes: the surveillance exit with one stderr line, no key file
    # created and existing ones kept byte for byte
    mat, sk, pk = tmp_path / "m.qcm", tmp_path / "sk", tmp_path / "pk"
    mat.write_text(io.write_matrix(c512))
    monkeypatch.setattr(niederreiter, "_inverse", lambda rows: (0,) * len(rows))
    argv = ["keygen", str(mat), "--priv", str(sk), "--pub", str(pk)]
    tripped = ("", "surveillance: key relation A0^-1 H' B0^-1 == H failed\n")
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr() == tripped
    assert os.listdir(tmp_path) == ["m.qcm"]
    sk.write_bytes(b"OLD KEY\n")
    pk.write_bytes(b"OLD PUB\n")
    assert main(argv) == 3
    assert capsys.readouterr() == tripped
    assert (sk.read_bytes(), pk.read_bytes()) == (b"OLD KEY\n", b"OLD PUB\n")
    assert sorted(os.listdir(tmp_path)) == ["m.qcm", "pk", "sk"]


def test_cli_keygen_writes_a_device_in_place(tmp_path, c512):
    # a path that exists but is no regular file is written in place
    mat, sk = tmp_path / "m.qcm", tmp_path / "sk"
    mat.write_text(io.write_matrix(c512))
    assert main(["keygen", str(mat), "--seed", "9", "--priv", str(sk), "--pub", os.devnull]) == 0
    assert sk.read_text() == io.write_private_key(keypair(c512, 9)[0])
    assert sorted(os.listdir(tmp_path)) == ["m.qcm", "sk"]


def test_cli_keygen_refused_keeps_both_existing_keys(tmp_path, capsys, c512):
    mat, missing = tmp_path / "m.qcm", tmp_path / "missing"
    sk, pk = tmp_path / "sk", tmp_path / "pk"
    mat.write_text(io.write_matrix(c512))
    sk.write_bytes(b"OLD KEY\n")
    pk.write_bytes(b"OLD PUB\n")
    sk.chmod(0o600)
    for priv, pub, bad in ((missing / "sk", pk, "sk"), (sk, missing / "pk", "pk")):
        capsys.readouterr()
        assert main(["keygen", str(mat), "--priv", str(priv), "--pub", str(pub)]) == 2
        # the refusal names the path given, not a temporary file
        path = missing / bad
        assert capsys.readouterr().err == (
            f"error: cannot write {path}: [Errno 2] No such file or directory: '{path}'\n")
        assert (sk.read_bytes(), pk.read_bytes()) == (b"OLD KEY\n", b"OLD PUB\n")
        assert sorted(os.listdir(tmp_path)) == ["m.qcm", "pk", "sk"]
    # an accepted keygen replaces both, and the private key keeps its mode
    assert main(["keygen", str(mat), "--priv", str(sk), "--pub", str(pk)]) == 0
    assert io.read_private_key(sk.read_text()) and io.read_public_key(pk.read_text())
    assert sk.stat().st_mode & 0o777 == 0o600
    assert sorted(os.listdir(tmp_path)) == ["m.qcm", "pk", "sk"]


def test_cli_refuses_hex_tokens_of_another_width(tmp_path, capsys, c512):
    # each of these reads back to a different text, so each is refused
    mat = tmp_path / "m.qcm"
    wide = io.write_matrix(BlockCirculant(FieldCtx(9), 5, 1, 2, [(1, 2, 3, 4, 5)]))
    assert wide.splitlines()[2:] == ["203", "001 002 003 004 005"]
    good = io.write_matrix(c512)
    row = good.splitlines()[3]
    for text in (
        wide.replace("001 ", "1 "),
        wide.replace("001 ", "0001 "),
        wide.replace("\n203\n", "\n0203\n"),
        good.replace(row, "0" + row),
    ):
        mat.write_text(text)
        assert refused(capsys, ["validate", str(mat), "--desk-scale"]), text
    mat.write_text(wide)
    assert main(["validate", str(mat), "--desk-scale"]) != 2


def test_cli_validate(tmp_path, c512):
    mat = tmp_path / "m.qcm"
    mat.write_text(io.write_matrix(c512))
    rep = tmp_path / "r.qcr"
    # strict check fails without the waiver: condition v needs p > 30
    assert main(["validate", str(mat), "-o", str(rep)]) == 1
    fields, _ = report.read_report(rep.read_text())
    assert fields["cond_v"] == "fail" and fields["ok"] == "false"
    assert main(["validate", str(mat), "--desk-scale", "-o", str(rep)]) == 0
    fields, _ = report.read_report(rep.read_text())
    assert fields["ok"] == "true" and fields["cond_v"] == "waived"

    flat = BlockCirculant(FieldCtx(2), 5, 1, 2, [(1, 1, 1, 1, 1)])
    mat.write_text(io.write_matrix(flat))
    assert main(["validate", str(mat), "--desk-scale", "-o", str(rep)]) == 1
    fields, _ = report.read_report(rep.read_text())
    assert fields["cond_ii"] == "fail" and "witness_ii" in fields


def test_cli_validate_variant(tmp_path):
    c = sample_variant(5, 2, 4, 2, seed=1)
    mat = tmp_path / "m.qcm"
    mat.write_text(io.write_matrix(c))
    args = ["validate", str(mat), "--desk-scale", "--variant", "-o", "-"]
    # m1/p = 0.4 sits above the default threshold but below 0.5
    assert main(args) == 1
    assert main(args[:-2] + ["--threshold", "0.5", "-o", "-"]) == 0


def test_cli_refuses_a_bad_matrix_shape_first(tmp_path, monkeypatch, capsys):
    # a matrix file with m1 > m2 is malformed input (exit 2); search with
    # that shape is a domain refusal (exit 1) made before the first draw
    mat = tmp_path / "m.qcm"
    mat.write_text("QCMAT v1\n5 2 1 2\n7\n0 1 2 3 1\n")
    capsys.readouterr()
    assert main(["validate", str(mat)]) == 2
    assert capsys.readouterr().err == "error: matrix file: bad shape p=5 m1=2 m2=1\n"

    def no_draws(seed):
        raise AssertionError("the sampler drew before refusing the shape")

    monkeypatch.setattr(conditions, "random", SimpleNamespace(Random=no_draws))
    for variant in ([], ["--variant"]):
        assert main(["search", "5", "2", "1", "2", *variant]) == 1
        assert capsys.readouterr().err == (
            "error: need p >= 1 and 1 <= m1 < m2, got p=5 m1=2 m2=1\n")


def test_cli_search_refuses_shapes_without_a_matrix_before_drawing(monkeypatch, capsys):
    # at p = 2 every row is constant or near-constant, so neither sampler
    # can find a condition-iv block; a variant matrix needs a constant
    # block that neither fills its block column (m1 = 1) nor its block
    # row (m2 - m1 = 1)
    def no_draws(seed):
        raise AssertionError("the sampler drew before refusing the shape")

    monkeypatch.setattr(conditions, "random", SimpleNamespace(Random=no_draws))
    capsys.readouterr()
    shape_2 = "error: p = 2 leaves no block of the condition-iv shape\n"
    for argv, err in ((["2", "1", "2", "2"], shape_2),
                      (["2", "2", "4", "2", "--variant"], shape_2),
                      (["7", "1", "3", "2", "--variant"], "m1=1 m2=3"),
                      (["31", "1", "2", "2", "--variant"], "m1=1 m2=2"),
                      (["7", "2", "3", "2", "--variant"], "m1=2 m2=3")):
        assert main(["search", *argv]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1 and err in out.err
        if err != shape_2:
            assert "block column or block row" in out.err


def test_cli_search_deterministic(tmp_path, monkeypatch, capsys):
    a, b, c = (tmp_path / name for name in ("a", "b", "c"))
    assert main(["search", "5", "1", "2", "2", "--seed", "5", "-o", str(a)]) == 0
    assert main(["search", "5", "1", "2", "2", "--seed", "5", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # integer arguments follow the canonical token rule of the formats
    for seed in ("-1", " 1", "007", "+1", "\u0663"):
        assert refused(capsys, ["search", "5", "1", "2", "2", "--seed", seed, "-o", str(c)])
    assert refused(capsys, ["search", "\u0665", "1", "2", "2", "-o", str(c)])  # Arabic-Indic 5
    assert not c.exists()
    # composite p is a domain refusal, not a parse problem
    assert main(["search", "9", "1", "2", "2"]) == 1


def test_cli_seed_comes_only_from_the_option(tmp_path, monkeypatch):
    # an exported QCNIED_SEED changes no output: without --seed the seed is 0
    mat, out = tmp_path / "m.qcm", tmp_path / "out"
    runs = (["search", "5", "1", "2", "2", "-o", str(out)],
            ["keygen", str(mat), "--priv", str(tmp_path / "sk"), "--pub", str(out)])
    mat.write_text(io.write_matrix(sample_compliant(5, 1, 2, 2, seed=3)))
    expected = []
    for argv in runs:
        assert main(argv) == 0
        expected.append(out.read_bytes())
    assert expected[0] == io.write_matrix(sample_compliant(5, 1, 2, 2, seed=0)).encode()
    for env in ("5", "zzz", "-1"):
        monkeypatch.setenv("QCNIED_SEED", env)
        for argv, want in zip(runs, expected):
            assert main(argv) == 0
            assert out.read_bytes() == want


def test_cli_key_pipeline(tmp_path, capsys, c512):
    mat, priv_p, pub_p = (tmp_path / n for n in ("m.qcm", "sk", "pk"))
    ct, out = tmp_path / "ct", tmp_path / "out"
    mat.write_text(io.write_matrix(c512))
    assert main(["keygen", str(mat), "--seed", "9",
                 "--priv", str(priv_p), "--pub", str(pub_p)]) == 0
    assert capsys.readouterr().out == "e: 4\n"

    assert main(["encrypt", str(pub_p), "--support", "0,3", "-o", str(ct)]) == 0
    pub = io.read_public_key(pub_p.read_text())
    y = encrypt(pub, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0])
    assert ct.read_text() == io.write_ciphertext(FieldCtx(2), y)

    assert main(["decrypt", str(priv_p), str(ct), "-o", str(out)]) == 0
    assert out.read_text() == "0,3\n"

    # library keygen with the same seed produces the same key files
    priv, pub2 = keypair(c512)
    assert priv_p.read_text() == io.write_private_key(priv)
    assert pub_p.read_text() == io.write_public_key(pub2)


def test_cli_keygen_key_paths(tmp_path, capsys, monkeypatch, c512):
    # the public key must not overwrite the private key, and stdout
    # carries the `e:` line, so neither key goes there
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.qcm").write_text(io.write_matrix(c512))
    os.symlink("sk", "link")
    for priv, pub in (("sk", "sk"), ("sk", "./sk"), ("sk", str(tmp_path / "sk")),
                      ("sk", "link"), ("link", "sk"), ("-", "pk"), ("sk", "-")):
        capsys.readouterr()
        assert main(["keygen", "m.qcm", "--priv", priv, "--pub", pub]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["link", "m.qcm"], (priv, pub)
    # two names of one file, hard-linked: refused before either is written
    (tmp_path / "k").write_text("old\n")
    os.link("k", "h")
    assert main(["keygen", "m.qcm", "--priv", "k", "--pub", "h"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert (tmp_path / "k").read_text() == "old\n"


def test_cli_encrypt_rejections(tmp_path, capsys, c512):
    mat, priv_p, pub_p = (tmp_path / n for n in ("m.qcm", "sk", "pk"))
    mat.write_text(io.write_matrix(c512))
    main(["keygen", str(mat), "--seed", "9", "--priv", str(priv_p), "--pub", str(pub_p)])
    capsys.readouterr()
    for support in ("0,0", "abc", "12", "-1", "+1", "01", "\u00b2", "\u0660,\u0663"):
        assert main(["encrypt", str(pub_p), "--support", support]) == 2
    # five indices exceed the capacity e = 4: domain failure
    assert main(["encrypt", str(pub_p), "--support", "0,1,2,3,4"]) == 1


def test_cli_autgroup_and_bound(tmp_path):
    c = sample_compliant(5, 1, 2, 2, seed=1)
    mat, rep, brep = (tmp_path / n for n in ("m.qcm", "g.qcr", "b.qcr"))
    mat.write_text(io.write_matrix(c))
    assert main(["autgroup", str(mat), "-o", str(rep)]) == 0
    fields, elems = report.read_report(rep.read_text())
    assert fields["order"] == "5" and len(elems) == 5
    assert fields["surveillance"] == "clear"

    assert main(["bound", "--report", str(rep), "-o", str(brep)]) == 0
    bf, _ = report.read_report(brep.read_text())
    want = dk_bound(stab_full(c).elements, 5, 1, 2)
    assert bf["mode"] == "exact" and bf["h_order"] == "5"
    assert float(bf["ln_dk"]) == pytest.approx(want.dk_log, rel=1e-12)
    assert int(bf["max_c"]) == want.max_c
    # the report's shape fields follow the canonical integer rule too
    rep.write_text(rep.read_text().replace("\np: 5\n", "\np: 05\n"))
    assert main(["bound", "--report", str(rep)]) == 2


def test_cli_bound_refuses_hostile_reports(tmp_path, capsys):
    # dk counts group elements, so every element must be listed once
    c = sample_compliant(5, 1, 2, 2, seed=1)
    mat, rep, bad, brep = (tmp_path / n for n in ("m.qcm", "g.qcr", "bad.qcr", "b.qcr"))
    mat.write_text(io.write_matrix(c))
    assert main(["autgroup", str(mat), "-o", str(rep)]) == 0
    text = rep.read_text()
    first = next(line for line in text.split("\n") if line.startswith("elem: "))
    assert first == "elem: 0 1 2 3 4 | 0 1 2 3 4"                         # the identity
    for edited in (text + first + "\n",                                   # a repeat
                   (text + first + "\n").replace("\norder: 5\n", "\norder: 6\n"),
                   text.replace(first + "\n", "", 1),                      # one dropped
                   text.replace("\norder: 5\n", "\norder: 7\n"),
                   text.replace("\norder: 5\n", "\n"),                     # no order
                   text.replace("\norder: 5\n", "\norder: 05\n"),
                   # a repeated field: the last value used to win
                   text.replace("\norder: 5\n", "\norder: 99\norder: 5\n"),
                   text.replace("\np: 5\n", "\np: 5\np: 7\n"),
                   # four elements without the identity are no group
                   text.replace(first + "\n", "", 1).replace("\norder: 5\n", "\norder: 4\n"),
                   text.replace("\nkind: autgroup\n", "\nkind: conditions\n"),
                   text.replace("\nm2: 2\n", "\n"),
                   text.replace("\nm1: 1\nm2: 2\n", "\nm1: 2\nm2: 2\n"),
                   text.replace("\np: 5\n", "\np: 0\n"),
                   # the column side one image short, still a permutation
                   text.replace(first, first[:-2]),
                   # every element dropped, and the order agreeing
                   "".join(line for line in text.splitlines(keepends=True)
                           if not line.startswith("elem: ")).replace("\norder: 5\n", "\norder: 0\n")):
        bad.write_text(edited)
        assert refused(capsys, ["bound", "--report", str(bad), "-o", str(brep)])
        assert not brep.exists()
    # the shape is refused as every file reader refuses it, before any element
    bad.write_text(text.replace("\nm1: 1\nm2: 2\n", "\nm1: 2\nm2: 1\n"))
    capsys.readouterr()
    assert main(["bound", "--report", str(bad), "-o", str(brep)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: bad shape p=5 m1=2 m2=1\n"
    assert not brep.exists()
    # the report carries its shape, so the envelope's shape options are
    # refused with it, even when they agree with the report
    for shape in (["--p", "7", "--m1", "3", "--m2", "9"], ["--p", "5"], ["--m1", "1"],
                  ["--m2", "2"]):
        assert refused(capsys, ["bound", "--report", str(rep), "-o", str(brep), *shape])
        assert not brep.exists()
    assert main(["bound", "--report", str(rep)]) == 0


def test_cli_bound_report_refuses_a_non_permutation(tmp_path, capsys):
    # each side of an element line must permute its points
    mat, rep, bad = tmp_path / "m.qcm", tmp_path / "g.qcr", tmp_path / "bad.qcr"
    mat.write_text(io.write_matrix(sample_compliant(5, 1, 2, 2, seed=1)))
    assert main(["autgroup", str(mat), "-o", str(rep)]) == 0
    text = rep.read_text()
    for line, images in (("elem: 0 0 2 3 4 | 0 1 2 3 4", "(0, 0, 2, 3, 4)"),
                         ("elem: 0 1 2 3 4 | 0 1 2 3 5", "(0, 1, 2, 3, 5)")):
        bad.write_text(text.replace("elem: 0 1 2 3 4 | 0 1 2 3 4", line))
        capsys.readouterr()
        assert main(["bound", "--report", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: report: not a permutation: {images}\n"


def test_cli_bound_refuses_a_set_that_is_no_group(tmp_path, capsys):
    # the Fano group is closed under autgroup's pair law
    # (P1, Q1) o (P2, Q2) = (P1 P2, Q2 Q1) but not under the componentwise
    # one; inverting every Q swaps which of the two laws it is closed under
    fano = BlockCirculant(FieldCtx(2), 7, 1, 2, [FANO_ROW])
    mat, rep, bad = tmp_path / "m.qcm", tmp_path / "g.qcr", tmp_path / "bad.qcr"
    mat.write_text(io.write_matrix(fano))
    assert main(["autgroup", str(mat), "-o", str(rep)]) == 3
    fields, elems = report.read_report(rep.read_text())
    listed = set(elems)
    def compose(x, y):
        return tuple(x[i] for i in y)

    assert all((compose(a, c), compose(d, b)) in listed for a, b in elems for c, d in elems)
    assert not all((compose(a, c), compose(b, d)) in listed for a, b in elems for c, d in elems)
    assert main(["bound", "--report", str(rep)]) == 0
    bad.write_text(report.write_report(fields.items(), [(a, inverse(b)) for a, b in elems]))
    assert refused(capsys, ["bound", "--report", str(bad)])


def test_cli_autgroup_variant_past_p5(tmp_path):
    # each constant block has (11!)^2 stabilizing pairs, past STAB_BUDGET;
    # it constrains nothing and is not searched, so the variant ceiling
    # p^(2 m1) is judged at p = 11
    mat, rep = tmp_path / "m.qcm", tmp_path / "g.qcr"
    mat.write_text(io.write_matrix(sample_variant(11, 2, 4, 2, seed=1)))
    assert main(["autgroup", str(mat), "-o", str(rep)]) == 0
    fields, elems = report.read_report(rep.read_text())
    assert fields["order"] == "121" and len(elems) == 121
    assert fields["surveillance"] == "clear"
    assert "symmetric" in {fields[f"block_{i}_{j}"] for i in (0, 1) for j in (0, 1)}


def test_cli_autgroup_surveillance_trip(tmp_path):
    fano = BlockCirculant(FieldCtx(2), 7, 1, 2, [FANO_ROW])
    mat, rep = tmp_path / "m.qcm", tmp_path / "g.qcr"
    mat.write_text(io.write_matrix(fano))
    assert main(["autgroup", str(mat), "-o", str(rep)]) == 3
    fields, elems = report.read_report(rep.read_text())
    assert fields["classification"] == "exceptional"
    assert fields["surveillance"].startswith("tripped")
    assert fields["order"] == "168" and len(elems) == 168


def _condition_report(strict):
    """Every condition passes; with strict False, i and iv fail and their
    variants pass."""
    ok, bad = Verdict("pass"), Verdict("pass" if strict else "fail")
    return ConditionReport(i=bad, ii=ok, iii=ok, iv=bad, v=ok, i_variant=ok, iv_variant=ok)


def test_surveillance_trips_on_each_breach():
    """The three breaches no matrix of the corpus reaches, each judged on
    a group made up for it."""
    def judge(rep, g):
        return report._surveillance(rep, g, g.min_degree_pi1, g.min_degree_pi2)

    ident, swap = (0, 1, 2, 3, 4), (1, 0, 2, 3, 4)
    # a transposition of rows: order 2 <= 25, row minimal degree 2 < p - 1
    g = AutGroup(5, 1, 2, ((ident, ident), (swap, swap)), {})
    assert judge(_condition_report(True), g) == ("tripped (row minimal degree 2 < 4)", True)
    # rows move only in 5-cycles, but a column transposition moves alone
    shifts = [tuple((i + s) % 5 for i in range(5)) for s in range(5)]
    g = AutGroup(5, 1, 2, tuple((r, q) for r in shifts for q in (ident, swap)), {})
    assert (g.order, g.min_degree_pi1, g.min_degree_pi2) == (10, 5, 2)
    assert judge(_condition_report(True), g) == (
        "tripped (column minimal degree below row minimal degree)", True)
    # a variant matrix's ceiling p^(2 m1) = 9, passed by S_3 x S_3
    s3 = list(permutations(range(3)))
    g = AutGroup(3, 1, 2, tuple((a, b) for a in s3 for b in s3), {})
    rep = _condition_report(False)
    assert not rep.strict_ok() and rep.variant_ok()
    assert judge(rep, g) == ("tripped (order 36 > p^(2 m1) = 9)", True)


@pytest.mark.parametrize("p, minority, order", [
    # {0,1,3,9} is a planar difference set mod 13: the block is the
    # incidence structure of PG(2,3), whose 5,616 collineations stabilize it
    (13, {0, 1, 3, 9}, 5616),
    # the quadratic residues mod 11 give the (11,5,2) biplane; PSL(2,11)
    (11, {1, 3, 4, 5, 9}, 660),
])
def test_cli_autgroup_difference_set_trips(p, minority, order):
    # the envelope premise audit's trip wires, read from its one run
    tag = next(t for t, (c, _) in AUDIT.items()
               if c.rows == (tuple(1 if j in minority else 3 for j in range(p)),))
    run = audit_run(tag)
    assert (run.validate, run.autgroup) == (0, 3)
    fields = run.fields
    assert fields["classification"] == "exceptional"
    assert fields["surveillance"].startswith("tripped")
    assert fields["lemma1"] == "ok"
    assert fields["order"] == str(order) and len(run.elems) == order


def test_cli_bound_envelope_and_sweep(tmp_path, capsys):
    rep = tmp_path / "b.qcr"
    assert main(["bound", "--envelope", "--p", "31", "-o", str(rep)]) == 0
    fields, _ = report.read_report(rep.read_text())
    assert fields["mode"] == "envelope"
    assert (fields["k"], fields["n"], fields["h_order"]) == ("31", "62", "961")
    assert fields["max_c"] == "5"
    assert main(["bound", "--envelope"]) == 2  # --p is mandatory here

    csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--p", "7,31", "-o", str(csv)]) == 0
    lines = csv.read_text()[:-1].split("\n")
    assert lines[0] == "p,m1,m2,k,n,h_order,ln_s0,ln_s1,ln_dk,max_c"
    assert lines[1].startswith("7,1,2,7,14,49,") and lines[1].endswith(",-1")
    assert lines[2].startswith("31,1,2,31,62,961,") and lines[2].endswith(",5")
    assert main(["sweep", "--p", ""]) == 2
    assert main(["sweep", "--p", "\u0663\u0661"]) == 2   # Arabic-Indic 31
    assert main(["sweep", "--p", "07"]) == 2
    assert refused(capsys, ["bound", "--envelope", "--p", "\u0663\u0661"])
    assert refused(capsys, ["bound", "--envelope", "--p", "31", "--m1", "01"])
    assert refused(capsys, ["sweep", "--p", "7", "--m1", "\u0662", "--m2", "\u0663"])
    assert refused(capsys, ["sweep", "--p", "7", "--m2", "-3"])
    # the comma-list rule of --support: an empty entry is a bad token
    for bad in ("5,,7", "5,7,", ",5"):
        assert refused(capsys, ["sweep", "--p", bad])


def test_cli_envelope_refuses_degenerate_shapes(capsys):
    # p < 2 leaves no non-identity element, and no admissible shape has a
    # composite p: domain refusals, one line each
    for argv in (["bound", "--envelope", "--p", "1"], ["bound", "--envelope", "--p", "0"],
                 ["sweep", "--p", "1"], ["sweep", "--p", "7,1"],
                 ["bound", "--envelope", "--p", "4"], ["bound", "--envelope", "--p", "9"],
                 ["sweep", "--p", "9,15"], ["sweep", "--p", "7,9"]):
        capsys.readouterr()
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    # block counts outside 1 <= m1 < m2 are refused as the file readers
    # refuse them
    for m1, m2 in (("3", "2"), ("2", "2"), ("0", "2"), ("0", "1")):
        shape = ["--m1", m1, "--m2", m2]
        assert refused(capsys, ["bound", "--envelope", "--p", "5", *shape])
        assert refused(capsys, ["sweep", "--p", "7", *shape])
    assert refused(capsys, ["sweep", "--p", "5", "--m1", "0"])


def test_cli_envelope_refuses_a_large_shape_at_once(capsys):
    # n = m2*p above ENVELOPE_MAX_N is a domain refusal, taken before the
    # class sizes that would cost seconds
    for argv, n in ((["bound", "--envelope", "--p", "100003"], 200006),
                    (["sweep", "--p", "7,100003"], 200006),
                    (["bound", "--envelope", "--p", "3", "--m2", "10923"], 32769)):
        capsys.readouterr()
        t0 = time.perf_counter()
        assert main(argv) == 1, argv
        assert time.perf_counter() - t0 < 0.05, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: the envelope at n = {n} is above n = 32768\n"


def test_cli_keygen_trivial_kernel(tmp_path, capsys):
    # the binary syndrome map of this (13,1,2,2) matrix is bijective, so
    # keygen sets e = n = 26 at once instead of enumerating 2^26 vectors
    mat, priv_p, pub_p, ct = (tmp_path / n for n in ("m.qcm", "sk", "pk", "ct"))
    assert main(["search", "13", "1", "2", "2", "--seed", "1", "-o", str(mat)]) == 0
    assert main(["keygen", str(mat), "--priv", str(priv_p), "--pub", str(pub_p)]) == 0
    assert capsys.readouterr().out == "e: 26\n"
    support = ",".join(str(j) for j in range(0, 26, 2))
    assert main(["encrypt", str(pub_p), "--support", support, "-o", str(ct)]) == 0
    assert main(["decrypt", str(priv_p), str(ct)]) == 0
    assert capsys.readouterr().out == support + "\n"


def test_cli_key_past_condition_v_round_trips(tmp_path, capsys):
    # a (31,1,2,2) key, as the paper's p > 30 asks: keygen walks the
    # kernel instead of enumerating, and a message of weight e decrypts
    mat, priv_p, pub_p, ct = (tmp_path / n for n in ("m.qcm", "sk", "pk", "ct"))
    assert main(["search", "31", "1", "2", "2", "--seed", "2", "-o", str(mat)]) == 0
    assert main(["keygen", str(mat), "--seed", "2", "--priv", str(priv_p), "--pub", str(pub_p)]) == 0
    assert capsys.readouterr().out == "e: 15\n"
    support = ",".join(str(j) for j in range(0, 30, 2))
    assert main(["encrypt", str(pub_p), "--support", support, "-o", str(ct)]) == 0
    assert main(["decrypt", str(priv_p), str(ct)]) == 0
    assert capsys.readouterr().out == support + "\n"


def test_cli_decrypt_refuses_a_syndrome_outside_the_span(tmp_path, capsys):
    # this key's H has rank 9 over its 10 syndrome bits, so half of the
    # 1,024 ciphertexts are no syndrome of any error vector
    mat, priv_p, pub_p, ct = (tmp_path / n for n in ("m.qcm", "sk", "pk", "ct"))
    assert main(["search", "5", "1", "2", "2", "--seed", "1", "-o", str(mat)]) == 0
    assert main(["keygen", str(mat), "--priv", str(priv_p), "--pub", str(pub_p)]) == 0
    pub = io.read_public_key(pub_p.read_text())
    span = {0}
    for col in pub.hprime:
        span |= {s ^ col for s in span}
    assert len(span) == 512
    y = unpack_column(min(set(range(1024)) - span), pub.k, pub.ctx.eta)
    ct.write_text(io.write_ciphertext(pub.ctx, y))
    capsys.readouterr()
    assert main(["decrypt", str(priv_p), str(ct)]) == 1
    assert capsys.readouterr() == ("", "error: syndrome outside the column span of H\n")


# A command's qcnied modules beyond the five every command loads, in run
# order: each row reads the files the rows before it wrote. "" is a bare
# `import qcnied.cli`.
EVERY_COMMAND = ("qcnied", "qcnied.cli", "qcnied.io", "qcnied.errors", "qcnied.field",
                 "qcnied._record")
MODULE_TABLE = [
    ("", ()),
    ("search 5 1 2 2 --seed 3 -o m.qcm", ("circulant", "conditions")),
    ("validate m.qcm --desk-scale -o v.qcr", ("circulant", "conditions", "report")),
    ("keygen m.qcm --seed 9 --priv sk --pub pk", ("circulant", "niederreiter")),
    ("encrypt pk --support 0,3 -o ct", ("niederreiter",)),
    ("decrypt sk ct -o out", ("niederreiter",)),
    ("autgroup m.qcm -o g.qcr", ("circulant", "conditions", "autgroup", "perm", "report")),
    ("bound --report g.qcr -o b.qcr", ("distinguish", "perm", "report")),
    ("bound --envelope --p 31 -o e.qcr", ("distinguish", "report")),
    ("sweep --p 7,31 -o s.csv", ("distinguish", "report")),
]
# never loaded, by any command or by importing every layer
ABSENT = ("numpy", "argparse", "gettext", "locale", "dataclasses", "inspect", "typing",
          "pathlib")


def test_cli_loads_only_the_layers_it_runs(tmp_path):
    """Each command, run through cli.main in a fresh interpreter, loads
    exactly the qcnied modules of MODULE_TABLE and none of ABSENT; `site`
    is off, so nothing outside the package loads them first."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def loaded(imports, argv=()):
        code = (f"import sys, {imports}\n"
                "assert not sys.argv[1:] or qcnied.cli.main(sys.argv[1:]) == 0\n"
                "print((sorted(m for m in sys.modules if m.split('.')[0] == 'qcnied'),"
                f" [m for m in {ABSENT!r} if m in sys.modules]))")
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, *argv], env=env, capture_output=True,
            text=True, timeout=60, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        *printed, last = proc.stdout.split("\n")[:-1]
        return printed, ast.literal_eval(last)

    for command, layers in MODULE_TABLE:
        printed, (modules, absent) = loaded("qcnied.cli", command.split())
        assert modules == sorted(EVERY_COMMAND + tuple(f"qcnied.{m}" for m in layers)), command
        assert absent == [], command
        assert printed == (["e: 4"] if command.startswith("keygen") else []), command
    assert (tmp_path / "out").read_text() == "0,3\n"
    every_layer = ("qcnied.cli, qcnied.conditions, qcnied.niederreiter, qcnied.autgroup, "
                   "qcnied.distinguish, qcnied.report")
    assert loaded(every_layer)[1][1] == []


def test_readme_names_every_module_and_the_module_table():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Layout", 1)[1].split("```")[1]
    modules = {path.name for path in (root / "src" / "qcnied").glob("*.py")}
    assert set(re.findall(r"^  (\w+\.py) ", layout, re.M)) == modules - {"__init__.py"}
    # the "also loads" table, one line per row, against MODULE_TABLE
    table = readme.split("| command | also loads |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for line in table.split("\n"):
        commands, loads = line.strip("|").split(" | ")
        for command in re.findall(r"`([^`]+)`", commands):
            documented[command] = sorted(re.findall(r"`(\w+)`", loads))
    pinned = {}
    for command, layers in MODULE_TABLE:
        words = f"{command} " if command else "import qcnied.cli "
        name = max((name for name in documented if words.startswith(f"{name} ")), key=len)
        pinned[name] = sorted(layers)
    assert documented == pinned


def _relative_imports(path):
    """The sibling modules a source file imports, at module level or
    inside a function."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module.split(".")[0]] if node.module
                         else (alias.name for alias in node.names))
    return names


def test_relative_imports_form_no_cycle_and_none_reaches_cli():
    src = Path(__file__).resolve().parent.parent / "src" / "qcnied"
    graph = {path.stem: _relative_imports(path) & {p.stem for p in src.glob("*.py")}
             for path in src.glob("*.py")}
    # both kinds of import are seen: cli loads report only inside a function
    assert {"io", "report"} <= graph["cli"] and "io" in graph["report"]
    assert [name for name, deps in graph.items() if "cli" in deps] == []
    # peel off the modules that import nothing still left; a cycle never peels
    left = set(graph)
    while leaves := {name for name in left if not graph[name] & left}:
        left -= leaves
    assert left == set(), f"import cycle among or through {sorted(left)}"


def test_package_exports_resolve_to_home_modules():
    import qcnied

    for name in qcnied.__all__:
        value = getattr(qcnied, name)
        if isinstance(value, type(qcnied)):
            assert value is sys.modules[f"qcnied.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value, name
        namespace = {}
        exec(f"from qcnied import {name}", namespace)
        assert namespace[name] is value
    assert set(qcnied.__all__) <= set(dir(qcnied))
    with pytest.raises(AttributeError):
        qcnied.no_such_name
    with pytest.raises(ImportError):
        exec("from qcnied import no_such_name", {})


def test_cli_autgroup_refuses_before_any_search(tmp_path, monkeypatch, capsys):
    # eta = 1 fails the judgement autgroup makes first, so no search
    # starts; every row of the (61,2,3) C repeats, so the forced-subgroup
    # check refuses it before the search tries a candidate row
    from qcnied import autgroup

    from test_golden_corpus import AUTGROUP_REFUSED

    searched = []
    real = autgroup._stabilizing_pairs
    monkeypatch.setattr(autgroup, "_stabilizing_pairs",
                        lambda rows, p: searched.append(len(rows)) or real(rows, p))
    refusals = {}
    for tag, c in AUTGROUP_REFUSED.items():
        mat = tmp_path / f"{tag}.qcm"
        mat.write_text(io.write_matrix(c))
        capsys.readouterr()
        assert main(["autgroup", str(mat)]) == 1, tag
        refusals[tag] = capsys.readouterr().err
    assert searched == [122]
    assert " force " in refusals["iii_k122"] and "stabilizing pairs" in refusals["iii_k122"]


def test_cli_derives_each_fact_once(tmp_path, monkeypatch):
    """Each command of MODULE_TABLE, run through cli.main as in a fresh
    process, derives each fact once: keygen expands its one-block C once,
    builds H's columns from it and eliminates H once and each drawn A0
    once; decrypt does the same for the key it loads; autgroup judges C
    once, before its search, and condition ii within that judgement only,
    searches its one-block C once, as C and not again as a block, expands
    its one block once, replays each element on C once and projects the
    group once."""
    from qcnied import autgroup, field, niederreiter

    calls = []

    def watch(owner, name):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append((name, args))
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((niederreiter, "_columns"), (niederreiter, "_echelon"),
                        (conditions, "validate_all"), (conditions, "check_ii"),
                        (autgroup, "_stabilizing_pairs"), (autgroup, "act"),
                        (field, "expand_row"), (autgroup.AutGroup, "row_projection")):
        watch(owner, name)
    monkeypatch.chdir(tmp_path)
    ran = {}
    for command, _ in MODULE_TABLE[1:]:
        # what a fresh process would start from
        niederreiter._inverse.cache_clear()
        niederreiter._syndrome_map.cache_clear()
        calls.clear()
        assert main(command.split()) == 0, command
        ran.setdefault(command.split()[0], []).extend(calls)

    def count(command):
        return sorted(Counter(name for name, _ in ran[command]).items())

    n, a0 = 10, io.read_private_key(Path("sk").read_text()).a0
    eliminated = [args[0] for name, args in ran["keygen"] if name == "_echelon"]
    assert [len(m) for m in eliminated].count(n) == 1                 # H once
    drawn = [tuple(m) for m in eliminated if len(m) != n]
    assert drawn[-1] == a0 and len(set(drawn)) == len(drawn)          # each A0 once
    assert count("keygen") == [("_columns", 1), ("_echelon", 1 + len(drawn)), ("expand_row", 1)]
    assert count("decrypt") == [("_columns", 1), ("_echelon", 2), ("expand_row", 1)]
    assert count("encrypt") == []
    order = int(report.read_report(Path("g.qcr").read_text())[0]["order"])
    assert count("autgroup") == [("_stabilizing_pairs", 1), ("act", order), ("check_ii", 1),
                                 ("expand_row", 1), ("row_projection", 1), ("validate_all", 1)]
    assert ran["autgroup"][0][0] == "validate_all"
    assert count("validate") == [("check_ii", 1), ("validate_all", 1)]
    assert count("bound") == count("sweep") == []


def test_every_error_class_is_raised_or_caught():
    """Each QcniedError subclass of errors.py is raised somewhere else in
    the package, so a retired refusal cannot leave its class behind: a
    class that is only caught is dead."""
    src = Path(__file__).resolve().parent.parent / "src" / "qcnied"
    tree = ast.parse((src / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    classes.discard("QcniedError")
    used = set()
    for path in src.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    used.add(name.id)
    assert classes and classes <= used, sorted(classes - used)
