"""Byte-for-byte pins on the search -> keygen -> encrypt -> decrypt and
the search -> autgroup -> bound --report pipelines.

Every command of a fixed corpus runs through the CLI entry point; the
test pins the exit code and the sha256 of each written file (matrix,
private key, public key, ciphertext, reports) and of each stdout. The
key pins were taken from the syndrome-table implementation this package
used before its decoder moved to F2 elimination, the autgroup pins from
the brute-force stabilizer search that preceded the pruned backtrack
(with its `mode` and `affine_incomplete` report lines dropped), the
bound pins from the recursive class-size search that preceded the
knapsack table, so they hold the old and new code to identical files
and outputs. The help pins cover `qcnied --help` and each subcommand's
`--help`, rendered from the command table in `qcnied.cli`, which does not
depend on the terminal width or the Python version. Regenerate the
tables with

    PYTHONPATH=src:tests python tests/test_golden_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import random
import sys
import tempfile
from pathlib import Path

from qcnied import io
from qcnied.circulant import BlockCirculant
from qcnied.cli import main
from qcnied.field import FieldCtx

from test_autgroup import FANO_ROW

# (p, m1, m2, eta, seed); the seed drives both search and keygen
CORPUS = (
    (5, 1, 2, 2, 1),
    (5, 1, 2, 2, 2),
    (5, 1, 2, 2, 3),
    (7, 1, 3, 2, 2),
    (5, 2, 4, 2, 3),
    (5, 1, 8, 2, 1),
    (11, 1, 2, 3, 2),
)


# (p, m1, m2, eta, seed, variant) searched, then autgroup -> bound --report
AUTGROUP_CORPUS = tuple(
    (p, 1, m2, 2, seed, False) for p, m2 in ((5, 2), (7, 2), (7, 3)) for seed in (1, 2, 3)
) + ((5, 2, 4, 2, 3, True),)

# written directly: the order-168 trip wire and a condition-iii failure
# that takes the full-matrix search
AUTGROUP_FIXED = {
    "fano": BlockCirculant.from_rows(FieldCtx(2), 7, 1, 2, [FANO_ROW]),
    "iii_fallback": BlockCirculant.from_rows(
        FieldCtx(3), 2, 2, 4, [(1, 2), (3, 4), (1, 2), (3, 4)]
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> tuple[int, str]:
    out = _io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def _supports(params, e: int, n: int) -> list[str]:
    """The zero word, one weight-1 word and one word of weight min(e, n)."""
    rng = random.Random("-".join(map(str, params)))
    full = sorted(rng.sample(range(n), min(e, n)))
    return ["", str(rng.randrange(n)), ",".join(map(str, full))]


def run_corpus(workdir: Path) -> dict[str, tuple[int, str]]:
    """Run the corpus in workdir; map each step to (exit code, sha256)."""
    pins: dict[str, tuple[int, str]] = {}
    for params in CORPUS:
        p, m1, m2, eta, seed = params
        tag = "_".join(map(str, params))
        m, sk, pk = (workdir / f"{tag}.{ext}" for ext in ("qcm", "sk", "pk"))
        code, _ = _run(["search", p, m1, m2, eta, "--seed", seed, "-o", m])
        pins[f"{tag}/search"] = (code, _sha(m.read_bytes()))
        code, stdout = _run(["keygen", m, "--seed", seed, "--priv", sk, "--pub", pk])
        pins[f"{tag}/keygen"] = (code, _sha(stdout.encode()))
        pins[f"{tag}/sk"] = (0, _sha(sk.read_bytes()))
        pins[f"{tag}/pk"] = (0, _sha(pk.read_bytes()))
        e = int(stdout.split()[1])
        for i, support in enumerate(_supports(params, e, m2 * p)):
            ct = workdir / f"{tag}.ct{i}"
            code, _ = _run(["encrypt", pk, "--support", support, "-o", ct])
            pins[f"{tag}/encrypt{i}"] = (code, _sha(ct.read_bytes()))
            code, stdout = _run(["decrypt", sk, ct])
            assert stdout == support + "\n"
            pins[f"{tag}/decrypt{i}"] = (code, _sha(stdout.encode()))
    return pins


def run_autgroup_corpus(workdir: Path) -> dict[str, tuple[int, str]]:
    """Run the autgroup corpus in workdir; map each step to (exit, sha256)."""
    pins: dict[str, tuple[int, str]] = {}
    jobs = []
    for params in AUTGROUP_CORPUS:
        *shape, seed, variant = params
        tag = "_".join(map(str, shape + [seed])) + ("_variant" if variant else "")
        m = workdir / f"{tag}.qcm"
        code, _ = _run(["search", *shape, "--seed", seed, *["--variant"][:variant], "-o", m])
        pins[f"{tag}/search"] = (code, _sha(m.read_bytes()))
        jobs.append((tag, m, ["--threshold", "0.5"] if variant else []))
    for tag, c in AUTGROUP_FIXED.items():
        m = workdir / f"{tag}.qcm"
        m.write_text(io.write_matrix(c), encoding="utf-8")
        jobs.append((tag, m, []))
    for tag, m, flags in jobs:
        g = workdir / f"{tag}.qcr"
        code, _ = _run(["autgroup", m, *flags, "-o", g])
        pins[f"{tag}/autgroup"] = (code, _sha(g.read_bytes()))
        code, stdout = _run(["bound", "--report", g])
        pins[f"{tag}/bound"] = (code, _sha(stdout.encode()))
    return pins


# envelope bounds and sweeps, stdout pinned
BOUND_CORPUS = (
    ("sweep", "--p", "2,3,5,7,11,13,31,61,101"),
    ("sweep", "--p", "7,31", "--m1", "2", "--m2", "3"),
    ("bound", "--envelope", "--p", "31"),
    ("bound", "--envelope", "--p", "101"),
)


def run_bound_corpus() -> dict[str, tuple[int, str]]:
    """Map each envelope command to (exit code, sha256 of its stdout)."""
    pins: dict[str, tuple[int, str]] = {}
    for argv in BOUND_CORPUS:
        code, stdout = _run(argv)
        pins[" ".join(argv)] = (code, _sha(stdout.encode()))
    return pins


SUBCOMMANDS = ("validate", "search", "keygen", "encrypt", "decrypt", "autgroup", "bound", "sweep")


def run_help_corpus() -> dict[str, tuple[int, str]]:
    """Map each help text to (exit code, sha256)."""
    pins: dict[str, tuple[int, str]] = {}
    for argv in [["--help"]] + [[cmd, "--help"] for cmd in SUBCOMMANDS]:
        code, stdout = _run(argv)
        pins[" ".join(argv)] = (code, _sha(stdout.encode()))
    return pins


PINS = {
    '5_1_2_2_1/search': (0, '05ea70ad80db7f79b411a8e86f539cde11d73e8cc53eefb5c9f0a361107c8e89'),
    '5_1_2_2_1/keygen': (0, 'bdadb298e946eb3c82014152b12e736d3366e52537f58591d63da607d294cef2'),
    '5_1_2_2_1/sk': (0, '6f7b73a1c39670ee0c18ab136b311a60676780bea12ce6e4612b3ee5f1f29cbc'),
    '5_1_2_2_1/pk': (0, '0b823e5452edde3a013a9ba6c1f7c9437b4533012fe8cef0cacf77ab1af47edd'),
    '5_1_2_2_1/encrypt0': (0, 'aeec6cd696078c273d36ddb33500d5af1aeac51b1b65a725363f3ae5728dd8c6'),
    '5_1_2_2_1/decrypt0': (0, '01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b'),
    '5_1_2_2_1/encrypt1': (0, '87bcd428b0409a690c8a31f0f8dd16516c07e6cabfd2e9a59ff0b5257fa9d827'),
    '5_1_2_2_1/decrypt1': (0, '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3'),
    '5_1_2_2_1/encrypt2': (0, '09e5fa201bd4da46b5b9a40fd5fa62fd4dcbacc808561a1babd8dfbcf72e47d8'),
    '5_1_2_2_1/decrypt2': (0, '5558d77fdb3274e40b56b21e5dac99f28b93c947a5a63dc157da4150c3412e84'),
    '5_1_2_2_2/search': (0, 'e538a423152dc39c764ae2c2426432654af02d332e9b9fcffda24997a3a9e19e'),
    '5_1_2_2_2/keygen': (0, '784108514fe689472a891fcf868394c5d6adaf8168e17bd1c98054c325981405'),
    '5_1_2_2_2/sk': (0, '139c9f0886053af729b7aa186a332110067659893fa7a58e062bd6ad149013fc'),
    '5_1_2_2_2/pk': (0, 'a41d762219c10f74a2ed3431699624570a51a842299aa92f53fde4b905967627'),
    '5_1_2_2_2/encrypt0': (0, 'aeec6cd696078c273d36ddb33500d5af1aeac51b1b65a725363f3ae5728dd8c6'),
    '5_1_2_2_2/decrypt0': (0, '01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b'),
    '5_1_2_2_2/encrypt1': (0, 'd6d28ea0f33c931d3b98e24c75451d99f498205a992b4e912db64d72d44dbd5f'),
    '5_1_2_2_2/decrypt1': (0, '1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2'),
    '5_1_2_2_2/encrypt2': (0, '92fcd73034b3aa8a7bbabdc27f51f138b700030cb7342d596007f4cc74d3abfc'),
    '5_1_2_2_2/decrypt2': (0, 'b7d52694f6fca788a24106ae21ba8b7ee90661f4283ce7918766f8bceaa845f0'),
    '5_1_2_2_3/search': (0, 'fba083c5a9fb99dafad8e162cd7076d7a33134d5c53f46de75c14beafb733b17'),
    '5_1_2_2_3/keygen': (0, 'd39983f86c402c8a8a8af722b720c6df4519b1b4cafa3100c0fb17cbbe08bde7'),
    '5_1_2_2_3/sk': (0, 'e0f02f0cb4e76e624b076842b68435b1836a0627a098952bba4f84a84f6775e9'),
    '5_1_2_2_3/pk': (0, '87866b36c34d232c98c6b984fcd08104c5999a27250d7af19c1d0a745f2b7db4'),
    '5_1_2_2_3/encrypt0': (0, 'aeec6cd696078c273d36ddb33500d5af1aeac51b1b65a725363f3ae5728dd8c6'),
    '5_1_2_2_3/decrypt0': (0, '01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b'),
    '5_1_2_2_3/encrypt1': (0, 'e4a74665b23883ad384dd0aea2a0eaa272269d0a82c69928b35c3bce860a9cf2'),
    '5_1_2_2_3/decrypt1': (0, '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    '5_1_2_2_3/encrypt2': (0, '9bc5475c401de1d4890bf13d06f4a896569012e9c3c9e0ed263e091a8f6cf234'),
    '5_1_2_2_3/decrypt2': (0, '3904e7e527755d40523bdf249124c8ce18027ae8a9b7dece2869936af89ebd98'),
    '7_1_3_2_2/search': (0, '2d2ec1aa0b4453946fbb548b61afb620bc8c78e6eea9535145b7815179ee5742'),
    '7_1_3_2_2/keygen': (0, 'b67ac14501a4236fb0e920ed117026c5811c794cf2c100957bef703ff9dfc9a3'),
    '7_1_3_2_2/sk': (0, 'e41b58b7cd91e0a4d238c2d8bf971dc68ed890b8911201cbc08850a9df1d291d'),
    '7_1_3_2_2/pk': (0, '3d6a3d8335544d487a752d4306bc0fe3767d5fd9a4c6ab4d0eefa7e7e70b7a13'),
    '7_1_3_2_2/encrypt0': (0, '696351de5a8816b503c359679eb9bd4d6cca2ef6201e40c6b615322bc0367ae2'),
    '7_1_3_2_2/decrypt0': (0, '01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b'),
    '7_1_3_2_2/encrypt1': (0, 'd89a4160f2c207a1a350da74a1b0591b4bc39c1360b6a3c18216e4495ea4299f'),
    '7_1_3_2_2/decrypt1': (0, '917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469'),
    '7_1_3_2_2/encrypt2': (0, '49793ea2b225a85ce1dc099016244fb0f2d5ee6d2f4ccb1d916a87e033a481d1'),
    '7_1_3_2_2/decrypt2': (0, '5c552d2653ac9755948b7c5e03547cf9631eff3d776655b0f0a0f615586c7e9b'),
    '5_2_4_2_3/search': (0, '86f3c324f5a5cbf30eb3b652658712af0a7138080791600fb9301392298d34ab'),
    '5_2_4_2_3/keygen': (0, 'd39983f86c402c8a8a8af722b720c6df4519b1b4cafa3100c0fb17cbbe08bde7'),
    '5_2_4_2_3/sk': (0, 'af1979423df044818fb132aaf3cd3232b99c70a84b1f16e1ec4774833bdfbaba'),
    '5_2_4_2_3/pk': (0, '51d102ffbfb8e202ae26c7998fd270a919adc22063f260c98d5489c4b5000f14'),
    '5_2_4_2_3/encrypt0': (0, 'bb1ad350d4a9708d010c2b31d96f014921895bb63f6ebb9a3378d985cafe7e64'),
    '5_2_4_2_3/decrypt0': (0, '01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b'),
    '5_2_4_2_3/encrypt1': (0, 'ba9b6b00bd2064736a637c8caca67110abee15d712b61985ded191dd8f21814b'),
    '5_2_4_2_3/decrypt1': (0, '7ee29791fc17e986b97128845622b077fb45e349fdb80523fac9dba879b4ad60'),
    '5_2_4_2_3/encrypt2': (0, 'b9a24a365017ae4efc36c1b43a04e01c71b99e5740c9536d8bb37caa67c4f546'),
    '5_2_4_2_3/decrypt2': (0, '4982afecc7416aae78a819b151906735a680a9f09a325b0f676277e178cb4622'),
    '5_1_8_2_1/search': (0, '63a617d96f291113706deedffdb1098e271ebfedb3e5303bd9d35f4475fdab8a'),
    '5_1_8_2_1/keygen': (0, '8ee6954c682da0aaee34d733103b9a12bd9eb751fe5c89d167f734dec9b63584'),
    '5_1_8_2_1/sk': (0, 'dec6c56a8763baf7dce3f29522d60e9381c06a54c00e2f3306af0ddfb0722b0b'),
    '5_1_8_2_1/pk': (0, '90421cec4a085b35d19d85cdf34618f5a86ee82baf3fa19c03b40eb4a0fb7451'),
    '5_1_8_2_1/encrypt0': (0, 'aeec6cd696078c273d36ddb33500d5af1aeac51b1b65a725363f3ae5728dd8c6'),
    '5_1_8_2_1/decrypt0': (0, '01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b'),
    '5_1_8_2_1/encrypt1': (0, 'd548f9b6ee9a16ab4d322ce49992d8abbc91b436d4814399f116e041c72e9dc6'),
    '5_1_8_2_1/decrypt1': (0, 'aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8'),
    '5_1_8_2_1/encrypt2': (0, 'f5318c1441bbfbc01f2da2b90758787d8395d56d647bc35f2847a6ef8647774e'),
    '5_1_8_2_1/decrypt2': (0, '9961d158a7e0e2f990765971a9e490af826c0743b7d603020f34cc8944319fcb'),
    '11_1_2_3_2/search': (0, '4d404d02f393592f46f91b35d57f541aefa93e690a1a1b3f2ec6089b8f27fe8e'),
    '11_1_2_3_2/keygen': (0, '06ad9ebfc404733d372343ae7c68960619a994f033bfac4ae7daa4ff287bdd80'),
    '11_1_2_3_2/sk': (0, '8d23627a8a9965802d230887a134b03f238084cc057b445d82fc635b5a58e4ae'),
    '11_1_2_3_2/pk': (0, 'a8f1809bf8ddc4c874abbf8c9988496ef3ed2307f057f43e5854d6cb3b80cb92'),
    '11_1_2_3_2/encrypt0': (0, 'b0247402bd69ef8a0de9be48ed7c1e2af3e72d6192a6842ee548f55d3bfef5f5'),
    '11_1_2_3_2/decrypt0': (0, '01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b'),
    '11_1_2_3_2/encrypt1': (0, 'f4c374d12ccb63a73dd2990250d4b0343b3eb9fa00cd202b6da0d573d0e96d40'),
    '11_1_2_3_2/decrypt1': (0, 'aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8'),
    '11_1_2_3_2/encrypt2': (0, '120ed591d922000495ad423acdf06f1593c0b7ce2cdb9f15e6ffe9b108155d87'),
    '11_1_2_3_2/decrypt2': (0, '6cb2f9062795f95ce2e2cb0711c148fff6b378345e065634e8b717e302b1376b'),
}


AUTGROUP_PINS = {
    '5_1_2_2_1/search': (0, '05ea70ad80db7f79b411a8e86f539cde11d73e8cc53eefb5c9f0a361107c8e89'),
    '5_1_2_2_2/search': (0, 'e538a423152dc39c764ae2c2426432654af02d332e9b9fcffda24997a3a9e19e'),
    '5_1_2_2_3/search': (0, 'fba083c5a9fb99dafad8e162cd7076d7a33134d5c53f46de75c14beafb733b17'),
    '7_1_2_2_1/search': (0, '69205b75f8b010991007fe60723734616d08917fec8b7fd905869fac002ae33f'),
    '7_1_2_2_2/search': (0, '5750017bc5706a1b1315862e8d3bd42984bf5095015d58d06959c9c677b7222b'),
    '7_1_2_2_3/search': (0, '807ed324b3a6b6fad363dc715237ef96eb5bcb112e1d09e53e017c91a882c774'),
    '7_1_3_2_1/search': (0, '9d96eaf1c9369782680d8f200fc751d7ca5cd9e603cd6cbd1244061d682e25b9'),
    '7_1_3_2_2/search': (0, '2d2ec1aa0b4453946fbb548b61afb620bc8c78e6eea9535145b7815179ee5742'),
    '7_1_3_2_3/search': (0, 'fbbffcf9b90aabe135287ce5db54b5787cc6f025265e17edfc63b02ad5f1d67e'),
    '5_2_4_2_3_variant/search': (0, '2672322d23d25382a50b6950c3690725a57504c12f4e9faa6917be88c2b328f2'),
    '5_1_2_2_1/autgroup': (0, 'be90dfaf037581a8edac3d2449623c07979aac62716e954a49f8aace151f3d9c'),
    '5_1_2_2_1/bound': (0, 'f6cf825ba8adca213feac4317c70ff3fa45a0dede32f2dcfbcca76a09b763b41'),
    '5_1_2_2_2/autgroup': (0, 'be90dfaf037581a8edac3d2449623c07979aac62716e954a49f8aace151f3d9c'),
    '5_1_2_2_2/bound': (0, 'f6cf825ba8adca213feac4317c70ff3fa45a0dede32f2dcfbcca76a09b763b41'),
    '5_1_2_2_3/autgroup': (0, 'be90dfaf037581a8edac3d2449623c07979aac62716e954a49f8aace151f3d9c'),
    '5_1_2_2_3/bound': (0, 'f6cf825ba8adca213feac4317c70ff3fa45a0dede32f2dcfbcca76a09b763b41'),
    '7_1_2_2_1/autgroup': (0, '0dc45d9d06e538398d8fedbd6b7910a378485b5d99ba00264a760709f8d46f04'),
    '7_1_2_2_1/bound': (0, '1b9e6c198b074c52f4957e0535f9dc1ad39a7be8dcb1419679d5e2ddac0cc166'),
    '7_1_2_2_2/autgroup': (0, '0dc45d9d06e538398d8fedbd6b7910a378485b5d99ba00264a760709f8d46f04'),
    '7_1_2_2_2/bound': (0, '1b9e6c198b074c52f4957e0535f9dc1ad39a7be8dcb1419679d5e2ddac0cc166'),
    '7_1_2_2_3/autgroup': (0, '0dc45d9d06e538398d8fedbd6b7910a378485b5d99ba00264a760709f8d46f04'),
    '7_1_2_2_3/bound': (0, '1b9e6c198b074c52f4957e0535f9dc1ad39a7be8dcb1419679d5e2ddac0cc166'),
    '7_1_3_2_1/autgroup': (0, 'a283f0c19677cd81b478e52b5d7a7b2045fe74e019d4850a9852abe897a97734'),
    '7_1_3_2_1/bound': (0, '029274868bae4a623307c5452415966c97c40d0fc0d44dfece9c111f903e379f'),
    '7_1_3_2_2/autgroup': (0, 'a283f0c19677cd81b478e52b5d7a7b2045fe74e019d4850a9852abe897a97734'),
    '7_1_3_2_2/bound': (0, '029274868bae4a623307c5452415966c97c40d0fc0d44dfece9c111f903e379f'),
    '7_1_3_2_3/autgroup': (0, 'a283f0c19677cd81b478e52b5d7a7b2045fe74e019d4850a9852abe897a97734'),
    '7_1_3_2_3/bound': (0, '029274868bae4a623307c5452415966c97c40d0fc0d44dfece9c111f903e379f'),
    '5_2_4_2_3_variant/autgroup': (0, '7d65591f239f47bb3e315dc3559bc36128c76b84a1da8f27f89d1e281984f9b8'),
    '5_2_4_2_3_variant/bound': (0, '7d7a6871b049574aeaf4507136e8872b4f172e36a8c57ba569521bd179d3b5a0'),
    'fano/autgroup': (3, 'e1acc84fe124e8bd43ca1f2660cc657212060c1fe55ff131245ab4432361e0fa'),
    'fano/bound': (0, 'a004970844a6631b2e06c08a4afeac46131701df4cf68314094bd054477b5fb3'),
    'iii_fallback/autgroup': (0, '95daa09dce8300dc2fef1cf85fa3e27fb992f1f45b97a4ff07a59d115a2fc9e4'),
    'iii_fallback/bound': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


BOUND_PINS = {
    'sweep --p 2,3,5,7,11,13,31,61,101': (0, '3c76d3cc614f86bb7cf316184fdcd3b791fe4723b865d00b3df80348deb19b88'),
    'sweep --p 7,31 --m1 2 --m2 3': (0, 'fc148f527443732cd6d2a92c24ab947ac86c10284db4ea2bf90066e1419bcacf'),
    'bound --envelope --p 31': (0, 'b4c50f2dc8ba4ab4d193b12482783078741b66b9cedb668d6557c853c243f16a'),
    'bound --envelope --p 101': (0, '6c6e1b1a46451abbbc96fbbaef686cb6fc5a8c0cf779384d36fee1b0ef49ae4e'),
}


HELP_PINS = {
    '--help': (0, 'ba9db4a1b7a539db0b5fdcabc32cfb1ba8eb057a7ac9e7a7941ef66784d54199'),
    'validate --help': (0, 'e831a48edab551ada5d10be57fb463bd6ca8546b240634623c6a48e26492514c'),
    'search --help': (0, '824a02c2aae2e11e472ea2b583e2ccbe90bf401915712b12fb47ad6f686212c4'),
    'keygen --help': (0, '3e70819356db370b09435df10bbab850d3f735bf0cfee5ba711ebef078ee1f8b'),
    'encrypt --help': (0, '20acc850b3c9de07414f9125b6e134007bec50e2a34121f4598fc0a42d5c7f27'),
    'decrypt --help': (0, '29b13560ccbdc1f280c78d8045fc61bed89a76c5eb9969ec4fa3ec8244529817'),
    'autgroup --help': (0, '4991d4159856bd99e6204bd8a50b4ff47574b7c19b9501d61070cd3308354ddd'),
    'bound --help': (0, '1cea4beb1b2b9301c54378887d151d77cfa10a85e118cea6d9d022d0fea11cae'),
    'sweep --help': (0, 'ca9a7ee3755258716267e5ed9b1c97ee58a653145a6653e2043e1b1af20960cd'),
}


def test_golden_corpus(tmp_path):
    assert run_corpus(tmp_path) == PINS


def test_golden_autgroup_corpus(tmp_path):
    assert run_autgroup_corpus(tmp_path) == AUTGROUP_PINS


def test_golden_bound_corpus():
    assert run_bound_corpus() == BOUND_PINS


def test_golden_help_texts():
    assert run_help_corpus() == HELP_PINS


if __name__ == "__main__":
    for name, run in (("PINS", run_corpus), ("AUTGROUP_PINS", run_autgroup_corpus),
                      ("BOUND_PINS", lambda _: run_bound_corpus()),
                      ("HELP_PINS", lambda _: run_help_corpus())):
        with tempfile.TemporaryDirectory() as tmp:
            pins = run(Path(tmp))
        sys.stdout.write(f"{name} = {{\n")
        for key, value in pins.items():
            sys.stdout.write(f"    {key!r}: {value!r},\n")
        sys.stdout.write("}\n\n")
