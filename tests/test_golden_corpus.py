"""Byte-for-byte pins on the search -> keygen -> encrypt -> decrypt and
the search -> autgroup -> bound --report pipelines, and on validate.

Every command of a fixed corpus runs through the CLI entry point; the
test pins the exit code and the sha256 of each written file (matrix,
private key, public key, ciphertext, reports) and of each stdout. The
key pins were taken from the syndrome-table implementation this package
used before its decoder moved to F2 elimination, the autgroup pins from
the brute-force stabilizer search that preceded the pruned backtrack
(with its `mode` and `affine_incomplete` report lines dropped, and the
`method` line dropped when the blockwise assembly gave way to one
search rooted on the shifts), the
bound pins from the recursive class-size search that preceded the
knapsack table (the two p = 101 pins were re-taken when ln |GL_k(F2)|
for k > 64 became one log of the exact order, which moved the last
digits of ln_g, ln_s1 and ln_group2 and no other field, and the
`sweep --p 7,31 --m1 2 --m2 3` pin when ln |GL_k(F2)| became a
correctly rounded sum of logs, which moved the last digit of ln_s1 at
k = 62; the p = 12323 and p = 8191 pins, past the old n <= 1024 limit,
were taken from the closed-form class sizes), the validate pins from the condition-iii check that
compared the rows and columns of the expanded C, and the autgroup
refusal pins (exit code and stderr) from the command that searched
before it judged the matrix, so they hold the old and new code to
identical files and outputs. The validate pins cover
each searched corpus matrix and fixed matrices that fail each condition
in their own way. The hostile pins hold the exit code and exact stderr
of validate and keygen on malformed matrix files, of decrypt on
malformed private keys and of encrypt on malformed public keys: a bad
shape each of four ways, a body line short or long, a short row, an
entry outside the field, and a B0 that is not a permutation or a
singular A0; they were taken before the block-grid checks moved into
one rule, and only the matrix file's line-count refusal changed, to the
constructor's wording, and then the row refusals, to name their file
and row kind. The help pins cover `qcnied --help` and each
subcommand's `--help`, rendered from the command table in `qcnied.cli`, which does not
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
from qcnied.cli import main
from qcnied.field import BlockCirculant, FieldCtx

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

# written directly: the order-168 trip wire and a condition-iii failure,
# which is searched like any other matrix
AUTGROUP_FIXED = {
    "fano": BlockCirculant(FieldCtx(2), 7, 1, 2, [FANO_ROW]),
    "iii_fallback": BlockCirculant(
        FieldCtx(3), 2, 2, 4, [(1, 2), (3, 4), (1, 2), (3, 4)]
    ),
}


def _refused_fixtures() -> dict[str, BlockCirculant]:
    """Two p = 61 matrices that autgroup refuses before any search: one
    over F2 (eta = 1), and one whose second block row is the first one
    shifted, so condition iii fails and every row of C appears twice,
    which forces more stabilizing pairs than STAB_BUDGET."""
    rng = random.Random(1)
    bits = tuple(rng.randrange(2) for _ in range(61))
    row = tuple(rng.randrange(4) for _ in range(61))
    return {
        "eta_1_p61": BlockCirculant(FieldCtx(1), 61, 1, 2, [bits]),
        "iii_k122": BlockCirculant(FieldCtx(2), 61, 2, 3, [row, row[5:] + row[:5]]),
    }


AUTGROUP_REFUSED = _refused_fixtures()


# written directly: one matrix failing each condition in its own way
# (eta, p, m1, m2, block first rows)
VALIDATE_FIXED = {
    "iii_rows": (2, 5, 3, 4, [(0, 1, 2, 3, 3), (0, 1, 2, 3, 1), (1, 3, 2, 1, 0)]),
    "iii_cols": (2, 5, 1, 3, [(0, 1, 2, 3, 1), (3, 1, 0, 1, 2)]),
    "constant_block": (2, 5, 1, 3, [(2, 2, 2, 2, 2), (0, 1, 2, 3, 1)]),
    "all_degenerate": (2, 5, 1, 4, [(2, 2, 2, 2, 2), (1, 2, 2, 2, 2), (3, 0, 3, 3, 3)]),
    "composite_p": (2, 9, 1, 2, [(0, 1, 2, 3, 1, 2, 3, 1, 0)]),
    "eta_1": (1, 5, 1, 2, [(0, 1, 1, 0, 1)]),
}
VALIDATE_FLAGS = {
    "validate": ["--desk-scale"],
    "validate_variant": ["--variant", "--threshold", "0.5"],
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


def run_refused_corpus(workdir: Path) -> dict[str, tuple[int, str]]:
    """autgroup on each refused fixture; map it to (exit code, stderr).
    A refusal writes no report and nothing to stdout."""
    pins: dict[str, tuple[int, str]] = {}
    for tag, c in AUTGROUP_REFUSED.items():
        m, g = workdir / f"{tag}.qcm", workdir / f"{tag}.qcr"
        m.write_text(io.write_matrix(c), encoding="utf-8")
        err = _io.StringIO()
        with contextlib.redirect_stderr(err):
            code, stdout = _run(["autgroup", m, "-o", g])
        assert stdout == "" and not g.exists(), tag
        pins[f"{tag}/autgroup"] = (code, err.getvalue())
    return pins


def run_validate_corpus(workdir: Path) -> dict[str, tuple[int, str]]:
    """Validate every searched corpus matrix and every fixed one, strict
    (desk scale) and variant; map each run to (exit code, sha256 of stdout)."""
    matrices = {}
    for *shape, seed, variant in [(*c, False) for c in CORPUS] + list(AUTGROUP_CORPUS):
        tag = "_".join(map(str, shape + [seed])) + ("_variant" if variant else "")
        m = matrices[tag] = workdir / f"{tag}.qcm"
        _run(["search", *shape, "--seed", seed, *["--variant"][:variant], "-o", m])
    for tag, (eta, p, m1, m2, rows) in VALIDATE_FIXED.items():
        m = matrices[tag] = workdir / f"{tag}.qcm"
        c = BlockCirculant(FieldCtx(eta), p, m1, m2, rows)
        m.write_text(io.write_matrix(c), encoding="utf-8")
    pins: dict[str, tuple[int, str]] = {}
    for tag, m in matrices.items():
        for name, flags in VALIDATE_FLAGS.items():
            code, stdout = _run(["validate", m, *flags])
            pins[f"{tag}/{name}"] = (code, _sha(stdout.encode()))
    return pins


# the commands that read each kind of file; decrypt reads a good ciphertext
HOSTILE_COMMANDS = {
    "matrix": (["validate", "{}"], ["keygen", "{}", "--priv", "{}.sk", "--pub", "{}.pk"]),
    "priv": (["decrypt", "{}", "good.ct"],),
    "pub": (["encrypt", "{}", "--support", "0"],),
}


def _corrupt(kind: str, text: str) -> dict[str, str]:
    """Malformed copies of one good (5,1,2,2) file: a bad shape in each of
    the four ways, one body line short and one long, a short last row, an
    entry outside GF(4), and for a private key a B0 that repeats an image
    and a singular A0."""
    lines = text.split("\n")[:-1]
    at = 1 if kind == "matrix" else 2  # the params line

    def edit(index: int, line: str) -> str:
        return "\n".join(lines[:index] + [line] + lines[index + 1:]) + "\n"

    params, last = lines[at].split(" "), lines[-1].split(" ")
    shape = {"p0": ("0", "1", "2"), "m1_0": ("5", "0", "2"),
             "m1_eq_m2": ("5", "2", "2"), "m1_gt_m2": ("5", "3", "2")}
    out = {f"shape_{name}": edit(at, " ".join(pm + tuple(params[3:])))
           for name, pm in shape.items()}
    out["lines_short"] = "\n".join(lines[:-1]) + "\n"
    out["lines_long"] = text + lines[-1] + "\n"
    out["row_short"] = edit(len(lines) - 1, " ".join(last[:-1]))
    out["entry_outside"] = edit(len(lines) - 1, " ".join(["4"] + last[1:]))
    if kind == "priv":
        k = int(params[1]) * int(params[0])
        images = lines[4 + k].split(" ")
        out["b0_repeat"] = edit(4 + k, " ".join(images[1:2] + images[1:]))
        out["a0_singular"] = "\n".join(lines[:4] + ["00"] * k + lines[4 + k:]) + "\n"
    return out


def run_hostile_corpus(workdir: Path) -> dict[str, tuple[int, str]]:
    """Each command on each malformed file; map it to (exit code, stderr).
    A refusal writes no file and nothing to stdout."""
    good = {"matrix": workdir / "good.qcm", "priv": workdir / "good.sk",
            "pub": workdir / "good.pk"}
    _run(["search", 5, 1, 2, 2, "--seed", 1, "-o", good["matrix"]])
    _run(["keygen", good["matrix"], "--seed", 1, "--priv", good["priv"], "--pub", good["pub"]])
    _run(["encrypt", good["pub"], "--support", "0", "-o", workdir / "good.ct"])
    pins: dict[str, tuple[int, str]] = {}
    for kind, path in good.items():
        for name, text in _corrupt(kind, path.read_text(encoding="utf-8")).items():
            bad = workdir / f"{kind}_{name}"
            bad.write_text(text, encoding="utf-8")
            for argv in HOSTILE_COMMANDS[kind]:
                err = _io.StringIO()
                with contextlib.redirect_stderr(err):
                    code, stdout = _run([arg.format(bad) for arg in argv])
                assert stdout == "" and not Path(f"{bad}.sk").exists(), (kind, name)
                pins[f"{kind}_{name}/{argv[0]}"] = (code, err.getvalue())
    return pins


# envelope bounds and sweeps, stdout pinned
BOUND_CORPUS = (
    ("sweep", "--p", "2,3,5,7,11,13,31,61,101"),
    ("sweep", "--p", "7,31", "--m1", "2", "--m2", "3"),
    ("bound", "--envelope", "--p", "31"),
    ("bound", "--envelope", "--p", "101"),
    ("bound", "--envelope", "--p", "12323"),
    ("sweep", "--p", "8191", "--m1", "3", "--m2", "4"),
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
    '5_1_2_2_1/autgroup': (0, '2b4a94ab0ed960e660504c457d591e9b212d743c4e170cc28144a0fe30b4b112'),
    '5_1_2_2_1/bound': (0, 'f6cf825ba8adca213feac4317c70ff3fa45a0dede32f2dcfbcca76a09b763b41'),
    '5_1_2_2_2/autgroup': (0, '2b4a94ab0ed960e660504c457d591e9b212d743c4e170cc28144a0fe30b4b112'),
    '5_1_2_2_2/bound': (0, 'f6cf825ba8adca213feac4317c70ff3fa45a0dede32f2dcfbcca76a09b763b41'),
    '5_1_2_2_3/autgroup': (0, '2b4a94ab0ed960e660504c457d591e9b212d743c4e170cc28144a0fe30b4b112'),
    '5_1_2_2_3/bound': (0, 'f6cf825ba8adca213feac4317c70ff3fa45a0dede32f2dcfbcca76a09b763b41'),
    '7_1_2_2_1/autgroup': (0, '4dba1dc19bfee915b0c3f0f329f9e1720ef4ab8f77a79e370e9b2115bb842886'),
    '7_1_2_2_1/bound': (0, '1b9e6c198b074c52f4957e0535f9dc1ad39a7be8dcb1419679d5e2ddac0cc166'),
    '7_1_2_2_2/autgroup': (0, '4dba1dc19bfee915b0c3f0f329f9e1720ef4ab8f77a79e370e9b2115bb842886'),
    '7_1_2_2_2/bound': (0, '1b9e6c198b074c52f4957e0535f9dc1ad39a7be8dcb1419679d5e2ddac0cc166'),
    '7_1_2_2_3/autgroup': (0, '4dba1dc19bfee915b0c3f0f329f9e1720ef4ab8f77a79e370e9b2115bb842886'),
    '7_1_2_2_3/bound': (0, '1b9e6c198b074c52f4957e0535f9dc1ad39a7be8dcb1419679d5e2ddac0cc166'),
    '7_1_3_2_1/autgroup': (0, '08af5a1848fbbe30f4c39d9cffeda402c357e2a514717eda1caabed0c0180fb4'),
    '7_1_3_2_1/bound': (0, '029274868bae4a623307c5452415966c97c40d0fc0d44dfece9c111f903e379f'),
    '7_1_3_2_2/autgroup': (0, '08af5a1848fbbe30f4c39d9cffeda402c357e2a514717eda1caabed0c0180fb4'),
    '7_1_3_2_2/bound': (0, '029274868bae4a623307c5452415966c97c40d0fc0d44dfece9c111f903e379f'),
    '7_1_3_2_3/autgroup': (0, '08af5a1848fbbe30f4c39d9cffeda402c357e2a514717eda1caabed0c0180fb4'),
    '7_1_3_2_3/bound': (0, '029274868bae4a623307c5452415966c97c40d0fc0d44dfece9c111f903e379f'),
    '5_2_4_2_3_variant/autgroup': (0, '722d3ba918ab2febb9df63b4ae7fc420256bbfe13727d316ea3cae27423fdede'),
    '5_2_4_2_3_variant/bound': (0, '7d7a6871b049574aeaf4507136e8872b4f172e36a8c57ba569521bd179d3b5a0'),
    'fano/autgroup': (3, '50444c6379616e1c7bc7b298bc0a8bfab17ad9986e8273f6277079fc9dcddb81'),
    'fano/bound': (0, 'a004970844a6631b2e06c08a4afeac46131701df4cf68314094bd054477b5fb3'),
    'iii_fallback/autgroup': (0, '76beb8b9e13cba78a6acb70b22e335be7ef1a8463b08348f01e754a329103c1a'),
    'iii_fallback/bound': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


VALIDATE_PINS = {
    '5_1_2_2_1/validate': (0, '99a68a3e8c8cda76174fb7d3758f8b57dd995943ecd234ab48d1fc1ffd921689'),
    '5_1_2_2_1/validate_variant': (1, '1368ef5df6f2df0c4d4028e602917ebd542b3949aecf82eaed88c3f66ad1c613'),
    '5_1_2_2_2/validate': (0, '99a68a3e8c8cda76174fb7d3758f8b57dd995943ecd234ab48d1fc1ffd921689'),
    '5_1_2_2_2/validate_variant': (1, '1368ef5df6f2df0c4d4028e602917ebd542b3949aecf82eaed88c3f66ad1c613'),
    '5_1_2_2_3/validate': (0, '99a68a3e8c8cda76174fb7d3758f8b57dd995943ecd234ab48d1fc1ffd921689'),
    '5_1_2_2_3/validate_variant': (1, '1368ef5df6f2df0c4d4028e602917ebd542b3949aecf82eaed88c3f66ad1c613'),
    '7_1_3_2_2/validate': (0, 'fdfe38e340593df3e2641ee3e60845be6256f9ad684b474ad89ede39096a2a09'),
    '7_1_3_2_2/validate_variant': (1, 'e57d9f1e47f9e917bb60f64dd350639f84d15a760175498d04747e4b56b61c35'),
    '5_2_4_2_3/validate': (0, '893c3d7e28dc693803aacee40f1a0e3b3847da1ab9e84ed876e6ee8715803352'),
    '5_2_4_2_3/validate_variant': (1, '3ad058dc2d4c2edc0534619229c5c405096f4b2fb719a08011a806ef09f2c6ef'),
    '5_1_8_2_1/validate': (0, '1bbfbda6216f50734ed7bf2deab8ca980783d93cce8e0589be9f6ae5a99ff896'),
    '5_1_8_2_1/validate_variant': (1, 'cb5a8579af5ff3192866c019819c8bfe4f86538f8940fab1a5c263e4356d0745'),
    '11_1_2_3_2/validate': (0, 'fb188d7ac25a403c90a09c75387c8d894f71ac1d45149c6dd9ae7fce610a67ae'),
    '11_1_2_3_2/validate_variant': (1, 'bfa5d1ff00d196decc839a8b6c5842d4211d921a05b32eac7037c1acbc818a2e'),
    '7_1_2_2_1/validate': (0, 'c27a2ea0dbb0131846559d555f9c5c6a8ef8bfa9a9df1b95f2f106d5acfb83e2'),
    '7_1_2_2_1/validate_variant': (1, 'e67f185122a07965495bfadef3554cc23cac96e964ece4e8b5290ce768576158'),
    '7_1_2_2_2/validate': (0, 'c27a2ea0dbb0131846559d555f9c5c6a8ef8bfa9a9df1b95f2f106d5acfb83e2'),
    '7_1_2_2_2/validate_variant': (1, 'e67f185122a07965495bfadef3554cc23cac96e964ece4e8b5290ce768576158'),
    '7_1_2_2_3/validate': (0, 'c27a2ea0dbb0131846559d555f9c5c6a8ef8bfa9a9df1b95f2f106d5acfb83e2'),
    '7_1_2_2_3/validate_variant': (1, 'e67f185122a07965495bfadef3554cc23cac96e964ece4e8b5290ce768576158'),
    '7_1_3_2_1/validate': (0, 'fdfe38e340593df3e2641ee3e60845be6256f9ad684b474ad89ede39096a2a09'),
    '7_1_3_2_1/validate_variant': (1, 'e57d9f1e47f9e917bb60f64dd350639f84d15a760175498d04747e4b56b61c35'),
    '7_1_3_2_3/validate': (0, 'fdfe38e340593df3e2641ee3e60845be6256f9ad684b474ad89ede39096a2a09'),
    '7_1_3_2_3/validate_variant': (1, 'e57d9f1e47f9e917bb60f64dd350639f84d15a760175498d04747e4b56b61c35'),
    '5_2_4_2_3_variant/validate': (1, 'a2c9ea503b235f2fae83659eef784432684ff6e6308705e0065f4d8fdca36374'),
    '5_2_4_2_3_variant/validate_variant': (1, '371de134fb87eff53d3fe54420d848e73d7fab27bba61e590feb859371626948'),
    'iii_rows/validate': (1, '5734bb299a949f6cab9b2c787ee6e23c1001a853c934ddf9c7846dd9ebdbc7b6'),
    'iii_rows/validate_variant': (1, 'a673ba019893fe074c1733b5e49ab8c31dd04c4523c04b076b8a24e439c2b737'),
    'iii_cols/validate': (1, '9cd0c10c2ad2f8f6cb4e4c1580e3b6d97bbdfcffdcbe2ac3b37a1e670554f3f6'),
    'iii_cols/validate_variant': (1, '4c08f992605a776a2668e60ac28e28bb6902e2f107eff75ec785675da9d3aa48'),
    'constant_block/validate': (1, 'ba637c2fa00cbab9021c55090be16e0bc52e10cacfbde3ce8bf6d5c7feb98508'),
    'constant_block/validate_variant': (1, 'ed7d4ef3482773424781e9ab779fcf902d1ef106b380b3174e4db7bd5d6c221b'),
    'all_degenerate/validate': (1, '5db1ed2059737210451a58f3ebeeb577327e4f9ce93fb23f1ce76d5e5ca6b0ca'),
    'all_degenerate/validate_variant': (1, 'e0344ff8af7c22d53f9a45336e1d4ca48410cdd9bfc8ae293540e7b0f1b10c5a'),
    'composite_p/validate': (1, '63052178f13e974f6c616473211808891892d1418795e0913021493c1b6a016b'),
    'composite_p/validate_variant': (1, '63052178f13e974f6c616473211808891892d1418795e0913021493c1b6a016b'),
    'eta_1/validate': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'eta_1/validate_variant': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


REFUSED_PINS = {
    'eta_1_p61/autgroup': (1, 'error: condition ii needs a proper extension field (eta >= 2)\n'),
    'iii_k122/autgroup': (1, 'error: the shifts and repeated rows and columns of a 122-row matrix force 140656423562035331072 stabilizing pairs, more than 524288\n'),
}


HOSTILE_PINS = {
    'matrix_shape_p0/validate': (2, 'error: matrix file: bad shape p=0 m1=1 m2=2\n'),
    'matrix_shape_p0/keygen': (2, 'error: matrix file: bad shape p=0 m1=1 m2=2\n'),
    'matrix_shape_m1_0/validate': (2, 'error: matrix file: bad shape p=5 m1=0 m2=2\n'),
    'matrix_shape_m1_0/keygen': (2, 'error: matrix file: bad shape p=5 m1=0 m2=2\n'),
    'matrix_shape_m1_eq_m2/validate': (2, 'error: matrix file: bad shape p=5 m1=2 m2=2\n'),
    'matrix_shape_m1_eq_m2/keygen': (2, 'error: matrix file: bad shape p=5 m1=2 m2=2\n'),
    'matrix_shape_m1_gt_m2/validate': (2, 'error: matrix file: bad shape p=5 m1=3 m2=2\n'),
    'matrix_shape_m1_gt_m2/keygen': (2, 'error: matrix file: bad shape p=5 m1=3 m2=2\n'),
    'matrix_lines_short/validate': (2, 'error: matrix file: expected 1 block rows of 5 entries\n'),
    'matrix_lines_short/keygen': (2, 'error: matrix file: expected 1 block rows of 5 entries\n'),
    'matrix_lines_long/validate': (2, 'error: matrix file: expected 1 block rows of 5 entries\n'),
    'matrix_lines_long/keygen': (2, 'error: matrix file: expected 1 block rows of 5 entries\n'),
    'matrix_row_short/validate': (2, 'error: matrix file: block row: expected 5 tokens, got 4\n'),
    'matrix_row_short/keygen': (2, 'error: matrix file: block row: expected 5 tokens, got 4\n'),
    'matrix_entry_outside/validate': (2, "error: matrix file: block row '4 0 2 0 3': '4' encodes 4, outside [0, 4)\n"),
    'matrix_entry_outside/keygen': (2, "error: matrix file: block row '4 0 2 0 3': '4' encodes 4, outside [0, 4)\n"),
    'priv_shape_p0/decrypt': (2, 'error: key params: bad shape p=0 m1=1 m2=2\n'),
    'priv_shape_m1_0/decrypt': (2, 'error: key params: bad shape p=5 m1=0 m2=2\n'),
    'priv_shape_m1_eq_m2/decrypt': (2, 'error: key params: bad shape p=5 m1=2 m2=2\n'),
    'priv_shape_m1_gt_m2/decrypt': (2, 'error: key params: bad shape p=5 m1=3 m2=2\n'),
    'priv_lines_short/decrypt': (2, 'error: private key: expected 11 lines, got 10\n'),
    'priv_lines_long/decrypt': (2, 'error: private key: expected 11 lines, got 12\n'),
    'priv_row_short/decrypt': (2, 'error: private key: block row: expected 5 tokens, got 4\n'),
    'priv_entry_outside/decrypt': (2, "error: private key: block row '4 0 2 0 3': '4' encodes 4, outside [0, 4)\n"),
    'priv_b0_repeat/decrypt': (2, 'error: private key: not a permutation: (2, 2, 0, 8, 5, 6, 3, 9, 4, 1)\n'),
    'priv_a0_singular/decrypt': (2, 'error: private key: A0 is singular over F2\n'),
    'pub_shape_p0/encrypt': (2, 'error: key params: bad shape p=0 m1=1 m2=2\n'),
    'pub_shape_m1_0/encrypt': (2, 'error: key params: bad shape p=5 m1=0 m2=2\n'),
    'pub_shape_m1_eq_m2/encrypt': (2, 'error: key params: bad shape p=5 m1=2 m2=2\n'),
    'pub_shape_m1_gt_m2/encrypt': (2, 'error: key params: bad shape p=5 m1=3 m2=2\n'),
    'pub_lines_short/encrypt': (2, 'error: public key: expected 9 lines, got 8\n'),
    'pub_lines_long/encrypt': (2, 'error: public key: expected 9 lines, got 10\n'),
    'pub_row_short/encrypt': (2, "error: public key: H' row: expected 10 tokens, got 9\n"),
    'pub_entry_outside/encrypt': (2, "error: public key: H' row '4 0 0 2 2 2 1 1 1 0': '4' encodes 4, outside [0, 4)\n"),
}


BOUND_PINS = {
    'sweep --p 2,3,5,7,11,13,31,61,101': (0, 'a828128e65fa40b73ad9581bb8f7c8709beb4638ee863db5891d195e20e1c756'),
    'sweep --p 7,31 --m1 2 --m2 3': (0, '116f0a80f98b3792e61ac9cfe5fe83fde01c46811da28f43f8ea486b09ac24a2'),
    'bound --envelope --p 31': (0, 'b4c50f2dc8ba4ab4d193b12482783078741b66b9cedb668d6557c853c243f16a'),
    'bound --envelope --p 101': (0, '5565216a35f4ec6f6fd5c5c74b077e395db8b0459f9ce3e672ad318bef8ad6a5'),
    'bound --envelope --p 12323': (0, 'b254c463adc5fd0821373df1d4a58ec13692e61c83e201fdf4a5f97bcbe8f775'),
    'sweep --p 8191 --m1 3 --m2 4': (0, 'df9bb8b22882c35db7d51d7c6258fef7a7306877e50bdffae4133f39f6849e4a'),
}


HELP_PINS = {
    '--help': (0, 'ba9db4a1b7a539db0b5fdcabc32cfb1ba8eb057a7ac9e7a7941ef66784d54199'),
    'validate --help': (0, 'e831a48edab551ada5d10be57fb463bd6ca8546b240634623c6a48e26492514c'),
    'search --help': (0, '1020b843b4e15fbf853a29d89d67024e1d7bcf7c352ba6b11777e87594128b7d'),
    'keygen --help': (0, '19b2b8340ed8b9d4fd99f7543c43580a6e57dd6108cf76123f35a3d3f29f866e'),
    'encrypt --help': (0, '20acc850b3c9de07414f9125b6e134007bec50e2a34121f4598fc0a42d5c7f27'),
    'decrypt --help': (0, '29b13560ccbdc1f280c78d8045fc61bed89a76c5eb9969ec4fa3ec8244529817'),
    'autgroup --help': (0, '4991d4159856bd99e6204bd8a50b4ff47574b7c19b9501d61070cd3308354ddd'),
    'bound --help': (0, '2fe41985a4ace9126de3292fe1ebc83ee925ae8fc78b33e1587759ac48392bf5'),
    'sweep --help': (0, 'ca9a7ee3755258716267e5ed9b1c97ee58a653145a6653e2043e1b1af20960cd'),
}


def test_golden_corpus(tmp_path):
    assert run_corpus(tmp_path) == PINS


def test_golden_autgroup_corpus(tmp_path):
    assert run_autgroup_corpus(tmp_path) == AUTGROUP_PINS


def test_golden_autgroup_refusals(tmp_path):
    assert run_refused_corpus(tmp_path) == REFUSED_PINS


def test_golden_hostile_inputs(tmp_path):
    assert run_hostile_corpus(tmp_path) == HOSTILE_PINS


def test_golden_validate_corpus(tmp_path):
    assert run_validate_corpus(tmp_path) == VALIDATE_PINS


def test_golden_bound_corpus():
    assert run_bound_corpus() == BOUND_PINS


def _neumaier_sum(values, start=0):
    """Compensated summation, as the built-in sum() adds floats from
    Python 3.12 on; ints add exactly, as before."""
    total, comp = start, 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp if comp else total


def test_bound_pins_do_not_depend_on_how_sum_rounds(monkeypatch, tmp_path):
    # the bound terms are the same bytes whichever way the interpreter's
    # sum() rounds floats
    from qcnied import distinguish

    monkeypatch.setattr(distinguish, "sum", _neumaier_sum, raising=False)
    assert run_bound_corpus() == BOUND_PINS
    pins = run_autgroup_corpus(tmp_path)
    bound = {key: value for key, value in AUTGROUP_PINS.items() if key.endswith("/bound")}
    assert bound and {key: pins[key] for key in bound} == bound


def test_golden_help_texts():
    assert run_help_corpus() == HELP_PINS


if __name__ == "__main__":
    for name, run in (("PINS", run_corpus), ("AUTGROUP_PINS", run_autgroup_corpus),
                      ("REFUSED_PINS", run_refused_corpus),
                      ("HOSTILE_PINS", run_hostile_corpus),
                      ("VALIDATE_PINS", run_validate_corpus),
                      ("BOUND_PINS", lambda _: run_bound_corpus()),
                      ("HELP_PINS", lambda _: run_help_corpus())):
        with tempfile.TemporaryDirectory() as tmp:
            pins = run(Path(tmp))
        sys.stdout.write(f"{name} = {{\n")
        for key, value in pins.items():
            sys.stdout.write(f"    {key!r}: {value!r},\n")
        sys.stdout.write("}\n\n")
