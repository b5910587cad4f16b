"""Lemma 1 and structured groups at the paper's p.

The sampler draws only the shift group at p > 30, so the structured
rows here carry the large groups: the cyclotomic row of d | p - 1 is
fixed by i -> u*i for every d-th power u mod p, a group of order
p(p - 1)/d. `audit_run` takes each matrix of the envelope premise audit
through validate, autgroup and, unless the matrix trips the
surveillance, both bound forms once per session, and every test that
pins the matrix reads that one run. Lemma 1 is checked at these p
through the public key alone, by an oracle that shares no search with
`autgroup`: H' gives A up to a row permutation, and an unrooted
two-matrix backtrack gives the rest.
"""

import functools
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from qcnied import io, report
from qcnied.autgroup import stab_full, verify_lemma1
from qcnied.circulant import BlockCirculant
from qcnied.cli import main
from qcnied.conditions import sample_compliant, sample_variant, validate_all
from qcnied.field import FieldCtx
from qcnied.niederreiter import _inverse, _mix, keygen, unpack_column
from qcnied.perm import act, inverse, pair_product

from test_autgroup import unrooted_pairs
from test_golden_corpus import AUTGROUP_CORPUS, AUTGROUP_FIXED


def primitive_root(p: int) -> int:
    """The least generator of the units mod the prime p."""
    return next(g for g in range(2, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)


def cyclotomic_row(p: int, d: int) -> tuple[int, ...]:
    """0 at 0 and 1 + (log_g i mod d) elsewhere, for g = primitive_root(p):
    fixed by i -> u*i for every d-th power u mod p."""
    g, log = primitive_root(p), {}
    for e in range(p - 1):
        log[pow(g, e, p)] = e
    return (0,) + tuple(1 + log[i] % d for i in range(1, p))


def cyclotomic(p: int, *ds: int, m1: int = 1) -> BlockCirculant:
    """(p, m1, m1 + len(ds) / m1) C whose blocks, in grid order, have the
    cyclotomic rows of ds, over the least field with 2^eta > max(ds)."""
    rows = [cyclotomic_row(p, d) for d in ds]
    return BlockCirculant(FieldCtx(max(ds).bit_length()), p, m1, m1 + len(ds) // m1, rows)


STRUCTURED = [(31, d) for d in (2, 3, 5, 6, 10, 15)] + [(61, 2)]

# 1 on the difference set {1,5,11,24,25,27} mod 31, else 3: a PG(2,5) block
PG25_ROW = tuple(1 if j in {1, 5, 11, 24, 25, 27} else 3 for j in range(31))

# refused today, and counted rather than screened out: the PG(2,5)
# group, of order 372,000, passes STAB_BUDGET while the elements are
# listed one by one; holding groups by generators is to accept it
EXPECTED_REFUSALS = {"pg25_p31": BlockCirculant(FieldCtx(2), 31, 1, 2, [PG25_ROW])}


def _difference_set(p: int, minority: set[int]) -> BlockCirculant:
    return BlockCirculant(FieldCtx(2), p, 1, 2, [tuple(1 if j in minority else 3 for j in range(p))])


# tag -> (C, the exit code of autgroup): the envelope premise audit's
# corpus. The one-block rows are STRUCTURED's. The trip wires are the
# Fano plane, the (11,5,2) biplane of the quadratic residues and PG(2,3) =
# {0,1,3,9} mod 13, of orders 168, 660 and 5,616; PG(2,5) alone is
# refused and counted in EXPECTED_REFUSALS, but beside a cyclotomic block
# its label needs only a part of its group, and C's group is the shifts.
# The cyclotomic rows at p = 101 and 127 take 8-12 s each and stay out.
AUDIT = {
    **{f"cyclotomic_p{p}_d{d}": (cyclotomic(p, d), 0) for p, d in STRUCTURED},
    **{f"cyclotomic_p31_d{a}{b}": (cyclotomic(31, a, b), 0) for a, b in ((2, 3), (2, 5), (3, 5))},
    "cyclotomic_p31_d2356": (cyclotomic(31, 2, 3, 5, 6, m1=2), 0),
    "pg25_beside_cyclotomic_p31_d3": (
        BlockCirculant(FieldCtx(2), 31, 1, 3, [PG25_ROW, cyclotomic_row(31, 3)]), 0),
    "fano": (_difference_set(7, {3, 4, 6}), 3),
    "biplane_p11": (_difference_set(11, {1, 3, 4, 5, 9}), 3),
    "pg23_p13": (_difference_set(13, {0, 1, 3, 9}), 3),
}


@functools.cache
def audit_run(tag: str) -> SimpleNamespace:
    """AUDIT[tag] through validate (--desk-scale at p <= 30), autgroup and,
    unless autgroup fails, both bound forms, once per test session: the
    exit codes, autgroup's wall time in process and the parsed reports,
    for every test that pins the matrix to read."""
    c, _ = AUDIT[tag]
    with tempfile.TemporaryDirectory() as tmp:
        mat, rep, exact, envelope = (Path(tmp) / name for name in ("m.qcm", "g.qcr", "x.qcr", "e.qcr"))
        mat.write_text(io.write_matrix(c))
        run = SimpleNamespace(
            validate=main(["validate", str(mat)] + ["--desk-scale"] * (c.p <= 30)),
            bound=None, exact=None, envelope=None)
        start = time.perf_counter()
        run.autgroup = main(["autgroup", str(mat), "-o", str(rep)])
        run.autgroup_s = time.perf_counter() - start
        run.fields, run.elems = report.read_report(rep.read_text())
        if run.autgroup == 0:
            run.bound = (main(["bound", "--report", str(rep), "-o", str(exact)]),
                         main(["bound", "--envelope", "--p", str(c.p), "--m1", str(c.m1),
                               "--m2", str(c.m2), "-o", str(envelope)]))
            if run.bound == (0, 0):
                run.exact = report.read_report(exact.read_text())[0]
                run.envelope = report.read_report(envelope.read_text())[0]
    return run


@pytest.mark.parametrize("tag", sorted(AUDIT))
def test_envelope_premise_audit(tag):
    # each matrix passes validate and Lemma 1's replay with distinct row
    # parts; it trips the surveillance, or its exact group meets the
    # envelope's premises and its exact dk is at most the envelope's
    c, code = AUDIT[tag]
    run, p = audit_run(tag), c.p
    fields, elems = run.fields, run.elems
    assert (run.validate, run.autgroup) == (0, code)
    assert fields["lemma1"] == "ok"
    assert fields["order"] == fields["lemma1_checked"] == str(len(elems))
    assert len({p1 for p1, _ in elems}) == len(elems)
    if code == 3:
        assert fields["surveillance"].startswith("tripped")
        assert fields["classification"] == "exceptional"
        # the row-0 certificate: some row part fixing 0 is not i -> u*i
        assert any(p1 != tuple(p1[1] * i % p for i in range(p)) for p1, _ in elems if p1[0] == 0)
        return
    rows, cols = float(fields["min_degree_rows"]), float(fields["min_degree_cols"])
    assert fields["surveillance"] == "clear"
    assert len(elems) <= p * p
    assert rows >= p - 1 and cols >= rows
    assert run.bound == (0, 0)
    assert float(run.exact["ln_dk"]) <= float(run.envelope["ln_dk"])


@pytest.mark.parametrize("p,d", STRUCTURED)
def test_cyclotomic_rows_meet_the_envelope_premises(p, d):
    # one cyclotomic block: the shifts and the d-th power multipliers
    run = audit_run(f"cyclotomic_p{p}_d{d}")
    fields, order = run.fields, p * (p - 1) // d
    assert (run.validate, run.autgroup) == (0, 0)
    assert fields["order"] == fields["lemma1_checked"] == str(order) and len(run.elems) == order
    assert order <= p * p
    assert (fields["surveillance"], fields["lemma1"]) == ("clear", "ok")
    assert fields["classification"] == fields["block_0_0"] == "affine-subgroup"
    # the row-0 certificate: the row parts fixing 0 are exactly i -> u*i
    # for the d-th powers u mod p
    fixing_0 = sorted(p1 for p1, _ in run.elems if p1[0] == 0)
    powers = {pow(u, d, p) for u in range(1, p)}
    assert fixing_0 == sorted(tuple(u * i % p for i in range(p)) for u in powers)
    assert (fields["min_degree_rows"], fields["min_degree_cols"]) == (str(p - 1), str(2 * (p - 1)))
    assert run.bound == (0, 0)
    assert float(run.exact["ln_dk"]) <= float(run.envelope["ln_dk"])
    assert int(run.exact["max_c"]) >= int(run.envelope["max_c"])


def test_pg25_block_is_labelled_without_listing_its_group():
    # the PG(2,5) block's own 372,000 pairs pass STAB_BUDGET, but its
    # label is decided at the first row part fixing 0 that is not i -> u*i,
    # and the whole C has only the 31 shifts
    run = audit_run("pg25_beside_cyclotomic_p31_d3")
    fields = run.fields
    assert (run.validate, run.autgroup) == (0, 0)
    assert run.autgroup_s < 0.5
    assert fields["order"] == fields["lemma1_checked"] == "31"
    assert (fields["block_0_0"], fields["block_0_1"]) == ("exceptional", "affine-subgroup")
    assert fields["classification"] == "exceptional"
    assert (fields["lemma1"], fields["surveillance"]) == ("ok", "clear")
    assert run.bound == (0, 0)
    assert float(run.exact["ln_dk"]) <= float(run.envelope["ln_dk"])


@pytest.mark.parametrize("tag", sorted(EXPECTED_REFUSALS))
def test_expected_refusals_at_the_paper_p(tmp_path, capsys, tag):
    mat = tmp_path / "m.qcm"
    mat.write_text(io.write_matrix(EXPECTED_REFUSALS[tag]))
    assert main(["validate", str(mat), "--desk-scale"]) == 0
    capsys.readouterr()
    assert main(["autgroup", str(mat)]) == 1
    assert capsys.readouterr().err == (
        "error: stabilizer search of a 31-row matrix needs more than 524288 nodes plus pairs\n")


def test_row_parts_are_distinct_wherever_the_premise_holds():
    # the premise holds on every group of the autgroup corpus, and there
    # no two elements share a row part: the claim of the removed per-P1
    # uniqueness branch, which the envelope premise audit checks on its
    # own corpus
    corpus = [(sample_variant if variant else sample_compliant)(p, m1, m2, eta, seed)
              for p, m1, m2, eta, seed, variant in AUTGROUP_CORPUS]
    corpus += list(AUTGROUP_FIXED.values())
    for c in corpus:
        g = stab_full(c)
        assert verify_lemma1(c, validate_all(c, desk_scale=True)) is None
        assert len(g.row_projection()) == g.order


def public_view(pub) -> tuple:
    """C'' = A1^-1 H' on the non-binary columns, in order, for A1 the
    binary columns of H' read in order: C with its rows and columns
    permuted, from the public key alone."""
    k, eta = pub.k, pub.ctx.eta
    binary = [col for col in pub.hprime if not col >> k]
    assert len(binary) == k
    a1 = tuple(sum((col >> i & 1) << t for t, col in enumerate(binary)) for i in range(k))
    a1inv = _inverse(a1)
    cols = [unpack_column(_mix(a1inv, col, eta), k, eta) for col in pub.hprime if col >> k]
    return tuple(zip(*cols))


# tag -> (function making C, keygen seed); the (61, 1, 2, 2) cyclotomic row
# with d = 2 passes as well, but its 1,830 solutions take about 45 s
KEY_CASES = {
    **{f"compliant_p31_seed{s}": (lambda s=s: sample_compliant(31, 1, 2, 2, s), s)
       for s in (1, 2, 3)},
    "compliant_p61_seed1": (lambda: sample_compliant(61, 1, 2, 2, 1), 1),
    "cyclotomic_p31_d2": (lambda: cyclotomic(31, 2), 1),
}


@pytest.mark.parametrize("tag", sorted(KEY_CASES))
def test_lemma1_through_the_public_key(tag):
    build, seed = KEY_CASES[tag]
    c = build()
    priv, pub = keygen(c, seed)
    binary = [j for j, col in enumerate(pub.hprime) if not col >> pub.k]
    assert binary == [j for j in range(pub.n) if priv.b0[j] < pub.k]
    target = public_view(pub)
    solutions = unrooted_pairs(c.dense, target)
    g = stab_full(c)
    assert len(solutions) == g.order
    assert all(act(p, c.dense, q) == target for p, q in solutions)
    # act(s, C) = C'' = act(s0, C), so s then s0^-1 fixes C
    p0, q0 = solutions[0]
    undo = (inverse(p0), inverse(q0))
    elements = set(g.elements)
    assert all(pair_product(s, undo) in elements for s in solutions)
