"""Acceptance gate: the thirteen shipped guarantees, one test and one
printed verdict line each (run with -s to see them).

Criteria 4, 5 and 9 share the seeded (p = 7) stabilizer corpus; it is
built once, inside the criterion-4 timing budget, and reused. Seed 11
at (7, 1, 2) is deliberately absent from the pinned list: its minority
positions form a planar difference set, the stabilizer is the order-168
exceptional group, and it serves below as the fixture proving that the
surveillance exit actually fires.
"""

import hashlib
import itertools
import math
import random
import time
from contextlib import contextmanager
from math import factorial

import pytest

from qcnied import cli, io, report
from qcnied.circulant import BlockCirculant
from qcnied.conditions import good_shape, sample_compliant, sample_variant, validate_all
from qcnied.distinguish import (
    class_size_sn,
    dk_bound,
    dk_bound_envelope,
    logsumexp,
    s1_term,
)
from qcnied.field import FieldCtx
from qcnied.autgroup import SYMMETRIC, stab_full

from test_autgroup import FANO_ROW, bruteforce_pairs, column_orbit
from test_circulant import perm_equivalent
from test_distinguish import brute_class_sizes, cycle_types

C4_SEEDS_M2 = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21)
C4_SEEDS_M3 = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)

# search 61 1 2 2 --seed s writes these matrices, and each gets the same
# report (the 61 shift pairs) and bound. The pins were taken from the
# blockwise search that preceded the rooted one, with its `method` report
# line dropped.
P61_MATRICES = {
    1: "5aa4f816323ce6547b090ca71bc877cfa4591b606eb106d9aae825373f8bfdd4",
    2: "af8d81f08fea9abe2a68370865d13af04cab14078e7f56d4158fb7ee3e3a888b",
    3: "8a241c2c853b3b57228da561e612ffc5be97bee34c8f6f7ebbbf5c129da480b0",
}
P61_REPORT = "7fead14fff3341fed1f68c49fb4bddb60e0833d7a61da15d246bef6a216b1c10"
P61_BOUND = "b19980fc0c4d85f535a50cdd639840a65c8f2648127b40cc99708e435e741b66"

# search 127 1 2 2 --seed s, then keygen --seed s, then encrypt of a
# seeded weight-e support: sha256 of the matrix, the private key, the
# public key and the ciphertext. The pins were taken from the lane-packed
# scrambler that preceded the bit-planes.
P127_PINS = {
    1: ("49bb96f43d85814deee78c3ee729295f1aea2d5263b0ca0005e5f251d6ce3fa1",
        "bc2ff092277b53acff367613e176be3beab008046c375de389f83ae29c20c273",
        "6a8b97683594ee580b085eb590a1f851bd0099373b7d50980b67f397b08b6bb8",
        "50d71d2c576dc4676dcbfae93c4ee7fb76a710760efdb56b2511b76ccbc199b3"),
    2: ("729c25a7600658d73c3590f7c200c344fe4263dde1a253801d7c8af9f6f07f92",
        "1365afff3a69ee9d408bc9261f8e8bbd7f062e59ceafcda657cbff010dff1937",
        "b1390d8e6d89b232ccd4021477c5398fb6dfe655bda2f5672224f45b4eab16a5",
        "c24ca0314774c7f71c0982f4b06e183fedac57acbc93b5f35bbde0e57b0c3344"),
    3: ("f79143ebf5eff28adc0326dd6ea8dfe9ceffa36feb49fdaca241c408c5bad28c",
        "666eec18cfcf371e3da7e00d44b6b59d39921e7afed339fd69a2b4eb50c9262f",
        "103ac6832c9f7fb4e4d7444830f322133ef90396712f04869ca1b4ed5433c4fe",
        "46ad7188790cf438ab2743e21ab36d399a8f8ad02d67ca63279088446422cb47"),
}

_corpus_cache: list = []


def corpus():
    """(matrix, stabilizer) for the pinned p = 7 seeds."""
    if not _corpus_cache:
        for m2, seeds in ((2, C4_SEEDS_M2), (3, C4_SEEDS_M3)):
            for seed in seeds:
                c = sample_compliant(7, 1, m2, 2, seed=seed)
                _corpus_cache.append((c, stab_full(c)))
    return _corpus_cache


@contextmanager
def criterion(num, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {label}")
        raise
    print(f"criterion {num:2d}: PASS  {label}  ({time.perf_counter() - t0:.1f}s)")


def test_criterion_01_field_axioms():
    with criterion(1, "field axioms exhaustive for eta in 1..4, < 10 s"):
        t0 = time.perf_counter()
        for eta in (1, 2, 3, 4):
            ctx = FieldCtx(eta)
            q = ctx.order
            for a in range(q):
                assert ctx.add(a, 0) == a and ctx.mul(a, 1) == a
                if a:
                    assert ctx.mul(a, ctx.inv(a)) == 1
                for b in range(q):
                    assert ctx.add(a, b) == ctx.add(b, a)
                    assert ctx.mul(a, b) == ctx.mul(b, a)
                    for c in range(q):
                        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
                        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(
                            ctx.mul(a, b), ctx.mul(a, c)
                        )
        assert time.perf_counter() - t0 < 10.0


def test_criterion_02_equivalence_oracle():
    with criterion(2, "multiset equivalence == exhaustive search, 200 pairs"):
        rng = random.Random(2)
        checked = 0
        for length in (5, 6):
            perms = list(itertools.permutations(range(length)))
            for _ in range(100):
                v = tuple(rng.randrange(4) for _ in range(length))
                if rng.random() < 0.5:
                    w = list(v)
                    rng.shuffle(w)
                    w = tuple(w)
                else:
                    w = tuple(rng.randrange(4) for _ in range(length))
                brute = any(tuple(v[pi[i]] for i in range(length)) == w for pi in perms)
                assert perm_equivalent(v, w) == brute
                checked += 1
        assert checked == 200


def test_criterion_03_roundtrip_corpus(tmp_path, capsys):
    with criterion(3, "file-pipeline roundtrip, all weights <= e, seeds 1..10, < 60 s"):
        t0 = time.perf_counter()
        failures = 0
        for seed in range(1, 11):
            c = sample_compliant(5, 1, 2, 2, seed=seed)
            mat = tmp_path / f"m{seed}.qcm"
            mat.write_text(io.write_matrix(c))
            priv_p, pub_p = tmp_path / f"sk{seed}", tmp_path / f"pk{seed}"
            assert cli.main(["keygen", str(mat), "--seed", str(seed),
                             "--priv", str(priv_p), "--pub", str(pub_p)]) == 0
            e = io.read_private_key(priv_p.read_text()).e
            ct, out = tmp_path / "ct", tmp_path / "out"
            for w in range(e + 1):
                for sup in itertools.combinations(range(10), w):
                    arg = ",".join(map(str, sup))
                    assert cli.main(["encrypt", str(pub_p), "--support", arg,
                                     "-o", str(ct)]) == 0
                    assert cli.main(["decrypt", str(priv_p), str(ct),
                                     "-o", str(out)]) == 0
                    if out.read_text() != arg + "\n":
                        failures += 1
        assert failures == 0
        assert time.perf_counter() - t0 < 60.0


def test_criterion_04_stabilizer_bound_corpus(tmp_path):
    with criterion(4, "|H| <= 49 and minimal degrees on 30 pinned p=7 matrices, < 10 min"):
        t0 = time.perf_counter()
        for c, g in corpus():
            assert g.order <= 49
            assert g.min_degree_pi1 >= 6
            assert g.min_degree_pi2 >= g.min_degree_pi1
            # the prime-size premise is waived at this desk scale; the
            # report must say so rather than silently pass
            assert validate_all(c, desk_scale=True).v.status == "waived"
        assert time.perf_counter() - t0 < 600.0

        # the trip wire itself: a compliant matrix whose minority
        # positions form a difference set escapes the affine ceiling,
        # and the command must exit 3 and label it exceptional
        fano = BlockCirculant(FieldCtx(2), 7, 1, 2, [FANO_ROW])
        mat, rep = tmp_path / "fano.qcm", tmp_path / "fano.qcr"
        mat.write_text(io.write_matrix(fano))
        assert cli.main(["autgroup", str(mat), "-o", str(rep)]) == 3
        fields, _ = report.read_report(rep.read_text())
        assert fields["classification"] == "exceptional"
        assert fields["surveillance"].startswith("tripped")


def test_criterion_05_exact_search_equals_bruteforce():
    with criterion(5, "exact search == brute-force oracle on the whole corpus"):
        for c, g in corpus():
            # all 7! row permutations of the whole of C, no pruning
            assert g.elements == bruteforce_pairs(c.expand())


def test_criterion_06_negative_controls():
    with criterion(6, "forbidden shapes blow up to the symmetric group"):
        ctx = FieldCtx(2)
        flat = BlockCirculant(ctx, 5, 1, 2, [(2, 2, 2, 2, 2)])
        g = stab_full(flat)
        assert len({p1 for p1, _ in g.elements}) == 120
        assert g.classification == SYMMETRIC

        spike = BlockCirculant(ctx, 5, 1, 2, [(2, 2, 2, 2, 3)])
        g = stab_full(spike)
        assert len({p1 for p1, _ in g.elements}) == 120
        assert g.order == 120
        assert g.classification == SYMMETRIC


def test_criterion_07_orbit_floor():
    with criterion(7, "column orbits of 20 good blocks reach 3p and the class count"):
        rng = random.Random(77)
        seen = 0
        while seen < 20:
            row = tuple(rng.randrange(4) for _ in range(5))
            multiplicities = sorted(row.count(v) for v in set(row))
            # (2, 3) multiplicities are the documented floor exception
            # below p = 7; see the orbit regression in test_autgroup
            if not good_shape(row) or multiplicities == [2, 3]:
                continue
            orbit = column_orbit(row)
            classes = factorial(5)
            for m in multiplicities:
                classes //= factorial(m)
            assert len(orbit) == classes
            assert len(orbit) >= 15
            seen += 1


def test_criterion_08_class_sizes():
    with criterion(8, "conjugacy class sizes exact, partitions sum to n!"):
        for n in range(3, 7):
            for t, size in brute_class_sizes(n).items():
                assert class_size_sn(t) == size
        for n in range(1, 11):
            assert sum(class_size_sn(t) for t in cycle_types(n)) == factorial(n)


def test_criterion_09_bound_formulas():
    with criterion(9, "s1 closed form, linear-domain additivity, envelope soundness"):
        assert math.exp(s1_term(1, 2, 3)) == pytest.approx(
            math.sqrt(2) / 6, rel=1e-9
        )
        rng = random.Random(9)
        for _ in range(50):
            h = rng.randrange(1, 10**6)
            k = rng.randrange(2, 50)
            n = rng.randrange(k + 1, 120)
            s1 = s1_term(h, k, n)
            s0 = rng.uniform(-250.0, 5.0)
            dk = logsumexp([s0, s1])
            m = max(s0, s1)
            assert math.exp(dk - m) == pytest.approx(
                math.exp(s0 - m) + math.exp(s1 - m), rel=1e-9
            )
        for c, g in corpus():
            env = dk_bound_envelope(7, g.m1, g.m2)
            assert env.dk_log >= dk_bound(g.elements, g.p, g.m1, g.m2).dk_log


def test_criterion_10_envelope_report(tmp_path):
    with criterion(10, "envelope bound command at p = 31, < 5 s, anchored max_c"):
        rep = tmp_path / "b.qcr"
        t0 = time.perf_counter()
        assert cli.main(["bound", "--envelope", "--p", "31", "-o", str(rep)]) == 0
        assert time.perf_counter() - t0 < 5.0
        fields, _ = report.read_report(rep.read_text())
        assert fields["h_order"] == "961"
        ln_dk = float(fields["ln_dk"])
        assert math.isfinite(ln_dk)
        assert int(fields["max_c"]) >= 1
        # frozen regression anchor, see also the module-level bound test
        assert int(fields["max_c"]) == 5
        assert ln_dk == pytest.approx(-44.6688360993728881, rel=1e-12)


def test_criterion_11_variant_regime():
    with criterion(11, "variant matrices stay under p^(2 m1) with degree floor 4"):
        for seed in range(1, 11):
            c = sample_variant(5, 2, 4, 2, seed=seed)
            rep = validate_all(c, desk_scale=True, ratio_threshold=0.5)
            assert rep.variant_ok() and not rep.strict_ok()
            g = stab_full(c)
            assert g.order <= 625
            assert g.min_degree_pi1 >= 4


def test_criterion_12_paper_regime(tmp_path, capsys):
    with criterion(12, "search 61 1 2 2 -> autgroup -> bound pinned, autgroup < 1 s, seeds 1..3"):
        for seed, matrix_sha in P61_MATRICES.items():
            mat, rep = tmp_path / f"m{seed}.qcm", tmp_path / f"g{seed}.qcr"
            assert cli.main(["search", "61", "1", "2", "2", "--seed", str(seed),
                             "-o", str(mat)]) == 0
            assert hashlib.sha256(mat.read_bytes()).hexdigest() == matrix_sha
            t0 = time.perf_counter()
            assert cli.main(["autgroup", str(mat), "-o", str(rep)]) == 0
            assert time.perf_counter() - t0 < 1.0
            assert hashlib.sha256(rep.read_bytes()).hexdigest() == P61_REPORT
            assert report.read_report(rep.read_text())[0]["surveillance"] == "clear"
            capsys.readouterr()
            assert cli.main(["bound", "--report", str(rep)]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == P61_BOUND


def test_criterion_13_keys_at_the_paper_p(tmp_path, capsys):
    with criterion(13, "search 127 1 2 2 -> keygen -> encrypt -> decrypt pinned, "
                       "keygen < 0.5 s, seeds 1..3"):
        sha = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
        for seed, pins in P127_PINS.items():
            mat, sk, pk, ct, out = (tmp_path / f"{name}{seed}"
                                    for name in ("m", "sk", "pk", "ct", "out"))
            assert cli.main(["search", "127", "1", "2", "2", "--seed", str(seed),
                             "-o", str(mat)]) == 0
            t0 = time.perf_counter()
            assert cli.main(["keygen", str(mat), "--seed", str(seed),
                             "--priv", str(sk), "--pub", str(pk)]) == 0
            assert time.perf_counter() - t0 < 0.5
            priv = io.read_private_key(sk.read_text())
            support = ",".join(map(str, sorted(random.Random(seed).sample(range(priv.n), priv.e))))
            assert cli.main(["encrypt", str(pk), "--support", support, "-o", str(ct)]) == 0
            assert (sha(mat), sha(sk), sha(pk), sha(ct)) == pins
            assert cli.main(["decrypt", str(sk), str(ct), "-o", str(out)]) == 0
            assert out.read_text() == support + "\n"
            capsys.readouterr()
