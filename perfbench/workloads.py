"""The three workloads, as rounds of CLI command chains.

A round is a list of chains; a chain is a list of commands where later
arguments may depend on earlier outputs (the support weights depend on
the ``e`` that keygen prints). Every input is drawn from a random stream
seeded by (workload, seed, round, chain), so the same seed gives the
same commands. Each workload function runs its untimed preparation (the
screening) and returns the chain bodies for the timed section.

A chain body is a generator: it declares how many commands it plans with
``ch.plan`` and runs each one with ``yield from ch.run(...)``, which hands
control back to the runner before the command starts. The runner uses
that to interleave the chains of a round.

Why these workloads, and which layers they stress, is in README.md.
"""

from __future__ import annotations

import checks

SEED_RANGE = 1 << 30

ROUNDTRIP_SHAPES = ((5, 1, 2, 2), (7, 1, 2, 2), (7, 1, 3, 2))
MESSAGES_PER_KEY = 8

AUDIT_SHAPES = ROUNDTRIP_SHAPES
AUDIT_MATRICES_PER_SHAPE = 2
AUDIT_VARIANT = (5, 2, 4, 2)
AUDIT_VARIANT_THRESHOLD = "0.5"
AUDIT_VARIANT_CONSTANT_BLOCKS = 2
AUDIT_REFUSED = (11, 1, 2, 2)  # brute-force stabilizer search refuses p > 8 today
SWEEP_PRIMES = (31, 61, 101)
ENVELOPE_P, ENVELOPE_H_ORDER, ENVELOPE_MAX_C = 31, 961, 5


def _full_capacity(m: checks.Matrix) -> bool:
    return checks.error_capacity(m) == m.n


def _short_enumeration(m: checks.Matrix) -> bool:
    return checks.error_capacity(m) <= 4


def _no_light_codeword(m: checks.Matrix) -> bool:
    d = checks.min_kernel_weight(m)
    return d is None or d > 20


def _two_constant_blocks(m: checks.Matrix) -> bool:
    return sum(len(set(row)) == 1 for row in m.rows) == AUDIT_VARIANT_CONSTANT_BLOCKS


# Each capacity round holds one key from each stratum, so every run does
# the same amount of syndrome enumeration whatever the seed:
#   (11,1,2,3) with e = n: keygen and decrypt each enumerate all 2^22
#     vectors, so one message;
#   (5,2,4,2) with e <= 4: the enumeration stops early and process cost
#     dominates, so eight messages, as a key is used in the everyday flow;
#   (13,1,2,2) with no codeword of weight <= 20 (e >= 10): keygen must
#     enumerate past weight 10, which the enumeration budget refuses today.
# (shape, stratum, messages; 0 messages means search -> keygen only)
CAPACITY_STRATA = (
    ((11, 1, 2, 3), _full_capacity, 1),
    ((5, 2, 4, 2), _short_enumeration, MESSAGES_PER_KEY),
    ((13, 1, 2, 2), _no_light_codeword, 0),
)
SCREEN_ATTEMPTS = 64


def _shape_args(params) -> list[str]:
    return [str(v) for v in params]


def _keygen_e(stdout: str) -> int:
    checks.require(stdout.startswith("e: ") and stdout[3:-1].isdigit(),
                   f"keygen printed {stdout!r}")
    return int(stdout[3:-1])


def _search(ch, params, seed, validate: bool):
    m = ch.file("m.qcm")
    yield from ch.run("search", *_shape_args(params), "--seed", seed, "-o", m)
    ch.check(checks.read_matrix, m, params)
    if validate:
        rep = ch.file("v.qcr")
        yield from ch.run("validate", m, "--desk-scale", "-o", rep)
        ch.check(lambda: checks.check_validate(rep, checks.read_matrix(m), variant=False))
    return m


def _keygen(ch, params, m, refusable: bool):
    """Run keygen; return the e it printed, or None when it was refused."""
    priv, pub = ch.file("sk"), ch.file("pk")
    res = yield from ch.run("keygen", m, "--seed", ch.rng.randrange(SEED_RANGE),
                            "--priv", priv, "--pub", pub, refusable=refusable)
    if res.exit != 0:
        return None
    ch.check(lambda: checks.check_keygen(res.stdout, checks.read_matrix(m), priv, pub))
    e = _keygen_e(res.stdout)
    ch.key(params[0] * params[2], e)
    return e


def _messages(ch, params, e: int, count: int):
    n = params[0] * params[2]
    priv, pub = ch.file("sk"), ch.file("pk")
    for i in range(count):
        support = tuple(sorted(ch.rng.sample(range(n), ch.rng.randint(0, min(e, n)))))
        ct = ch.file(f"ct{i}")
        yield from ch.run("encrypt", pub, "--support", ",".join(map(str, support)), "-o", ct)
        ch.check(checks.check_ciphertext, pub, support, ct)
        res = yield from ch.run("decrypt", priv, ct)
        ch.check(checks.check_decrypt, res.stdout, support)


def roundtrip(rnd) -> list:
    """search -> validate --desk-scale -> keygen -> (encrypt -> decrypt) x 8."""

    def chain(params):
        def body(ch):
            ch.plan(3 + 2 * MESSAGES_PER_KEY)
            m = yield from _search(ch, params, ch.rng.randrange(SEED_RANGE), validate=True)
            e = yield from _keygen(ch, params, m, refusable=False)
            yield from _messages(ch, params, e, MESSAGES_PER_KEY)
        return body

    return [chain(params) for params in ROUNDTRIP_SHAPES]


def capacity(rnd) -> list:
    """search -> keygen -> (encrypt -> decrypt) x messages on screened keys."""

    def chain(params, seed, messages, screened):
        def body(ch):
            ch.plan(2 + 2 * messages)
            m = yield from _search(ch, params, seed, validate=False)
            ch.check(lambda: checks.require(m.read_bytes() == screened,
                                            f"{m.name}: search output differs from the screening run"))
            e = yield from _keygen(ch, params, m, refusable=messages == 0)
            yield from _messages(ch, params, e, messages)
        return body

    bodies = []
    for i, (params, stratum, messages) in enumerate(CAPACITY_STRATA):
        seed, screened = rnd.screen(i, params, stratum, SCREEN_ATTEMPTS)
        bodies.append(chain(params, seed, messages, screened))
    return bodies


def audit(rnd) -> list:
    """search -> validate -> autgroup -> bound --report, plus fixed chains."""

    def stabilizer_chain(params, variant: bool, seed=None):
        def body(ch):
            ch.plan(4)
            p, m1 = params[0], params[1]
            m, v, g, b = ch.file("m.qcm"), ch.file("v.qcr"), ch.file("g.qcr"), ch.file("b.qcr")
            flags = ["--variant", "--threshold", AUDIT_VARIANT_THRESHOLD] if variant else []
            ceiling = p ** (2 * m1) if variant else p * p
            search_seed = ch.rng.randrange(SEED_RANGE) if seed is None else seed
            yield from ch.run("search", *_shape_args(params), "--seed", search_seed, *flags[:1], "-o", m)
            yield from ch.run("validate", m, "--desk-scale", *flags, "-o", v)
            res = yield from ch.run("autgroup", m, *flags[1:], "-o", g, expect=(0, 3))
            yield from ch.run("bound", "--report", g, "-o", b)

            def verify():
                mat = checks.read_matrix(m, params)
                checks.check_validate(v, mat, variant)
                order = checks.check_autgroup(g, mat, res.exit, ceiling)
                checks.check_bound_report(b, mat, order)
            ch.check(verify)
        return body

    def fano(ch):
        m, g = ch.file("fano.qcm"), ch.file("g.qcr")
        m.write_text(checks.fano_matrix_text(), encoding="utf-8")
        yield from ch.run("autgroup", m, "-o", g, expect=(3,))
        ch.check(lambda: checks.check_autgroup(g, checks.read_matrix(m), 3, 7 * 7))

    def refused_autgroup(ch):
        ch.plan(2)
        m, g = ch.file("m.qcm"), ch.file("g.qcr")
        yield from ch.run("search", *_shape_args(AUDIT_REFUSED), "--seed", ch.rng.randrange(SEED_RANGE),
                          "-o", m)
        res = yield from ch.run("autgroup", m, "-o", g, refusable=True)
        if res.exit == 0:
            p = AUDIT_REFUSED[0]
            ch.check(lambda: checks.check_autgroup(g, checks.read_matrix(m, AUDIT_REFUSED), 0, p * p))

    def sweep(ch):
        csv = ch.file("sweep.csv")
        yield from ch.run("sweep", "--p", ",".join(map(str, SWEEP_PRIMES)), "-o", csv)
        ch.check(checks.check_sweep, csv, SWEEP_PRIMES)

    def envelope(ch):
        rep = ch.file("env.qcr")
        yield from ch.run("bound", "--envelope", "--p", ENVELOPE_P, "-o", rep)
        ch.check(checks.check_envelope, rep, ENVELOPE_P, ENVELOPE_H_ORDER, ENVELOPE_MAX_C)

    # The variant matrix is screened for two constant blocks: their symmetric
    # pair stabilizers make the largest groups (order 25 to 100) and the
    # heaviest autgroup command, so every round carries the same worst case.
    variant_seed, _ = rnd.screen(0, AUDIT_VARIANT, _two_constant_blocks, SCREEN_ATTEMPTS, ("--variant",))
    bodies = [stabilizer_chain(params, False)
              for params in AUDIT_SHAPES for _ in range(AUDIT_MATRICES_PER_SHAPE)]
    bodies += [stabilizer_chain(AUDIT_VARIANT, True, variant_seed), fano, refused_autgroup, sweep, envelope]
    return bodies


WORKLOADS = {"roundtrip": roundtrip, "capacity": capacity, "audit": audit}

# The end-to-end metrics run.summarize() scales by the host speed, where not
# every time and rate (see README.md, "Host speed"). The reference follows
# the cost of starting a CLI process, which sets every figure of roundtrip and
# audit. It does not follow the capacity enumerations: there it scales only
# the figures of short commands.
HOST_SCALED = {"capacity": {"setup_s", "cmd_s.p50"}}
