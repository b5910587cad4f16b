"""The QCREP v1 report format and the commands that write reports.

  QCREP v1    flat `key: value` report lines; autgroup reports append one
              `elem:` line per group element.

validate, autgroup, bound and sweep run here. `cli` imports this module
only to run one of them, so a keygen, encrypt or decrypt process never
compiles it. Same format discipline as `io`: UTF-8, LF endings, an exact
header, canonical output.
"""

from __future__ import annotations

import math

from .cli import _emit, _int_list, _read
from .errors import ParseError, QcniedError
from .io import _int_token, _lines, _parse_params, read_matrix

QCREP_HEADER = "QCREP v1"


def write_report(fields, elems=None) -> str:
    out = [QCREP_HEADER]
    out.extend(f"{key}: {value}" for key, value in fields)
    if elems:
        for p1, p2 in elems:
            left = " ".join(str(i) for i in p1.images)
            right = " ".join(str(i) for i in p2.images)
            out.append(f"elem: {left} | {right}")
    return "\n".join(out) + "\n"


def read_report(text: str) -> tuple[dict[str, str], list[tuple[Perm, Perm]]]:
    from .circulant import Perm

    lines = _lines(text, "report")
    if not lines or lines[0] != QCREP_HEADER:
        raise ParseError(f"report: expected header {QCREP_HEADER!r}")
    fields: dict[str, str] = {}
    elems: list[tuple[Perm, Perm]] = []
    for line in lines[1:]:
        key, sep, value = line.partition(": ")
        if not sep:
            raise ParseError(f"report: bad line {line!r}")
        if key == "elem":
            left, bar, right = value.partition(" | ")
            if not bar:
                raise ParseError(f"report: bad element line {line!r}")
            try:
                p1 = Perm(_parse_params(left, len(left.split(" ")), "element images"))
                p2 = Perm(_parse_params(right, len(right.split(" ")), "element images"))
            except QcniedError as exc:
                raise ParseError(f"report: {exc}") from exc
            elems.append((p1, p2))
        elif key in fields:
            raise ParseError(f"report: repeated field {key!r}")
        else:
            fields[key] = value
    return fields, elems


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


def _threshold(threshold: float | None) -> float:
    from .conditions import VARIANT_RATIO_DEFAULT

    return VARIANT_RATIO_DEFAULT if threshold is None else threshold


def _cmd_validate(matrix, desk_scale=False, variant=False, threshold=None, out=None) -> int:
    from .conditions import validate_all

    c = read_matrix(_read(matrix))
    rep = validate_all(c, desk_scale=desk_scale, ratio_threshold=_threshold(threshold))
    fields = [("kind", "conditions")]
    fields += _shape_fields(c.p, c.m1, c.m2, c.ctx.eta)
    for name, verdict in rep.items():
        fields.append((f"cond_{name}", verdict.status))
        if not verdict.ok and verdict.witness is not None:
            fields.append((f"witness_{name}", _fmt(verdict.witness)))
    ok = rep.variant_ok() if variant else rep.strict_ok()
    fields.append(("ok", _fmt(ok)))
    _emit(write_report(fields), out)
    return 0 if ok else 1


def _surveillance(rep, g: "AutGroup", pi1: float, pi2: float) -> tuple[str, bool]:
    """Judge group g, of row and column minimal degrees pi1 and pi2,
    against the structural guarantees its matrix's ConditionReport gives.

    Compliant matrices must have |H| <= p^2 and both minimal degrees at
    least p - 1 with the column one no smaller than the row one; variant
    matrices get the weaker |H| <= p^(2 m1) ceiling. A breach means the
    guarantees themselves failed, which is reported as a trip, never
    absorbed.
    """
    p = g.p
    if rep.strict_ok():
        if g.order > p * p:
            return f"tripped (order {g.order} > p^2 = {p * p})", True
        if pi1 < p - 1:
            return f"tripped (row minimal degree {_fmt(pi1)} < {p - 1})", True
        if pi2 < pi1:
            return "tripped (column minimal degree below row minimal degree)", True
        return "clear", False
    if rep.variant_ok():
        ceiling = p ** (2 * g.m1)
        if g.order > ceiling:
            return f"tripped (order {g.order} > p^(2 m1) = {ceiling})", True
        return "clear", False
    return "not-applicable", False


def _cmd_autgroup(matrix, threshold=None, out=None) -> int:
    from .autgroup import EXCEPTIONAL, stab_full, verify_lemma1
    from .conditions import validate_all

    c = read_matrix(_read(matrix))
    # judged before the search: eta = 1 is refused here
    rep = validate_all(c, desk_scale=True, ratio_threshold=_threshold(threshold))
    g = stab_full(c)
    lem = verify_lemma1(c, g)
    pi1, pi2 = g.min_degree_pi1, g.min_degree_pi2
    verdict, tripped = _surveillance(rep, g, pi1, pi2)
    fields = [("kind", "autgroup")]
    fields += _shape_fields(c.p, c.m1, c.m2, c.ctx.eta)
    fields += [
        ("order", g.order),
        ("min_degree_rows", _fmt(pi1)),
        ("min_degree_cols", _fmt(pi2)),
        ("classification", EXCEPTIONAL if tripped else g.classification),
    ]
    for (i, j), label in sorted(g.block_labels.items()):
        fields.append((f"block_{i}_{j}", label))
    fields.append(("lemma1", "ok" if lem.ok else "premise-failed"))
    fields.append(("lemma1_checked", lem.checked))
    fields.append(("surveillance", verdict))
    _emit(write_report(fields, elems=g.elements), out)
    return 3 if tripped else 0


def _bound_fields(r) -> list:
    return [
        ("kind", "bound"),
        ("mode", r.mode),
        *_shape_fields(r.p, r.m1, r.m2),
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


def _envelope_shape(m1: int, m2: int, what: str) -> None:
    """Refuse block counts without 1 <= m1 < m2, as the file readers do."""
    if not 1 <= m1 < m2:
        raise ParseError(f"{what}: bad shape m1={m1} m2={m2}, need 1 <= m1 < m2")


def _check_group(elems, where: str) -> None:
    """Refuse elements that do not form a group under autgroup's pair law
    (P1, Q1) o (P2, Q2) = (P1 P2, Q2 Q1). Generators are taken greedily
    and their closure grown; each new one at least doubles it, so this
    costs at most |H| * ceil(log2 |H|) compositions."""
    given = [(p1.images, p2.images) for p1, p2 in elems]
    listed = set(given)
    identity = tuple(tuple(range(len(side))) for side in given[0])
    if identity not in listed:
        raise ParseError(f"{where}: the elements lack the identity")
    members, reached, gens = [identity], {identity}, []
    for g in given:
        if g in reached:
            continue
        gens.append(g)
        old = len(members)
        # members grows while it is walked: each new member is multiplied
        # by every generator, each old one only by the new generator
        for i, (p1, q1) in enumerate(members):
            for p2, q2 in gens if i >= old else gens[-1:]:
                h = (tuple(map(p1.__getitem__, p2)), tuple(map(q2.__getitem__, q1)))
                if h not in listed:
                    raise ParseError(f"{where}: the elements are not closed under composition")
                if h not in reached:
                    reached.add(h)
                    members.append(h)


def _cmd_bound(report=None, envelope=False, p=None, m1=None, m2=None, out=None) -> int:
    from .distinguish import dk_bound, dk_bound_envelope

    if (report is None) == (not envelope):
        raise ParseError("bound: give exactly one of --report and --envelope")
    if report is not None:
        if (p, m1, m2) != (None, None, None):
            raise ParseError("bound: --report takes its shape from the report, not --p/--m1/--m2")
        fields, elems = read_report(_read(report))
        if fields.get("kind") != "autgroup":
            raise ParseError(f"{report}: expected an autgroup report")
        try:
            p, m1, m2 = (_int_token(fields[key], key) for key in ("p", "m1", "m2"))
        except KeyError as exc:
            raise ParseError(f"{report}: missing p/m1/m2") from exc
        k, n = m1 * p, m2 * p
        for p1, p2 in elems:
            if p1.n != k or p2.n != n - k:
                raise ParseError(
                    f"{report}: element shape {p1.n}/{p2.n}, expected {k}/{n - k}"
                )
        if not elems:
            raise ParseError(f"{report}: report carries no group elements")
        # the bound counts elements, so a repeat or a dropped line would change it
        if len(set(elems)) != len(elems):
            raise ParseError(f"{report}: repeated group element")
        if "order" not in fields:
            raise ParseError(f"{report}: missing order")
        order = _int_token(fields["order"], "order")
        if order != len(elems):
            raise ParseError(f"{report}: order {order}, but {len(elems)} elements")
        _check_group(elems, report)
        r = dk_bound(elems, p, m1, m2)
    else:
        if p is None:
            raise ParseError("envelope mode needs --p")
        m1, m2 = 1 if m1 is None else m1, 2 if m2 is None else m2
        _envelope_shape(m1, m2, "bound --envelope")
        r = dk_bound_envelope(p, m1, m2)
    _emit(write_report(_bound_fields(r)), out)
    return 0


def _cmd_sweep(p, m1=1, m2=2, out=None) -> int:
    from .distinguish import dk_bound_envelope

    if p == "":
        raise ParseError("empty p list")
    ps = _int_list(p, "p list entry")
    _envelope_shape(m1, m2, "sweep")
    lines = ["p,m1,m2,k,n,h_order,ln_s0,ln_s1,ln_dk,max_c"]
    for q in ps:
        r = dk_bound_envelope(q, m1, m2)
        lines.append(
            ",".join(
                [
                    str(q), str(m1), str(m2), str(r.k), str(r.n),
                    str(r.h_order), _fmt(r.s0_log), _fmt(r.s1_log),
                    _fmt(r.dk_log), str(r.max_c),
                ]
            )
        )
    _emit("\n".join(lines) + "\n", out)
    return 0
