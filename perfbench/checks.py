"""Output checks for the benchmark, written without importing qcnied.

Every file and every printed line a command produces is judged here
against an independent reading of the formats in the project README and
against F2 linear algebra written here independently:

* the error capacity ``e`` a key must carry is recomputed from the
  matrix file as the largest weight on which the binary syndrome map is
  injective: ``n`` when its kernel is trivial, else ``(d - 1) // 2`` for
  the minimum kernel weight ``d``;
* a ciphertext is recomputed from the public key file;
* every group element in an autgroup report is replayed against the
  matrix, and the surveillance verdict must agree with the group order.

A failed check raises CheckFailed; the run that saw it is invalid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

KERNEL_DIM_MAX = 22


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _lines(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    require(text.endswith("\n") and "\r" not in text, f"{path.name}: not LF-terminated")
    return text[:-1].split("\n")


def _hex(tok: str, width: int, what: str) -> int:
    require(len(tok) == width and all(c in "0123456789abcdef" for c in tok),
            f"{what}: bad hex token {tok!r}")
    return int(tok, 16)


@dataclass(frozen=True)
class Matrix:
    """A QCMAT file: p, m1, m2, eta and the block first rows."""

    p: int
    m1: int
    m2: int
    eta: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return self.m1 * self.p

    @property
    def n(self) -> int:
        return self.m2 * self.p

    def c_entry(self, i: int, j: int) -> int:
        """Entry (i, j) of the expanded k x (n - k) matrix C."""
        mc, p = self.m2 - self.m1, self.p
        row = self.rows[(i // p) * mc + j // p]
        return row[(j % p - i % p) % p]

    def c_dense(self) -> list[list[int]]:
        return [[self.c_entry(i, j) for j in range(self.n - self.k)] for i in range(self.k)]


def read_matrix(path: Path, params=None) -> Matrix:
    lines = _lines(path)
    require(len(lines) >= 3 and lines[0] == "QCMAT v1", f"{path.name}: not a QCMAT v1 file")
    p, m1, m2, eta = (int(t) for t in lines[1].split(" "))
    if params is not None:
        require((p, m1, m2, eta) == tuple(params), f"{path.name}: params {lines[1]!r} != {params}")
    width = (eta + 3) // 4
    body = lines[3:]
    require(len(body) == m1 * (m2 - m1), f"{path.name}: wrong block count")
    rows = []
    for line in body:
        toks = line.split(" ")
        require(len(toks) == p, f"{path.name}: block row of {len(toks)} tokens")
        rows.append(tuple(_hex(t, width, path.name) for t in toks))
    return Matrix(p, m1, m2, eta, tuple(rows))


def fano_matrix_text() -> str:
    """The (7, 1, 2, 2) matrix whose minority positions {0, 1, 3} form a
    planar difference set mod 7; its stabilizer has order 168."""
    return "QCMAT v1\n7 1 2 2\n7\n3 3 3 1 1 3 1\n"


# -- error capacity by F2 linear algebra ---------------------------------


def _syndrome_columns(m: Matrix) -> list[int]:
    """Columns of H = [I | C] packed as k * eta bit integers."""
    k, eta = m.k, m.eta
    cols = [1 << (i * eta) for i in range(k)]
    for j in range(m.n - k):
        v = 0
        for i in range(k):
            v |= m.c_entry(i, j) << (i * eta)
        cols.append(v)
    return cols


def kernel_basis(m: Matrix) -> list[int]:
    """Basis of {x in F2^n : sum of columns x_j H_j = 0}, as bitmasks."""
    pivots: dict[int, tuple[int, int]] = {}
    basis = []
    for j, v in enumerate(_syndrome_columns(m)):
        combo = 1 << j
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = (v, combo)
                break
            pv, pc = pivots[top]
            v ^= pv
            combo ^= pc
        if v == 0:
            basis.append(combo)
    return basis


def min_kernel_weight(m: Matrix) -> int | None:
    """Least weight of a nonzero binary vector with zero syndrome."""
    basis = kernel_basis(m)
    if not basis:
        return None
    require(len(basis) <= KERNEL_DIM_MAX, "kernel too large to enumerate")
    best = m.n
    # Gray-code walk over all nonzero combinations of the basis
    x = 0
    for step in range(1, 1 << len(basis)):
        x ^= basis[(step & -step).bit_length() - 1]
        best = min(best, x.bit_count())
    return best


def error_capacity(m: Matrix) -> int:
    d = min_kernel_weight(m)
    return m.n if d is None else (d - 1) // 2


def table_size(n: int, e: int) -> int:
    """Vectors of weight <= e: the size of a syndrome table for capacity e."""
    return sum(math.comb(n, t) for t in range(e + 1))


# -- keys and ciphertexts ------------------------------------------------


def check_keygen(stdout: str, matrix: Matrix, priv: Path, pub: Path) -> int:
    e = error_capacity(matrix)
    require(stdout == f"e: {e}\n", f"keygen printed {stdout!r}, expected 'e: {e}'")
    params = f"{matrix.p} {matrix.m1} {matrix.m2} {matrix.eta} {e}"
    for path, kind, n_lines in ((priv, "private", 4 + matrix.k + 1 + len(matrix.rows)),
                                (pub, "public", 4 + matrix.k)):
        lines = _lines(path)
        require(lines[:3] == ["NIEDQC v1", kind, params], f"{path.name}: bad key header")
        require(len(lines) == n_lines, f"{path.name}: {len(lines)} lines, expected {n_lines}")
    return e


def check_ciphertext(pub: Path, support: tuple[int, ...], ct: Path) -> None:
    lines = _lines(pub)
    p, m1, m2, eta, _e = (int(t) for t in lines[2].split(" "))
    k, n, width = m1 * p, m2 * p, (eta + 3) // 4
    want = []
    for line in lines[4:4 + k]:
        toks = line.split(" ")
        require(len(toks) == n, f"{pub.name}: public row of {len(toks)} tokens")
        y = 0
        for j in support:
            y ^= _hex(toks[j], width, pub.name)
        want.append(format(y, f"0{width}x"))
    require(ct.read_text(encoding="utf-8") == "\n".join(want) + "\n",
            f"{ct.name}: ciphertext differs from H' x^T")


def check_decrypt(stdout: str, support: tuple[int, ...]) -> None:
    want = ",".join(str(j) for j in support) + "\n"
    require(stdout == want, f"decrypt printed {stdout!r}, expected {want!r}")


# -- reports -------------------------------------------------------------


def read_report(path: Path) -> tuple[dict[str, str], list[tuple[list[int], list[int]]]]:
    lines = _lines(path)
    require(lines and lines[0] == "QCREP v1", f"{path.name}: not a QCREP v1 file")
    fields: dict[str, str] = {}
    elems = []
    for line in lines[1:]:
        key, sep, value = line.partition(": ")
        require(bool(sep), f"{path.name}: bad line {line!r}")
        if key == "elem":
            left, _, right = value.partition(" | ")
            elems.append(([int(t) for t in left.split(" ")], [int(t) for t in right.split(" ")]))
        else:
            fields[key] = value
    return fields, elems


def check_validate(report: Path, matrix: Matrix, variant: bool) -> None:
    fields, _ = read_report(report)
    require(fields.get("kind") == "conditions" and fields.get("ok") == "true",
            f"{report.name}: validate did not say ok")
    require(int(fields["p"]) == matrix.p and int(fields["m2"]) == matrix.m2,
            f"{report.name}: shape fields disagree with the matrix")
    names = ("i_variant", "ii", "iii", "iv_variant", "v") if variant else ("i", "ii", "iii", "iv", "v")
    for name in names:
        require(fields.get(f"cond_{name}") in ("pass", "waived"),
                f"{report.name}: cond_{name} = {fields.get(f'cond_{name}')}")


def _is_perm(images: list[int], size: int) -> bool:
    return sorted(images) == list(range(size))


def check_autgroup(report: Path, matrix: Matrix, exit_code: int, ceiling: int) -> int:
    """Replay every element and judge the verdict; return the group order.

    ``ceiling`` is the order the structural guarantees allow (p^2 for a
    compliant matrix, p^(2 m1) for a variant one). A clear report must
    stay within it; exit 3 is a correct surveillance trip only when the
    replayed group really exceeds it.
    """
    fields, elems = read_report(report)
    k, nc = matrix.k, matrix.n - matrix.k
    c = matrix.c_dense()
    require(fields.get("kind") == "autgroup", f"{report.name}: not an autgroup report")
    require(fields.get("lemma1") == "ok", f"{report.name}: lemma1 = {fields.get('lemma1')}")
    order = int(fields["order"])
    require(order == len(elems) == len({(tuple(a), tuple(b)) for a, b in elems}),
            f"{report.name}: order {order} but {len(elems)} distinct elements")
    require((list(range(k)), list(range(nc))) in elems, f"{report.name}: identity missing")
    for p1, p2 in elems:
        require(_is_perm(p1, k) and _is_perm(p2, nc), f"{report.name}: element is not a permutation")
        require(all(c[p1[i]][j] == c[i][p2[j]] for i in range(k) for j in range(nc)),
                f"{report.name}: element {p1} | {p2} does not stabilize C")
    if exit_code == 3:
        require(fields.get("classification") == "exceptional"
                and fields.get("surveillance", "").startswith("tripped")
                and order > ceiling,
                f"{report.name}: exit 3 without a verified order breach")
    else:
        require(fields.get("surveillance") == "clear" and order <= ceiling,
                f"{report.name}: surveillance {fields.get('surveillance')!r} at order {order}")
    return order


def _check_max_c(fields: dict[str, str], what: str) -> None:
    dk, group2 = float(fields["ln_dk"]), float(fields["ln_group2"])
    want = -1 if dk > 0 else min(64, math.floor(-dk / math.log(group2)))
    require(int(fields["max_c"]) == want, f"{what}: max_c {fields['max_c']} != {want}")


def check_bound_report(report: Path, matrix: Matrix, order: int) -> None:
    fields, _ = read_report(report)
    got = tuple(fields.get(key) for key in ("kind", "mode", "k", "n", "h_order"))
    want = ("bound", "exact", str(matrix.k), str(matrix.n), str(order))
    require(got == want, f"{report.name}: {got} != {want}")
    _check_max_c(fields, report.name)


def check_envelope(report: Path, p: int, h_order: int, max_c: int) -> None:
    fields, _ = read_report(report)
    got = tuple(fields.get(key) for key in ("kind", "mode", "k", "n", "h_order", "max_c"))
    want = ("bound", "envelope", str(p), str(2 * p), str(h_order), str(max_c))
    require(got == want, f"{report.name}: {got} != {want}")
    _check_max_c(fields, report.name)


def check_sweep(csv: Path, ps: tuple[int, ...]) -> None:
    lines = _lines(csv)
    require(lines[0] == "p,m1,m2,k,n,h_order,ln_s0,ln_s1,ln_dk,max_c", f"{csv.name}: bad header")
    require(len(lines) == 1 + len(ps), f"{csv.name}: {len(lines) - 1} rows for {len(ps)} primes")
    for p, line in zip(ps, lines[1:]):
        cells = line.split(",")
        require(len(cells) == 10, f"{csv.name}: bad row {line!r}")
        require(cells[:6] == [str(p), "1", "2", str(p), str(2 * p), str(p * p)],
                f"{csv.name}: row {line!r} does not match p = {p}")
        float(cells[8])
