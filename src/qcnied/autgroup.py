"""Stabilizers of block-circulant matrices under two-sided permutation action.

A pair (P, Q) of p-point permutations stabilizes a block M when
P M Q = M as matrix products, i.e. act(P, M, Q) = M. For the full matrix
C the compliance conditions force every stabilizing pair to act
block-diagonally, so the full group is assembled from per-block pair
stabilizers by constraint propagation: row permutation i and column
permutation j must stabilize block (i, j) jointly, for every block.
Every pair stabilizes a constant block, so those blocks are skipped.

Each group element (P1, P2) of the assembled group corresponds to a
symmetry (A, P) of the parity check [I | C]: A is the permutation matrix
of P1^-1 and P = P1^-1 (+) P2 permutes columns, satisfying
A^-1 [I | C] P = [I | C]. Because the cycle structure of P1 and P1^-1
agree, every quantity derived downstream (orders, supports, conjugacy
class sizes) is insensitive to that inversion.

Pair stabilizers are groups under (P1, Q1) o (P2, Q2) = (P1 P2, Q2 Q1);
the column side composes in reverse, as it must for a two-sided action.

Every pair stabilizer, per block or of the whole matrix, comes from one
exact search: a row-by-row backtrack in the spirit of partition
backtrack (Leon 1991, "Permutation group algorithms based on
partitions"). It is complete at every size and held to one work budget,
STAB_BUDGET, counted in search nodes plus emitted pairs.
"""

from __future__ import annotations

import math
from itertools import chain, permutations, product

from ._record import Record
from .circulant import BlockCirculant, Dense, Perm, act, expand_row
from .errors import ConditionIIIViolated, EtaTooSmall, LemmaViolated, TooLarge

# search nodes plus emitted pairs one stabilizer search may spend
STAB_BUDGET = 1 << 19
# most rows of C the full-matrix search takes when condition iii fails
FULL_MATRIX_MAX_K = 8

AFFINE = "affine-subgroup"
SYMMETRIC = "symmetric"
ALTERNATING = "alternating"
EXCEPTIONAL = "exceptional"


def is_affine(perm: Perm, p: int) -> bool:
    """Whether perm is i -> u*i + v mod p for some unit u."""
    if perm.n != p:
        return False
    if p == 1:
        return True
    v = perm(0)
    u = (perm(1) - v) % p
    if u == 0:
        return False
    return all(perm(i) == (u * i + v) % p for i in range(p))


def _column_map(rows: Dense) -> dict[tuple[int, ...], list[int]]:
    cols: dict[tuple[int, ...], list[int]] = {}
    for j, col in enumerate(zip(*rows)):
        cols.setdefault(col, []).append(j)
    return cols


def _matching_qs(rows, col_map, p_images) -> list[Perm]:
    """All Q with act(P, M, Q) = M, i.e. column c of the row-permuted
    matrix equals column Q(c) of M. Unique when columns are distinct;
    repeated columns yield one Q per class bijection."""
    per_class = []
    for col, positions in _column_map([rows[i] for i in p_images]).items():
        targets = col_map.get(col)
        if targets is None or len(targets) != len(positions):
            return []
        per_class.append((positions, targets))
    positions = [c for ps, _ in per_class for c in ps]
    images = [0] * len(positions)
    out = []
    for assignment in product(*[permutations(t) for _, t in per_class]):
        for c, j in zip(positions, chain.from_iterable(assignment)):
            images[c] = j
        out.append(Perm(images))
    return out


def _stabilizing_pairs(rows: Dense) -> tuple[tuple[Perm, Perm], ...]:
    """Every (P, Q) with act(P, M, Q) = M, sorted.

    P(0), P(1), ... are picked in turn, and a branch is pruned unless the
    multiset of column prefixes of rows P(0)..P(t) equals that of rows
    0..t of M. At a full P the multisets of whole columns agree, so P
    has exactly prod(|class|!) partners Q over the classes of equal
    columns. Candidate rows tried plus pairs emitted are held to
    STAB_BUDGET; TooLarge is raised before the work that would pass it.
    """
    size = len(rows)
    col_map = _column_map(rows)
    per_leaf = math.prod(math.factorial(len(js)) for js in col_map.values())
    base = 1 + max(map(max, rows))
    # levels[t] numbers the distinct column prefixes over rows 0..t of M,
    # keyed by the id of the prefix over rows 0..t-1 times base plus the
    # entry in row t; wants[t] is the sorted list of those ids by column
    levels, wants = [], []
    prefix = [0] * len(rows[0])
    for row in rows:
        level: dict[int, int] = {}
        prefix = [level.setdefault(i * base + v, len(level)) for i, v in zip(prefix, row)]
        levels.append(level)
        wants.append(sorted(prefix))
    pairs: list[tuple[Perm, Perm]] = []
    images: list[int] = []
    used = [False] * size
    spent = 0

    def spend(units: int) -> None:
        nonlocal spent
        if spent + units > STAB_BUDGET:
            raise TooLarge(
                f"stabilizer search of a {size}-row matrix needs more than "
                f"{STAB_BUDGET} nodes plus pairs"
            )
        spent += units

    def extend(ids: list[int]) -> None:
        t = len(images)
        if t == size:
            spend(per_leaf)
            perm = Perm(images)
            pairs.extend((perm, q) for q in _matching_qs(rows, col_map, images))
            return
        level, want = levels[t], wants[t]
        for x in range(size):
            if used[x]:
                continue
            spend(1)
            # -1 marks a prefix no column of M has, so the lists cannot match
            nxt = [level.get(i * base + v, -1) for i, v in zip(ids, rows[x])]
            if sorted(nxt) == want:
                used[x] = True
                images.append(x)
                extend(nxt)
                images.pop()
                used[x] = False

    extend([0] * len(rows[0]))
    return tuple(sorted(pairs))


class PairStab(Record):
    """Pair stabilizer of one circulant block: its first row and its sorted pairs."""

    __slots__ = ("row", "pairs")

    @property
    def order(self) -> int:
        return len(self.pairs)

    def row_projection(self) -> tuple[Perm, ...]:
        return tuple(sorted({p for p, _ in self.pairs}))


def stab_block(row: tuple[int, ...]) -> PairStab:
    """Pair stabilizer of the circulant block with this first row, exact
    at every p.

    Every block contains the shift pair (i -> i+1, j -> j-1), so the
    result is never trivial. When block columns repeat, all matching
    column permutations are listed.
    """
    row = tuple(row)
    return PairStab(row=row, pairs=_stabilizing_pairs(expand_row(row)))


def classify(ps: PairStab) -> str:
    """Label the row projection: affine first, then order tests.

    Constant and near-constant blocks provably have the full symmetric
    group as row projection, so they are labeled from the block shape.
    """
    from .conditions import good_shape

    p = len(ps.row)
    if not good_shape(ps.row):
        return SYMMETRIC
    projection = ps.row_projection()
    if all(is_affine(perm, p) for perm in projection):
        return AFFINE
    order = len(projection)
    if order == math.factorial(p):
        return SYMMETRIC
    if 2 * order == math.factorial(p):
        return ALTERNATING
    return EXCEPTIONAL


def minimal_degree(perms) -> float:
    """Least support among non-identity permutations; +inf if none."""
    supports = [perm.support() for perm in perms if not perm.is_identity()]
    return min(supports) if supports else math.inf


class AutGroup(Record):
    """Assembled stabilizer of a full block-circulant matrix.

    elements holds (P1, P2): P1 permutes the k = m1*p rows, P2 the
    n - k columns, with P1 C P2 = C. block_labels maps each block (i, j)
    to the classification of its pair stabilizer; method names the
    search that produced the elements.
    """

    __slots__ = ("p", "m1", "m2", "elements", "block_labels", "method")

    @property
    def order(self) -> int:
        return len(self.elements)

    def row_projection(self) -> tuple[Perm, ...]:
        return tuple(sorted({p1 for p1, _ in self.elements}))

    @property
    def min_degree_pi1(self) -> float:
        return minimal_degree(self.row_projection())

    @property
    def min_degree_pi2(self) -> float:
        """Least support of the full column permutation P1^-1 (+) P2."""
        supports = [
            p1.support() + p2.support()
            for p1, p2 in self.elements
            if not (p1.is_identity() and p2.is_identity())
        ]
        return min(supports) if supports else math.inf

    @property
    def classification(self) -> str:
        labels = set(self.block_labels.values())
        for worst in (SYMMETRIC, ALTERNATING, EXCEPTIONAL):
            if worst in labels:
                return worst
        return AFFINE


def _assemble(maps: dict) -> list[dict]:
    """All joint assignments of the constrained row perms P_i and column
    perms Q_j: maps[(i, j)] = (pq, qp) for each block that constrains its
    pair, where pq sends P to the Q with (P, Q) in the block's pair
    stabilizer and qp sends Q to those P. Backtracking with
    smallest-domain-first ordering; blocks with small stabilizers (the
    condition-iv blocks) therefore drive the search."""
    domains: dict[tuple[str, int], set] = {}
    links: dict[tuple[str, int], list] = {}
    for (i, j), (pq, qp) in maps.items():
        for var, other, partners_of in ((("P", i), ("Q", j), pq), (("Q", j), ("P", i), qp)):
            domains[var] = domains[var] & partners_of.keys() if var in domains else set(partners_of)
            links.setdefault(var, []).append((other, partners_of))
    results: list[dict] = []
    assign: dict = {}

    def backtrack(doms):
        if len(assign) == len(doms):
            results.append(dict(assign))
            return
        var = min(
            (v for v in doms if v not in assign),
            key=lambda v: (len(doms[v]), v),
        )
        for val in sorted(doms[var]):
            assign[var] = val
            nxt = dict(doms)
            feasible = True
            for other, partners_of in links[var]:
                partners = partners_of.get(val, frozenset())
                if other in assign:
                    feasible = assign[other] in partners
                else:
                    nxt[other] = nxt[other] & partners
                    feasible = bool(nxt[other])
                if not feasible:
                    break
            if feasible:
                backtrack(nxt)
            del assign[var]

    backtrack(domains)
    return results


def _dsum_all(perms: list[Perm]) -> Perm:
    out = perms[0]
    for perm in perms[1:]:
        out = out.dsum(perm)
    return out


def stab_full(c: BlockCirculant) -> AutGroup:
    """Stabilizer of the whole matrix C under block-diagonal pairs.

    Condition iii is settled first. When it fails, k > FULL_MATRIX_MAX_K
    is refused before any block is searched, and a smaller C gets the
    exact search on the full matrix. When it holds it justifies the
    block-diagonal decomposition. A constant block aJ is fixed by every
    pair (P, Q), so it constrains nothing: it is labelled symmetric from
    its shape and never searched. Every other block gets its pair
    stabilizer from stab_block; the assembly joins those stabilizers,
    and a P_i or Q_j that no non-constant block constrains ranges over
    all of S_p. When the group would hold more than STAB_BUDGET
    elements, TooLarge is raised before it is listed. Every element is
    verified against the dense matrix before it is returned.
    """
    from .conditions import check_iii

    m1, mc, p = c.m1, c.m2 - c.m1, c.p
    full_matrix = check_iii(c).status == "fail"
    if full_matrix and m1 * p > FULL_MATRIX_MAX_K:
        raise ConditionIIIViolated(f"condition iii fails and k = {m1 * p} > {FULL_MATRIX_MAX_K}")
    blocks = {divmod(index, mc): row for index, row in enumerate(c.rows)}
    stabs = {ij: stab_block(row) for ij, row in blocks.items() if len(set(row)) > 1}
    labels = {ij: classify(stabs[ij]) if ij in stabs else SYMMETRIC for ij in blocks}
    if full_matrix:
        method, elements = "full-matrix", _stabilizing_pairs(c.dense)
    else:
        maps = {}
        for ij, ps in stabs.items():
            pq: dict[Perm, set] = {}
            qp: dict[Perm, set] = {}
            for pr, qc in ps.pairs:
                pq.setdefault(pr, set()).add(qc)
                qp.setdefault(qc, set()).add(pr)
            maps[ij] = (pq, qp)
        solutions = _assemble(maps)
        free = [("P", i) for i in range(m1) if all((i, j) not in maps for j in range(mc))]
        free += [("Q", j) for j in range(mc) if all((i, j) not in maps for i in range(m1))]
        if len(solutions) * math.factorial(p) ** len(free) > STAB_BUDGET:
            raise TooLarge(
                f"{len(free)} block permutations range over S_{p}: the group has "
                f"more than {STAB_BUDGET} elements"
            )
        sym = [Perm(images) for images in permutations(range(p))] if free else []
        elements = []
        for solution in solutions:
            for choice in product(sym, repeat=len(free)):
                solution.update(zip(free, choice))
                p1 = _dsum_all([solution[("P", i)] for i in range(m1)])
                p2 = _dsum_all([solution[("Q", j)] for j in range(mc)])
                elements.append((p1, p2))
        method, elements = "blockwise", tuple(sorted(elements))
    group = AutGroup(p=p, m1=m1, m2=c.m2, elements=elements, block_labels=labels, method=method)
    dense = c.dense
    for p1, p2 in group.elements:
        if act(p1, dense, p2) != dense:
            raise AssertionError("assembled element fails to stabilize C")
    return group


class Lemma1Report(Record):
    """Outcome of replaying assembled elements against the parity check."""

    __slots__ = ("premise_ok", "premise_witness", "relation_ok", "uniqueness_ok",
                 "checked", "ok")


def verify_lemma1(c: BlockCirculant, g: AutGroup) -> Lemma1Report:
    """Confirm each element yields a genuine symmetry of H = [I | c].

    For (P1, P2) the scrambler A is the permutation matrix of P1^-1 and
    the column permutation is P1^-1 (+) P2; the relation to confirm is
    row-permuted H equals column-permuted H. Per-P1 uniqueness of P2 is
    the second claim. Both claims presuppose that no column of C matches
    an identity column and no two columns of C coincide; when that
    premise fails the report says so instead of judging the claims.
    A relation failure with the premise intact raises LemmaViolated,
    since it would mean the assembly itself is broken.
    """
    from .conditions import check_ii

    dense_c = c.dense
    witness: object = None
    premise_ok = True
    try:
        ii_fails = check_ii(c).status == "fail"
    except EtaTooSmall:
        # over F2 the sole nonzero value is 1, so identity-like columns
        # are unavoidable; same premise failure, different detection
        ii_fails = True
    if ii_fails:
        premise_ok = False
        witness = {"premise": "identity-like column present (condition ii fails)"}
    else:
        cols = {}
        for j, key in enumerate(zip(*dense_c)):
            if key in cols:
                premise_ok = False
                witness = {"premise": "repeated columns", "pair": [cols[key], j]}
                break
            cols[key] = j
    k = c.m1 * c.p
    dense = tuple((0,) * i + (1,) + (0,) * (k - 1 - i) + row for i, row in enumerate(dense_c))
    relation_ok = True
    for p1, p2 in g.elements:
        sigma = p1.inv().dsum(p2)
        lhs = tuple(dense[i] for i in p1.images)
        rhs = tuple(tuple(row[j] for j in sigma.images) for row in dense)
        if lhs != rhs:
            relation_ok = False
            if premise_ok:
                raise LemmaViolated(f"element (P1={p1}, P2={p2}) fails the symmetry relation")
    uniqueness_ok = len({p1 for p1, _ in g.elements}) == len(set(g.elements))
    if premise_ok and not uniqueness_ok:
        raise LemmaViolated("multiple column partners for one row permutation")
    ok = premise_ok and relation_ok and uniqueness_ok
    return Lemma1Report(
        premise_ok=premise_ok,
        premise_witness=witness,
        relation_ok=relation_ok,
        uniqueness_ok=uniqueness_ok,
        checked=g.order,
        ok=ok,
    )
