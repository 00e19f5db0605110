"""Independent brute-force oracles.

Everything here recomputes expected values from first principles with plain
Python loops, or for the n^3 axiom scans with whole-cube numpy formulas,
deliberately sharing no code path with the package internals it is used to
check.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def all_partitions(n: int):
    """Every partition of range(n) in restricted-growth form."""

    def rec(prefix, next_block):
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        for b in range(next_block + 1):
            yield from rec(prefix + [b], max(next_block, b + 1))

    yield from rec([], 0)


def is_congruence_bruteforce(add, mul, tangible, block_of) -> bool:
    """Closure of a partition under componentwise sums/products and the
    tangible action, tested directly on all pairs of related pairs."""
    n = len(block_of)
    related = [
        (x, y) for x in range(n) for y in range(n) if block_of[x] == block_of[y]
    ]
    for (x, y) in related:
        for (u, v) in related:
            if block_of[add[x][u]] != block_of[add[y][v]]:
                return False
            if block_of[mul[x][u]] != block_of[mul[y][v]]:
                return False
        for a in tangible:
            if block_of[mul[a][x]] != block_of[mul[a][y]]:
                return False
    return True


def congruences_bruteforce(pair) -> set[tuple[int, ...]]:
    """Every congruence of a pair, by filtering all partitions."""
    add = [[int(v) for v in row] for row in pair.add]
    mul = [[int(v) for v in row] for row in pair.mul]
    tang = sorted(pair.tangible)
    return {
        bo for bo in all_partitions(pair.n)
        if is_congruence_bruteforce(add, mul, tang, bo)
    }


def congruence_violation_loop(add, mul, block_of):
    """First (x, y, c, kind) with x ~ y but x+c, xc or cx (kind 0, 1, 2) not
    related to y+c, yc or cy; or (-1, -1, -1, -1).

    Blocks are visited in the order their labels first occur, pairs within a
    block in lexicographic order, then kinds, then c: the per-pair loop the
    vectorized kernel replaced.
    """
    n = len(block_of)
    blocks = {}
    for i in range(n):
        blocks.setdefault(block_of[i], []).append(i)
    for members in blocks.values():
        for ii, x in enumerate(members):
            for y in members[ii + 1:]:
                for kind, (rx, ry) in enumerate((
                        (add[x], add[y]), (mul[x], mul[y]), (mul[:, x], mul[:, y]))):
                    for c in range(n):
                        if block_of[rx[c]] != block_of[ry[c]]:
                            return (x, y, c, kind)
    return (-1, -1, -1, -1)


def generated_congruence_bruteforce(pair, gens) -> tuple[int, ...]:
    """Least congruence containing the generators: intersect every
    brute-force congruence that contains them."""
    congs = [
        bo for bo in congruences_bruteforce(pair)
        if all(bo[x] == bo[y] for x, y in gens)
    ]
    n = pair.n
    labels = [tuple(bo[i] for bo in congs) for i in range(n)]
    seen: dict[tuple, int] = {}
    out = []
    for key in labels:
        if key not in seen:
            seen[key] = len(seen)
        out.append(seen[key])
    return tuple(out)


# ---------------------------------------------------------------------------
# modular coset arithmetic for the residue construction
# ---------------------------------------------------------------------------

def residue_bruteforce(p: int, subgroup):
    """Cosets, coset products, and coset sumsets of Z/p by a unit subgroup.

    Returns (cosets, mul, hyperadd): cosets sorted by least member, the
    product table as coset indices, and the hyperaddition table as frozensets
    of coset indices.
    """
    g = sorted(set(subgroup))
    assert 1 in g
    for a, b in product(g, g):
        assert (a * b) % p in g, "not closed"
    cosets = []
    coset_of = {}
    for b in range(p):
        if b in coset_of:
            continue
        orb = frozenset((b * x) % p for x in g)
        idx = len(cosets)
        cosets.append(orb)
        for x in orb:
            coset_of[x] = idx
    order = sorted(range(len(cosets)), key=lambda i: min(cosets[i]))
    rank = {old: new for new, old in enumerate(order)}
    cosets = [cosets[i] for i in order]
    coset_of = {x: rank[i] for x, i in coset_of.items()}

    k = len(cosets)
    mul = [[coset_of[(min(cosets[i]) * min(cosets[j])) % p] for j in range(k)] for i in range(k)]
    hyperadd = [
        [
            frozenset(coset_of[(x + y) % p] for x in cosets[i] for y in cosets[j])
            for j in range(k)
        ]
        for i in range(k)
    ]
    return cosets, mul, hyperadd


# ---------------------------------------------------------------------------
# elementary classification oracles
# ---------------------------------------------------------------------------

def iterated_sum(add, x: int, k: int) -> int:
    acc = x
    for _ in range(k - 1):
        acc = add[acc][x]
    return acc


def characteristic_bruteforce(add, one: int, bound: int) -> tuple[int, int]:
    """Smallest p > 0 admitting some k with the (k+p)-th iterated sum of one
    equal to the k-th, then the smallest such k."""
    seq = [iterated_sum(add, one, k) for k in range(1, 2 * bound + 2)]
    for p in range(1, bound + 1):
        for k in range(1, bound + 1):
            if seq[k + p - 1] == seq[k - 1]:
                return (p, k)
    raise AssertionError("no characteristic below bound")


def e_type_bruteforce(add, mul, dagger: int, n: int):
    """Smallest k then k' with b + k*(b + dagger*b) = k'*(b + dagger*b)."""
    circ = [add[b][mul[dagger][b]] for b in range(n)]
    for k in range(1, n + 1):
        for kp in range(1, k + 1):
            if all(
                add[b][iterated_sum(add, circ[b], k)] == iterated_sum(add, circ[b], kp)
                for b in range(n)
            ):
                return (k, kp)
    return None


def twist_bruteforce(add, mul, b, c):
    (b1, b2), (c1, c2) = b, c
    return (add[mul[b1][c1]][mul[b2][c2]], add[mul[b1][c2]][mul[b2][c1]])


# ---------------------------------------------------------------------------
# dense n^3 axiom scans
# ---------------------------------------------------------------------------
#
# The whole-cube numpy formulas the slabbed kernels replaced.  They build
# every n^3 comparison at once, so keep n small when calling them.

def first_nonassoc_dense(op):
    """First (i, j, k) in row-major order with (ij)k != i(jk), or (-1, -1, -1)."""
    bad = np.argwhere(op[op, :] != op[:, op])
    if len(bad) == 0:
        return (-1, -1, -1)
    i, j, k = bad[0]
    return (int(i), int(j), int(k))


def first_nondistrib_dense(add, mul):
    """First (side, a, b, c): side 0 a(b+c) != ab + ac scanned as [a,b,c],
    then side 1 (b+c)a != ba + ca scanned as [b,c,a]; or (-1, -1, -1, -1)."""
    left = mul[:, add]
    left_sum = add[mul[:, :, None], mul[:, None, :]]
    bad = np.argwhere(left != left_sum)
    if len(bad):
        a, b, c = bad[0]
        return (0, int(a), int(b), int(c))
    right = mul[add, :]
    right_sum = add[mul[:, None, :], mul[None, :, :]]
    bad = np.argwhere(right != right_sum)
    if len(bad):
        b, c, a = bad[0]
        return (1, int(a), int(b), int(c))
    return (-1, -1, -1, -1)


def closure_loop(op, seeds):
    """The submagma of (range(n), op) generated by ``seeds``, as a set: add
    every product of two members until none is new."""
    members = set(int(x) for x in seeds)
    while True:
        new = {int(op[x][y]) for x in members for y in members} - members
        if not new:
            return members
        members |= new


# ---------------------------------------------------------------------------
# congruence classification by definition
# ---------------------------------------------------------------------------

def refines_by_definition(a, b) -> bool:
    """Every block of partition a sits inside a block of partition b; each
    is given by any block labels."""
    image = {}
    return all(image.setdefault(x, y) == y for x, y in zip(a, b))


def restricted_growth(labels) -> tuple[int, ...]:
    """Block ids in order of first occurrence."""
    seen = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def roots_of(labels) -> tuple[int, ...]:
    """Root vector of a partition given by labels: each element's least
    block-mate."""
    return tuple(next(y for y in range(len(labels)) if labels[y] == labels[x])
                 for x in range(len(labels)))


def covers_by_definition(block_ofs) -> list[list[int]]:
    """covers[i]: the j strictly above partition i with no partition of the
    list strictly between, by refinement tests on every triple."""
    m = len(block_ofs)
    lt = [[i != j and refines_by_definition(block_ofs[i], block_ofs[j]) for j in range(m)]
          for i in range(m)]
    return [[j for j in range(m) if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(m))]
            for i in range(m)]


def _member_pairs(block_of):
    bo = np.asarray(block_of)
    xs, ys = np.nonzero(bo[:, None] == bo[None, :])
    return xs, ys


def twist_products_dense(add, mul, rel1, rel2):
    """Twist products (p, q) of every pair of ``rel1`` with every pair of
    ``rel2``, as two len(rel1) x len(rel2) arrays built whole."""
    (x1, y1), (x2, y2) = rel1, rel2
    p = add[mul[x1[:, None], x2[None, :]], mul[y1[:, None], y2[None, :]]]
    q = add[mul[x1[:, None], y2[None, :]], mul[y1[:, None], x2[None, :]]]
    return p, q


def twist_squares_dense(add, mul):
    """Twist squares (p, q) of every pair (b1, b2), as two n x n arrays."""
    n = add.shape[0]
    b1, b2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return add[mul[b1, b1], mul[b2, b2]], add[mul[b1, b2], mul[b2, b1]]


def first_true(bad) -> tuple:
    """Index of the first True of ``bad`` in row-major order, or all -1."""
    hits = np.argwhere(bad)
    return tuple(int(x) for x in hits[0]) if len(hits) else (-1,) * bad.ndim


def _twist_inside(add, mul, rel1, rel2, member) -> bool:
    """Whether every twist product of two pair-sets lies in ``member``."""
    p, q = twist_products_dense(add, mul, rel1, rel2)
    return bool(member[p, q].all())


def classify_by_definition(pair, block_of, block_ofs) -> dict:
    """The ten classification flags of the congruence ``block_of`` among the
    congruences ``block_ofs``: the elementwise flags over the full tables of
    A, prime and semiprime over every pair strictly above it, and
    irreducible through the meets of those pairs."""
    add, mul, n = pair.add, pair.mul, pair.n
    bo = np.asarray(block_of)
    member = bo[:, None] == bo[None, :]
    square = member[twist_squares_dense(add, mul)]
    nxs, nys = np.nonzero(~member)
    strongly_prime = _twist_inside(add, mul, (nxs, nys), (nxs, nys), ~member)
    t_cancellative = not any(
        (member[mul[a][:, None], mul[a][None, :]] & ~member).any() for a in sorted(pair.tangible))

    improper = [(a, b) for a in pair.tangible for b in pair.a_zero if member[a, b]]
    w = pair.property_n
    e_type = None
    if w is not None:
        e_type = next((k for k in range(1, n + 1)
                       if member[add[pair.one][iterated_sum(add, w.e, k)],
                                 iterated_sum(add, w.e, k)]), None)

    canon = restricted_growth(block_of)
    above = [c for c in block_ofs
             if refines_by_definition(block_of, c) and restricted_growth(c) != canon]
    rels = [_member_pairs(c) for c in above]
    semiprime = not any(_twist_inside(add, mul, r, r, member) for r in rels)
    prime = not any(_twist_inside(add, mul, r1, r2, member) for r1 in rels for r2 in rels)
    irreducible = not any(restricted_growth(zip(c1, c2)) == canon
                          for c1 in above for c2 in above)
    return {
        "radical": not (square & ~member).any(),
        "strongly_prime": strongly_prime,
        "t_cancellative": t_cancellative,
        "proper": not improper,
        "weakly_proper": not any(add[a, b] == a for a, b in improper),
        "contains_1e": bool(member[pair.one, w.e]) if w is not None else None,
        "e_type": e_type,
        "prime": prime,
        "semiprime": semiprime,
        "irreducible": irreducible,
    }


def heights_loop(pair) -> list:
    """Minimal decomposition heights: the pure-Python fixpoint over all pairs
    of elements with a known height, updated in place round by round."""
    n = pair.n
    h = [None] * n
    h[pair.zero] = 0
    for a in pair.tangible:
        if h[a] is None or h[a] > 1:
            h[a] = 1
    changed = True
    while changed:
        changed = False
        known = [i for i in range(n) if h[i] is not None]
        for x in known:
            for y in known:
                cand = h[x] + h[y]
                s = int(pair.add[x, y])
                if h[s] is None or cand < h[s]:
                    h[s] = cand
                    changed = True
    return h


def check_congb_loop(pair, cong_b):
    """The CONGB loop that calls ``cong_b`` for every doubled element b in
    row-major order: (passed, counterexample, notes)."""
    checked = 0
    for b1 in range(pair.n):
        for b2 in range(pair.n):
            res = cong_b(pair, (b1, b2))
            if not (res.hypothesis_semiring or res.hypothesis_s_central):
                continue
            checked += 1
            if not res.is_congruence or not res.contains_b:
                return False, {
                    "b": (pair.names[b1], pair.names[b2]),
                    "is_congruence": res.is_congruence,
                    "contains_b": res.contains_b,
                }, ""
    return True, None, f"{checked} elements checked"


def chains_part_i_loop(pair, block_ofs, proper_idx):
    """CHAINS part i as the loop over (proper i, then every j) that forms the
    meet of the partitions i and j and scans it for a related (a, b) in
    T x A0: the first such (i, j), or None."""
    for i in proper_idx:
        for j in range(len(block_ofs)):
            m = list(zip(block_ofs[i], block_ofs[j]))
            if any(m[a] == m[b] for a in sorted(pair.tangible) for b in sorted(pair.a_zero)):
                return i, j
    return None


# ---------------------------------------------------------------------------
# pair validation
# ---------------------------------------------------------------------------

def validate_pair_dense(structure, tangible, a_zero):
    """``core.validate_pair``'s verdict with every test run, whatever the
    structure's law flags say: (tangible, a_zero, t_distributive) as sets and
    a bool, or the same error with the same witness, found by loops in the
    same order."""
    from pairspec.errors import A0NotSubmodule, TNotCentral, TNotClosed

    n, names = structure.n, structure.names
    add, mul = structure.add.tolist(), structure.mul.tolist()
    zero, one = structure.zero, structure.one
    t = frozenset(int(x) for x in tangible)
    a0 = frozenset(int(x) for x in a_zero)
    if not t or any(not 0 <= x < n for x in t | a0):
        raise ValueError("tangible/a_zero must be nonempty index sets in range")

    def label(*xs):
        return tuple(names[x] for x in xs)

    if one not in t:
        raise TNotClosed("one must be tangible", witness=label(one))
    for a, b in product(sorted(t), repeat=2):
        if mul[a][b] not in t:
            raise TNotClosed("tangibles are not multiplicatively closed",
                             witness=label(a, b, mul[a][b]))
    bad = [x for x in range(n) if mul[one][x] != x] or [x for x in range(n) if mul[x][one] != x]
    if bad:
        raise TNotCentral("one is not a multiplicative unit", witness=label(one, bad[0]))
    for a in sorted(t):
        for x in range(n):
            if mul[a][x] != mul[x][a]:
                raise TNotCentral("tangible does not commute", witness=label(a, x))
        for b, c in product(range(n), repeat=2):
            if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                raise TNotCentral("tangible does not associate", witness=label(a, b, c))
        for b, c in product(range(n), repeat=2):
            if mul[mul[b][a]][c] != mul[b][mul[a][c]]:
                raise TNotCentral("tangible does not associate", witness=label(b, a, c))
        for b, c in product(range(n), repeat=2):
            if mul[mul[b][c]][a] != mul[b][mul[c][a]]:
                raise TNotCentral("tangible does not associate", witness=label(b, c, a))

    if zero not in a0:
        raise A0NotSubmodule("A0 must contain zero", witness=label(zero))
    for x, y in product(sorted(a0), repeat=2):
        if add[x][y] not in a0:
            raise A0NotSubmodule("A0 is not additively closed", witness=label(x, y, add[x][y]))
    for a, x in product(sorted(t | {zero}), sorted(a0)):
        for prod in (mul[a][x], mul[x][a]):
            if prod not in a0:
                raise A0NotSubmodule("A0 is not closed under the tangible action",
                                     witness=label(a, x, prod))

    t_distributive = all(mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                         for a in t for b, c in product(range(n), repeat=2))
    return t, a0, t_distributive
