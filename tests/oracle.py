"""Independent brute-force oracles.

Everything here recomputes expected values from first principles with plain
Python loops, or for the n^3 axiom scans with whole-cube numpy formulas,
deliberately sharing no code path with the package internals it is used to
check.
"""

from __future__ import annotations

from itertools import count, product

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


def closure_loop(op, seeds, *more):
    """The subalgebra of (range(n), op, *more) generated by ``seeds``, as a
    set: add every product of two members by every operation until none is
    new."""
    members = set(int(x) for x in seeds)
    while True:
        new = {int(t[x][y]) for t in (op, *more) for x in members for y in members} - members
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
    row-major order, where the pair is a semiring or b1 + b2 is
    distributively central: (passed, counterexample, notes)."""
    from pairspec.core import is_distributively_central

    checked = 0
    for b1 in range(pair.n):
        for b2 in range(pair.n):
            if not (pair.is_semiring()
                    or is_distributively_central(pair, int(pair.add[b1, b2]))):
                continue
            relation, is_congruence = cong_b(pair, (b1, b2))
            checked += 1
            if not is_congruence or not relation[b1, b2]:
                return False, {
                    "b": (pair.names[b1], pair.names[b2]),
                    "is_congruence": is_congruence,
                    "contains_b": bool(relation[b1, b2]),
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
    if any(not 0 <= x < n for x in t | a0):
        raise ValueError("tangible/a_zero must be index sets in range")

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


def tangible_centrality_argwhere(structure, tangible):
    """The commute and associate loops of ``core.validate_pair`` as they
    were written with ``np.argwhere`` on every comparison: None, or the
    TNotCentral they raise, with its witness.  The structure's law flags
    skip the laws they establish, as in the package."""
    from pairspec.errors import TNotCentral

    mul, names = structure.mul, structure.names
    try:
        for a in sorted(tangible):
            if not structure.commutative_mul:
                bad = np.argwhere(mul[a] != mul[:, a])
                if len(bad):
                    raise TNotCentral(
                        "tangible does not commute", witness=(names[a], names[int(bad[0][0])])
                    )
            if structure.mul_associative:
                continue
            row = mul[a]
            p1 = np.argwhere(mul[row, :] != mul[a][mul])
            if len(p1):
                b, c = p1[0]
                raise TNotCentral(
                    "tangible does not associate", witness=(names[a], names[int(b)], names[int(c)])
                )
            p2 = np.argwhere(mul[mul[:, a], :] != mul[:, mul[a]])
            if len(p2):
                b, c = p2[0]
                raise TNotCentral(
                    "tangible does not associate", witness=(names[int(b)], names[a], names[int(c)])
                )
            p3 = np.argwhere(mul[mul, a] != mul[:, mul[:, a]])
            if len(p3):
                b, c = p3[0]
                raise TNotCentral(
                    "tangible does not associate", witness=(names[int(b)], names[int(c)], names[a])
                )
    except TNotCentral as exc:
        return exc
    return None


def find_property_n_loop(structure, tangible, a_zero):
    """``core.find_property_n`` as the loop over sorted tangibles it was:
    the witness, None, or the NonUniqueE it raises."""
    from pairspec.core import PropertyNWitness
    from pairspec.errors import NonUniqueE

    add, mul, one = structure.add, structure.mul, structure.one
    n = structure.n
    a0 = frozenset(a_zero)
    daggers = []
    for a in sorted(tangible):
        e = int(add[one, a])
        if e not in a0:
            continue
        if all(int(add[b, mul[a, b]]) in a0 for b in range(n)):
            daggers.append((a, e))
    if not daggers:
        return None
    es = {e for _, e in daggers}
    if len(es) > 1:
        (a1, e1), (a2, e2) = daggers[0], next(d for d in daggers if d[1] != daggers[0][1])
        raise NonUniqueE("two 1-dagger candidates give different e",
                         witness=tuple(structure.names[x] for x in (a1, e1, a2, e2)))
    e = es.pop()
    if {int(add[one, a]) for a in tangible if int(add[one, a]) in a0} != {e}:
        return None
    return PropertyNWitness(one_dagger=daggers[0][0], e=e,
                            all_daggers=frozenset(a for a, _ in daggers))


def negation_map_loop(pair, perm):
    """``core.validate_negation_map`` as the loops over cells and sorted
    tangibles it was: the permutation as a tuple, or the error it raises."""
    from pairspec.errors import NotAdditive, NotOrderTwo, QuasiNegationFails, TNotPreserved

    n, names, add, mul = pair.n, pair.names, pair.add.tolist(), pair.mul.tolist()
    p = [int(x) for x in perm]
    if len(p) != n or any(not 0 <= x < n for x in p):
        raise ValueError("negation map must map the carrier into itself")
    for x in range(n):
        if p[p[x]] != x:
            raise NotOrderTwo("negation map does not square to identity", witness=(names[x],))
    for x, y in product(range(n), repeat=2):
        if p[add[x][y]] != add[p[x]][p[y]]:
            raise NotAdditive("negation map is not additive", witness=(names[x], names[y]))
    for a in sorted(pair.tangible):
        for b in range(n):
            if p[mul[a][b]] != mul[a][p[b]]:
                raise NotAdditive("negation map is incompatible with the tangible action",
                                  witness=(names[a], names[b]))
        for b in range(n):
            if p[mul[a][b]] != mul[p[a]][b]:
                raise NotAdditive("negation of a tangible does not act as the negated product",
                                  witness=(names[a], names[b]))
    if {p[a] for a in pair.tangible} != pair.tangible:
        raise TNotPreserved("negation map does not preserve the tangibles", witness=())
    if {p[x] for x in pair.a_zero} != pair.a_zero:
        raise TNotPreserved("negation map does not preserve A0", witness=())
    for b in range(n):
        if add[b][p[b]] not in pair.a_zero:
            raise QuasiNegationFails("b + (-b) escapes A0", witness=(names[b], names[add[b][p[b]]]))
    return tuple(p)


def classify_flags_loop(pair):
    """The kind, cancellative, metatangible and a0_bipotent flags of
    ``core.classify_pair`` as the loops over sorted T they were."""
    add, mul, n = pair.add.tolist(), pair.mul.tolist(), pair.n
    t, a0 = sorted(pair.tangible), pair.a_zero
    return {
        "kind": "first" if all(add[a][a] in a0 for a in t) else "second",
        "cancellative": all(
            not any(mul[a][x] in a0 for x in range(n) if x not in a0)
            and len(set(mul[a])) == n for a in t),
        "metatangible": all(add[a][b] in pair.tangible or add[a][b] in a0
                            for a in t for b in t),
        "a0_bipotent": all(add[a][b] in {a, b} or add[a][b] in a0 for a in t for b in t),
    }


def a0_characteristic_loop(add, a_zero):
    """The least k >= 1 with every k-fold sum b + ... + b in A0, over every
    k in turn; 0 once the k-fold sums come back to their value at k = n + 1,
    by when every orbit has reached its cycle (n elements repeat within n + 1
    steps).  The k go in runs: by associativity, the (m + j)-fold sums are
    the m-fold sums plus the j-fold sums."""
    n = len(add)
    in_a0 = np.isin(np.arange(n), list(a_zero))
    idx = np.arange(n)
    run = [idx]                             # run[j - 1]: the j-fold sums
    while len(run) < max(n + 1, 1024):
        run.append(add[run[-1], idx])
    run = np.array(run)
    j = np.arange(1, len(run) + 1)
    at = run                                # at[j - 1]: the (m + j)-fold sums
    for m in count(0, len(run)):
        hit = np.flatnonzero(in_a0[at].all(axis=1))
        if len(hit):
            return m + int(hit[0]) + 1
        if ((at == run[n]).all(axis=1) & (m + j > n + 1)).any():
            return 0
        at = add[at[-1], run]


def cyclic_parts_pair(one_plus_one="1"):
    """61 elements: 0, 1, an absorbing inf, and the cyclic groups C2, C3, C5,
    C7, C11, C13 and C17 under +, with 1 + 1 = ``one_plus_one`` and every
    other sum across two parts inf; 1 is the unit and every other product is
    0.  T = {1}; A0 is {0}, or with 1 + 1 = inf also inf and the groups'
    identities, where the k-fold sums first all lie in A0 at k = 2*3*...*17."""
    from pairspec.core import validate_pair, validate_structure

    primes = (2, 3, 5, 7, 11, 13, 17)
    names = ["0", "1", "inf", *(f"c{p}_{i}" for p in primes for i in range(p))]
    n = len(names)
    part = [-3, -2, -1, *(p for p in primes for _ in range(p))]
    pos = [0, 0, 0, *(i for p in primes for i in range(p))]
    add = np.full((n, n), 2, dtype=np.int64)
    for x, y in product(range(n), repeat=2):
        if x == 0 or y == 0:
            add[x, y] = x + y
        elif part[x] == part[y] > 0:
            add[x, y] = names.index(f"c{part[x]}_{(pos[x] + pos[y]) % part[x]}")
    add[1, 1] = names.index(one_plus_one)
    mul = np.zeros((n, n), dtype=np.int64)
    mul[1, :] = mul[:, 1] = np.arange(n)
    a_zero = {0} if one_plus_one == "1" else {0, 2, *(names.index(f"c{p}_0") for p in primes)}
    return validate_pair(validate_structure(names, 0, 1, add, mul), {1}, a_zero,
                         name=f"cyclic_parts_{one_plus_one}")


# ---------------------------------------------------------------------------
# constructions as per-cell loops
# ---------------------------------------------------------------------------
# The builders of ``constructions`` and ``spectrum.ae_pair`` as they were
# written before their tables came from index formulas: every cell is filled
# by its own Python expression.  The validation they end in is the package's.

def supertropical_loop(t, g, nu, name=""):
    from pairspec.core import validate_pair, validate_structure
    from pairspec.errors import NuNotHomomorphism

    nu = [int(x) for x in nu]
    if len(nu) != t.k or any(not 0 <= v < g.k for v in nu):
        raise ValueError("nu must map every tangible to a ghost index")
    if nu[t.unit] != g.unit:
        raise NuNotHomomorphism("nu does not preserve the unit", witness=(t.names[t.unit],))
    for a in range(t.k):
        for b in range(t.k):
            if nu[t.table[a, b]] != g.table[nu[a], nu[b]]:
                raise NuNotHomomorphism(
                    "nu is not multiplicative", witness=(t.names[a], t.names[b])
                )

    names = ["0"] + list(t.names) + [f"{x}*" for x in g.names]
    n = 1 + t.k + g.k

    def nu_of(x):
        return nu[x - 1] if 1 <= x <= t.k else x - 1 - t.k

    def rank(x):
        return -1 if x == 0 else nu_of(x)

    add = np.zeros((n, n), dtype=np.int64)
    mul = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            if x == 0:
                add[x, y] = y
            elif y == 0:
                add[x, y] = x
            else:
                rx, ry = rank(x), rank(y)
                add[x, y] = x if rx > ry else y if ry > rx else 1 + t.k + nu_of(x)
            if x == 0 or y == 0:
                mul[x, y] = 0
            elif x <= t.k and y <= t.k:
                mul[x, y] = 1 + int(t.table[x - 1, y - 1])
            else:
                mul[x, y] = 1 + t.k + int(g.table[nu_of(x), nu_of(y)])

    st = validate_structure(names, zero=0, one=1 + t.unit, add=add, mul=mul)
    return validate_pair(st, tangible=set(range(1, t.k + 1)),
                         a_zero={0} | set(range(t.k + 1, n)),
                         name=name or "supertropical")


def truncated_loop(values, m, name=""):
    from pairspec.core import validate_pair, validate_structure
    from pairspec.errors import BadBound

    vals = sorted(set(int(v) for v in values))
    if not vals or vals[0] < 1:
        raise BadBound("tangible values must be positive integers")
    if 1 not in vals:
        raise BadBound("the unit value 1 must be present")
    if m not in vals or any(v > m for v in vals):
        raise BadBound(f"bound {m} must be the reachable top of the carrier")
    pos = {v: i for i, v in enumerate(vals)}
    for v1 in vals:
        for v2 in vals:
            p = v1 * v2
            if p <= m and p not in pos:
                raise BadBound(f"product {v1}*{v2}={p} below the bound is not in the carrier")

    k = len(vals)
    names = ["0"] + [str(v) for v in vals] + [f"{v}*" for v in vals]
    n = 1 + 2 * k

    def level(x):
        return -1 if x == 0 else (x - 1 if x <= k else x - 1 - k)

    add = np.zeros((n, n), dtype=np.int64)
    mul = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            if x == 0:
                add[x, y] = y
            elif y == 0:
                add[x, y] = x
            else:
                lx, ly = level(x), level(y)
                add[x, y] = x if lx > ly else y if ly > lx else 1 + k + lx
            if x == 0 or y == 0:
                mul[x, y] = 0
            else:
                p = vals[level(x)] * vals[level(y)]
                sat = pos[p] if p <= m else pos[m]
                mul[x, y] = 1 + sat if 1 <= x <= k and 1 <= y <= k else 1 + k + sat

    st = validate_structure(names, zero=0, one=1 + pos[1], add=add, mul=mul)
    return validate_pair(st, tangible=set(range(1, k + 1)), a_zero={0} | set(range(k + 1, n)),
                         name=name or f"truncated_{m}")


def minimal_bipotent_loop(t, kind, name=""):
    from pairspec.core import validate_pair, validate_structure

    if kind not in ("first", "second"):
        raise ValueError("kind must be 'first' or 'second'")
    k = t.k
    names = ["0"] + list(t.names) + ["inf"]
    n = k + 2
    inf = n - 1
    add = np.zeros((n, n), dtype=np.int64)
    mul = np.zeros((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            if x == 0:
                add[x, y] = y
            elif y == 0:
                add[x, y] = x
            elif x != y:
                add[x, y] = inf
            else:
                add[x, y] = inf if (kind == "first" and x != inf) else x
            if x == 0 or y == 0:
                mul[x, y] = 0
            elif x == inf or y == inf:
                mul[x, y] = inf
            else:
                mul[x, y] = 1 + int(t.table[x - 1, y - 1])

    st = validate_structure(names, zero=0, one=1 + t.unit, add=add, mul=mul)
    return validate_pair(st, tangible=set(range(1, k + 1)), a_zero={0, inf},
                         name=name or f"minimal_bipotent_{kind}")


def _mask(bits) -> int:
    m = 0
    for b in bits:
        m |= 1 << int(b)
    return m


def _bits(mask: int) -> list[int]:
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def mask_add(hyper, m1: int, m2: int) -> int:
    """The extended sum of two subsets given as int bitmasks."""
    return _mask(np.flatnonzero(hyper.H[np.ix_(_bits(m1), _bits(m2))].any(axis=(0, 1))))


def mask_mul(hyper, m1: int, m2: int) -> int:
    """The set product {xy : x in S1, y in S2} of two int bitmasks."""
    return _mask(hyper.mul[np.ix_(_bits(m1), _bits(m2))].ravel())


def mask_label(names, mask: int) -> str:
    return "{" + ",".join(names[i] for i in _bits(mask)) + "}"


def power_set_loop(hyper, s0=None, cap=4096, name=""):
    from pairspec.constructions import _validate_s0
    from pairspec.core import validate_pair, validate_structure
    from pairspec.errors import CarrierTooLarge

    size = (1 << hyper.n) - 1
    if size > cap:
        raise CarrierTooLarge(size, cap)
    s0 = _validate_s0(hyper, s0)
    s0mask = sum(1 << x for x in s0)
    names = [mask_label(hyper.names, m) for m in range(1, size + 1)]
    add = np.zeros((size, size), dtype=np.int64)
    mul = np.zeros((size, size), dtype=np.int64)
    for m1 in range(1, size + 1):
        for m2 in range(1, size + 1):
            add[m1 - 1, m2 - 1] = mask_add(hyper, m1, m2) - 1
            mul[m1 - 1, m2 - 1] = mask_mul(hyper, m1, m2) - 1
    st = validate_structure(names, zero=(1 << hyper.zero) - 1, one=(1 << hyper.one) - 1,
                            add=add, mul=mul)
    tang = {(1 << a) - 1 for a in hyper.tangible}
    a0 = {m - 1 for m in range(1, size + 1) if m & s0mask}
    return validate_pair(st, tang, a0, name=name or f"P({hyper.name or 'H'})", hyper=hyper)


def hyperpair_loop(hyper, s0=None, cap=4096, name=""):
    from pairspec.constructions import _validate_s0
    from pairspec.core import validate_pair, validate_structure
    from pairspec.errors import CarrierTooLarge

    s0 = _validate_s0(hyper, s0)
    s0mask = sum(1 << x for x in s0)
    carrier = {1 << i for i in range(hyper.n)}
    frontier = list(carrier)
    while frontier:
        m1 = frontier.pop()
        for m2 in list(carrier):
            for new in (mask_add(hyper, m1, m2),
                        mask_mul(hyper, m1, m2), mask_mul(hyper, m2, m1)):
                if new not in carrier:
                    if len(carrier) >= cap:
                        raise CarrierTooLarge(len(carrier) + 1, cap)
                    carrier.add(new)
                    frontier.append(new)
    masks = sorted(carrier)
    pos = {m: i for i, m in enumerate(masks)}
    k = len(masks)
    names = [mask_label(hyper.names, m) for m in masks]
    add = np.zeros((k, k), dtype=np.int64)
    mul = np.zeros((k, k), dtype=np.int64)
    for i, m1 in enumerate(masks):
        for j, m2 in enumerate(masks):
            add[i, j] = pos[mask_add(hyper, m1, m2)]
            mul[i, j] = pos[mask_mul(hyper, m1, m2)]
    st = validate_structure(names, zero=pos[1 << hyper.zero], one=pos[1 << hyper.one],
                            add=add, mul=mul)
    tang = {pos[1 << a] for a in hyper.tangible}
    a0 = {i for i, m in enumerate(masks) if m & s0mask}
    return validate_pair(st, tang, a0, name=name or f"hyperpair({hyper.name or 'H'})",
                         hyper=hyper)


def function_pair_loop(pair, s, cap=4096, name=""):
    from pairspec.core import validate_pair, validate_structure
    from pairspec.errors import CarrierTooLarge

    n, k = pair.n, s.k
    size = n ** k
    if size > cap:
        raise CarrierTooLarge(size, cap)

    def decode(i):
        out = []
        for _ in range(k):
            i, r = divmod(i, n)
            out.append(r)
        return tuple(out)

    def encode(vals):
        out = 0
        for v in reversed(list(vals)):
            out = out * n + int(v)
        return out

    facts = [[] for _ in range(k)]
    for u in range(k):
        for v in range(k):
            facts[int(s.table[u, v])].append((u, v))

    all_vals = [decode(i) for i in range(size)]
    add = np.zeros((size, size), dtype=np.int64)
    mul = np.zeros((size, size), dtype=np.int64)
    for i, fv in enumerate(all_vals):
        for j, gv in enumerate(all_vals):
            add[i, j] = encode(int(pair.add[fv[w], gv[w]]) for w in range(k))
            conv = []
            for w in range(k):
                acc = pair.zero
                for u, v in facts[w]:
                    acc = int(pair.add[acc, pair.mul[fv[u], gv[v]]])
                conv.append(acc)
            mul[i, j] = encode(conv)

    names = ["[" + ",".join(pair.names[v] for v in vals) + "]" for vals in all_vals]
    one_vals = [pair.zero] * k
    one_vals[s.unit] = pair.one
    st = validate_structure(names, zero=encode([pair.zero] * k), one=encode(one_vals),
                            add=add, mul=mul)
    tang = set()
    for site in range(k):
        for a in pair.tangible:
            vals = [pair.zero] * k
            vals[site] = a
            tang.add(encode(vals))
    a0 = {i for i, vals in enumerate(all_vals) if all(pair.a0_mask[v] for v in vals)}
    return validate_pair(st, tang, a0, name=name or f"{pair.name}^S")


def bare_pair(structure, tangible, a_zero, name: str = ""):
    """A pair on ``structure`` without pair-level validation or a Property-N
    witness, as ``spectrum.ae_pair`` builds A*e."""
    from dataclasses import fields

    from pairspec.core import FiniteStructure, Pair

    return Pair(**{f.name: getattr(structure, f.name) for f in fields(FiniteStructure)},
                tangible=frozenset(tangible), a_zero=frozenset(a_zero), property_n=None, name=name)


def doubled_structure(pair):
    """The doubled carrier A x A under componentwise + and the twist product
    as a structure alone, where ``double`` raises because the split
    tangibles are not central.  (a, b) is a * n + b."""
    from pairspec.constructions import doubled_names, twist_table
    from pairspec.core import validate_structure

    n = pair.n
    add = [[int(pair.add[i // n, j // n]) * n + int(pair.add[i % n, j % n]) for j in range(n * n)]
           for i in range(n * n)]
    return validate_structure(doubled_names(pair.names), pair.zero * n + pair.zero,
                              pair.one * n + pair.zero, add, twist_table(pair))


def ae_pair_loop(pair):
    from pairspec.core import validate_structure
    from pairspec.errors import HypothesisFails

    e = pair.require_property_n().e
    img = pair.mul[:, e]
    elems = sorted(set(int(x) for x in img))
    pos = {x: i for i, x in enumerate(elems)}
    m = len(elems)
    add = np.zeros((m, m), dtype=np.int64)
    mul = np.zeros((m, m), dtype=np.int64)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            sx = int(pair.add[x, y])
            px = int(pair.mul[x, y])
            if sx not in pos or px not in pos:
                raise HypothesisFails("A*e is not closed under the operations",
                                      witness=(pair.names[x], pair.names[y]))
            add[i, j] = pos[sx]
            mul[i, j] = pos[px]
    names = [pair.names[x] for x in elems]
    st = validate_structure(names, zero=pos[pair.zero], one=pos[int(img[pair.one])],
                            add=add, mul=mul)
    a0 = {pos[x] for x in elems if x in pair.a_zero}
    proj = np.array([pos[int(img[b])] for b in range(pair.n)], dtype=np.int64)
    return bare_pair(st, {pos[e]}, a0 | {pos[pair.zero]}, name=f"{pair.name}*e"), proj


def transitive_cube(rel) -> bool:
    """Transitivity of a relation matrix through the n x n x n composition."""
    return not ((rel[:, :, None] & rel[None, :, :]).any(axis=1) & ~rel).any()


def very_improper_over_lattice(pair, lattice):
    """CHAINS part iii's very improper pairs as the union over every lattice
    member of its related (a, b) in T x A0 with a + b = a, sorted."""
    return sorted({
        (a, b) for cong in lattice
        for a in sorted(pair.tangible) for b in sorted(pair.a_zero)
        if cong.related(a, b) and int(pair.add[a, b]) == a
    })


# ---------------------------------------------------------------------------
# the per-congruence loops over (1, e) and over the multiples of e
# ---------------------------------------------------------------------------

def positive_e_type_loop(pair):
    """Smallest k > 0 with 1 + k*e = k*e, walking k*e one step at a time
    for n steps; None when none (or without a witness)."""
    if pair.property_n is None:
        return None
    e = pair.property_n.e
    cur = e
    for k in range(1, pair.n + 1):
        if int(pair.add[pair.one, cur]) == cur:
            return k
        cur = int(pair.add[cur, e])
    return None


def etype_shallow_k_loop(pair):
    """ETYPE_SHALLOW's least k with 1 + k*e in A0, walking k*e for n steps."""
    e = pair.property_n.e
    cur = e
    for k in range(1, pair.n + 1):
        if int(pair.add[pair.one, cur]) in pair.a_zero:
            return k
        cur = int(pair.add[cur, e])
    return None


def square_exponents_loop(pair, twist):
    """PRS2's (k', k'') list: the twist square of (1 + k'e, k'e) for
    k' <= min(n, 4), and the least k'' <= n^2 with that square equal to
    (1 + k''e, k''e), or None."""
    e = pair.property_n.e
    ks = []
    ke = e
    for kp in range(1, min(pair.n, 4) + 1):
        v = (int(pair.add[pair.one, ke]), ke)
        sq = twist(pair, v, v)
        kpp = None
        cur = e
        for k2 in range(1, pair.n * pair.n + 1):
            if sq == (int(pair.add[pair.one, cur]), cur):
                kpp = k2
                break
            cur = int(pair.add[cur, e])
        ks.append((kp, kpp))
        ke = int(pair.add[ke, e])
    return ks


def id1_loop(pair, lattice, quotient_pair):
    """ID1 as the loop over every lattice member that relates 1 and e:
    (passed, counterexample, notes)."""
    e = pair.property_n.e
    hits = 0
    for cong in lattice:
        if not cong.related(pair.one, e):
            continue
        hits += 1
        q = quotient_pair(pair, cong)
        if q.a_zero != set(range(q.n)):
            missing = next(i for i in range(q.n) if i not in q.a_zero)
            return False, {"kind": "not_degenerate", "blocks": cong.block_labels(),
                           "element": q.names[missing]}, ""
        bad = [x for x in range(q.n) if int(q.add[x, x]) != x]
        if bad:
            return False, {"kind": "not_idempotent", "blocks": cong.block_labels(),
                           "element": q.names[bad[0]]}, ""
    return True, None, f"{hits} (1,e)-congruence(s) checked"


def without_1e_loop(pair, lattice, classes, flagged):
    """RD1 and PRO3C as the loop over the lattice: the blocks of the first
    member with ``flagged(record)`` that does not relate 1 and e,
    or None."""
    e = pair.property_n.e
    for i, c in enumerate(classes):
        if flagged(c) and not lattice[i].related(pair.one, e):
            return {"blocks": lattice[i].block_labels()}
    return None



def cp_loop(pair, lattice, proper, quotient_pair, is_proper):
    """CP as the loop over the members called proper: the blocks of the
    first whose whole quotient pair is not proper, or None."""
    for i in proper:
        if not is_proper(quotient_pair(pair, lattice[i])):
            return {"blocks": lattice[i].block_labels()}
    return None


def bf_part_ii_loop(pair, lattice, covers, classes):
    """BF part ii: the first member with two or more ``covers`` that is
    flagged strongly prime, or flagged semiprime while two distinct covers
    c1, c2 have a twist product of c1 x c2 outside it, by the dense twist
    products."""
    for i, c in enumerate(classes):
        cov = covers[i]
        if len(cov) < 2 or not (c["strongly_prime"] or c["semiprime"]):
            continue
        member = lattice[i].matrix
        rels = {j: _member_pairs(lattice[j].block_of) for j in cov}
        if c["strongly_prime"] or not all(_twist_inside(pair.add, pair.mul, rels[a], rels[b], member)
                                       for a in cov for b in cov if a != b):
            return {"part": "ii", "blocks": lattice[i].block_labels(), "prime": c["prime"],
                    "semiprime": c["semiprime"], "irreducible": c["irreducible"]}
    return None


def sp2_part_ii_loop(lattice, classes):
    """SP2 part ii: the first member without an e-type, below no other such
    member in ``lattice.leq``, that is not prime."""
    without = [i for i, c in enumerate(classes) if c["e_type"] is None]
    for i in without:
        if not any(j != i and lattice.leq[i, j] for j in without) and not classes[i]["prime"]:
            return {"part": "ii", "blocks": lattice[i].block_labels()}
    return None


def image_relation(roots, proj, m):
    """{(proj x, proj y) : x ~ y} for the partition with root vector
    ``roots``, by a loop over its related pairs."""
    rel = np.zeros((m, m), dtype=bool)
    for x in range(len(roots)):
        for y in range(len(roots)):
            if roots[x] == roots[y]:
                rel[proj[x], proj[y]] = True
    return rel


def push_loop(roots, proj, target):
    """The old one-congruence push: the root vector of the image relation
    when it is transitive and its blocks are a congruence of ``target`` (by
    brute force), else None."""
    m = target.n
    rel = image_relation(roots, proj, m)
    if not transitive_cube(rel):
        return None
    image = roots_of([int(np.argmax(rel[a])) for a in range(m)])
    add = [[int(v) for v in row] for row in target.add]
    mul = [[int(v) for v in row] for row in target.mul]
    return image if is_congruence_bruteforce(add, mul, sorted(target.tangible), image) else None


def iso_verdict_loop(lattice, src, t_lat, spec, push, kernel, words):
    """The RD2/SP2 order-isomorphism verdict as the loop over the source
    congruences ``src``, each pushed on its own: (holds, detail).  With a
    ``kernel`` (root vector), each source congruence must contain it."""
    where, where_lattice, src_name, spec_name = words
    index = {c.roots: k for k, c in enumerate(t_lat)}
    mapping = {}
    for i in src:
        if kernel is not None and not refines_by_definition(kernel, lattice[i].roots):
            return False, f"positive-e-type prime #{i} does not contain diag_e"
        image = push(lattice[i])
        if image is None:
            return False, f"image of prime #{i} is not a congruence of {where}"
        if image.roots not in index:
            return False, f"image of prime #{i} missing from {where_lattice}"
        mapping[i] = index[image.roots]
        if mapping[i] not in spec:
            return False, f"image of prime #{i} is not prime in {where}"
    holds = sorted(mapping.values()) == sorted(spec) and all(
        lattice.leq[i, j] == t_lat.leq[mapping[i], mapping[j]] for i in src for j in src)
    return holds, f"|{src_name}|={len(src)}, |{spec_name}|={len(spec)}"


def tr1_loop(pair, q_lat, q_proj, lattice, ae_lat, push, e_central, e_final, is_congruence):
    """TR1 as the loops over members: each congruence of A/diag_e pulled
    back by its labels, then each member of ``lattice`` pushed to A*e one at
    a time.  An image missing from ``ae_lat``, where the loop's lookup raised
    KeyError, is reported as e_image_missing once every push is made.
    Returns (passed, counterexample)."""
    pulled = []
    for psi in q_lat:
        labels = [psi.roots[a] for a in q_proj]
        ok, wit = is_congruence(pair, labels)
        if not ok:
            return False, {"kind": "pullback_not_congruence",
                           "quotient_blocks": psi.block_labels(), "witness": wit}
        pulled.append(roots_of(labels))
    if len(set(pulled)) != len(q_lat):
        return False, {"kind": "pullback_not_injective"}
    for i in range(len(q_lat)):
        for j in range(len(q_lat)):
            if bool(q_lat.leq[i, j]) != refines_by_definition(pulled[i], pulled[j]):
                return False, {"kind": "pullback_not_order_embedding",
                               "i": q_lat[i].block_labels(), "j": q_lat[j].block_labels()}
    if not e_central:
        return True, None
    images = []
    for cong in lattice:
        img = push(cong)
        if img is None:
            return False, {"kind": "e_image_not_congruence", "blocks": cong.block_labels()}
        images.append(img.roots)
    index = {c.roots: k for k, c in enumerate(ae_lat)}
    for cong, img in zip(lattice, images):
        if img not in index:
            return False, {"kind": "e_image_missing", "blocks": cong.block_labels()}
    for i in range(len(lattice)):
        for j in range(len(lattice)):
            if lattice.leq[i, j] and not refines_by_definition(images[i], images[j]):
                return False, {"kind": "e_image_not_monotone", "i": lattice[i].block_labels()}
    if e_final:
        e = pair.property_n.e
        src = [i for i, c in enumerate(lattice) if c.related(pair.one, e)]
        mapping = [index[images[i]] for i in src]
        if sorted(set(mapping)) != list(range(len(ae_lat))):
            return False, {"kind": "e_image_not_bijection", "one_e_count": len(src),
                           "ae_count": len(ae_lat)}
        for a, i in enumerate(src):
            for b, j in enumerate(src):
                if lattice.leq[i, j] != ae_lat.leq[mapping[a], mapping[b]]:
                    return False, {"kind": "e_image_not_order_iso"}
    return True, None


# ---------------------------------------------------------------------------
# the harness's loops over lattice members and carrier elements
# ---------------------------------------------------------------------------
#
# The per-member and per-element loops the array checks of ``verify``
# replaced.  Each returns the counterexample of its check, or None.  Members
# are given as rows of root vectors; ``lattice[i].block_labels()`` only
# prints member i.

def meet_by_definition(a, b) -> tuple[int, ...]:
    """Common refinement of two partitions given by labels, as roots."""
    return roots_of(list(zip(a, b)))


def join_by_definition(a, b) -> tuple[int, ...]:
    """Finest partition coarser than both, by merging labels until no block
    of either partition is split."""
    lab = list(range(len(a)))
    changed = True
    while changed:
        changed = False
        for part in (a, b):
            for x in range(len(a)):
                for y in range(len(a)):
                    if part[x] == part[y] and lab[x] != lab[y]:
                        lab[x] = lab[y] = min(lab[x], lab[y])
                        changed = True
    return roots_of(lab)


def closure_roots_loop(add, mul, gens) -> list[int]:
    """The union-find closure ``_kernels.closure_roots`` replaced: each
    merge of x and y queues the translates (x+c, y+c), (xc, yc), (cx, cy);
    each root is the least member of its block."""
    n = add.shape[0]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    stack = []

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        stack.append((x, y))

    for x, y in gens:
        union(int(x), int(y))
    rows = (add.tolist(), mul.tolist(), mul.T.tolist())
    while stack:
        x, y = stack.pop()
        for t in rows:
            for u, v in zip(t[x], t[y]):
                if u != v:
                    union(u, v)
    return [find(i) for i in range(n)]


def join_loop(r1, r2) -> tuple[int, ...]:
    """The union-find join ``congruences.join`` replaced: started from the
    roots ``r1`` and merged along those of ``r2``, larger root under
    smaller."""
    parent = list(r1)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, r in enumerate(r2):
        if r != x:
            a, b = find(r), find(x)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return tuple(find(x) for x in range(len(parent)))


def bf_part_i_loop(pair, lattice, rows):
    """BF part i: the first member that some twist product of a pair of
    A x A with one of its pairs escapes."""
    n = pair.n
    full = (np.repeat(np.arange(n), n), np.tile(np.arange(n), n))
    for i, r in enumerate(rows):
        member = np.asarray(r)[:, None] == np.asarray(r)[None, :]
        if not _twist_inside(pair.add, pair.mul, full, _member_pairs(r), member):
            return {"part": "i", "blocks": lattice[i].block_labels()}
    return None


def bf_meets_loop(lattice, rows, flags, part):
    """BF part iii (iv): the first flagged (i, j) whose meet, looked up among
    the members, is not flagged."""
    index = {tuple(r): k for k, r in enumerate(rows)}
    flagged = [i for i in range(len(rows)) if flags[i]]
    for i in flagged:
        for j in flagged:
            if not flags[index[meet_by_definition(rows[i], rows[j])]]:
                return {"part": part, "i": lattice[i].block_labels(),
                        "j": lattice[j].block_labels()}
    return None


def bf_part_v_loop(rows, leq):
    """BF part v: over the pairs i <= j of ``leq``, the join of i and j must
    be j, then their meet i."""
    for i in range(len(rows)):
        for j in range(len(rows)):
            if leq[i][j]:
                if join_by_definition(rows[i], rows[j]) != tuple(rows[j]):
                    return {"part": "v", "join_mismatch": True}
                if meet_by_definition(rows[i], rows[j]) != tuple(rows[i]):
                    return {"part": "v", "meet_mismatch": True}
    return None


def prs1_loop(pair, lattice, rows, radical):
    """PRS1 over the radical members: part i over every b, then part ii."""
    add, mul, one, names = pair.add, pair.mul, pair.one, pair.names
    for i in radical:
        r = rows[i]
        for b1 in range(pair.n):
            for b2 in range(pair.n):
                p, q = twist_bruteforce(add, mul, (b1, b2), (b2, b1))
                if r[p] == r[q] and r[b1] != r[b2]:
                    return {"part": "i", "blocks": lattice[i].block_labels(),
                            "b": (names[b1], names[b2])}
        for b in range(pair.n):
            if (r[one] == r[b]) != (r[add[one][mul[b][b]]] == r[add[b][b]]):
                return {"part": "ii", "blocks": lattice[i].block_labels(), "b": names[b]}
    return None


def pro3_loop(pair, lattice, rows):
    """PRO3: a member relating e and e^2 that relates some a to a c of A*e
    must relate a and ae."""
    e, mul = pair.property_n.e, pair.mul
    ae = {int(x) for x in mul[:, e]}
    for i, r in enumerate(rows):
        if r[e] != r[mul[e][e]]:
            continue
        for a in range(pair.n):
            for c in range(pair.n):
                if c in ae and r[a] == r[c] and r[a] != r[mul[a][e]]:
                    return {"blocks": lattice[i].block_labels(),
                            "a": pair.names[a], "c": pair.names[c]}
    return None


def shallow1k_loop(pair, lattice, rows, proper):
    """SHALLOW1K: a proper member relating two tangibles relates them only
    when their sum is in A0."""
    for i in proper:
        r = rows[i]
        for a1 in sorted(pair.tangible):
            for a2 in sorted(pair.tangible):
                s = int(pair.add[a1][a2])
                if r[a1] == r[a2] and s not in pair.a_zero:
                    return {"blocks": lattice[i].block_labels(), "a1": pair.names[a1],
                            "a2": pair.names[a2], "sum": pair.names[s]}
    return None


def chains_part_ii_loop(leq, proper):
    """CHAINS part ii: the first proper member below no maximal proper one,
    the maximal ones read off ``leq`` by definition."""
    maximal = [i for i in proper if not any(leq[i][j] for j in proper if j != i)]
    for i in proper:
        if not any(leq[i][j] for j in maximal):
            return i
    return None


def chains_part_iv_loop(pair, lattice, weakly_proper, twist_subset):
    """CHAINS part iv as the loop over triples (maximal weakly proper i, then
    j and k not weakly proper), the maximal ones read off ``leq`` by
    definition: the first with every twist product of j x k inside i (by
    ``twist_subset``), or None."""
    leq = lattice.leq
    weakly = [i for i in range(len(lattice)) if weakly_proper[i]]
    max_weakly = [i for i in weakly if not any(leq[i][j] for j in weakly if j != i)]
    has_very = [i for i in range(len(lattice)) if not weakly_proper[i]]
    for i in max_weakly:
        for j in has_very:
            for k in has_very:
                if twist_subset(pair, lattice[j], lattice[k], lattice[i].matrix):
                    return {"part": "iv", "blocks": lattice[i].block_labels(),
                            "factors": (lattice[j].block_labels(),
                                        lattice[k].block_labels())}
    return None


def chains_part_iii_loop(pair, twist):
    """CHAINS part iii: every twist product (by ``twist``) of two very
    improper pairs (a, b), a + b = a in T x A0, is very improper."""
    names = pair.names
    very = [(a, b) for a in sorted(pair.tangible) for b in sorted(pair.a_zero)
            if pair.add[a, b] == a]
    for x in very:
        for y in very:
            p, q = twist(pair, x, y)
            if not (p in pair.tangible and q in pair.a_zero and pair.add[p, q] == p):
                return {"part": "iii", "x": (names[x[0]], names[x[1]]),
                        "y": (names[y[0]], names[y[1]]), "product": (names[p], names[q])}
    return None


def gen_loop(pair, twist):
    """GEN: (b1, b2)(z, z) = ((b1+b2)z, (b1+b2)z) by ``twist`` over [b1, b2, z]."""
    names = pair.names
    for b1 in range(pair.n):
        for b2 in range(pair.n):
            for z in range(pair.n):
                got = twist(pair, (b1, b2), (z, z))
                want = int(pair.mul[pair.add[b1][b2]][z])
                if got != (want, want):
                    return {"b": (names[b1], names[b2]), "z": names[z],
                            "product": (names[got[0]], names[got[1]]), "expected": names[want]}
    return None


def emul_loop(pair):
    """EMUL: x -> xe respects + and * at each (x, y), additive first; then
    each image element is idempotent, then fixed by e on both sides."""
    add, mul, e, names = pair.add, pair.mul, pair.property_n.e, pair.names
    proj = [int(mul[x][e]) for x in range(pair.n)]
    for x in range(pair.n):
        for y in range(pair.n):
            if proj[add[x][y]] != add[proj[x]][proj[y]]:
                return {"kind": "not_additive", "x": names[x], "y": names[y]}
            if proj[mul[x][y]] != mul[proj[x]][proj[y]]:
                return {"kind": "not_multiplicative", "x": names[x], "y": names[y]}
    for x in sorted(set(proj)):
        if add[x][x] != x:
            return {"kind": "image_not_idempotent", "x": names[x]}
        if mul[x][e] != x or mul[e][x] != x:
            return {"kind": "e_not_unit", "x": names[x]}
    return None


def esq_loop(pair):
    """ESQ: e^2 = e + e, then e(b1 + b2) = eb1 + eb2 over b1, b2 in A0."""
    add, mul, e, names = pair.add, pair.mul, pair.property_n.e, pair.names
    if mul[e][e] != add[e][e]:
        return {"e_squared": names[mul[e][e]], "e_plus_e": names[add[e][e]]}
    for b1 in sorted(pair.a_zero):
        for b2 in sorted(pair.a_zero):
            lhs, rhs = int(mul[e][add[b1][b2]]), int(add[mul[e][b1]][mul[e][b2]])
            if lhs != rhs:
                return {"b1": names[b1], "b2": names[b2],
                        "e(b1+b2)": names[lhs], "eb1+eb2": names[rhs]}
    return None


def est_loop(pair):
    """EST: e * dagger = e for each 1-dagger, in sorted order."""
    w, names = pair.property_n, pair.names
    for d in sorted(w.all_daggers):
        got = int(pair.mul[w.e, d])
        if got != w.e:
            return {"dagger": names[d], "e": names[w.e], "e_times_dagger": names[got]}
    return None


def kind_loop(pair, cls):
    """KIND as the check it was, with the classification ``cls`` (its kind
    and cancellative flag): the first tangible a, in sorted order, with
    a + a outside A0 is the witness."""
    two = int(iterated_sum(pair.add, pair.one, 2))
    two_in = two in pair.a_zero
    if two_in and cls["kind"] != "first":
        a = next(a for a in sorted(pair.tangible) if int(pair.add[a, a]) not in pair.a_zero)
        return True, False, {"two": pair.names[two], "tangible": pair.names[a],
                             "a_plus_a": pair.names[int(pair.add[a, a])]}, ""
    notes = f"two={pair.names[two]}, in A0: {two_in}"
    if cls["cancellative"]:
        if (cls["kind"] == "second") != (not two_in):
            return True, False, {"kind": cls["kind"], "two_in_a0": two_in}, ""
        notes += "; cancellative equivalence checked"
    return True, True, None, notes


def hyprop_loop(ctx):
    """HYPROP as the check it was, reading ``ctx.pair.hyper`` and
    ``ctx.cls``; its group test loops over the nonzero elements."""
    hyper = ctx.pair.hyper
    if hyper is None:
        return False, None, None, "needs a pair built from a hyperstructure"
    e_set = hyper.e_set
    if e_set is None:
        return False, None, None, "hyperstructure has no hypernegation"
    nonzero = frozenset(range(hyper.n)) - {hyper.zero}
    group_like = hyper.tangible == nonzero and all(
        any(int(hyper.mul[a, b]) == hyper.one for b in nonzero) for a in nonzero)
    if group_like and e_set == frozenset(range(hyper.n)) - {hyper.one} and hyper.n > 2:
        if ctx.cls["e_type"] != [2, 2]:
            return True, False, {"case": "group_complement",
                                 "e_type": ctx.cls["e_type"]}, ""
        return True, True, None, "group hyperfield with e the complement of one: e-type 2"
    neg = hyper.hypernegation
    if neg is not None and neg[hyper.one] != hyper.one and e_set == frozenset(
            {hyper.zero, hyper.one, neg[hyper.one]}):
        if not (ctx.cls["e_idempotent"] and ctx.cls["e_final"]):
            return True, False, {"case": "zero_one_minus_one",
                                 "e_idempotent": ctx.cls["e_idempotent"],
                                 "e_final": ctx.cls["e_final"]}, ""
        return True, True, None, "e = {0, 1, -1}: e-idempotent and e-final"
    return False, None, None, "hyperstructure matches no covered shape"


# ---------------------------------------------------------------------------
# hyperstructures by bitmask loops
# ---------------------------------------------------------------------------
#
# The validation, hypernegation search and residue construction that held
# each hyperaddition entry as a Python-int bitmask and checked every law in
# n^3 loops, before hyperaddition became one boolean tensor.  They raise the
# same errors; on success they return the parts of a ``HyperStructure`` a
# test compares, with ``sums[i][j]`` the frozenset i boxplus j.

def _bitmask(bits) -> int:
    m = 0
    for b in bits:
        m |= 1 << int(b)
    return m


def _bitlist(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def find_hypernegation_loop(mul, hyperadd, zero: int):
    """(permutation or None, uniqueness flag): b is a hypernegative of a when
    zero lands in a boxplus b."""
    n = mul.shape[0]
    zbit = 1 << zero
    perm = []
    unique = True
    for a in range(n):
        cands = [b for b in range(n) if int(hyperadd[a, b]) & zbit]
        if not cands:
            return None, False
        if len(cands) > 1:
            unique = False
        perm.append(cands[0])
    return tuple(perm), unique


def validate_hyperstructure_loop(names, zero, one, mul, hyperadd_sets, tangible,
                                 hypernegation=None, name=""):
    from types import SimpleNamespace

    from pairspec.errors import HyperAddNotAssociative, ValidationError, ZeroLaw

    names = tuple(str(x) for x in names)
    n = len(names)
    if len(set(names)) != n or n == 0:
        raise ValueError("element labels must be distinct and nonempty")
    zero = names.index(zero) if isinstance(zero, str) else int(zero)
    one = names.index(one) if isinstance(one, str) else int(one)
    mul = np.asarray(mul, dtype=np.int64)
    if mul.shape != (n, n) or (n and (mul.min() < 0 or mul.max() >= n)):
        raise ValueError("mul table malformed")

    ha = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            entry = hyperadd_sets[i][j]
            m = int(entry) if isinstance(entry, (int, np.integer)) else _bitmask(entry)
            if m == 0:
                raise ValueError(f"hyperaddition entry ({names[i]}, {names[j]}) is empty")
            if m >= (1 << n):
                raise ValueError("hyperaddition entry references unknown elements")
            ha[i, j] = m

    ijk = first_nonassoc_dense(mul)
    if ijk[0] >= 0:
        raise ValidationError("hyper multiplication is not associative",
                              witness=tuple(names[i] for i in ijk))
    if (mul[zero] != zero).any() or (mul[:, zero] != zero).any():
        raise ValidationError("hyper zero is not multiplicatively absorbing", witness=(names[zero],))
    if (mul[one] != np.arange(n)).any() or (mul[:, one] != np.arange(n)).any():
        raise ValidationError("hyper one is not a unit", witness=(names[one],))

    for i in range(n):
        for j in range(n):
            if ha[i, j] != ha[j, i]:
                raise ValidationError("hyperaddition is not commutative", witness=(names[i], names[j]))
    for a in range(n):
        if int(ha[zero, a]) != (1 << a):
            raise ZeroLaw("zero boxplus a must be {a}", witness=(names[a],))

    for a in range(n):
        for b in range(n):
            for c in range(n):
                left = 0
                for i in _bitlist(int(ha[a, b])):
                    left |= int(ha[i, c])
                right = 0
                for j in _bitlist(int(ha[b, c])):
                    right |= int(ha[a, j])
                if left != right:
                    raise HyperAddNotAssociative("set-extension associativity fails",
                                                 witness=(names[a], names[b], names[c]))

    for a in range(n):
        for s1 in range(n):
            for s2 in range(n):
                lhs = _bitmask(int(mul[a, x]) for x in _bitlist(int(ha[s1, s2])))
                if lhs != int(ha[mul[a, s1], mul[a, s2]]):
                    raise ValidationError("monoid action does not distribute over hyperaddition",
                                          witness=(names[a], names[s1], names[s2]))

    tang = frozenset(int(x) for x in tangible)
    if one not in tang or (zero in tang and zero != one):
        raise ValidationError("tangible submonoid must contain one and exclude zero",
                              witness=(names[one],))
    for a in tang:
        for b in tang:
            if int(mul[a, b]) not in tang:
                raise ValidationError("tangible set is not multiplicatively closed",
                                      witness=(names[a], names[b]))

    found, unique = find_hypernegation_loop(mul, ha, zero)
    if hypernegation is None:
        neg = found if found is not None and unique else None
        neg_unique = unique if found is not None else None
    else:
        neg = tuple(int(x) for x in hypernegation)
        for a in range(n):
            if not int(ha[a, neg[a]]) & (1 << zero):
                raise ValidationError("claimed hypernegation misses zero",
                                      witness=(names[a], names[neg[a]]))
            if neg[neg[a]] != a:
                raise ValidationError("hypernegation is not an involution", witness=(names[a],))
        neg_unique = unique
    if neg is not None:
        for a in range(n):
            for b in range(n):
                lhs = _bitmask(neg[x] for x in _bitlist(int(ha[a, b])))
                if lhs != int(ha[neg[a], neg[b]]):
                    raise ValidationError("hypernegation does not reverse sums",
                                          witness=(names[a], names[b]))

    sums = [[frozenset(_bitlist(int(ha[i, j]))) for j in range(n)] for i in range(n)]
    e_set = None if neg is None else sums[one][neg[one]]
    return SimpleNamespace(
        names=names, zero=zero, one=one, mul=mul, sums=sums, tangible=tang,
        hypernegation=neg, negation_unique=neg_unique, e_set=e_set, name=name,
    )


def residue_hyperstructure_loop(pair, subgroup, name=""):
    from pairspec.errors import NotAGroup, NotNormal

    def label(orbit):
        items = sorted(orbit)
        if len(items) == 1:
            return names[items[0]]
        return "{" + ",".join(names[i] for i in items) + "}"

    g = sorted({int(x) for x in subgroup})
    names = pair.names
    mul, add = pair.mul, pair.add
    gset = set(g)
    if not gset <= pair.tangible:
        bad = next(iter(gset - pair.tangible))
        raise NotAGroup("subgroup elements must be tangible", witness=(names[bad],))
    if pair.one not in gset:
        raise NotAGroup("subgroup must contain one", witness=(names[pair.one],))
    for x in g:
        for y in g:
            if int(mul[x, y]) not in gset:
                raise NotAGroup("subgroup is not closed", witness=(names[x], names[y]))
    for x in g:
        if not any(int(mul[x, y]) == pair.one for y in g):
            raise NotAGroup("element has no inverse in the subgroup", witness=(names[x],))

    orbit_of = {}
    orbits = []
    for b in range(pair.n):
        if b in orbit_of:
            continue
        orb = frozenset(int(mul[b, y]) for y in g)
        for x in orb:
            orbit_of[x] = len(orbits)
        orbits.append(orb)
    order = sorted(range(len(orbits)), key=lambda i: min(orbits[i]))
    rank = {old: new for new, old in enumerate(order)}
    orbits = [orbits[i] for i in order]
    orbit_of = {x: rank[i] for x, i in orbit_of.items()}

    k = len(orbits)
    for i in range(k):
        for j in range(k):
            prods = {int(mul[x, y]) for x in orbits[i] for y in orbits[j]}
            if prods != orbits[orbit_of[int(mul[min(orbits[i]), min(orbits[j])])]]:
                raise NotNormal("coset product is not a coset",
                                witness=(label(orbits[i]), label(orbits[j])))

    cmul = np.zeros((k, k), dtype=np.int64)
    hadd = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            cmul[i, j] = orbit_of[int(mul[min(orbits[i]), min(orbits[j])])]
            hadd[i][j] = _bitmask(orbit_of[int(add[x, y])] for x in orbits[i] for y in orbits[j])
    return validate_hyperstructure_loop(
        [label(orb) for orb in orbits], zero=orbit_of[pair.zero], one=orbit_of[pair.one],
        mul=cmul, hyperadd_sets=hadd, tangible={orbit_of[a] for a in pair.tangible},
        name=name or f"{pair.name}/G",
    )


def validate_s0_loop(hyper, s0):
    """The S0 checks of the power-set builders on a result of
    ``validate_hyperstructure_loop``."""
    from pairspec.errors import S0NotValid

    if s0 is None:
        return frozenset({hyper.zero})
    s0 = frozenset(int(x) for x in s0)
    if hyper.zero not in s0:
        raise S0NotValid("S0 must contain zero", witness=(hyper.names[hyper.zero],))
    overlap = (s0 & hyper.tangible) - {hyper.zero}
    if overlap:
        raise S0NotValid("S0 must avoid the tangible submonoid",
                         witness=(hyper.names[next(iter(overlap))],))
    for x in s0:
        for y in s0:
            if hyper.sums[x][y] - s0:
                raise S0NotValid("S0 is not closed under hyperaddition",
                                 witness=(hyper.names[x], hyper.names[y]))
            if int(hyper.mul[x, y]) not in s0:
                raise S0NotValid("S0 is not multiplicatively closed",
                                 witness=(hyper.names[x], hyper.names[y]))
    return s0


# ---------------------------------------------------------------------------
# prime congruences of commutative, additively idempotent semirings
# ---------------------------------------------------------------------------

def jm_prime(add, mul, block_of, zero) -> bool:
    """Joo and Mincheva's characterization (Selecta Math. 24, 2018): a
    congruence P != A x A of a commutative, additively idempotent semiring
    is prime iff A/P is totally ordered (a + b in {a, b}) and cancellative
    (ab = ac implies a = 0 or b = c).  Tables are lists of lists."""
    blocks = sorted(set(block_of))
    if len(blocks) == 1:
        return False
    rep = {b: block_of.index(b) for b in blocks}
    total = all(block_of[add[rep[a]][rep[b]]] in (a, b) for a in blocks for b in blocks)
    cancellative = all(
        a == block_of[zero] or b == c
        or block_of[mul[rep[a]][rep[b]]] != block_of[mul[rep[a]][rep[c]]]
        for a, b, c in product(blocks, repeat=3))
    return total and cancellative


def jm_points(add, mul, zero, one) -> set[tuple[int, ...]]:
    """The Joo-Mincheva primes of a finite, commutative, additively
    idempotent semiring from its points: the kernels of f(x) = [x not <= m],
    x <= m iff x + m = m, for each m where f is a homomorphism onto the
    Boolean semifield.  That is where the down-set of m is a proper prime
    ideal: 1 is not below m, and ab <= m iff a <= m or b <= m.  Each kernel
    is a partition in restricted-growth form.  Tables are lists of lists."""
    n = len(add)
    points = set()
    for m in range(n):
        f = [add[x][m] != m for x in range(n)]
        if (not f[zero] and f[one]
                and all(f[add[x][y]] == (f[x] or f[y]) and f[mul[x][y]] == (f[x] and f[y])
                        for x, y in product(range(n), repeat=2))):
            points.add(restricted_growth(f))
    return points
