"""Every semiring pair on a few elements, for an exhaustive audit of the harness.

``semirings(n)`` lists, once per isomorphism class under the permutations of
the carrier that fix 0 and 1, every semiring on 0..n-1 with 0 the zero and 1
the one: + commutative and associative with 0 neutral, the product
associative with 1 a unit and 0 absorbing, and both distributive laws.  The
laws are tested here with plain loops, not with the package's kernels.
``pairs(n)`` takes each of them with every tangible set T containing 1 and
every A0 containing 0 that ``validate_pair`` accepts; (T, A0) choices are
not deduplicated under automorphisms.  (Finite-model search in the manner
of McCune's Mace4, at sizes where brute force suffices.)
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from pairspec.core import validate_pair, validate_structure
from pairspec.errors import ValidationError


def _associative(t) -> bool:
    r = range(len(t))
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in r for b in r for c in r)


def _tables(n: int, cells, base, symmetric: bool):
    """Every associative table equal to ``base`` off ``cells`` (and, when
    ``symmetric``, off their mirror images)."""
    for values in product(range(n), repeat=len(cells)):
        t = [row[:] for row in base]
        for (i, j), v in zip(cells, values):
            t[i][j] = v
            if symmetric:
                t[j][i] = v
        if _associative(t):
            yield t


def _semiring_tables(n: int):
    """Every (add, mul) on 0..n-1 that is a semiring with zero 0 and one 1."""
    r = range(n)
    adds = list(_tables(n, [(i, j) for i in range(1, n) for j in range(i, n)],
                        [[j if i == 0 else i if j == 0 else 0 for j in r] for i in r], True))
    muls = list(_tables(n, [(i, j) for i in range(2, n) for j in range(2, n)],
                        [[0 if 0 in (i, j) else j if i == 1 else i for j in r] for i in r], False))
    for add in adds:
        for mul in muls:
            if all(mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                   and mul[add[a][b]][c] == add[mul[a][c]][mul[b][c]]
                   for a in r for b in r for c in r):
                yield add, mul


def _canonical(add, mul) -> tuple:
    """The least relabelled copy of the tables over the permutations that
    fix 0 and 1."""
    n = len(add)
    best = None
    for rest in permutations(range(2, n)):
        p = (0, 1, *rest)                 # p[x]: the new label of x
        inv = sorted(range(n), key=p.__getitem__)
        key = tuple(p[t[inv[i]][inv[j]]] for t in (add, mul) for i in range(n) for j in range(n))
        best = key if best is None else min(best, key)
    return best


def semirings(n: int) -> list[tuple[list[list[int]], list[list[int]]]]:
    """One (add, mul) per isomorphism class of semirings on n >= 2 elements."""
    seen, out = set(), []
    for add, mul in _semiring_tables(n):
        key = _canonical(add, mul)
        if key not in seen:
            seen.add(key)
            out.append((add, mul))
    return out


def _subsets_with(x: int, n: int):
    rest = [y for y in range(n) if y != x]
    return [{x, *c} for k in range(n) for c in combinations(rest, k)]


def pairs(n: int) -> list:
    """Every pair that ``validate_pair`` accepts on the semirings of size n,
    named ``s<n>.<semiring>.T<tangibles>.A<a0>``."""
    out = []
    for k, (add, mul) in enumerate(semirings(n)):
        st = validate_structure([str(i) for i in range(n)], 0, 1, add, mul)
        for t in _subsets_with(1, n):
            for a0 in _subsets_with(0, n):
                name = f"s{n}.{k}.T{''.join(map(str, sorted(t)))}.A{''.join(map(str, sorted(a0)))}"
                try:
                    out.append(validate_pair(st, t, a0, name=name))
                except ValidationError:
                    pass
    return out
