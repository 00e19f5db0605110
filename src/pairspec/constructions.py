"""Builders for every concrete pair and hyperstructure, plus doubling.

Each builder returns a fully validated Pair (or HyperStructure); axiom
failures in a construction surface as validation errors, never as silently
wrong tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from ._kernels import (_SCAN_CELLS, _first, _tiles, _twist_chunks, first_nonassoc, first_row,
                       row_blocks)
from .congruences import Congruence, is_congruence
from .core import (
    Pair,
    validate_negation_map,
    validate_pair,
    validate_structure,
)
from .errors import (
    BadBound,
    CarrierTooLarge,
    HyperAddNotAssociative,
    NotACongruence,
    NotAGroup,
    NotNormal,
    NuNotHomomorphism,
    S0NotValid,
    ValidationError,
    ZeroLaw,
)
from .monoids import Monoid

# Largest carrier a construction builds: power sets, generated hyperpairs,
# function pairs, and the n*n doubled carrier of ``twist_table``.
DEFAULT_CARRIER_CAP = 4096


# ---------------------------------------------------------------------------
# layered (tangible/ghost) pairs
# ---------------------------------------------------------------------------

def super_boolean() -> Pair:
    """Three elements 0, 1, e with 1+1 = e and e additively absorbing."""
    st = validate_structure(
        ["0", "1", "e"], zero=0, one=1,
        add=[[0, 1, 2], [1, 2, 2], [2, 2, 2]],
        mul=[[0, 0, 0], [0, 1, 2], [0, 2, 2]],
    )
    return validate_pair(st, tangible={1}, a_zero={0, 2}, name="super_boolean")


def supertropical(t: Monoid, g: Monoid, nu: Sequence[int], name: str = "") -> Pair:
    """Two-layer pair over a monoid map nu from tangibles into an ordered
    ghost monoid; addition takes the nu-larger argument and ghosts ties.

    The ghost layer is ordered by its listed element order, with a fresh
    bottom zero adjoined.
    """
    nu = [int(x) for x in nu]
    if len(nu) != t.k or any(not 0 <= v < g.k for v in nu):
        raise ValueError("nu must map every tangible to a ghost index")
    if nu[t.unit] != g.unit:
        raise NuNotHomomorphism("nu does not preserve the unit", witness=(t.names[t.unit],))
    nu = np.array(nu, dtype=np.int64)
    bad = np.argwhere(nu[t.table] != g.table[nu[:, None], nu[None, :]])
    if len(bad):
        raise NuNotHomomorphism("nu is not multiplicative",
                                witness=tuple(t.names[a] for a in bad[0]))

    names = ["0"] + list(t.names) + [f"{x}*" for x in g.names]
    n = 1 + t.k + g.k
    # rank of each element in the ghost order (zero below everything), and
    # the ghost a tie lands on
    rank = np.concatenate(([-1], nu, np.arange(g.k)))
    tie = np.where(rank < 0, 0, 1 + t.k + rank)
    x, y = np.arange(n)[:, None], np.arange(n)[None, :]
    add = np.where(rank[x] > rank[y], x, np.where(rank[y] > rank[x], y, tie[x]))
    mul = np.zeros((n, n), dtype=np.int64)
    mul[1:, 1:] = 1 + t.k + g.table[rank[1:, None], rank[None, 1:]]
    mul[1:t.k + 1, 1:t.k + 1] = 1 + t.table

    st = validate_structure(names, zero=0, one=1 + t.unit, add=add, mul=mul)
    return validate_pair(
        st,
        tangible=set(range(1, t.k + 1)),
        a_zero={0} | set(range(t.k + 1, n)),
        name=name or "supertropical",
    )


def standard_supertropical(t: Monoid, name: str = "") -> Pair:
    """Ghost layer is a copy of the tangible monoid and nu is the identity."""
    return supertropical(t, t, list(range(t.k)), name=name)


def constant_supertropical(t: Monoid, name: str = "") -> Pair:
    """Every tangible sum collapses to the single ghost e."""
    e = Monoid(names=("e",), table=np.zeros((1, 1), dtype=np.int64), unit=0)
    return supertropical(t, e, [0] * t.k, name=name or "supertropical_constant")


def truncated_supertropical(values: Sequence[int], m: int, name: str = "") -> Pair:
    """Two-layer pair on integer tangibles 'values' whose products saturate:
    a tangible product beyond m becomes the tangible m, any product involving
    a ghost beyond m becomes the ghost of m.  This is the standard
    supertropical pair over 'values' under x*y = min(xy, m)."""
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

    table = [[pos[min(v1 * v2, m)] for v2 in vals] for v1 in vals]
    mon = Monoid(names=tuple(str(v) for v in vals), table=table, unit=pos[1])
    return standard_supertropical(mon, name=name or f"truncated_{m}")


def minimal_bipotent(t: Monoid, kind: str, name: str = "") -> Pair:
    """Carrier T plus 0 and an absorbing inf; distinct sums give inf, and
    a+a is inf (first kind) or a (second kind)."""
    if kind not in ("first", "second"):
        raise ValueError("kind must be 'first' or 'second'")
    k = t.k
    names = ["0"] + list(t.names) + ["inf"]
    n = k + 2
    inf = n - 1
    add = np.full((n, n), inf, dtype=np.int64)
    if kind == "second":
        np.fill_diagonal(add, np.arange(n))
    add[0] = add[:, 0] = np.arange(n)
    mul = np.full((n, n), inf, dtype=np.int64)
    mul[1:inf, 1:inf] = 1 + t.table
    mul[0] = mul[:, 0] = 0

    st = validate_structure(names, zero=0, one=1 + t.unit, add=add, mul=mul)
    return validate_pair(
        st,
        tangible=set(range(1, k + 1)),
        a_zero={0, inf},
        name=name or f"minimal_bipotent_{kind}",
    )


# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------

class DoubledPair(NamedTuple):
    """What ``double`` returns: a plain ``(pair, switch)`` tuple whose two
    slots also read as ``.pair`` and ``.switch``, which
    ``perfbench/test_checks.py`` still reads."""

    pair: Pair
    switch: Optional[tuple[int, ...]]


def twist_table(pair: Pair) -> np.ndarray:
    """The twist multiplication on index pairs a * n + b of A x A, filled
    one tile of the kernels' twist loop at a time."""
    n = pair.n
    if n * n > DEFAULT_CARRIER_CAP:
        raise CarrierTooLarge(n * n, DEFAULT_CARRIER_CAP)
    b1, b2 = np.divmod(np.arange(n * n), n)
    mul_hat = np.empty((n * n, n * n), dtype=np.int64)
    for i, j, p, q in _twist_chunks(pair.add, pair.mul, b1, b2, b1, b2):
        mul_hat[i, j] = p * n + q
    return mul_hat


def doubled_names(names) -> list[str]:
    """Labels ``(a,b)`` of the doubled carrier, in index order ``a * n + b``."""
    return [f"({a},{b})" for a in names for b in names]


def double(pair: Pair) -> DoubledPair:
    """The doubled pair A x A under componentwise addition and the twist
    product, with split tangibles and the diagonal as A0, and its switch map
    (a, b) -> (b, a) as a tuple of indices, or None when that fails the
    negation-map axioms.  Raises ValueError when the base does not
    distribute enough for the split tangibles to be central."""
    n, zero = pair.n, pair.zero
    mul_hat = twist_table(pair)
    # componentwise: (a1, a2) + (c1, c2) = (a1 + c1, a2 + c2)
    add_hat = ((pair.add * n)[:, None, :, None] + pair.add[None, :, None, :]).reshape(n * n, n * n)
    names = doubled_names(pair.names)
    st = validate_structure(names, zero=zero * n + zero,
                            one=pair.one * n + zero, add=add_hat, mul=mul_hat)
    that = {a * n + zero for a in pair.tangible} | {zero * n + a for a in pair.tangible}
    try:
        doubled = validate_pair(st, that, {b * n + b for b in range(n)},
                                name=f"double({pair.name})")
    except ValidationError as exc:
        raise ValueError(f"doubled tangibles are not central: {exc}") from None
    try:
        switch = validate_negation_map(doubled, [(i % n) * n + i // n for i in range(n * n)])
    except ValidationError:
        switch = None
    return DoubledPair(doubled, switch)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def quotient_pair(pair: Pair, cong: Congruence, name: str = "") -> Pair:
    """Pair on the blocks of a congruence; the quotient A0 consists of the
    blocks that meet A0.  The quotient is re-validated from scratch."""
    ok, witness = is_congruence(pair, cong)
    if not ok:
        raise NotACongruence("partition is not a congruence", witness=witness)
    blocks = cong.blocks()
    names = [_block_label(pair.names, blk) for blk in blocks]
    bo = cong.block_of
    _, add, mul = cong.quotient_tables()
    st = validate_structure(names, zero=bo[pair.zero], one=bo[pair.one], add=add, mul=mul)
    t_bar = {bo[a] for a in pair.tangible}
    a0_bar = {i for i, blk in enumerate(blocks) if any(x in pair.a_zero for x in blk)}
    return validate_pair(st, t_bar, a0_bar, name=name or f"{pair.name}/~")


# ---------------------------------------------------------------------------
# hyperstructures
# ---------------------------------------------------------------------------
#
# Hyperaddition is one boolean tensor H[a, b, z], true when z is in a boxplus
# b, and every law is an array operation on it.  H takes n^3 bytes, so it has
# at most HYPER_CAP = 512 elements (2^27 cells), and the laws take it in the
# n^3 scans' runs of first indices, of at most _SCAN_CELLS cells or one n x n
# slice.  A subset is a boolean membership row over the carrier; power-set
# and hyperpair carriers are closed and tabled on those rows by _subset_pair.

HYPER_CAP = 512


@dataclass(frozen=True)
class HyperStructure:
    """Finite hypersemiring: a multiplicative monoid with absorbing zero and
    a set-valued commutative associative hyperaddition, held as the
    read-only boolean tensor ``H[a, b, z]``, true when z is in a boxplus b."""

    names: tuple[str, ...]
    zero: int
    one: int
    mul: np.ndarray
    H: np.ndarray
    tangible: frozenset[int]
    hypernegation: Optional[tuple[int, ...]]
    negation_unique: Optional[bool]
    name: str = ""

    @property
    def n(self) -> int:
        return len(self.names)

    def hyperadd_set(self, i: int, j: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.H[i, j]).tolist())

    @cached_property
    def e_set(self) -> Optional[frozenset[int]]:
        """1 boxplus (-1) when the hypernegation exists."""
        if self.hypernegation is None:
            return None
        return self.hyperadd_set(self.one, self.hypernegation[self.one])


def _tensor(n: int) -> np.ndarray:
    if n > HYPER_CAP:
        raise CarrierTooLarge(n, HYPER_CAP)
    return np.zeros((n, n, n), dtype=bool)


def _sum_tensor(names, cells) -> np.ndarray:
    """H from an n x n table of element sets, or from H; the first empty or
    out-of-range entry in row-major order is refused."""
    n = len(names)
    H = _tensor(n)
    unknown = np.zeros((n, n), dtype=bool)
    if isinstance(cells, np.ndarray) and cells.dtype == bool:
        H |= cells
    else:
        for i in range(n):
            for j in range(n):
                zs = [int(z) for z in cells[i][j]]
                unknown[i, j] = any(not 0 <= z < n for z in zs)
                if not unknown[i, j]:
                    H[i, j, zs] = True
    hit = _first(unknown | ~H.any(axis=2), slice(0, n), slice(0, n))
    if hit and unknown[hit]:
        raise ValueError("hyperaddition entry references unknown elements")
    if hit:
        raise ValueError(f"hyperaddition entry ({names[hit[0]]}, {names[hit[1]]}) is empty")
    return H


def validate_hyperstructure(names: Sequence[str], zero, one, mul, hyperadd_sets,
                            tangible: Iterable[int],
                            hypernegation: Optional[Sequence[int]] = None,
                            name: str = "") -> HyperStructure:
    """Exhaustively verify the hypersemiring axioms by set extension.

    Checks: multiplicative monoid with absorbing zero; hyperaddition
    commutative, associative under set extension, with zero a scalar
    identity; the monoid action distributes over hyperaddition elementwise.
    A supplied (or discovered) hypernegation must put zero in a boxplus (-a),
    square to the identity, and reverse sums.  Each law reports its first
    failing instance in row-major order.
    """
    names = tuple(str(x) for x in names)
    n = len(names)
    if len(set(names)) != n or n == 0:
        raise ValueError("element labels must be distinct and nonempty")
    zero = names.index(zero) if isinstance(zero, str) else int(zero)
    one = names.index(one) if isinstance(one, str) else int(one)
    mul = np.array(mul, dtype=np.int64)
    if mul.shape != (n, n) or (n and (mul.min() < 0 or mul.max() >= n)):
        raise ValueError("mul table malformed")
    H = _sum_tensor(names, hyperadd_sets)

    ijk = first_nonassoc(mul)
    if ijk[0] >= 0:
        raise ValidationError("hyper multiplication is not associative",
                              witness=tuple(names[i] for i in ijk))
    if (mul[zero] != zero).any() or (mul[:, zero] != zero).any():
        raise ValidationError("hyper zero is not multiplicatively absorbing", witness=(names[zero],))
    if (mul[one] != np.arange(n)).any() or (mul[:, one] != np.arange(n)).any():
        raise ValidationError("hyper one is not a unit", witness=(names[one],))

    # each law is a row test over the first index, in runs of at most
    # _SCAN_CELLS cells of H, or of one n x n slice
    idx = np.arange(n)
    hit = first_row(idx, n * n, lambda r: (H[r] != H[:, r].transpose(1, 0, 2)).any(axis=2),
                    _SCAN_CELLS)
    if hit:
        raise ValidationError("hyperaddition is not commutative",
                              witness=tuple(names[x] for x in hit))
    bad = (H[zero] != np.eye(n, dtype=bool)).any(axis=1)
    if bad.any():
        raise ZeroLaw("zero boxplus a must be {a}", witness=(names[int(bad.argmax())],))

    # (a+b)+c, the union of x+c over x in a+b, is H[a] @ H.reshape(n, n*n),
    # and a+(b+c) is H.reshape(n*n, n) @ H[a], as float32 counts of at most n,
    # so exact.  H is commutative by now, so one run H[cs] holds both
    # H[x, c, z] = H[c, x, z] and H[b, c, j] = H[c, b, j] for the c in cs.
    for a in range(n):
        ha = H[a].astype(np.float32)
        bad = np.zeros((n, n), dtype=bool)                 # [c, b]
        for cs in row_blocks(n, n * n, _SCAN_CELLS):
            s = H[cs].astype(np.float32)
            bad[cs] = ((ha @ s > 0) != (s @ ha > 0)).any(axis=2)
        hit = first_row(bad.T, n, lambda r: r)
        if hit:
            raise HyperAddNotAssociative("set-extension associativity fails",
                                         witness=tuple(names[x] for x in (a, *hit)))

    # c(a+b) = ca + cb: the image of a+b under x -> cx, a one-hot of mul[c]
    # against H, and the sum gathered at (ca, cb)
    for c in range(n):
        m = mul[c]
        image = (m[:, None] == idx).astype(np.float32)
        hit = first_row(idx, n * n, lambda r: ((H[r].astype(np.float32) @ image > 0)
                                               != H[m[r, None], m]).any(axis=2), _SCAN_CELLS)
        if hit:
            raise ValidationError("monoid action does not distribute over hyperaddition",
                                  witness=tuple(names[x] for x in (c, *hit)))

    tang = frozenset(int(x) for x in tangible)
    if one not in tang or (zero in tang and zero != one):
        raise ValidationError("tangible submonoid must contain one and exclude zero",
                              witness=(names[one],))
    ts = np.array(list(tang), dtype=np.int64)       # pairs in the set's own order
    hit = first_row(ts, len(ts), lambda a: ~np.isin(mul[a[:, None], ts], ts))
    if hit:
        raise ValidationError("tangible set is not multiplicatively closed",
                              witness=tuple(names[x] for x in ts[list(hit)]))

    # b is a hypernegative of a when zero is in a+b; the found one is the least
    hits = H[:, :, zero]
    counts = hits.sum(axis=1)
    found = tuple(hits.argmax(axis=1).tolist()) if counts.all() else None
    unique = bool((counts == 1).all())
    if hypernegation is None:
        neg = found if found is not None and unique else None
        neg_unique = unique if found is not None else None
    else:
        neg = tuple(int(x) for x in hypernegation)
        p = np.array(neg)
        misses = ~H[np.arange(n), p, zero]
        bad = misses | (p[p] != np.arange(n))
        if bad.any():
            a = int(bad.argmax())
            if misses[a]:
                raise ValidationError("claimed hypernegation misses zero",
                                      witness=(names[a], names[neg[a]]))
            raise ValidationError("hypernegation is not an involution", witness=(names[a],))
        neg_unique = unique
    if neg is not None:
        # -(a+b) against (-a)+(-b).  The negation is an involution (a unique
        # found one too: zero in a+b puts zero in b+a), so the image of a+b
        # under it is the preimage H[a, b, neg].
        p = np.array(neg)
        hit = first_row(idx, n * n, lambda r: (H[r][:, :, p] != H[p[r]][:, p]).any(axis=2),
                        _SCAN_CELLS)
        if hit:
            raise ValidationError("hypernegation does not reverse sums",
                                  witness=tuple(names[x] for x in hit))

    H.setflags(write=False)
    mul.setflags(write=False)
    return HyperStructure(names=names, zero=zero, one=one, mul=mul, H=H, tangible=tang,
                          hypernegation=neg, negation_unique=neg_unique, name=name)


def _subset_label(names, row: np.ndarray) -> str:
    return "{" + ",".join(names[i] for i in np.flatnonzero(row)) + "}"


def _validate_s0(hyper: HyperStructure, s0) -> frozenset[int]:
    if s0 is None:
        return frozenset({hyper.zero})
    s0 = frozenset(int(x) for x in s0)
    if hyper.zero not in s0:
        raise S0NotValid("S0 must contain zero", witness=(hyper.names[hyper.zero],))
    overlap = (s0 & hyper.tangible) - {hyper.zero}
    if overlap:
        raise S0NotValid("S0 must avoid the tangible submonoid",
                         witness=(hyper.names[next(iter(overlap))],))
    xs = list(s0)                  # pairs of S0 in its iteration order
    inside = np.isin(np.arange(hyper.n), xs)
    escapes = hyper.H[np.ix_(xs, xs)][:, :, ~inside].any(axis=2)
    hit = _first(escapes | ~inside[hyper.mul[np.ix_(xs, xs)]], slice(0, len(xs)), slice(0, len(xs)))
    if hit:
        message = ("S0 is not closed under hyperaddition" if escapes[hit]
                   else "S0 is not multiplicatively closed")
        raise S0NotValid(message, witness=tuple(hyper.names[xs[i]] for i in hit))
    return s0


def power_set_pair(hyper: HyperStructure, s0=None, name: str = "") -> Pair:
    """Pair on all nonempty subsets: extended hyperaddition as addition,
    elementwise set product as multiplication, tangibles the singleton
    tangibles, and A0 the subsets meeting S0."""
    size = (1 << hyper.n) - 1
    if size > DEFAULT_CARRIER_CAP:
        raise CarrierTooLarge(size, DEFAULT_CARRIER_CAP)
    s0 = _validate_s0(hyper, s0)
    members = (np.arange(1, size + 1)[:, None] >> np.arange(hyper.n) & 1).astype(bool)
    return _subset_pair(hyper, members, s0, name or f"P({hyper.name or 'H'})")


def hyperpair_generated(hyper: HyperStructure, s0=None, name: str = "") -> Pair:
    """Smallest sub-pair of the power-set pair containing every singleton,
    reached by closing under extended sums and set products."""
    return _subset_pair(hyper, np.eye(hyper.n, dtype=bool), _validate_s0(hyper, s0),
                        name or f"hyperpair({hyper.name or 'H'})")


def _subset_pair(hyper: HyperStructure, members, s0: frozenset[int], name: str) -> Pair:
    """The pair on the closure of the k x n membership rows ``members`` under
    extended sums and set products; A0 is the subsets meeting S0.

    Each round fills both tables over the subsets known so far: row S1 of
    either table is one product of the membership matrix with the n x n
    relation "z is in x + j (or xj) for some x in S1".  A subset's key is its
    row as big-endian packed bytes, so keys sort as the subsets' bitmasks do
    and a row of sets finds its positions by binary search.  Results not yet
    known join the next round; a round that finds none is the last."""
    n = hyper.n
    width = (n + 7) // 8

    def keys(rows):
        return np.packbits(rows[:, ::-1], axis=1).view(f"V{width}")[:, 0]

    cols, k = np.arange(n), 0
    while k < len(members):
        members = members[np.argsort(keys(members))]
        carrier, k = keys(members), len(members)
        weights = members.astype(np.float32)
        add, mul = np.empty((2, k, k), dtype=np.int64)
        new = {}
        for i, row in enumerate(members):
            xs = np.flatnonzero(row)
            prods = np.zeros((n, n), dtype=bool)
            prods[cols, hyper.mul[xs]] = True
            for table, rel in ((add, hyper.H[xs].any(axis=0)), (mul, prods)):
                rows = weights @ rel.astype(np.float32) > 0
                found = keys(rows)
                table[i] = np.searchsorted(carrier, found)
                for j in np.flatnonzero(carrier[np.minimum(table[i], k - 1)] != found):
                    new.setdefault(found[j].tobytes(), rows[j])
                    if k + len(new) > DEFAULT_CARRIER_CAP:
                        raise CarrierTooLarge(k + len(new), DEFAULT_CARRIER_CAP)
        members = np.vstack([members, *new.values()])

    single = np.searchsorted(carrier, keys(np.eye(n, dtype=bool))).tolist()
    names = [_subset_label(hyper.names, row) for row in members]
    st = validate_structure(names, zero=single[hyper.zero], one=single[hyper.one],
                            add=add, mul=mul)
    tang = {single[a] for a in hyper.tangible}
    a0 = set(np.flatnonzero(members[:, sorted(s0)].any(axis=1)).tolist())
    return validate_pair(st, tang, a0, name=name, hyper=hyper)


def residue_hyperstructure(pair: Pair, subgroup: Iterable[int], name: str = "") -> HyperStructure:
    """Orbits under a tangible subgroup G, with coset multiplication and the
    hyperaddition b1G boxplus b2G = {cG : c in b1G + b2G}.

    Tangibles are central, so the orbits bG partition the carrier, and
    (xG)(yG) always holds the coset xyG; it is that coset exactly when every
    product of the two lands in it."""
    g = sorted({int(x) for x in subgroup})
    names = pair.names
    mul, add = pair.mul, pair.add
    gset = set(g)
    if not gset <= pair.tangible:
        bad = next(iter(gset - pair.tangible))
        raise NotAGroup("subgroup elements must be tangible", witness=(names[bad],))
    if pair.one not in gset:
        raise NotAGroup("subgroup must contain one", witness=(names[pair.one],))
    gg = mul[np.ix_(g, g)]
    hit = _first(~np.isin(gg, g), slice(0, len(g)), slice(0, len(g)))
    if hit:
        raise NotAGroup("subgroup is not closed", witness=tuple(names[g[i]] for i in hit))
    inverse = (gg == pair.one).any(axis=1)
    if not inverse.all():
        raise NotAGroup("element has no inverse in the subgroup",
                        witness=(names[g[int(inverse.argmin())]],))

    # o[x] is the orbit of x, the orbits ranked by their least members
    least, o = np.unique(mul[:, g].min(axis=1), return_inverse=True)
    k = len(least)
    coset_names = [_block_label(names, np.flatnonzero(o == i)) for i in range(k)]
    cmul = o[mul[np.ix_(least, least)]]
    strays = np.nonzero(o[mul] != cmul[o[:, None], o[None, :]])
    bad = np.zeros((k, k), dtype=bool)
    bad[o[strays[0]], o[strays[1]]] = True
    hit = _first(bad, slice(0, k), slice(0, k))
    if hit:
        raise NotNormal("coset product is not a coset",
                        witness=tuple(coset_names[i] for i in hit))

    H = _tensor(k)
    H[o[:, None], o[None, :], o[add]] = True
    return validate_hyperstructure(
        coset_names, zero=int(o[pair.zero]), one=int(o[pair.one]),
        mul=cmul, hyperadd_sets=H, tangible=set(o[sorted(pair.tangible)].tolist()),
        name=name or f"{pair.name}/G",
    )


def _block_label(names, members) -> str:
    items = sorted(members)
    return names[items[0]] if len(items) == 1 else "{" + ",".join(names[i] for i in items) + "}"


# ---------------------------------------------------------------------------
# function pairs
# ---------------------------------------------------------------------------

def function_pair(pair: Pair, s: Monoid, name: str = "") -> Pair:
    """All functions from a finite monoid into the carrier, with pointwise
    addition and convolution product; tangibles are the single-site tangible
    functions and A0 is pointwise."""
    n, k = pair.n, s.k
    size = n ** k
    if size > DEFAULT_CARRIER_CAP:
        raise CarrierTooLarge(size, DEFAULT_CARRIER_CAP)

    weights = n ** np.arange(k)
    digits = np.arange(size)[:, None] // weights % n        # digits[i, w] = f_i(w)
    add = np.empty((size, size), dtype=np.int64)
    mul = np.empty_like(add)
    for rows, cols in _tiles(size, size, k):
        f, g = digits[rows, None, :], digits[None, cols, :]
        add[rows, cols] = pair.add[f, g] @ weights
        # (f * g)(w) sums f(u) g(v) over s.table[u, v] = w, in (u, v) order
        conv = np.full(f.shape[:1] + g.shape[1:], pair.zero, dtype=np.int64)
        for u, v in np.ndindex(k, k):
            w = s.table[u, v]
            conv[..., w] = pair.add[conv[..., w], pair.mul[f[..., u], g[..., v]]]
        mul[rows, cols] = conv @ weights

    names = ["[" + ",".join(pair.names[v] for v in row) + "]" for row in digits.tolist()]
    zero = pair.zero * int(weights.sum())
    st = validate_structure(names, zero=zero,
                            one=zero + (pair.one - pair.zero) * int(weights[s.unit]),
                            add=add, mul=mul)
    tang = {zero + (a - pair.zero) * int(wt) for wt in weights for a in pair.tangible}
    a0 = set(np.flatnonzero(pair.a0_mask[digits].all(axis=1)).tolist())
    return validate_pair(st, tang, a0, name=name or f"{pair.name}^S")
