"""Builders for every concrete pair and hyperstructure, plus doubling.

Each builder returns a fully validated Pair (or HyperStructure); axiom
failures in a construction surface as validation errors, never as silently
wrong tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from ._kernels import _tiles, _twist_chunks, first_nonassoc, first_noncomm
from .congruences import Congruence, is_congruence
from .core import (
    FiniteStructure,
    NegationMap,
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
    return validate_pair(st, tangible={1}, a_zero={0, 2}, name="super_boolean",
                         origin={"builder": "super_boolean"})


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
        origin={"builder": "supertropical"},
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
        origin={"builder": "minimal_bipotent", "kind": kind},
    )


# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoubledPair:
    """The doubled carrier A x A under componentwise addition and the twist
    product, with switch map and diagonal.

    ``pair`` is the validated pair over the split tangibles with the diagonal
    as A0; it is None (with the failure recorded) when the base does not
    distribute enough for the split tangibles to be central.
    """

    base: Pair = field(repr=False)
    structure: FiniteStructure = field(repr=False)
    tangible: frozenset[int]
    diag: frozenset[int]
    pair: Optional[Pair] = field(repr=False)
    pair_error: Optional[str]
    twist_associative: bool
    switch: NegationMap
    switch_valid: bool

    @property
    def n(self) -> int:
        return self.structure.n

    def idx(self, b1: int, b2: int) -> int:
        return b1 * self.base.n + b2

    def unpack(self, i: int) -> tuple[int, int]:
        return divmod(i, self.base.n)


def twist_table(base: FiniteStructure) -> np.ndarray:
    """The twist multiplication on index pairs a * n + b of A x A, filled
    one tile of the kernels' twist loop at a time."""
    n = base.n
    if n * n > DEFAULT_CARRIER_CAP:
        raise CarrierTooLarge(n * n, DEFAULT_CARRIER_CAP)
    b1, b2 = np.divmod(np.arange(n * n), n)
    mul_hat = np.empty((n * n, n * n), dtype=np.int64)
    for i, j, p, q in _twist_chunks(base.add, base.mul, b1, b2, b1, b2):
        mul_hat[i, j] = p * n + q
    return mul_hat


def doubled_names(names) -> list[str]:
    """Labels ``(a,b)`` of the doubled carrier, in index order ``a * n + b``."""
    return [f"({a},{b})" for a in names for b in names]


def double(pair: Pair) -> DoubledPair:
    """Doubled pair with split tangibles, diagonal A0, and the switch map."""
    base = pair.structure
    n = base.n
    mul_hat = twist_table(base)
    # componentwise: (a1, a2) + (c1, c2) = (a1 + c1, a2 + c2)
    add_hat = ((base.add * n)[:, None, :, None] + base.add[None, :, None, :]).reshape(n * n, n * n)
    names = doubled_names(base.names)
    st = validate_structure(names, zero=base.zero * n + base.zero,
                            one=base.one * n + base.zero, add=add_hat, mul=mul_hat)

    that = frozenset(
        {a * n + base.zero for a in pair.tangible} | {base.zero * n + a for a in pair.tangible}
    )
    diag = frozenset(b * n + b for b in range(n))

    validated: Optional[Pair] = None
    pair_error: Optional[str] = None
    try:
        validated = validate_pair(st, that, diag, name=f"double({pair.name})",
                                  origin={"builder": "double", "base": pair})
    except ValidationError as exc:
        pair_error = str(exc)

    switch_perm = tuple((i % n) * n + (i // n) for i in range(n * n))
    probe = validated if validated is not None else Pair(
        structure=st, tangible=that, a_zero=diag, property_n=None
    )
    try:
        switch = validate_negation_map(probe, switch_perm)
        switch_valid = True
    except ValidationError:
        switch = NegationMap(perm=switch_perm)
        switch_valid = False

    return DoubledPair(
        base=pair,
        structure=st,
        tangible=that,
        diag=diag,
        pair=validated,
        pair_error=pair_error,
        twist_associative=st.mul_associative,
        switch=switch,
        switch_valid=switch_valid,
    )


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
    names = [
        pair.names[blk[0]] if len(blk) == 1 else "{" + ",".join(pair.names[x] for x in blk) + "}"
        for blk in blocks
    ]
    bo = cong.block_of
    _, add, mul = cong.quotient_tables()
    st = validate_structure(names, zero=bo[pair.zero], one=bo[pair.one], add=add, mul=mul)
    t_bar = {bo[a] for a in pair.tangible}
    a0_bar = {i for i, blk in enumerate(blocks) if any(x in pair.a_zero for x in blk)}
    return validate_pair(st, t_bar, a0_bar, name=name or f"{pair.name}/~",
                         origin={"builder": "quotient", "base": pair})


# ---------------------------------------------------------------------------
# hyperstructures
# ---------------------------------------------------------------------------

def _mask(bits: Iterable[int]) -> int:
    m = 0
    for b in bits:
        m |= 1 << int(b)
    return m


def _bits(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


@dataclass(frozen=True)
class HyperStructure:
    """Finite hypersemiring: a multiplicative monoid with absorbing zero and
    a set-valued commutative associative hyperaddition, stored as bitmasks."""

    names: tuple[str, ...]
    zero: int
    one: int
    mul: np.ndarray
    hyperadd: np.ndarray
    tangible: frozenset[int]
    hypernegation: Optional[tuple[int, ...]]
    negation_unique: Optional[bool]
    mul_commutative: bool
    name: str = ""

    @property
    def n(self) -> int:
        return len(self.names)

    def hyperadd_set(self, i: int, j: int) -> frozenset[int]:
        return frozenset(_bits(int(self.hyperadd[i, j])))

    @cached_property
    def e_set(self) -> Optional[frozenset[int]]:
        """1 boxplus (-1) when the hypernegation exists."""
        if self.hypernegation is None:
            return None
        return self.hyperadd_set(self.one, self.hypernegation[self.one])

    def mask_add(self, m1: int, m2: int) -> int:
        out = 0
        for i in _bits(m1):
            for j in _bits(m2):
                out |= int(self.hyperadd[i, j])
        return out

    def mask_mul(self, m1: int, m2: int) -> int:
        out = 0
        for i in _bits(m1):
            for j in _bits(m2):
                out |= 1 << int(self.mul[i, j])
        return out


def find_hypernegation(mul, hyperadd, zero: int) -> tuple[Optional[tuple[int, ...]], bool]:
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


def validate_hyperstructure(
    names: Sequence[str],
    zero,
    one,
    mul,
    hyperadd_sets,
    tangible: Optional[Iterable[int]] = None,
    hypernegation: Optional[Sequence[int]] = None,
    name: str = "",
) -> HyperStructure:
    """Exhaustively verify the hypersemiring axioms by set extension.

    Checks: multiplicative monoid with absorbing zero; hyperaddition
    commutative, associative under set extension, with zero a scalar
    identity; the monoid action distributes over hyperaddition elementwise.
    A supplied (or discovered) hypernegation must put zero in a boxplus (-a),
    square to the identity, and reverse sums.
    """
    names = tuple(str(x) for x in names)
    n = len(names)
    if len(set(names)) != n or n == 0:
        raise ValueError("element labels must be distinct and nonempty")
    zero = names.index(zero) if isinstance(zero, str) else int(zero)
    one = names.index(one) if isinstance(one, str) else int(one)
    mul = np.asarray(mul, dtype=np.int64)
    if mul.shape != (n, n) or (n and (mul.min() < 0 or mul.max() >= n)):
        raise ValueError("mul table malformed")

    ha = np.empty((n, n), dtype=object)          # masks of any width
    for i in range(n):
        for j in range(n):
            entry = hyperadd_sets[i][j]
            m = int(entry) if isinstance(entry, (int, np.integer)) else _mask(entry)
            if m == 0:
                raise ValueError(f"hyperaddition entry ({names[i]}, {names[j]}) is empty")
            if m >= (1 << n):
                raise ValueError("hyperaddition entry references unknown elements")
            ha[i, j] = m

    ijk = first_nonassoc(mul)
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

    def ext(mask: int, c: int) -> int:
        out = 0
        for i in _bits(mask):
            out |= int(ha[i, c])
        return out

    for a in range(n):
        for b in range(n):
            ab = int(ha[a, b])
            for c in range(n):
                left = ext(ab, c)
                right = 0
                for j in _bits(int(ha[b, c])):
                    right |= int(ha[a, j])
                if left != right:
                    raise HyperAddNotAssociative(
                        "set-extension associativity fails",
                        witness=(names[a], names[b], names[c]),
                    )

    for a in range(n):
        for s1 in range(n):
            for s2 in range(n):
                lhs = _mask(int(mul[a, x]) for x in _bits(int(ha[s1, s2])))
                rhs = int(ha[mul[a, s1], mul[a, s2]])
                if lhs != rhs:
                    raise ValidationError(
                        "monoid action does not distribute over hyperaddition",
                        witness=(names[a], names[s1], names[s2]),
                    )

    if tangible is None:
        nonzero = frozenset(range(n)) - {zero}
        if nonzero and all(int(mul[a, b]) in nonzero for a in nonzero for b in nonzero):
            tang = nonzero
        elif not nonzero:
            tang = frozenset({one})
        else:
            tang = {one}
            grew = True
            while grew:
                grew = False
                for a in list(tang):
                    for b in list(tang):
                        p = int(mul[a, b])
                        if p not in tang:
                            tang.add(p)
                            grew = True
            tang = frozenset(tang)
    else:
        tang = frozenset(int(x) for x in tangible)
    if one not in tang or (zero in tang and zero != one):
        raise ValidationError("tangible submonoid must contain one and exclude zero",
                              witness=(names[one],))
    for a in tang:
        for b in tang:
            if int(mul[a, b]) not in tang:
                raise ValidationError("tangible set is not multiplicatively closed",
                                      witness=(names[a], names[b]))

    found, unique = find_hypernegation(mul, ha, zero)
    if hypernegation is None:
        neg = found if found is not None and unique else None
        neg_unique = unique if found is not None else None
    else:
        neg = tuple(int(x) for x in hypernegation)
        zbit = 1 << zero
        for a in range(n):
            if not int(ha[a, neg[a]]) & zbit:
                raise ValidationError("claimed hypernegation misses zero",
                                      witness=(names[a], names[neg[a]]))
            if neg[neg[a]] != a:
                raise ValidationError("hypernegation is not an involution", witness=(names[a],))
        neg_unique = unique
    if neg is not None:
        for a in range(n):
            for b in range(n):
                lhs = _mask(neg[x] for x in _bits(int(ha[a, b])))
                if lhs != int(ha[neg[a], neg[b]]):
                    raise ValidationError("hypernegation does not reverse sums",
                                          witness=(names[a], names[b]))

    ha.setflags(write=False)
    mulc = mul.copy()
    mulc.setflags(write=False)
    return HyperStructure(
        names=names, zero=zero, one=one, mul=mulc, hyperadd=ha,
        tangible=tang, hypernegation=neg, negation_unique=neg_unique,
        mul_commutative=first_noncomm(mulc)[0] < 0, name=name,
    )


def _subset_label(names, mask: int) -> str:
    return "{" + ",".join(names[i] for i in _bits(mask)) + "}"


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
    s0mask = _mask(s0)
    for x in s0:
        for y in s0:
            if int(hyper.hyperadd[x, y]) & ~s0mask:
                raise S0NotValid("S0 is not closed under hyperaddition",
                                 witness=(hyper.names[x], hyper.names[y]))
            if int(hyper.mul[x, y]) not in s0:
                raise S0NotValid("S0 is not multiplicatively closed",
                                 witness=(hyper.names[x], hyper.names[y]))
    return s0


def power_set_pair(hyper: HyperStructure, s0=None, cap: int = DEFAULT_CARRIER_CAP,
                   name: str = "") -> Pair:
    """Pair on all nonempty subsets: extended hyperaddition as addition,
    elementwise set product as multiplication, tangibles the singleton
    tangibles, and A0 the subsets meeting S0."""
    size = (1 << hyper.n) - 1
    if size > cap:
        raise CarrierTooLarge(size, cap)
    s0 = _validate_s0(hyper, s0)
    return _subset_pair(hyper, range(1, size + 1), s0, name or f"P({hyper.name or 'H'})",
                        "power_set")


def hyperpair_generated(hyper: HyperStructure, s0=None, cap: int = DEFAULT_CARRIER_CAP,
                        name: str = "") -> Pair:
    """Smallest sub-pair of the power-set pair containing every singleton,
    reached by closing under extended sums and set products."""
    s0 = _validate_s0(hyper, s0)
    carrier = {1 << i for i in range(hyper.n)}
    frontier = list(carrier)
    while frontier:
        m1 = frontier.pop()
        for m2 in list(carrier):
            for new in (hyper.mask_add(m1, m2),
                        hyper.mask_mul(m1, m2), hyper.mask_mul(m2, m1)):
                if new not in carrier:
                    if len(carrier) >= cap:
                        raise CarrierTooLarge(len(carrier) + 1, cap)
                    carrier.add(new)
                    frontier.append(new)
    return _subset_pair(hyper, sorted(carrier), s0,
                        name or f"hyperpair({hyper.name or 'H'})", "hyperpair")


def _subset_pair(hyper: HyperStructure, masks: Sequence[int], s0: frozenset[int],
                 name: str, builder: str) -> Pair:
    """The pair on a sorted list of subset masks closed under extended sums
    and set products; A0 is the subsets meeting S0."""
    pos = {m: i for i, m in enumerate(masks)}
    names = [_subset_label(hyper.names, m) for m in masks]
    add = np.empty((len(masks), len(masks)), dtype=np.int64)
    mul = np.empty_like(add)
    for i, m1 in enumerate(masks):
        add[i] = [pos[hyper.mask_add(m1, m2)] for m2 in masks]
        mul[i] = [pos[hyper.mask_mul(m1, m2)] for m2 in masks]
    st = validate_structure(names, zero=pos[1 << hyper.zero], one=pos[1 << hyper.one],
                            add=add, mul=mul)
    tang = {pos[1 << a] for a in hyper.tangible}
    s0mask = _mask(s0)
    a0 = {i for i, m in enumerate(masks) if m & s0mask}
    return validate_pair(st, tang, a0, name=name,
                         origin={"builder": builder, "hyper": hyper, "s0": s0})


def residue_hyperstructure(pair: Pair, subgroup: Iterable[int], name: str = "") -> HyperStructure:
    """Orbits under a tangible subgroup, with coset multiplication and the
    hyperaddition b1G boxplus b2G = {cG : c in b1G + b2G}."""
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
    orbits: list[frozenset[int]] = []
    for b in range(pair.n):
        if b in orbit_of:
            continue
        orb = frozenset(int(mul[b, y]) for y in g)
        idx = len(orbits)
        orbits.append(orb)
        for x in orb:
            orbit_of[x] = idx
    order = sorted(range(len(orbits)), key=lambda i: min(orbits[i]))
    rank = {old: new for new, old in enumerate(order)}
    orbits = [orbits[i] for i in order]
    orbit_of = {x: rank[i] for x, i in orbit_of.items()}

    k = len(orbits)
    for i in range(k):
        for j in range(k):
            prods = {int(mul[x, y]) for x in orbits[i] for y in orbits[j]}
            expect = orbits[orbit_of[int(mul[min(orbits[i]), min(orbits[j])])]]
            if prods != expect:
                raise NotNormal(
                    "coset product is not a coset",
                    witness=(_coset_label(names, orbits[i]), _coset_label(names, orbits[j])),
                )

    coset_names = [_coset_label(names, orb) for orb in orbits]
    cmul = np.zeros((k, k), dtype=np.int64)
    hadd = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            cmul[i, j] = orbit_of[int(mul[min(orbits[i]), min(orbits[j])])]
            sumset = {int(add[x, y]) for x in orbits[i] for y in orbits[j]}
            hadd[i][j] = _mask(orbit_of[c] for c in sumset)

    tang = {orbit_of[a] for a in pair.tangible}
    return validate_hyperstructure(
        coset_names, zero=orbit_of[pair.zero], one=orbit_of[pair.one],
        mul=cmul, hyperadd_sets=hadd, tangible=tang,
        name=name or f"{pair.name}/G",
    )


def _coset_label(names, orbit) -> str:
    items = sorted(orbit)
    if len(items) == 1:
        return names[items[0]]
    return "{" + ",".join(names[i] for i in items) + "}"


# ---------------------------------------------------------------------------
# function pairs
# ---------------------------------------------------------------------------

def function_pair(pair: Pair, s: Monoid, cap: int = DEFAULT_CARRIER_CAP,
                  name: str = "") -> Pair:
    """All functions from a finite monoid into the carrier, with pointwise
    addition and convolution product; tangibles are the single-site tangible
    functions and A0 is pointwise."""
    n, k = pair.n, s.k
    size = n ** k
    if size > cap:
        raise CarrierTooLarge(size, cap)

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
    return validate_pair(st, tang, a0, name=name or f"{pair.name}^S",
                         origin={"builder": "function_pair", "base": pair, "monoid": s})
