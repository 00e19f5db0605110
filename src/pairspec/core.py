"""Carriers, pairs, and pointwise-checkable axioms and classifications.

A structure is a dense pair of Cayley tables over indexed elements; every
axiom and classification flag is established by exhaustive scan, never
asserted by input.  All types are immutable after validation and every
operation here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import _kernels
from ._kernels import first_row
from .errors import (
    A0NotSubmodule,
    NonAssociativeAdd,
    NonCommutativeAdd,
    NonUniqueE,
    NoPropertyN,
    NotAdditive,
    NotOrderTwo,
    QuasiNegationFails,
    TNotCentral,
    TNotClosed,
    TNotPreserved,
    ZeroNotAbsorbing,
    ZeroNotNeutral,
)

if TYPE_CHECKING:
    from .constructions import HyperStructure

_ETYPE_HARD_CAP = 4096


def _as_table(raw, n: int, what: str) -> np.ndarray:
    t = np.asarray(raw, dtype=np.int64)
    if t.shape != (n, n):
        raise ValueError(f"{what} table must be {n}x{n}, got {t.shape}")
    if t.size and (t.min() < 0 or t.max() >= n):
        raise ValueError(f"{what} table entries must be element indices in 0..{n - 1}")
    t.setflags(write=False)
    return t


@dataclass(frozen=True)
class FiniteStructure:
    """An nd-semiring: commutative associative addition, a multiplication for
    which zero is absorbing, and computed flags for the optional laws."""

    names: tuple[str, ...]
    zero: int
    one: int
    add: np.ndarray
    mul: np.ndarray
    mul_associative: bool
    distributive: bool
    commutative_mul: bool

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def labels(self, idxs) -> tuple[str, ...]:
        return tuple(self.names[i] for i in idxs)

    def is_semiring(self) -> bool:
        return self.mul_associative and self.distributive


def validate_structure(names: Sequence[str], zero, one, add, mul) -> FiniteStructure:
    """Exhaustively verify the nd-semiring axioms and compute the law flags.

    Raises NonCommutativeAdd, NonAssociativeAdd, ZeroNotNeutral or
    ZeroNotAbsorbing, each naming a witnessing tuple of labels.
    """
    names = tuple(str(x) for x in names)
    n = len(names)
    if n == 0:
        raise ValueError("structure needs at least one element")
    if len(set(names)) != n:
        raise ValueError("element labels must be distinct")
    zero = names.index(zero) if isinstance(zero, str) else int(zero)
    one = names.index(one) if isinstance(one, str) else int(one)
    if not (0 <= zero < n and 0 <= one < n):
        raise ValueError("zero/one indices out of range")
    add = _as_table(add, n, "add")
    mul = _as_table(mul, n, "mul")

    ij = _kernels.first_noncomm(add)
    if ij[0] >= 0:
        raise NonCommutativeAdd("addition is not commutative", witness=(names[ij[0]], names[ij[1]]))
    add_gens = _kernels.scan_generators(add)
    ijk = _kernels.first_nonassoc(add, add_gens)
    if ijk[0] >= 0:
        raise NonAssociativeAdd(
            "addition is not associative", witness=tuple(names[i] for i in ijk)
        )
    bad = np.argwhere(add[zero] != np.arange(n))
    if len(bad):
        raise ZeroNotNeutral("zero is not additively neutral", witness=(names[int(bad[0][0])],))
    bad = np.argwhere((mul[zero] != zero) | (mul[:, zero] != zero))
    if len(bad):
        raise ZeroNotAbsorbing(
            "zero is not multiplicatively absorbing", witness=(names[int(bad[0][0])],)
        )

    # + is associative from here on, which the reduced distributivity test needs
    distributive = _kernels.first_nondistrib(add, mul, add_gens)[0] < 0
    # with (b+c)a = ba + ca the left nucleus of the product is closed under +
    # as well as under the product, so generators of the semiring suffice
    mul_gens = _kernels.scan_generators(mul, add) if distributive else None
    mul_associative = _kernels.first_nonassoc(mul, mul_gens)[0] < 0
    commutative_mul = _kernels.first_noncomm(mul)[0] < 0
    return FiniteStructure(
        names=names,
        zero=zero,
        one=one,
        add=add,
        mul=mul,
        mul_associative=mul_associative,
        distributive=distributive,
        commutative_mul=commutative_mul,
    )


@dataclass(frozen=True)
class PropertyNWitness:
    """A distinguished tangible one_dagger with e = 1 + one_dagger in A0,
    b + one_dagger*b in A0 for every b, and e unique among tangible sums
    1 + a landing in A0.  all_daggers collects every valid choice."""

    one_dagger: int
    e: int
    all_daggers: frozenset[int]


@dataclass(frozen=True)
class Pair:
    """A structure with a central tangible monoid T and a T-submodule A0
    standing in for zero; ``hyper`` is a power-set or hyperpair pair's hyperstructure."""

    structure: FiniteStructure
    tangible: frozenset[int]
    a_zero: frozenset[int]
    property_n: Optional[PropertyNWitness]
    property_n_error: Optional[str] = None
    t_distributive: bool = True
    name: str = ""
    hyper: Optional[HyperStructure] = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.structure.n

    @property
    def add(self) -> np.ndarray:
        return self.structure.add

    @property
    def mul(self) -> np.ndarray:
        return self.structure.mul

    @property
    def zero(self) -> int:
        return self.structure.zero

    @property
    def one(self) -> int:
        return self.structure.one

    @property
    def names(self) -> tuple[str, ...]:
        return self.structure.names

    @cached_property
    def t_sorted(self) -> np.ndarray:
        a = np.array(sorted(self.tangible), dtype=np.int64)
        a.setflags(write=False)
        return a

    @cached_property
    def a0_mask(self) -> np.ndarray:
        m = np.zeros(self.n, dtype=bool)
        m[list(self.a_zero)] = True
        m.setflags(write=False)
        return m

    @cached_property
    def very_improper(self) -> tuple[np.ndarray, np.ndarray]:
        """The very improper (t, z) in T x A0, t + z = t, row-major over sorted T and A0."""
        a0 = np.flatnonzero(self.a0_mask)
        i, k = np.nonzero(self.add[np.ix_(self.t_sorted, a0)] == self.t_sorted[:, None])
        out = self.t_sorted[i], a0[k]
        for a in out:
            a.setflags(write=False)
        return out

    @cached_property
    def e_multiples(self) -> np.ndarray:
        """k*e at index k - 1 for k = 1..n, empty without a witness.  Each
        multiple is a function of the one before, so these are all of them."""
        ke = [] if self.property_n is None else [self.property_n.e]
        while 0 < len(ke) < self.n:
            ke.append(int(self.add[ke[-1], ke[0]]))
        out = np.array(ke, dtype=np.int64)
        out.setflags(write=False)
        return out

    def require_property_n(self) -> PropertyNWitness:
        if self.property_n is None:
            detail = self.property_n_error or "pair lacks a 1-dagger witness"
            raise NoPropertyN(f"{self.name or 'pair'}: {detail}")
        return self.property_n


def find_property_n(structure: FiniteStructure, tangible, a_zero) -> Optional[PropertyNWitness]:
    """Scan every tangible as a 1-dagger candidate.

    A candidate a must put e = 1 + a into A0 and b + a*b into A0 for every b.
    Raises NonUniqueE when two candidates disagree on e; returns None when no
    candidate survives or some other tangible sum 1 + a' lands in A0 with a
    different value.
    """
    add, mul, one = structure.add, structure.mul, structure.one
    n = structure.n
    in_a0 = np.zeros(n, dtype=bool)
    in_a0[list(a_zero)] = True
    ts = np.array(sorted(tangible), dtype=np.int64)
    es = add[one, ts]
    dagger = in_a0[es]
    for s in _kernels.row_blocks(len(ts), n):
        dagger[s] &= in_a0[add[np.arange(n), mul[ts[s]]]].all(axis=1)
    if not dagger.any():
        return None
    ds, des = ts[dagger], es[dagger]
    other = np.flatnonzero(des != des[0])
    if len(other):
        raise NonUniqueE("two 1-dagger candidates give different e",
                         witness=structure.labels((ds[0], des[0], ds[other[0]], des[other[0]])))
    e = int(des[0])
    if (in_a0[es] & (es != e)).any():
        return None
    return PropertyNWitness(one_dagger=int(ds[0]), e=e, all_daggers=frozenset(ds.tolist()))


def validate_pair(structure: FiniteStructure, tangible, a_zero, name: str = "",
                  hyper: Optional[HyperStructure] = None) -> Pair:
    """Verify centrality of T and the submodule property of A0.

    Centrality is multiplicative: every tangible commutes and associates with
    the whole carrier and the designated one acts as unit.  Whether tangibles
    distribute over addition is recorded on the pair (t_distributive), not
    enforced: layered max-like structures fail it while remaining pairs.

    A law that a flag of ``structure`` already established by exhaustive
    scan is not scanned again for the tangibles: commutativity when
    ``commutative_mul`` is set, associativity when ``mul_associative`` is,
    and distributivity when ``distributive`` is.  Those instances cannot
    fail, so the remaining tests and their witnesses are unchanged.
    """
    add, mul = structure.add, structure.mul
    n, one, zero = structure.n, structure.one, structure.zero
    labels = structure.labels
    t = frozenset(int(x) for x in tangible)
    a0 = frozenset(int(x) for x in a_zero)
    if any(not 0 <= x < n for x in t | a0):
        raise ValueError("tangible/a_zero must be index sets in range")
    ts, zs = (np.array(sorted(x), dtype=np.int64) for x in (t, a0))
    in_t, in_a0 = np.zeros((2, n), dtype=bool)
    in_t[ts] = in_a0[zs] = True

    if one not in t:
        raise TNotClosed("one must be tangible", witness=labels((one,)))
    hit = first_row(ts, len(ts), lambda a: ~in_t[mul[a[:, None], ts]])
    if hit:
        a, b = ts[list(hit)]
        raise TNotClosed("tangibles are not multiplicatively closed",
                         witness=labels((a, b, mul[a, b])))

    hit = first_row(np.array([mul[one], mul[:, one]]), n, lambda r: r != np.arange(n))
    if hit:
        raise TNotCentral("one is not a multiplicative unit", witness=labels((one, hit[1])))
    # one tangible a per block: ab = ba over b, then (ab)c = a(bc), (ba)c =
    # b(ac) and (bc)a = b(ca) over [b, c], the tables with a at place 0, 1, 2
    size = 0 if structure.commutative_mul else n
    laws = [lambda a: mul[a] != mul[:, a]] if size else []
    if not structure.mul_associative:
        m = _kernels.compact(mul)
        laws += [lambda a: m[m[a]] != m[a][mul], lambda a: m[m[:, a]] != m[:, m[a]],
                 lambda a: m[:, a][mul] != m[:, m[:, a]]]
    hit = laws and first_row(ts, 1, lambda a: np.concatenate(
        [law(a[0]).ravel() for law in laws]), 1)
    if hit and hit[1] < size:
        raise TNotCentral("tangible does not commute", witness=labels((ts[hit[0]], hit[1])))
    if hit:
        place, cell = divmod(hit[1] - size, n * n)
        triple = [*divmod(cell, n)]
        triple.insert(place, ts[hit[0]])
        raise TNotCentral("tangible does not associate", witness=labels(triple))

    if zero not in a0:
        raise A0NotSubmodule("A0 must contain zero", witness=labels((zero,)))
    hit = first_row(zs, len(zs), lambda x: ~in_a0[add[x[:, None], zs]])
    if hit:
        x, y = zs[list(hit)]
        raise A0NotSubmodule("A0 is not additively closed", witness=labels((x, y, add[x, y])))
    # a in T | {0} times x in A0 from either side, ax before xa
    acts = np.array(sorted(t | {zero}), dtype=np.int64)
    hit = first_row(acts, 2 * len(zs), lambda a: ~(
        in_a0[mul[a[:, None], zs]] & in_a0[mul[zs, a[:, None]]]))
    if hit:
        a, x = acts[hit[0]], zs[hit[1]]
        raise A0NotSubmodule("A0 is not closed under the tangible action", witness=labels(
            (a, x, mul[a, x] if not in_a0[mul[a, x]] else mul[x, a])))

    t_distributive = structure.distributive or first_row(ts, n * n, lambda a: (
        np.take(mul[a], add, axis=1) != add[mul[a][:, :, None], mul[a][:, None, :]])) is None

    witness = None
    pn_error = None
    try:
        witness = find_property_n(structure, t, a0)
    except NonUniqueE as exc:
        pn_error = str(exc)
    return Pair(
        structure=structure,
        tangible=t,
        a_zero=a0,
        property_n=witness,
        property_n_error=pn_error,
        t_distributive=t_distributive,
        name=name,
        hyper=hyper,
    )


def characteristic(structure: FiniteStructure) -> tuple[int, int]:
    """(p, k) with the k-th and (k+p)-th iterated sums of one equal, p then k
    minimal; k is searched from 1 (an empty sum is left undefined)."""
    seen: dict[int, int] = {}
    val = structure.one
    k = 1
    while val not in seen:
        seen[val] = k
        val = int(structure.add[val, structure.one])
        k += 1
    first = seen[val]
    return (k - first, first)


def a0_characteristic(pair: Pair) -> int:
    """Smallest k > 0 with every k-fold sum b + ... + b in A0, else 0.

    k = 1..n are tested in turn, until the k-fold sums repeat those saved at
    the last power of two.  Beyond n, kb goes round the cyclic group ending
    b's orbit as k mod its order lambda_b; A0 meets it in a subgroup (a
    closed subset of a finite group) of h_b elements, so kb is in A0 iff
    lambda_b / h_b divides k.
    """
    n, add, in_a0 = pair.n, pair.add, pair.a0_mask
    idx = vec = saved = np.arange(n)
    for k in range(1, n + 1):
        if in_a0[vec].all():
            return k
        if k > 1 and (vec == saved).all():
            return 0
        if k & (k - 1) == 0:
            saved = vec
        vec = add[vec, idx]
    order, inside, cur = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), vec
    for j in range(1, n + 1):
        going = order == 0
        inside += going & in_a0[cur]
        cur = add[cur, idx]
        order[going & (cur == vec)] = j
    if not inside.all():
        return 0
    step = math.lcm(*set((order // inside).tolist()))
    return step * (n // step + 1)


def circ_vector(pair: Pair) -> np.ndarray:
    """b -> b + one_dagger * b for every b."""
    w = pair.require_property_n()
    n = pair.n
    return pair.add[np.arange(n), pair.mul[w.one_dagger, np.arange(n)]]


def e_type(pair: Pair) -> Optional[tuple[int, int]]:
    """Smallest k, then smallest k' <= k, with b + k*(b-circ) = k'*(b-circ)
    for every b.  Search is capped at the carrier size."""
    if pair.property_n is None:
        return None
    n = pair.n
    circ = circ_vector(pair)
    history = []
    cur = circ.copy()
    for k in range(1, n + 1):
        history.append(cur.copy())
        lhs = pair.add[np.arange(n), cur]
        for kp in range(1, k + 1):
            if (lhs == history[kp - 1]).all():
                return (k, kp)
        cur = pair.add[cur, circ]
    return None


def positive_e_type(pair: Pair) -> Optional[int]:
    """Smallest k > 0 with 1 + k*e = k*e; None when no multiple of e absorbs
    one.  Distinct values of k*e are exhausted within carrier-size steps."""
    ke = pair.e_multiples
    hit = np.flatnonzero(pair.add[pair.one, ke] == ke)
    return int(hit[0]) + 1 if len(hit) else None


def is_e_distributive(pair: Pair) -> Optional[bool]:
    """b + k*(b-circ) = (1 + k*e) b for all b and all k >= 1.

    Iterates the joint state (k*(b-circ) for all b, k*e) until it repeats,
    so the check covers every k despite the unbounded quantifier.
    """
    if pair.property_n is None:
        return None
    n = pair.n
    e = pair.property_n.e
    circ = circ_vector(pair)
    idx = np.arange(n)
    cur = circ.copy()
    ke = e
    seen = set()
    for _ in range(_ETYPE_HARD_CAP):
        key = (cur.tobytes(), ke)
        if key in seen:
            return True
        seen.add(key)
        lhs = pair.add[idx, cur]
        rhs = pair.mul[int(pair.add[pair.one, ke]), idx]
        if (lhs != rhs).any():
            return False
        cur = pair.add[cur, circ]
        ke = int(pair.add[ke, e])
    raise RuntimeError("e-distributivity iteration failed to cycle")  # pragma: no cover


def is_distributively_central(pair: Pair, z: int) -> bool:
    """Whether z commutes, associates, and distributes with the whole carrier."""
    add, mul = pair.add, pair.mul
    row, col = mul[z], mul[:, z]
    return not (
        (row != col).any()
        or (mul[row, :] != mul[z][mul]).any()
        or (mul[mul[:, z], :] != mul[:, mul[z]]).any()
        or (mul[mul, z] != mul[:, mul[:, z]]).any()
        or (row[add] != add[row[:, None], row[None, :]]).any()
        or (mul[add, z] != add[col[:, None], col[None, :]]).any()
    )


def heights(pair: Pair) -> list[Optional[int]]:
    """Minimal decomposition heights over the tangible span; None outside it.

    Min-plus relaxation h[x + y] <- min(h[x + y], h[x] + h[y]) over all pairs
    at once, from 0 at zero and 1 on the tangibles, until nothing changes;
    ``unset`` stands for None and two of them still add without overflow.
    """
    unset = np.iinfo(np.int64).max // 2
    h = np.full(pair.n, unset, dtype=np.int64)
    h[pair.t_sorted] = 1
    h[pair.zero] = 0
    sums = pair.add.ravel()
    while True:
        prev = h.copy()
        np.minimum.at(h, sums, (h[:, None] + h[None, :]).ravel())
        if (h == prev).all():
            return [int(v) if v < unset else None for v in h]


def is_proper(pair: Pair) -> bool:
    """A0 meets the tangibles and zero in zero alone: A0 & (T | {0}) = {0}."""
    return (pair.a_zero & (pair.tangible | {pair.zero})) == {pair.zero}


def classify_pair(pair: Pair) -> dict:
    """All classification flags by exhaustive check, as ``classify`` prints
    them.

    Flags that need the distinguished e are None when the pair has no
    Property-N witness.
    """
    add, mul, n = pair.add, pair.mul, pair.n
    ts, a0, in_a0 = pair.t_sorted, pair.a_zero, pair.a0_mask
    t_or_a0 = in_a0.copy()
    t_or_a0[ts] = True

    cls = {
        "kind": "first" if first_row(ts, 1, lambda a: ~in_a0[add[a, a]]) is None else "second",
        "proper": is_proper(pair),
        "shallow": (pair.tangible | a0) == set(range(n)),
        # x -> ax is one-to-one and keeps everything outside A0 outside it
        "cancellative": first_row(ts, n, lambda a: (in_a0[mul[a]] & ~in_a0)
                                  | (np.sort(mul[a], axis=1) != np.arange(n))) is None,
        "metatangible": first_row(ts, len(ts), lambda a: ~t_or_a0[add[a[:, None], ts]]) is None,
        "a0_bipotent": first_row(ts, len(ts), lambda a: ~in_a0[add[a[:, None], ts]] & (
            add[a[:, None], ts] != a[:, None]) & (add[a[:, None], ts] != ts)) is None,
        "admissible": all(v is not None for v in heights(pair)),
        "characteristic": list(characteristic(pair.structure)),
        "a0_characteristic": a0_characteristic(pair),
        "has_property_n": pair.property_n is not None,
        "e_distributive": None, "e_central": None, "e_idempotent": None, "e_final": None,
        "e_type": None, "positive_e_type": None,
    }
    if pair.property_n is not None:
        e = pair.property_n.e
        et = e_type(pair)
        e_dist = is_e_distributive(pair)
        cls.update(e_distributive=e_dist,
                   e_central=bool(e_dist and is_distributively_central(pair, e)),
                   e_idempotent=int(add[e, e]) == e, e_final=et == (1, 1),
                   e_type=None if et is None else list(et), positive_e_type=positive_e_type(pair))
    return cls


def validate_negation_map(pair: Pair, perm) -> tuple[int, ...]:
    """Check the negation-map axioms: order <= 2, additive, compatible with
    the tangible action, preserves T and A0, and b + (-b) lands in A0; the
    map is returned as a tuple of indices."""
    n, names = pair.n, pair.names
    add, mul, ts = pair.add, pair.mul, pair.t_sorted
    p = np.asarray(perm, dtype=np.int64)
    # a map into the carrier that squares to the identity is a bijection
    if p.shape != (n,) or ((p < 0) | (p >= n)).any():
        raise ValueError("negation map must map the carrier into itself")
    bad = np.argwhere(p[p] != np.arange(n))
    if len(bad):
        raise NotOrderTwo("negation map does not square to identity", witness=(names[int(bad[0][0])],))
    hit = first_row(np.arange(n), n, lambda x: p[add[x]] != add[p[x, None], p])
    if hit:
        raise NotAdditive("negation map is not additive", witness=pair.structure.labels(hit))
    # per tangible a: -(ab) against a(-b), then against (-a)b, over b
    hit = first_row(ts, 2 * n, lambda a: np.hstack(
        (p[mul[a]] != mul[a[:, None], p], p[mul[a]] != mul[p[a]])))
    if hit:
        a, (k, b) = ts[hit[0]], divmod(hit[1], n)
        raise NotAdditive(("negation map is incompatible with the tangible action",
                           "negation of a tangible does not act as the negated product")[k],
                          witness=(names[a], names[b]))
    # p is a permutation, so it preserves a set that it maps into itself
    if not np.array_equal(np.sort(p[ts]), ts):
        raise TNotPreserved("negation map does not preserve the tangibles", witness=())
    if not pair.a0_mask[p[pair.a0_mask]].all():
        raise TNotPreserved("negation map does not preserve A0", witness=())
    quasi = add[np.arange(n), p]
    bad = np.argwhere(~pair.a0_mask[quasi])
    if len(bad):
        b = int(bad[0][0])
        raise QuasiNegationFails("b + (-b) escapes A0", witness=(names[b], names[int(quasi[b])]))
    return tuple(int(x) for x in p)
