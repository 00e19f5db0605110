"""Carriers, pairs, and pointwise-checkable axioms and classifications.

A structure is a dense pair of Cayley tables over indexed elements; every
axiom and classification flag is established by exhaustive scan, never
asserted by input.  All types are immutable after validation and every
operation here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import _kernels
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

    def label(self, i: int) -> str:
        return self.names[i]

    def labels(self, idxs) -> tuple[str, ...]:
        return tuple(self.names[i] for i in idxs)

    def iterated_sum(self, x: int, k: int) -> int:
        """k-fold sum x + ... + x, k >= 1."""
        acc = x
        for _ in range(k - 1):
            acc = int(self.add[acc, x])
        return acc

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
    ijk = _kernels.first_nonassoc(add)
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

    mul_associative = _kernels.first_nonassoc(mul)[0] < 0
    distributive = _kernels.first_nondistrib(add, mul)[0] < 0
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
    """A structure together with a central tangible monoid T and a
    T-submodule A0 standing in for zero."""

    structure: FiniteStructure
    tangible: frozenset[int]
    a_zero: frozenset[int]
    property_n: Optional[PropertyNWitness]
    property_n_error: Optional[str] = None
    t_distributive: bool = True
    name: str = ""
    origin: Optional[dict] = field(default=None, compare=False)

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
    a0 = frozenset(a_zero)
    in_a0 = np.zeros(n, dtype=bool)
    in_a0[list(a0)] = True

    daggers = []
    for a in sorted(tangible):
        e = int(add[one, a])
        if e not in a0:
            continue
        circ = add[np.arange(n), mul[a, np.arange(n)]]
        if in_a0[circ].all():
            daggers.append((a, e))
    if not daggers:
        return None
    es = {e for _, e in daggers}
    if len(es) > 1:
        (a1, e1), (a2, e2) = daggers[0], next(d for d in daggers if d[1] != daggers[0][1])
        raise NonUniqueE(
            "two 1-dagger candidates give different e",
            witness=(structure.names[a1], structure.names[e1], structure.names[a2], structure.names[e2]),
        )
    e = es.pop()
    tangible_sums = {int(add[one, a]) for a in tangible if int(add[one, a]) in a0}
    if tangible_sums != {e}:
        return None
    return PropertyNWitness(
        one_dagger=daggers[0][0], e=e, all_daggers=frozenset(a for a, _ in daggers)
    )


def validate_pair(structure: FiniteStructure, tangible, a_zero, name: str = "",
                  origin: Optional[dict] = None) -> Pair:
    """Verify centrality of T and the submodule property of A0.

    Centrality is multiplicative: every tangible commutes and associates with
    the whole carrier and the designated one acts as unit.  Whether tangibles
    distribute over addition is recorded on the pair (t_distributive), not
    enforced: layered max-like structures fail it while remaining pairs.
    """
    add, mul = structure.add, structure.mul
    n = structure.n
    names = structure.names
    t = frozenset(int(x) for x in tangible)
    a0 = frozenset(int(x) for x in a_zero)
    if not t or any(not 0 <= x < n for x in t | a0):
        raise ValueError("tangible/a_zero must be nonempty index sets in range")

    if structure.one not in t:
        raise TNotClosed("one must be tangible", witness=(names[structure.one],))
    for a in sorted(t):
        for b in sorted(t):
            if int(mul[a, b]) not in t:
                raise TNotClosed(
                    "tangibles are not multiplicatively closed",
                    witness=(names[a], names[b], names[int(mul[a, b])]),
                )

    if (mul[structure.one] != np.arange(n)).any() or (mul[:, structure.one] != np.arange(n)).any():
        bad = np.argwhere(mul[structure.one] != np.arange(n))
        w = int(bad[0][0]) if len(bad) else int(np.argwhere(mul[:, structure.one] != np.arange(n))[0][0])
        raise TNotCentral("one is not a multiplicative unit", witness=(names[structure.one], names[w]))
    for a in sorted(t):
        bad = np.argwhere(mul[a] != mul[:, a])
        if len(bad):
            raise TNotCentral(
                "tangible does not commute", witness=(names[a], names[int(bad[0][0])])
            )
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

    if structure.zero not in a0:
        raise A0NotSubmodule("A0 must contain zero", witness=(names[structure.zero],))
    for x in sorted(a0):
        for y in sorted(a0):
            if int(add[x, y]) not in a0:
                raise A0NotSubmodule(
                    "A0 is not additively closed",
                    witness=(names[x], names[y], names[int(add[x, y])]),
                )
    for a in sorted(t | {structure.zero}):
        for x in sorted(a0):
            for prod in (int(mul[a, x]), int(mul[x, a])):
                if prod not in a0:
                    raise A0NotSubmodule(
                        "A0 is not closed under the tangible action",
                        witness=(names[a], names[x], names[prod]),
                    )

    t_distributive = True
    for a in sorted(t):
        if (mul[a][add] != add[mul[a][:, None], mul[a][None, :]]).any():
            t_distributive = False
            break

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
        origin=origin,
    )


@dataclass(frozen=True)
class PairClassification:
    kind: str
    proper: bool
    shallow: bool
    cancellative: bool
    metatangible: bool
    a0_bipotent: bool
    admissible: bool
    characteristic: tuple[int, int]
    a0_characteristic: int
    has_property_n: bool
    e_distributive: Optional[bool]
    e_central: Optional[bool]
    e_idempotent: Optional[bool]
    e_final: Optional[bool]
    e_type: Optional[tuple[int, int]]
    positive_e_type: Optional[int]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "proper": self.proper,
            "shallow": self.shallow,
            "cancellative": self.cancellative,
            "metatangible": self.metatangible,
            "a0_bipotent": self.a0_bipotent,
            "admissible": self.admissible,
            "characteristic": list(self.characteristic),
            "a0_characteristic": self.a0_characteristic,
            "has_property_n": self.has_property_n,
            "e_distributive": self.e_distributive,
            "e_central": self.e_central,
            "e_idempotent": self.e_idempotent,
            "e_final": self.e_final,
            "e_type": list(self.e_type) if self.e_type else None,
            "positive_e_type": self.positive_e_type,
        }


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

    The vector of k-fold sums is iterated until it either lands inside A0 or
    revisits a previous state, which makes absence definitive.  The joint
    cycle length is the lcm of the per-element orbit cycles, so a hard cap
    guards against pathological carriers.
    """
    n = pair.n
    vec = np.arange(n)
    seen = set()
    for k in range(1, 100_001):
        key = vec.tobytes()
        if key in seen:
            return 0
        seen.add(key)
        if pair.a0_mask[vec].all():
            return k
        vec = pair.add[vec, np.arange(n)]
    raise RuntimeError("A0-characteristic iteration exceeded bound")  # pragma: no cover


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
    if pair.property_n is None:
        return None
    e = pair.property_n.e
    cur = e
    for k in range(1, pair.n + 1):
        if int(pair.add[pair.one, cur]) == cur:
            return k
        cur = int(pair.add[cur, e])
    return None


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


def distributive_center(pair: Pair) -> frozenset[int]:
    """All z that commute, associate, and distribute with the whole carrier."""
    return frozenset(z for z in range(pair.n) if is_distributively_central(pair, z))


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


def classify_pair(pair: Pair) -> PairClassification:
    """All classification flags by exhaustive check.

    Flags that need the distinguished e are None when the pair has no
    Property-N witness.
    """
    add, mul = pair.add, pair.mul
    t = sorted(pair.tangible)
    a0 = pair.a_zero
    in_a0 = pair.a0_mask
    t0 = pair.tangible | {pair.zero}

    kind = "first" if all(int(add[a, a]) in a0 for a in t) else "second"
    proper = (a0 & t0) == {pair.zero}
    shallow = (pair.tangible | a0) == set(range(pair.n))
    cancellative = all(
        in_a0[mul[a]][~in_a0].sum() == 0 and len(set(mul[a].tolist())) == pair.n
        for a in t
    )
    metatangible = all(int(add[a, b]) in pair.tangible or int(add[a, b]) in a0 for a in t for b in t)
    a0_bipotent = all(int(add[a, b]) in {a, b} or int(add[a, b]) in a0 for a in t for b in t)
    admissible = all(v is not None for v in heights(pair))
    char = characteristic(pair.structure)
    a0_char = a0_characteristic(pair)

    if pair.property_n is None:
        return PairClassification(
            kind=kind, proper=proper, shallow=shallow, cancellative=cancellative,
            metatangible=metatangible, a0_bipotent=a0_bipotent, admissible=admissible,
            characteristic=char, a0_characteristic=a0_char, has_property_n=False,
            e_distributive=None, e_central=None, e_idempotent=None, e_final=None,
            e_type=None, positive_e_type=None,
        )

    e = pair.property_n.e
    et = e_type(pair)
    e_dist = is_e_distributive(pair)
    e_central = bool(e_dist and is_distributively_central(pair, e))
    e_idem = int(add[e, e]) == e
    e_final = et == (1, 1)
    return PairClassification(
        kind=kind, proper=proper, shallow=shallow, cancellative=cancellative,
        metatangible=metatangible, a0_bipotent=a0_bipotent, admissible=admissible,
        characteristic=char, a0_characteristic=a0_char, has_property_n=True,
        e_distributive=e_dist, e_central=e_central, e_idempotent=e_idem,
        e_final=e_final, e_type=et, positive_e_type=positive_e_type(pair),
    )


@dataclass(frozen=True)
class NegationMap:
    perm: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.perm[x]


def validate_negation_map(pair: Pair, perm) -> NegationMap:
    """Check the negation-map axioms: order <= 2, additive, compatible with
    the tangible action, preserves T and A0, and b + (-b) lands in A0."""
    n = pair.n
    names = pair.names
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (n,) or sorted(p.tolist()) != list(range(n)):
        raise ValueError("negation map must be a permutation of the carrier")
    bad = np.argwhere(p[p] != np.arange(n))
    if len(bad):
        raise NotOrderTwo("negation map does not square to identity", witness=(names[int(bad[0][0])],))
    bad = np.argwhere(p[pair.add] != pair.add[p[:, None], p[None, :]])
    if len(bad):
        x, y = bad[0]
        raise NotAdditive("negation map is not additive", witness=(names[int(x)], names[int(y)]))
    for a in sorted(pair.tangible):
        bad = np.argwhere(p[pair.mul[a]] != pair.mul[a, p])
        if len(bad):
            raise NotAdditive(
                "negation map is incompatible with the tangible action",
                witness=(names[a], names[int(bad[0][0])]),
            )
        bad = np.argwhere(p[pair.mul[a]] != pair.mul[int(p[a]), :])
        if len(bad):
            raise NotAdditive(
                "negation of a tangible does not act as the negated product",
                witness=(names[a], names[int(bad[0][0])]),
            )
    if {int(p[a]) for a in pair.tangible} != pair.tangible:
        raise TNotPreserved("negation map does not preserve the tangibles", witness=())
    if {int(p[x]) for x in pair.a_zero} != pair.a_zero:
        raise TNotPreserved("negation map does not preserve A0", witness=())
    quasi = pair.add[np.arange(n), p]
    bad = np.argwhere(~pair.a0_mask[quasi])
    if len(bad):
        b = int(bad[0][0])
        raise QuasiNegationFails("b + (-b) escapes A0", witness=(names[b], names[int(quasi[b])]))
    return NegationMap(perm=tuple(int(x) for x in p))
