"""Twist-product classification of congruences and the prime spectrum.

Congruences are classified both elementwise (radical, strongly prime,
T-cancellative, proper) and against the enumerated lattice (semiprime,
prime, irreducible).  Reports assemble the prime spectrum, the positive
e-type part, and the explicit order-isomorphisms onto the idempotent image
and the quotient by the least one~e congruence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import _kernels
from .congruences import (
    Congruence,
    CongruenceLattice,
    diag_e,
    enumerate_congruences,
    relation_to_congruence,
)
from .constructions import quotient_pair
from .core import FiniteStructure, Pair, PairClassification, classify_pair, validate_structure
from .errors import HypothesisFails, LatticeRequired


# ---------------------------------------------------------------------------
# twist products of relations
# ---------------------------------------------------------------------------

def twist(pair: Pair, b: tuple[int, int], c: tuple[int, int]) -> tuple[int, int]:
    add, mul = pair.add, pair.mul
    b1, b2 = b
    c1, c2 = c
    return (
        int(add[mul[b1, c1], mul[b2, c2]]),
        int(add[mul[b1, c2], mul[b2, c1]]),
    )


def _members_of(rel) -> tuple[np.ndarray, np.ndarray]:
    """The related pairs of a Congruence, or of an ``(xs, ys)`` tuple."""
    if isinstance(rel, Congruence):
        return rel.members
    xs, ys = rel
    return np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)


def twist_subset(pair: Pair, rel1, rel2, target: np.ndarray) -> bool:
    """Whether every twist product of rel1 x rel2 lands inside the boolean
    matrix ``target``."""
    xs1, ys1 = _members_of(rel1)
    xs2, ys2 = _members_of(rel2)
    i, _ = _kernels.twist_subset_violation(pair.add, pair.mul, xs1, ys1, xs2, ys2, target)
    return i < 0


# ---------------------------------------------------------------------------
# radical
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqrtResult:
    """Union of the twist-square preimage chain; need not be a congruence."""

    matrix: np.ndarray
    depth: int
    is_equivalence: bool
    is_congruence: bool
    congruence: Optional[Congruence]

    def contains(self, x: int, y: int) -> bool:
        return bool(self.matrix[x, y])


def sqrt_phi(pair: Pair, cong: Congruence) -> SqrtResult:
    """Iterate S1 = Phi, S_{i+1} = preimage of S_i under twist squaring,
    until stable; the chain ascends so the fixpoint is the union."""
    cur = cong.matrix.copy()
    depth = 1
    while True:
        nxt = _kernels.sqrt_step(pair.add, pair.mul, cur)
        nxt = nxt | cur
        if (nxt == cur).all():
            break
        cur = nxt
        depth += 1
    is_eq, cong_out = relation_to_congruence(pair, cur)
    return SqrtResult(matrix=cur, depth=depth, is_equivalence=is_eq,
                      is_congruence=cong_out is not None, congruence=cong_out)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CongruenceClassification:
    radical: bool
    strongly_prime: bool
    t_cancellative: bool
    proper: bool
    weakly_proper: bool
    contains_1e: Optional[bool]
    e_type: Optional[int]
    prime: Optional[bool]
    semiprime: Optional[bool]
    irreducible: Optional[bool]

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def congruence_e_type(pair: Pair, cong: Congruence) -> Optional[int]:
    """Smallest k > 0 relating 1 + k*e and k*e, None without one (or without
    a Property-N witness)."""
    if pair.property_n is None:
        return None
    e = pair.property_n.e
    cur = e
    for k in range(1, pair.n + 1):
        if cong.related(int(pair.add[pair.one, cur]), cur):
            return k
        cur = int(pair.add[cur, e])
    return None


def improper_members(pair: Pair, cong: Congruence) -> list[tuple[int, int, bool]]:
    """All related (a, b) in T x A0, flagged very improper when a + b = a."""
    out = []
    for a in sorted(pair.tangible):
        for b in sorted(pair.a_zero):
            if cong.related(a, b):
                out.append((a, b, int(pair.add[a, b]) == a))
    return out


def _quotient(pair: Pair, cong: Congruence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The least member of each block of ``cong``, and the addition and
    multiplication tables of A/cong over block ids.

    The twist tests below read a pair only through the blocks its entries
    fall in, so each runs on the quotient against its diagonal.
    """
    bo = np.asarray(cong.block_of, dtype=np.int64)
    reps = np.unique(bo, return_index=True)[1]
    return reps, bo[pair.add[reps][:, reps]], bo[pair.mul[reps][:, reps]]


def classify_congruence_elementwise(pair: Pair, cong: Congruence) -> CongruenceClassification:
    reps, add, mul = _quotient(pair, cong)
    diag = np.eye(len(reps), dtype=bool)
    nxs, nys = np.nonzero(~diag)

    radical = _kernels.radical_violation(add, mul, diag)[0] < 0
    strongly_prime = _kernels.strongly_prime_violation(add, mul, diag, nxs, nys)[0] < 0
    t_blocks = np.unique(np.asarray(cong.block_of)[pair.t_sorted])
    t_cancellative = _kernels.t_cancel_violation(mul, diag, t_blocks)[0] < 0
    improper = improper_members(pair, cong)
    proper = not improper
    weakly_proper = not any(v for _, _, v in improper)
    w = pair.property_n
    contains_1e = cong.related(pair.one, w.e) if w is not None else None
    return CongruenceClassification(
        radical=radical, strongly_prime=strongly_prime, t_cancellative=t_cancellative,
        proper=proper, weakly_proper=weakly_proper, contains_1e=contains_1e,
        e_type=congruence_e_type(pair, cong),
        prime=None, semiprime=None, irreducible=None,
    )


def classify_congruence(pair: Pair, cong: Congruence,
                        lattice: Optional[CongruenceLattice]) -> CongruenceClassification:
    """Full classification; the lattice-quantified flags need the whole
    lattice, and a missing lattice is an error.

    The twist product is monotone in both factors and every congruence
    strictly above ``cong`` contains one of its upper covers, so prime and
    semiprime are decided over pairs of covers; ``cong`` is meet-irreducible
    iff it has at most one cover (the top has none).
    """
    base = classify_congruence_elementwise(pair, cong)
    if lattice is None:
        raise LatticeRequired("prime/semiprime/irreducible need the congruence lattice")

    covers = lattice.covers[lattice.find(cong)]
    reps, add, mul = _quotient(pair, cong)
    diag = np.eye(len(reps), dtype=bool)
    members = []   # each cover's members, as pairs of blocks of cong
    for j in covers:
        cb = np.asarray(lattice[j].block_of)[reps]
        members.append(np.nonzero(cb[:, None] == cb[None, :]))

    def inside(m1, m2) -> bool:
        return _kernels.twist_subset_violation(add, mul, *m1, *m2, diag)[0] < 0

    semiprime = not any(inside(m, m) for m in members)
    prime = semiprime and not any(
        inside(m1, m2) for a, m1 in enumerate(members) for b, m2 in enumerate(members) if a != b
    )
    return CongruenceClassification(
        radical=base.radical, strongly_prime=base.strongly_prime,
        t_cancellative=base.t_cancellative, proper=base.proper,
        weakly_proper=base.weakly_proper, contains_1e=base.contains_1e,
        e_type=base.e_type, prime=prime, semiprime=semiprime, irreducible=len(covers) <= 1,
    )


# ---------------------------------------------------------------------------
# the idempotent image A*e
# ---------------------------------------------------------------------------

def bare_pair(structure: FiniteStructure, tangible, a_zero, name: str = "") -> Pair:
    """Pair object without pair-level validation; congruence machinery only
    needs the tables, so images like A*e can be analyzed even when the
    designated one is not a unit."""
    return Pair(structure=structure, tangible=frozenset(tangible),
                a_zero=frozenset(a_zero), property_n=None, name=name)


def ae_pair(pair: Pair) -> tuple[Pair, np.ndarray]:
    """The multiplicative image A*e with inherited operations, plus the
    projection map from carrier indices to A*e indices (-1 off the image)."""
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


def push_congruence(cong: Congruence, proj: np.ndarray, target: Pair) -> Optional[Congruence]:
    """Image of a congruence along a surjection; None when the image relation
    is not a congruence of the target."""
    m = target.n
    rel = np.zeros((m, m), dtype=bool)
    xs, ys = cong.members
    rel[proj[xs], proj[ys]] = True
    return relation_to_congruence(target, rel)[1]


# ---------------------------------------------------------------------------
# spectrum report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsoVerdict:
    applicable: bool
    holds: Optional[bool] = None
    detail: str = ""
    mapping: tuple = ()

    def to_dict(self) -> dict:
        return {"applicable": self.applicable, "holds": self.holds, "detail": self.detail}


@dataclass(frozen=True)
class SpectrumReport:
    """Primes come in two strengths and the engine tracks both: ``hspec``
    collects the lattice-quantified primes, ``strongly_prime_set`` the
    elementwise ones.  The two need not agree even on commutative semiring
    pairs of positive e-type (the engine finds counterexamples), so the
    isomorphism verdicts are computed for the strongly prime spectra, with
    the weak-prime verdicts reported alongside for comparison."""

    pair_name: str
    lattice: CongruenceLattice = field(repr=False)
    classifications: tuple[CongruenceClassification, ...]
    hspec: tuple[int, ...]
    spec_e: tuple[int, ...]
    radical_set: tuple[int, ...]
    strongly_prime_set: tuple[int, ...]
    strong_spec_e: tuple[int, ...]
    maximal_proper: tuple[int, ...]
    maximal_weakly_proper: tuple[int, ...]
    rd1: IsoVerdict
    rd2: IsoVerdict
    sp2i: IsoVerdict
    rd2_weak: IsoVerdict
    sp2i_weak: IsoVerdict

    def to_dict(self) -> dict:
        return {
            "pair": self.pair_name,
            "lattice_size": len(self.lattice),
            "congruences": [
                {"blocks": c.block_labels(), **self.classifications[i].to_dict()}
                for i, c in enumerate(self.lattice)
            ],
            "hspec": list(self.hspec),
            "spec_e": list(self.spec_e),
            "radical": list(self.radical_set),
            "strongly_prime": list(self.strongly_prime_set),
            "strong_spec_e": list(self.strong_spec_e),
            "maximal_proper": list(self.maximal_proper),
            "maximal_weakly_proper": list(self.maximal_weakly_proper),
            "verdict_radical_contains_1e": self.rd1.to_dict(),
            "verdict_spec_iso_ae": self.rd2.to_dict(),
            "verdict_spec_e_iso_quotient": self.sp2i.to_dict(),
            "verdict_spec_iso_ae_weak_primes": self.rd2_weak.to_dict(),
            "verdict_spec_e_iso_quotient_weak_primes": self.sp2i_weak.to_dict(),
        }


def _maximal(lattice: CongruenceLattice, idxs: list[int]) -> tuple[int, ...]:
    """The members of ``idxs`` below no other member, in the order given."""
    idx = np.asarray(idxs, dtype=np.intp)
    sub = lattice.leq[np.ix_(idx, idx)] & ~np.eye(len(idx), dtype=bool)
    return tuple(idx[~sub.any(axis=1)].tolist())


def _order_iso(leq_a: np.ndarray, idx_a: list[int], leq_b: np.ndarray,
               idx_b: list[int], mapping: dict[int, int]) -> bool:
    if sorted(mapping.values()) != sorted(idx_b):
        return False
    for i in idx_a:
        for j in idx_a:
            if bool(leq_a[i, j]) != bool(leq_b[mapping[i], mapping[j]]):
                return False
    return True


# the strong and the weak prime spectra, as classification flags
_SPECTRA = ("strongly_prime", "prime")
# how the verdict details name a target: itself, its lattice, the source
# spectrum and the target spectrum
_AE_WORDS = ("A*e", "the A*e lattice", "spec(A)", "spec(A*e)")
_QUOTIENT_WORDS = ("the quotient", "the quotient lattice", "spec_e(A)", "spec(A/diag_e)")


def _iso_verdict(source: "Analysis", src: list[int], target: "Analysis", proj: np.ndarray,
                 flag: str, kernel: Optional[Congruence], words: tuple[str, ...]) -> IsoVerdict:
    """Whether ``proj`` maps the source congruences ``src`` order-isomorphically
    onto the target congruences with ``flag`` set.  When ``kernel`` is given,
    each source congruence must contain it first."""
    where, where_lattice, src_name, spec_name = words
    lattice, t_lat = source.lattice, target.lattice
    spec = target.having(flag)
    mapping = {}
    for i in src:
        if kernel is not None and not kernel.refines(lattice[i]):
            return IsoVerdict(applicable=True, holds=False,
                              detail=f"positive-e-type prime #{i} does not contain diag_e")
        image = push_congruence(lattice[i], proj, target.pair)
        if image is None:
            return IsoVerdict(applicable=True, holds=False,
                              detail=f"image of prime #{i} is not a congruence of {where}")
        try:
            mapping[i] = t_lat.find(image)
        except KeyError:
            return IsoVerdict(applicable=True, holds=False,
                              detail=f"image of prime #{i} missing from {where_lattice}")
        if mapping[i] not in spec:
            return IsoVerdict(applicable=True, holds=False,
                              detail=f"image of prime #{i} is not prime in {where}")
    ok = _order_iso(lattice.leq, src, t_lat.leq, spec, mapping)
    return IsoVerdict(
        applicable=True, holds=ok,
        detail=f"|{src_name}|={len(src)}, |{spec_name}|={len(spec)}",
        mapping=tuple(sorted(mapping.items())),
    )


class Analysis:
    """Everything derived from one pair, computed on first use and kept.

    ``spectrum_report`` and every harness check read one analysis, so the
    lattice of the pair, its classification and the A*e and A/diag_e
    sub-analyses are each built once; the cap reaches every sub-analysis.
    The verdicts reach the lattices in the order A, A*e, A/diag_e, so under
    a cap the first one to overflow is the one reported.  A member whose
    computation raises (CapExceeded, HypothesisFails) is not kept and raises
    again when next read.
    """

    def __init__(self, pair: Pair, cap: Optional[int]):
        self.pair = pair
        self.cap = cap

    @cached_property
    def cls(self) -> PairClassification:
        return classify_pair(self.pair)

    @cached_property
    def lattice(self) -> CongruenceLattice:
        return enumerate_congruences(self.pair, self.cap)

    @cached_property
    def classes(self) -> tuple[CongruenceClassification, ...]:
        """The full classification of each lattice member, in lattice order."""
        return tuple(classify_congruence(self.pair, c, self.lattice) for c in self.lattice)

    @cached_property
    def ae(self) -> tuple["Analysis", np.ndarray]:
        """The idempotent image A*e and the projection onto it."""
        sub, proj = ae_pair(self.pair)
        return Analysis(sub, self.cap), proj

    @cached_property
    def quotient_e(self) -> tuple["Analysis", np.ndarray]:
        """The quotient A/diag_e and the projection onto it."""
        de = diag_e(self.pair)
        q = quotient_pair(self.pair, de, name=f"{self.pair.name}/diag_e")
        return Analysis(q, self.cap), np.asarray(de.block_of, dtype=np.int64)

    def having(self, flag: str) -> list[int]:
        """Indices of the congruences whose classification has ``flag`` set."""
        return [i for i, c in enumerate(self.classes) if getattr(c, flag)]

    def spec_e(self, flag: str) -> list[int]:
        """The part of ``having(flag)`` of positive e-type."""
        return [i for i in self.having(flag) if self.classes[i].e_type is not None]

    @cached_property
    def rd2(self) -> tuple[IsoVerdict, IsoVerdict]:
        """Spec(A) onto Spec(A*e), for the strongly prime and the prime spectra."""
        c = self.cls
        if not (c.has_property_n and c.e_central and c.positive_e_type):
            v = IsoVerdict(applicable=False, detail="needs an e-central pair of positive e-type")
            return v, v
        srcs = {flag: self.having(flag) for flag in _SPECTRA}
        try:
            target, proj = self.ae
        except HypothesisFails as exc:
            v = IsoVerdict(applicable=True, holds=False, detail=str(exc))
            return v, v
        return tuple(_iso_verdict(self, src, target, proj, flag, None, _AE_WORDS)
                     for flag, src in srcs.items())

    @cached_property
    def sp2i(self) -> tuple[IsoVerdict, IsoVerdict]:
        """Spec_e(A) onto Spec(A/diag_e), for the strongly prime and the prime
        spectra; every source prime must contain diag_e."""
        c = self.cls
        if not (c.has_property_n and c.e_central):
            v = IsoVerdict(applicable=False, detail="needs an e-central pair with a witness")
            return v, v
        srcs = {flag: self.spec_e(flag) for flag in _SPECTRA}
        target, proj = self.quotient_e
        de = Congruence(pair=self.pair, block_of=tuple(proj.tolist()))   # the kernel of proj
        return tuple(_iso_verdict(self, src, target, proj, flag, de, _QUOTIENT_WORDS)
                     for flag, src in srcs.items())


def spectrum_report(pair: Pair, cap: Optional[int] = None) -> SpectrumReport:
    """Classify the whole lattice and assemble the spectrum verdicts."""
    a = Analysis(pair, cap)
    lattice, cls = a.lattice, a.classes
    radical_set = tuple(a.having("radical"))
    if a.cls.positive_e_type is None:
        rd1 = IsoVerdict(applicable=False, detail="pair does not have positive e-type")
    else:
        bad = [i for i in radical_set if not cls[i].contains_1e]
        rd1 = IsoVerdict(applicable=True, holds=not bad,
                         detail="" if not bad else f"radical congruences missing (1,e): {bad}")
    rd2, rd2_weak = a.rd2
    sp2i, sp2i_weak = a.sp2i
    return SpectrumReport(
        pair_name=pair.name, lattice=lattice, classifications=cls,
        hspec=tuple(a.having("prime")), spec_e=tuple(a.spec_e("prime")),
        radical_set=radical_set, strongly_prime_set=tuple(a.having("strongly_prime")),
        strong_spec_e=tuple(a.spec_e("strongly_prime")),
        maximal_proper=_maximal(lattice, a.having("proper")),
        maximal_weakly_proper=_maximal(lattice, a.having("weakly_proper")),
        rd1=rd1, rd2=rd2, sp2i=sp2i, rd2_weak=rd2_weak, sp2i_weak=sp2i_weak,
    )

