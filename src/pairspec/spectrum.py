"""Twist-product classification of congruences and the prime spectrum.

Each lattice is classified in one pass, as boolean columns over its root
matrix (``twist_columns``): radical, strongly prime and T-cancellative read
off each congruence, semiprime, prime and irreducible against its upper
covers.  With the relation flags of ``relation_flags`` these are the member
columns of ``Analysis.columns``, and ``member_record`` turns one row of them
into the record ``spectrum`` prints.  Reports assemble the prime spectrum,
the positive e-type part, and the order-isomorphism verdicts onto the
idempotent image and the quotient by the least one~e congruence.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from . import _kernels
from .congruences import (
    Congruence,
    CongruenceLattice,
    diag_e,
    enumerate_congruences,
    pushes,
    relation_flags,
)
from .constructions import quotient_pair
from .core import Pair, classify_pair, validate_structure
from .errors import CapExceeded, HypothesisFails


# ---------------------------------------------------------------------------
# twist products of relations, and the radical
# ---------------------------------------------------------------------------

def twist(pair: Pair, b: tuple[int, int], c: tuple[int, int]) -> tuple[int, int]:
    p, q = _kernels.twist(pair.add, pair.mul, *b, *c)
    return int(p), int(q)


def twist_subset(pair: Pair, rel1: Congruence, rel2: Congruence, target: np.ndarray) -> bool:
    """Whether every twist product of rel1 x rel2 lands inside the boolean
    matrix ``target``."""
    return _kernels.twist_subset_violation(pair.add, pair.mul, *rel1.members, *rel2.members,
                                           target)[0] < 0


def sqrt_phi(pair: Pair, cong: Congruence) -> tuple[np.ndarray, int]:
    """Iterate S1 = Phi, S_{i+1} = preimage of S_i under twist squaring,
    until stable; the chain ascends so the fixpoint is the union, returned
    as a matrix (it need not be a congruence) with the chain's depth."""
    cur, depth = cong.matrix.copy(), 1
    while not ((nxt := _kernels.sqrt_step(pair.add, pair.mul, cur) | cur) == cur).all():
        cur, depth = nxt, depth + 1
    return cur, depth


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def member_record(cong: Congruence, columns: dict[str, np.ndarray], i: int) -> dict:
    """Row i of the member ``columns`` as ``spectrum`` prints the member
    ``cong``: its blocks and its flags.  A flag without a column is None, as
    the cover flags are for ``classify_congruence_elementwise``; so are an
    e-type of 0 and, without a Property-N witness, ``contains_1e``."""
    def flag(f):
        return bool(columns[f][i]) if f in columns else None

    return {"blocks": cong.block_labels(), "radical": flag("radical"),
            "strongly_prime": flag("strongly_prime"), "t_cancellative": flag("t_cancellative"),
            "prime": flag("prime"), "semiprime": flag("semiprime"),
            "irreducible": flag("irreducible"), "proper": flag("proper"),
            "weakly_proper": flag("weakly_proper"),
            "contains_1e": flag("contains_1e") if cong.pair.property_n else None,
            "e_type": int(columns["e_type"][i]) or None}


def classify_congruence_elementwise(pair: Pair, cong: Congruence) -> dict:
    """The member record of ``cong`` with the flags read off it alone.  The
    twist tests read a pair only through the blocks its entries fall in, so
    each runs on the tables of A/cong against its diagonal."""
    reps, add, mul = cong.quotient_tables()
    diag = np.eye(len(reps), dtype=bool)
    nxs, nys = np.nonzero(~diag)
    t_blocks = np.unique(np.asarray(cong.block_of)[pair.t_sorted])
    return member_record(cong, {
        "radical": [_kernels.radical_violation(add, mul, diag)[0] < 0],
        "strongly_prime": [_kernels.strongly_prime_violation(add, mul, diag, nxs, nys)[0] < 0],
        "t_cancellative": [_kernels.t_cancel_violation(mul, diag, t_blocks)[0] < 0],
        **relation_flags(pair, [cong.roots])}, 0)


def twist_columns(pair: Pair, roots: np.ndarray, covers, rows=None) -> dict[str, np.ndarray]:
    """The twist flags of the congruences ``roots[rows]`` (every row by
    default) as boolean columns; ``roots`` is the root matrix of a lattice
    and ``covers[i]`` lists row i's upper covers.

    Radical and T-cancellative are gathers; semiprime means no cover c has
    c*c inside theta, irreducible at most one cover.  By four implications
    (see the README) one ``_kernels.twist_counts`` pass decides the rest: it
    scans strongly prime on the radical rows with at most one cover, and
    c*c on the (row, cover) edges of the other rows."""
    rows = np.arange(len(roots)) if rows is None else np.asarray(rows, dtype=np.intp)
    n_covers = np.fromiter((len(covers[i]) for i in rows), dtype=np.intp, count=len(rows))
    radical, cancel = _kernels.radical_cancel_columns(pair.add, pair.mul, pair.t_sorted,
                                                      np.asarray(roots)[rows])
    scan = np.flatnonzero(radical & (n_covers <= 1))
    edge = np.repeat(np.flatnonzero(~radical), n_covers[~radical])    # the row of each edge
    cover = np.fromiter(chain.from_iterable(covers[i] for i in rows[~radical]), dtype=np.intp,
                        count=len(edge))
    hits, sizes = _kernels.twist_counts(pair.add, pair.mul, np.asarray(roots),
                                        np.concatenate([rows[scan], rows[edge]]),
                                        np.concatenate([np.full(len(scan), -1), cover]))
    strongly = np.zeros(len(rows), dtype=bool)
    strongly[scan] = hits[:len(scan)] == 0
    semiprime = np.ones(len(rows), dtype=bool)
    semiprime[edge[(hits == sizes * sizes)[len(scan):]]] = False      # some c*c inside theta
    return {"radical": radical, "strongly_prime": strongly, "t_cancellative": cancel,
            "prime": semiprime & (n_covers <= 1), "semiprime": semiprime,
            "irreducible": n_covers <= 1}


def classify_congruence(pair: Pair, cong: Congruence, lattice: CongruenceLattice) -> dict:
    """The member record of ``cong``: ``twist_columns`` on its one row."""
    i = lattice.find(cong)
    return member_record(cong, {**twist_columns(pair, lattice.roots, lattice.covers, [i]),
                                **relation_flags(pair, [cong.roots])}, 0)


# ---------------------------------------------------------------------------
# the idempotent image A*e
# ---------------------------------------------------------------------------

def ae_pair(pair: Pair) -> tuple[Pair, np.ndarray]:
    """The multiplicative image A*e with inherited operations, plus the
    projection b -> b*e from carrier indices to A*e indices."""
    e = pair.require_property_n().e
    img = pair.mul[:, e]
    elems = np.unique(img)
    pos = np.full(pair.n, -1, dtype=np.int64)
    pos[elems] = np.arange(len(elems))
    add = pos[pair.add[np.ix_(elems, elems)]]
    mul = pos[pair.mul[np.ix_(elems, elems)]]
    bad = np.argwhere((add < 0) | (mul < 0))
    if len(bad):
        raise HypothesisFails("A*e is not closed under the operations",
                              witness=tuple(pair.names[elems[i]] for i in bad[0]))
    names = [pair.names[x] for x in elems]
    st = validate_structure(names, zero=pos[pair.zero], one=pos[img[pair.one]],
                            add=add, mul=mul)
    a0 = pos[elems[pair.a0_mask[elems]]].tolist() + [int(pos[pair.zero])]
    # unvalidated: congruences read only the tables, and A*e's one need be no unit
    return Pair(structure=st, tangible=frozenset({int(pos[e])}), a_zero=frozenset(a0),
                property_n=None, name=f"{pair.name}*e"), pos[img]


def push_congruence(cong: Congruence, proj: np.ndarray, target: Pair) -> Optional[Congruence]:
    """Image of a congruence along a surjection; None when the image relation
    is not a congruence of the target (the one-row case of ``pushes``)."""
    rows, ok = pushes([cong.roots], proj, target)
    return Congruence(pair=target, roots=tuple(rows[0].tolist())) if ok[0] else None


# ---------------------------------------------------------------------------
# spectrum report
# ---------------------------------------------------------------------------

def _verdict(applicable: bool, holds: Optional[bool] = None, detail: str = "") -> dict:
    """A verdict as ``spectrum`` prints it."""
    return {"applicable": applicable, "holds": holds, "detail": detail}


def _maximal(lattice: CongruenceLattice, idxs: list[int]) -> tuple[int, ...]:
    """The members of ``idxs`` below no other member, in the order given."""
    idx = np.asarray(idxs, dtype=np.intp)
    sub = lattice.leq[np.ix_(idx, idx)]
    np.fill_diagonal(sub, False)
    return tuple(idx[~sub.any(axis=1)].tolist())


def _order_iso(leq_a: np.ndarray, src, leq_b: np.ndarray, img, onto) -> tuple[bool, bool]:
    """Whether the map src[k] -> img[k] between index arrays is onto the
    indices ``onto``, and whether it is an order-isomorphism onto them: onto,
    with ``leq_a`` over src equal to ``leq_b`` over img.  A map that is not
    one-to-one fails the second test, since leq_a is antisymmetric."""
    src, img = (np.asarray(x, dtype=np.intp) for x in (src, img))
    is_onto = np.array_equal(np.unique(img), np.unique(np.asarray(onto, dtype=np.intp)))
    return is_onto, is_onto and np.array_equal(leq_a[np.ix_(src, src)], leq_b[np.ix_(img, img)])


# the strong and the weak prime spectra, as member columns
_SPECTRA = ("strongly_prime", "prime")
# how the verdict details name a target: itself, its lattice, the source
# spectrum and the target spectrum
_AE_WORDS = ("A*e", "the A*e lattice", "spec(A)", "spec(A*e)")
_QUOTIENT_WORDS = ("the quotient", "the quotient lattice", "spec_e(A)", "spec(A/diag_e)")


# ``Analysis.images`` of a member whose image is no congruence of the
# target, and of one whose image the target lattice lacks
NOT_CONGRUENCE, MISSING = -1, -2


def _iso_verdict(source: "Analysis", src: list[int], target: "Analysis", images: np.ndarray,
                 flag: str, kernel: Optional[Congruence], words: tuple[str, ...]) -> dict:
    """Whether the projection with target-lattice ``images`` maps the source
    congruences ``src`` order-isomorphically onto the target congruences
    with ``flag`` set.  When ``kernel`` is given, each source congruence
    must contain it.  A failure names the first source congruence to fail
    and the first test it fails: kernel, congruence, member, flag."""
    where, where_lattice, src_name, spec_name = words
    lattice = source.lattice
    spec = target.having(flag)
    src = np.asarray(src, dtype=np.intp)
    img = images[src]
    no_kernel = np.zeros(len(src), dtype=bool) if kernel is None else \
        ~lattice.leq[lattice.find(kernel), src]
    fails = np.select([no_kernel, img == NOT_CONGRUENCE, img == MISSING, ~np.isin(img, spec)],
                      [0, 1, 2, 3], -1)
    if (fails >= 0).any():
        k = int((fails >= 0).argmax())
        i = int(src[k])
        return _verdict(True, False, (
            f"positive-e-type prime #{i} does not contain diag_e",
            f"image of prime #{i} is not a congruence of {where}",
            f"image of prime #{i} missing from {where_lattice}",
            f"image of prime #{i} is not prime in {where}")[fails[k]])
    return _verdict(True, _order_iso(lattice.leq, src, target.lattice.leq, img, spec)[1],
                    f"|{src_name}|={len(src)}, |{spec_name}|={len(spec)}")


class _kept(cached_property):
    """A cached property that keeps the CapExceeded or HypothesisFails its
    computation raises as well, and raises it again on each later read."""

    def __get__(self, instance, owner=None):
        raised = f"{self.attrname}_raised"
        if instance is not None and raised in instance.__dict__:
            raise instance.__dict__[raised]
        try:
            return super().__get__(instance, owner)
        except (CapExceeded, HypothesisFails) as exc:
            instance.__dict__[raised] = exc
            raise


class Analysis:
    """Everything derived from one pair, computed on first use and kept.

    ``spectrum_report`` and every harness check read one analysis, so the
    lattice of the pair, its classification and the A*e and A/diag_e
    sub-analyses are each built once; the cap reaches every sub-analysis.
    The verdicts reach the lattices in the order A, A*e, A/diag_e, so under
    a cap the first one to overflow is the one reported.  A lattice that
    overflows the cap, or an A*e or A/diag_e that cannot be built, keeps its
    CapExceeded or HypothesisFails and raises it again when next read, so a
    capped lattice is enumerated once.
    """

    def __init__(self, pair: Pair, cap: Optional[int]):
        self.pair = pair
        self.cap = cap

    @cached_property
    def cls(self) -> dict:
        return classify_pair(self.pair)

    @_kept
    def lattice(self) -> CongruenceLattice:
        return enumerate_congruences(self.pair, self.cap)

    @cached_property
    def columns(self) -> dict[str, np.ndarray]:
        """Every member column, one entry per lattice row: the twist flags of
        ``twist_columns`` and the relation flags of ``relation_flags``."""
        lat = self.lattice
        return {**twist_columns(self.pair, lat.roots, lat.covers),
                **relation_flags(self.pair, lat.roots)}

    @_kept
    def ae(self) -> tuple["Analysis", np.ndarray]:
        """The idempotent image A*e and the projection onto it."""
        sub, proj = ae_pair(self.pair)
        return Analysis(sub, self.cap), proj

    @_kept
    def quotient_e(self) -> tuple["Analysis", np.ndarray]:
        """The quotient A/diag_e and the projection onto it."""
        de = diag_e(self.pair)
        q = quotient_pair(self.pair, de, name=f"{self.pair.name}/diag_e")
        return Analysis(q, self.cap), np.asarray(de.block_of, dtype=np.int64)

    def having(self, flag: str) -> list[int]:
        """Indices of the congruences with ``flag`` set (``e_type``: one)."""
        return np.flatnonzero(self.columns[flag]).tolist()

    def spec_e(self, flag: str) -> list[int]:
        """The part of ``having(flag)`` of positive e-type."""
        return np.flatnonzero(self.columns[flag] & (self.columns["e_type"] > 0)).tolist()

    def images(self, sub: str) -> np.ndarray:
        """The index in the lattice of ``sub`` ("ae" or "quotient_e") of each
        member's image along its projection, or NOT_CONGRUENCE or MISSING;
        computed once and kept as ``<sub>_images``."""
        key = f"{sub}_images"
        if key not in self.__dict__:
            target, proj = getattr(self, sub)
            rows, ok = pushes(self.lattice.roots, proj, target.pair)
            out = np.full(len(rows), NOT_CONGRUENCE, dtype=np.intp)
            out[ok] = target.lattice.find_rows(rows[ok], missing=MISSING)
            self.__dict__[key] = out
        return self.__dict__[key]

    @property
    def rd1(self) -> tuple[dict, list[int]]:
        """Every radical congruence contains (1, e), on a pair of positive
        e-type: the verdict, and the radical members that do not."""
        if self.cls["positive_e_type"] is None:
            return _verdict(False, detail="pair does not have positive e-type"), []
        bad = np.flatnonzero(self.columns["radical"] & ~self.columns["contains_1e"]).tolist()
        detail = f"radical congruences missing (1,e): {bad}" if bad else ""
        return _verdict(True, not bad, detail), bad

    @cached_property
    def rd2(self) -> tuple[dict, dict]:
        """Spec(A) onto Spec(A*e), for the strongly prime and the prime spectra."""
        c = self.cls
        if not (c["has_property_n"] and c["e_central"] and c["positive_e_type"]):
            v = _verdict(False, detail="needs an e-central pair of positive e-type")
            return v, v
        srcs = {flag: self.having(flag) for flag in _SPECTRA}
        try:
            target = self.ae[0]
        except HypothesisFails as exc:
            v = _verdict(True, False, str(exc))
            return v, v
        return tuple(_iso_verdict(self, src, target, self.images("ae"), flag, None, _AE_WORDS)
                     for flag, src in srcs.items())

    @cached_property
    def sp2i(self) -> tuple[dict, dict]:
        """Spec_e(A) onto Spec(A/diag_e), for the strongly prime and the prime
        spectra; every source prime must contain diag_e."""
        c = self.cls
        if not (c["has_property_n"] and c["e_central"]):
            v = _verdict(False, detail="needs an e-central pair with a witness")
            return v, v
        srcs = {flag: self.spec_e(flag) for flag in _SPECTRA}
        target, proj = self.quotient_e
        de = Congruence.from_labels(self.pair, proj.tolist())   # the kernel of proj
        return tuple(_iso_verdict(self, src, target, self.images("quotient_e"), flag, de,
                                  _QUOTIENT_WORDS) for flag, src in srcs.items())


def spectrum_report(pair: Pair, cap: Optional[int] = None) -> dict:
    """The spectrum record: every congruence with its classification, the
    prime spectra and the isomorphism verdicts, read off one analysis.

    Primes come in two strengths and the engine tracks both: ``hspec``
    collects the lattice-quantified primes, ``strongly_prime`` the
    elementwise ones.  The two need not agree even on commutative semiring
    pairs of positive e-type (the engine finds counterexamples), so the
    isomorphism verdicts are computed for the strongly prime spectra, with
    the weak-prime verdicts reported alongside for comparison."""
    a = Analysis(pair, cap)
    lattice, columns = a.lattice, a.columns
    (rd1, _), (rd2, rd2_weak), (sp2i, sp2i_weak) = a.rd1, a.rd2, a.sp2i
    return {
        "pair": pair.name,
        "lattice_size": len(lattice),
        "congruences": [member_record(c, columns, i) for i, c in enumerate(lattice)],
        "hspec": a.having("prime"),
        "spec_e": a.spec_e("prime"),
        "radical": a.having("radical"),
        "strongly_prime": a.having("strongly_prime"),
        "strong_spec_e": a.spec_e("strongly_prime"),
        "maximal_proper": list(_maximal(lattice, a.having("proper"))),
        "maximal_weakly_proper": list(_maximal(lattice, a.having("weakly_proper"))),
        "verdict_radical_contains_1e": rd1,
        "verdict_spec_iso_ae": rd2,
        "verdict_spec_e_iso_quotient": sp2i,
        "verdict_spec_iso_ae_weak_primes": rd2_weak,
        "verdict_spec_e_iso_quotient_weak_primes": sp2i_weak,
    }
