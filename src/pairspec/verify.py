"""Law harness: run each statement whose hypotheses hold and report a pass
or a concrete counterexample.

Check ids are stable strings (part of the CLI contract).  Hypotheses are
always evaluated first; a check on a pair that does not satisfy them reports
hypotheses_held=False rather than a failure.  Counterexamples carry element
labels and re-verify from the raw tables via ``reverify_counterexample``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._kernels import first_nonassoc
from .congruences import Congruence, cong_b, diagonal, is_congruence, join, meet
from .constructions import double, doubled_names, quotient_pair, twist_tables
from .core import Pair, classify_pair
from .errors import CapExceeded, CarrierTooLarge, UnknownCheckId
from .spectrum import (
    Analysis,
    _maximal,
    classify_congruence_elementwise,
    improper_members,
    push_congruence,
    sqrt_phi,
    twist,
    twist_subset,
)


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    hypotheses_held: bool
    passed: Optional[bool]
    counterexample: Optional[dict]
    runtime: float
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "hypotheses_held": self.hypotheses_held,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "runtime": round(self.runtime, 6),
            "notes": self.notes,
        }


def _names(pair: Pair, *idxs) -> tuple[str, ...]:
    return tuple(pair.names[i] for i in idxs)


# each check: Analysis -> (hypotheses_held, passed|None, counterexample|None, notes)

def _check_est(ctx):
    pair = ctx.pair
    if pair.property_n is None:
        return False, None, None, "needs a Property-N witness"
    w = pair.property_n
    for d in sorted(w.all_daggers):
        got = int(pair.mul[w.e, d])
        if got != w.e:
            return True, False, {
                "dagger": pair.names[d], "e": pair.names[w.e],
                "e_times_dagger": pair.names[got],
            }, ""
    return True, True, None, f"checked {len(w.all_daggers)} dagger(s)"


def _check_esq(ctx):
    pair = ctx.pair
    if not ctx.cls.e_distributive:
        return False, None, None, "needs an e-distributive pair"
    e = pair.property_n.e
    esq = int(pair.mul[e, e])
    twoe = int(pair.add[e, e])
    if esq != twoe:
        return True, False, {"e_squared": pair.names[esq], "e_plus_e": pair.names[twoe]}, ""
    for b1 in sorted(pair.a_zero):
        for b2 in sorted(pair.a_zero):
            lhs = int(pair.mul[e, pair.add[b1, b2]])
            rhs = int(pair.add[pair.mul[e, b1], pair.mul[e, b2]])
            if lhs != rhs:
                return True, False, {
                    "b1": pair.names[b1], "b2": pair.names[b2],
                    "e(b1+b2)": pair.names[lhs], "eb1+eb2": pair.names[rhs],
                }, ""
    return True, True, None, ""


def _check_emul(ctx):
    pair = ctx.pair
    if not (ctx.cls.e_central and ctx.cls.e_idempotent):
        return False, None, None, "needs an e-central, e-idempotent pair"
    e = pair.property_n.e
    proj = pair.mul[:, e]
    image = sorted(set(int(x) for x in proj))
    for x in range(pair.n):
        for y in range(pair.n):
            if int(proj[pair.add[x, y]]) != int(pair.add[proj[x], proj[y]]):
                return True, False, {"kind": "not_additive", "x": pair.names[x], "y": pair.names[y]}, ""
            if int(proj[pair.mul[x, y]]) != int(pair.mul[proj[x], proj[y]]):
                return True, False, {"kind": "not_multiplicative", "x": pair.names[x], "y": pair.names[y]}, ""
    for x in image:
        if int(pair.add[x, x]) != x:
            return True, False, {"kind": "image_not_idempotent", "x": pair.names[x]}, ""
        if int(pair.mul[x, e]) != x or int(pair.mul[e, x]) != x:
            return True, False, {"kind": "e_not_unit", "x": pair.names[x]}, ""
    return True, True, None, f"projection onto {len(image)} elements"


def _check_efinal_idem(ctx):
    pair = ctx.pair
    if not ctx.cls.e_final:
        return False, None, None, "needs an e-final pair"
    e = pair.property_n.e
    if int(pair.add[e, e]) != e:
        return True, False, {"e": pair.names[e], "e_plus_e": pair.names[int(pair.add[e, e])]}, ""
    return True, True, None, ""


def _check_kind(ctx):
    pair = ctx.pair
    two = pair.structure.iterated_sum(pair.one, 2)
    two_in = two in pair.a_zero
    if two_in and ctx.cls.kind != "first":
        a = next(a for a in sorted(pair.tangible) if int(pair.add[a, a]) not in pair.a_zero)
        return True, False, {"two": pair.names[two], "tangible": pair.names[a],
                             "a_plus_a": pair.names[int(pair.add[a, a])]}, ""
    notes = f"two={pair.names[two]}, in A0: {two_in}"
    if ctx.cls.cancellative:
        if (ctx.cls.kind == "second") != (not two_in):
            return True, False, {"kind": ctx.cls.kind, "two_in_a0": two_in}, ""
        notes += "; cancellative equivalence checked"
    return True, True, None, notes


def _check_etype_shallow(ctx):
    pair = ctx.pair
    if not (ctx.cls.e_distributive and ctx.cls.shallow):
        return False, None, None, "needs an e-distributive shallow pair"
    e = pair.property_n.e
    k_min = None
    cur = e
    for k in range(1, pair.n + 1):
        if int(pair.add[pair.one, cur]) in pair.a_zero:
            k_min = k
            break
        cur = int(pair.add[cur, e])
    if k_min is None:
        return False, None, None, "no k with 1 + k*e in A0"
    et = ctx.cls.e_type
    if et in ((k_min, k_min), (k_min, 1)):
        return True, True, None, f"k={k_min}, e-type {et}"
    return True, False, {"k": k_min, "e_type": list(et) if et else None}, ""


def _check_twass(ctx):
    pair = ctx.pair
    if not pair.structure.is_semiring():
        return False, None, None, "needs a semiring pair"
    i, j, k = first_nonassoc(twist_tables(pair.structure)[1])
    if i < 0:
        return True, True, None, f"all {pair.n * pair.n}^3 triples associate"
    names = doubled_names(pair.names)
    return True, False, {"triple": [names[i], names[j], names[k]]}, ""


def _check_gen(ctx):
    pair = ctx.pair
    if not pair.structure.distributive:
        return False, None, None, "needs a distributive pair"
    add, mul = pair.add, pair.mul
    for b1 in range(pair.n):
        for b2 in range(pair.n):
            for z in range(pair.n):
                got = twist(pair, (b1, b2), (z, z))
                want = int(mul[add[b1, b2], z])
                if got != (want, want):
                    return True, False, {
                        "b": _names(pair, b1, b2), "z": pair.names[z],
                        "product": _names(pair, *got), "expected": pair.names[want],
                    }, ""
    return True, True, None, ""


def _check_id1(ctx):
    pair = ctx.pair
    if pair.property_n is None:
        return False, None, None, "needs a Property-N witness"
    e = pair.property_n.e
    hits = 0
    for cong in ctx.lattice:
        if not cong.related(pair.one, e):
            continue
        hits += 1
        q = quotient_pair(pair, cong)
        if q.a_zero != set(range(q.n)):
            missing = next(i for i in range(q.n) if i not in q.a_zero)
            return True, False, {"kind": "not_degenerate", "blocks": cong.block_labels(),
                                 "element": q.names[missing]}, ""
        bad = [x for x in range(q.n) if int(q.add[x, x]) != x]
        if bad:
            return True, False, {"kind": "not_idempotent", "blocks": cong.block_labels(),
                                 "element": q.names[bad[0]]}, ""
    return True, True, None, f"{hits} (1,e)-congruence(s) checked"


def _check_tr1(ctx):
    pair = ctx.pair
    if pair.property_n is None:
        return False, None, None, "needs a Property-N witness"
    q, q_proj = ctx.quotient_e
    q_lat = q.lattice
    pulled = []
    for psi in q_lat:
        bo = tuple(psi.block_of[b] for b in q_proj.tolist())
        ok, wit = is_congruence(pair, bo)
        if not ok:
            return True, False, {"kind": "pullback_not_congruence",
                                 "quotient_blocks": psi.block_labels(), "witness": wit}, ""
        pulled.append(Congruence(pair=pair, block_of=bo))
    if len({c.block_of for c in pulled}) != len(q_lat):
        return True, False, {"kind": "pullback_not_injective"}, ""
    for i, a in enumerate(q_lat):
        for j, b in enumerate(q_lat):
            if a.refines(b) != pulled[i].refines(pulled[j]):
                return True, False, {"kind": "pullback_not_order_embedding",
                                     "i": a.block_labels(), "j": b.block_labels()}, ""
    notes = f"injected {len(q_lat)} congruences"

    if ctx.cls.e_central:
        ae, proj = ctx.ae
        images = []
        for cong in ctx.lattice:
            img = push_congruence(cong, proj, ae.pair)
            if img is None:
                return True, False, {"kind": "e_image_not_congruence",
                                     "blocks": cong.block_labels()}, ""
            images.append(img)
        for i in range(len(ctx.lattice)):
            for j in range(len(ctx.lattice)):
                if ctx.lattice[i].refines(ctx.lattice[j]) and not images[i].refines(images[j]):
                    return True, False, {"kind": "e_image_not_monotone",
                                         "i": ctx.lattice[i].block_labels()}, ""
        notes += "; e-image map is monotone"
        if ctx.cls.e_final:
            e = pair.property_n.e
            one_e = [i for i, c in enumerate(ctx.lattice) if c.related(pair.one, e)]
            ae_lat = ae.lattice
            mapping = {}
            for i in one_e:
                mapping[i] = ae_lat.find(images[i])
            if sorted(set(mapping.values())) != list(range(len(ae_lat))):
                return True, False, {"kind": "e_image_not_bijection",
                                     "one_e_count": len(one_e), "ae_count": len(ae_lat)}, ""
            for i in one_e:
                for j in one_e:
                    lhs = ctx.lattice[i].refines(ctx.lattice[j])
                    rhs = ae_lat[mapping[i]].refines(ae_lat[mapping[j]])
                    if lhs != rhs:
                        return True, False, {"kind": "e_image_not_order_iso"}, ""
            notes += f"; (1,e)-congruences biject onto {len(ae_lat)} congruences of A*e"
    return True, True, None, notes


def _check_congb(ctx):
    pair = ctx.pair
    if ctx.cls.e_type is None:
        return False, None, None, "needs a pair with an e-type"
    # cong_b(b) depends on b only through s = b1 + b2, apart from contains_b
    by_sum = {}
    checked = 0
    for b1 in range(pair.n):
        for b2 in range(pair.n):
            s = int(pair.add[b1, b2])
            if s not in by_sum:
                by_sum[s] = cong_b(pair, (b1, b2))
            res = by_sum[s]
            if not (res.hypothesis_semiring or res.hypothesis_s_central):
                continue
            checked += 1
            contains_b = bool(res.relation[b1, b2])
            if not res.is_congruence or not contains_b:
                return True, False, {
                    "b": _names(pair, b1, b2),
                    "is_congruence": res.is_congruence,
                    "contains_b": contains_b,
                }, ""
    return True, True, None, f"{checked} elements checked"


def _check_bf(ctx):
    pair = ctx.pair
    lat = ctx.lattice
    cls = ctx.classes
    all_pairs_xs = np.repeat(np.arange(pair.n), pair.n).astype(np.int64)
    all_pairs_ys = np.tile(np.arange(pair.n), pair.n).astype(np.int64)
    for i, cong in enumerate(lat):
        xs, ys = cong.members
        if not twist_subset(pair, (all_pairs_xs, all_pairs_ys), (xs, ys), cong.matrix):
            return True, False, {"part": "i", "blocks": cong.block_labels()}, ""
    for i, c in enumerate(cls):
        if c.prime != (c.semiprime and c.irreducible):
            return True, False, {"part": "ii", "blocks": lat[i].block_labels(),
                                 "prime": c.prime, "semiprime": c.semiprime,
                                 "irreducible": c.irreducible}, ""
    semi = ctx.having("semiprime")
    for i in semi:
        for j in semi:
            if not cls[lat.meet_index(i, j)].semiprime:
                return True, False, {"part": "iii", "i": lat[i].block_labels(),
                                     "j": lat[j].block_labels()}, ""
    rad = ctx.having("radical")
    for i in rad:
        for j in rad:
            if not cls[lat.meet_index(i, j)].radical:
                return True, False, {"part": "iv", "i": lat[i].block_labels(),
                                     "j": lat[j].block_labels()}, ""
    # (v)/(vi): in a finite lattice a chain's union/intersection is its top/
    # bottom; verify over all comparable pairs that join and meet stay in the
    # lattice and preserve the four properties trivially held by endpoints.
    for i in range(len(lat)):
        for j in range(len(lat)):
            if lat.leq[i, j]:
                if join(lat[i], lat[j]).block_of != lat[j].block_of:
                    return True, False, {"part": "v", "join_mismatch": True}, ""
                if meet(lat[i], lat[j]).block_of != lat[i].block_of:
                    return True, False, {"part": "v", "meet_mismatch": True}, ""
    return True, True, None, f"lattice of {len(lat)}; semiprime={len(semi)}, radical={len(rad)}"


def _check_prs1(ctx):
    pair = ctx.pair
    lat = ctx.lattice
    rad = ctx.having("radical")
    for i in rad:
        cong = lat[i]
        for b1 in range(pair.n):
            for b2 in range(pair.n):
                prod = twist(pair, (b1, b2), (b2, b1))
                if cong.related(*prod) and not cong.related(b1, b2):
                    return True, False, {"part": "i", "blocks": cong.block_labels(),
                                         "b": _names(pair, b1, b2)}, ""
        for b in range(pair.n):
            lhs = cong.related(pair.one, b)
            sq = (int(pair.add[pair.one, pair.mul[b, b]]), int(pair.add[b, b]))
            rhs = cong.related(*sq)
            if lhs != rhs:
                return True, False, {"part": "ii", "blocks": cong.block_labels(),
                                     "b": pair.names[b]}, ""
    return True, True, None, f"{len(rad)} radical congruence(s)"


def _check_prs2(ctx):
    pair = ctx.pair
    if not ctx.cls.e_distributive:
        return False, None, None, "needs an e-distributive pair"
    e = pair.property_n.e
    notes = []
    diag_is_radical = classify_congruence_elementwise(pair, diagonal(pair)).radical
    if diag_is_radical:
        probe = (int(pair.add[pair.one, pair.add[e, e]]), int(pair.add[e, e]))
        for cong in ctx.lattice:
            if cong.related(pair.one, e) != cong.related(*probe):
                return True, False, {"part": "i", "blocks": cong.block_labels()}, ""
        notes.append("reduced: part (i) checked")
    else:
        notes.append("pair not reduced: part (i) vacuous")
    if ctx.cls.positive_e_type is not None:
        r = sqrt_phi(pair, diagonal(pair))
        if not (r.contains(pair.one, e) and r.contains(e, pair.one)):
            return True, False, {"part": "iii", "sqrt_depth": r.depth}, ""
        notes.append(f"(1,e),(e,1) in sqrt(diag) at depth {r.depth}")
        # empirical twist-squares of (1+k'e, k'e); the printed closed form
        # is treated as data, not as an assertion
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
        notes.append(f"square exponents {ks}")
    else:
        notes.append("no positive e-type: part (iii) vacuous")
    return True, True, None, "; ".join(notes)


def _check_rd1(ctx):
    pair = ctx.pair
    if ctx.cls.positive_e_type is None:
        return False, None, None, "needs positive e-type"
    e = pair.property_n.e
    rad = ctx.having("radical")
    for i in rad:
        if not ctx.lattice[i].related(pair.one, e):
            return True, False, {"blocks": ctx.lattice[i].block_labels()}, ""
    return True, True, None, f"{len(rad)} radical congruence(s) contain (1,e)"


def _check_rd2(ctx):
    v, vw = ctx.rd2
    if not v.applicable:
        return False, None, None, v.detail
    notes = f"strongly prime: {v.detail}; weak primes: holds={vw.holds} ({vw.detail})"
    if not v.holds:
        return True, False, {"detail": v.detail}, notes
    return True, True, None, notes


def _check_sp2(ctx):
    v, vw = ctx.sp2i
    if not v.applicable:
        return False, None, None, v.detail
    notes = f"strongly prime: {v.detail}; weak primes: holds={vw.holds}"
    if not v.holds:
        return True, False, {"part": "i", "detail": v.detail}, notes
    maximal_wo = []
    for i, c in enumerate(ctx.classes):
        if c.e_type is not None:
            continue
        # positive e-type passes upwards, so testing the covers is enough
        if all(ctx.classes[j].e_type is not None for j in ctx.lattice.covers[i]):
            maximal_wo.append(i)
    for i in maximal_wo:
        if not ctx.classes[i].prime:
            return True, False, {"part": "ii", "blocks": ctx.lattice[i].block_labels()}, notes
    notes += f"; {len(maximal_wo)} maximal congruence(s) without positive e-type are prime"
    return True, True, None, notes


def _check_pro3(ctx):
    pair = ctx.pair
    if not ctx.cls.e_central:
        return False, None, None, "needs an e-central pair"
    e = pair.property_n.e
    esq = int(pair.mul[e, e])
    ae_set = {int(x) for x in pair.mul[:, e]}
    for cong in ctx.lattice:
        if not cong.related(e, esq):
            continue
        for a in range(pair.n):
            for c in range(pair.n):
                if c in ae_set and cong.related(a, c):
                    if not cong.related(a, int(pair.mul[a, e])):
                        return True, False, {"blocks": cong.block_labels(),
                                             "a": pair.names[a], "c": pair.names[c]}, ""
    return True, True, None, ""


def _check_pro3c(ctx):
    pair = ctx.pair
    if not (ctx.cls.e_central and ctx.cls.e_idempotent):
        return False, None, None, "needs an e-central, e-idempotent pair"
    e = pair.property_n.e
    for i, c in enumerate(ctx.classes):
        if not c.t_cancellative or c.proper:
            continue
        if not ctx.lattice[i].related(pair.one, e):
            return True, False, {"blocks": ctx.lattice[i].block_labels()}, ""
    return True, True, None, ""


def _check_cp(ctx):
    pair = ctx.pair
    if not ctx.cls.proper:
        return False, None, None, "needs a proper pair"
    for i, c in enumerate(ctx.classes):
        if not c.proper:
            continue
        q = quotient_pair(pair, ctx.lattice[i])
        if not classify_pair(q).proper:
            return True, False, {"blocks": ctx.lattice[i].block_labels()}, ""
    return True, True, None, ""


def _check_shallow1k(ctx):
    pair = ctx.pair
    if not (ctx.cls.shallow and ctx.cls.kind == "first" and pair.structure.is_semiring()):
        return False, None, None, "needs a shallow semiring pair of the first kind"
    for i, c in enumerate(ctx.classes):
        if not c.proper:
            continue
        cong = ctx.lattice[i]
        for a1 in sorted(pair.tangible):
            for a2 in sorted(pair.tangible):
                if cong.related(a1, a2) and int(pair.add[a1, a2]) not in pair.a_zero:
                    return True, False, {"blocks": cong.block_labels(),
                                         "a1": pair.names[a1], "a2": pair.names[a2],
                                         "sum": pair.names[int(pair.add[a1, a2])]}, ""
    return True, True, None, ""


def _check_chains(ctx):
    pair = ctx.pair
    lat = ctx.lattice
    cls = ctx.classes
    proper_idx = ctx.having("proper")
    for i in proper_idx:
        for j in range(len(lat)):
            m = meet(lat[i], lat[j])
            if improper_members(pair, m):
                return True, False, {"part": "i", "proper": lat[i].block_labels(),
                                     "other": lat[j].block_labels()}, ""
    maximal_proper = _maximal(lat, proper_idx)
    for i in proper_idx:
        if not any(lat.leq[i, j] for j in maximal_proper):
            return True, False, {"part": "ii", "blocks": lat[i].block_labels()}, ""
    notes = [f"{len(proper_idx)} proper, {len(maximal_proper)} maximal proper"]

    if pair.structure.is_semiring():
        very = sorted({
            (a, b) for cong in lat for a, b, v in improper_members(pair, cong) if v
        })
        for a1, b1 in very:
            for a2, b2 in very:
                p, q = twist(pair, (a1, b1), (a2, b2))
                ok = (p in pair.tangible and q in pair.a_zero
                      and int(pair.add[p, q]) == p)
                if not ok:
                    return True, False, {"part": "iii", "x": _names(pair, a1, b1),
                                         "y": _names(pair, a2, b2),
                                         "product": _names(pair, p, q)}, ""
        notes.append(f"part iii over {len(very)} very improper element(s)")
    else:
        notes.append("part iii needs a semiring pair: skipped")

    if pair.structure.is_semiring():
        max_weakly = _maximal(lat, ctx.having("weakly_proper"))
        has_very = [i for i, c in enumerate(cls) if not c.weakly_proper]
        for i in max_weakly:
            for j in has_very:
                for k in has_very:
                    if twist_subset(pair, lat[j], lat[k], lat[i].matrix):
                        return True, False, {"part": "iv", "blocks": lat[i].block_labels(),
                                             "factors": (lat[j].block_labels(),
                                                         lat[k].block_labels())}, ""
        notes.append(f"{len(max_weakly)} maximal weakly proper checked")
    else:
        notes.append("part iv needs a semiring pair: skipped")
    return True, True, None, "; ".join(notes)


def _check_hyprop(ctx):
    pair = ctx.pair
    origin = pair.origin or {}
    hyper = origin.get("hyper")
    if hyper is None or origin.get("builder") not in ("power_set", "hyperpair"):
        return False, None, None, "needs a pair built from a hyperstructure"
    e_set = hyper.e_set
    if e_set is None:
        return False, None, None, "hyperstructure has no hypernegation"
    nonzero = frozenset(range(hyper.n)) - {hyper.zero}
    group_like = hyper.tangible == nonzero and all(
        any(int(hyper.mul[a, b]) == hyper.one for b in nonzero) for a in nonzero
    )
    if group_like and e_set == frozenset(range(hyper.n)) - {hyper.one} and hyper.n > 2:
        if ctx.cls.e_type != (2, 2):
            return True, False, {"case": "group_complement",
                                 "e_type": list(ctx.cls.e_type) if ctx.cls.e_type else None}, ""
        return True, True, None, "group hyperfield with e the complement of one: e-type 2"
    neg = hyper.hypernegation
    if neg is not None and neg[hyper.one] != hyper.one and e_set == frozenset(
        {hyper.zero, hyper.one, neg[hyper.one]}
    ):
        if not (ctx.cls.e_idempotent and ctx.cls.e_final):
            return True, False, {"case": "zero_one_minus_one",
                                 "e_idempotent": ctx.cls.e_idempotent,
                                 "e_final": ctx.cls.e_final}, ""
        return True, True, None, "e = {0, 1, -1}: e-idempotent and e-final"
    return False, None, None, "hyperstructure matches no covered shape"


CHECKS: dict[str, Callable] = {
    "EST": _check_est,
    "ESQ": _check_esq,
    "EMUL": _check_emul,
    "EFINAL_IDEM": _check_efinal_idem,
    "KIND": _check_kind,
    "ETYPE_SHALLOW": _check_etype_shallow,
    "TWASS": _check_twass,
    "GEN": _check_gen,
    "ID1": _check_id1,
    "TR1": _check_tr1,
    "CONGB": _check_congb,
    "BF": _check_bf,
    "PRS1": _check_prs1,
    "PRS2": _check_prs2,
    "RD1": _check_rd1,
    "RD2": _check_rd2,
    "SP2": _check_sp2,
    "PRO3": _check_pro3,
    "PRO3C": _check_pro3c,
    "CP": _check_cp,
    "SHALLOW1K": _check_shallow1k,
    "CHAINS": _check_chains,
    "HYPROP": _check_hyprop,
}


def run_check(pair: Pair, check_id: str, cap: Optional[int] = None,
              analysis: Optional[Analysis] = None) -> CheckReport:
    """Run one named check; hypotheses are tested first.  Checks that share
    an ``analysis`` of the pair share its lattices; without one, a fresh
    analysis with ``cap`` is made."""
    if check_id not in CHECKS:
        raise UnknownCheckId(f"unknown check id {check_id!r}; have {sorted(CHECKS)}")
    if analysis is None:
        analysis = Analysis(pair, cap)
    t0 = time.perf_counter()
    held, passed, cx, notes = CHECKS[check_id](analysis)
    return CheckReport(
        check_id=check_id,
        hypotheses_held=held,
        passed=passed if held else None,
        counterexample=cx,
        runtime=time.perf_counter() - t0,
        notes=notes,
    )


def run_all(pair: Pair, cap: Optional[int] = None) -> list[CheckReport]:
    """Every check in id order; CapExceeded and CarrierTooLarge are recorded
    per check."""
    analysis = Analysis(pair, cap)
    out = []
    for cid in sorted(CHECKS):
        try:
            out.append(run_check(pair, cid, analysis=analysis))
        except (CapExceeded, CarrierTooLarge) as exc:
            out.append(CheckReport(check_id=cid, hypotheses_held=True, passed=None,
                                   counterexample=None, runtime=0.0,
                                   notes=f"cap exceeded: {exc}"))
    return out


def summarize(reports: list[CheckReport]) -> dict:
    return {
        "passed": sum(1 for r in reports if r.passed is True),
        "failed": sum(1 for r in reports if r.passed is False),
        "skipped": sum(1 for r in reports if r.passed is None),
    }


# ---------------------------------------------------------------------------
# independent re-verification of counterexamples
# ---------------------------------------------------------------------------

def _cong_from_blocks(pair: Pair, block_labels) -> Congruence:
    bo = [0] * pair.n
    for bid, blk in enumerate(block_labels):
        for label in blk:
            bo[pair.structure.index[label]] = bid
    return Congruence(pair=pair, block_of=tuple(bo))


def reverify_counterexample(pair: Pair, check_id: str, cx: dict) -> bool:
    """Recompute the violated instance directly from the tables.

    Returns True when the counterexample indeed violates the named law, and
    False for an id that names no check.
    """
    if check_id not in CHECKS:
        return False
    ix = pair.structure.index
    add, mul = pair.add, pair.mul
    if check_id == "EST":
        return int(mul[ix[cx["e"]], ix[cx["dagger"]]]) != ix[cx["e"]]
    if check_id == "ESQ":
        if "e_squared" in cx:
            e = pair.property_n.e
            return int(mul[e, e]) != int(add[e, e])
        e = pair.property_n.e
        b1, b2 = ix[cx["b1"]], ix[cx["b2"]]
        return int(mul[e, add[b1, b2]]) != int(add[mul[e, b1], mul[e, b2]])
    if check_id == "EFINAL_IDEM":
        e = ix[cx["e"]]
        return int(add[e, e]) != e
    if check_id == "KIND":
        if "tangible" in cx:
            a = ix[cx["tangible"]]
            return int(add[a, a]) not in pair.a_zero and ix[cx["two"]] in pair.a_zero
        return True
    if check_id == "TWASS":
        d = double(pair)
        i, j, k = (d.structure.index[x] for x in cx["triple"])
        m = d.structure.mul
        return int(m[m[i, j], k]) != int(m[i, m[j, k]])
    if check_id == "GEN":
        b1, b2 = (ix[x] for x in cx["b"])
        z = ix[cx["z"]]
        got = twist(pair, (b1, b2), (z, z))
        want = int(mul[add[b1, b2], z])
        return got != (want, want)
    if check_id == "SHALLOW1K":
        cong = _cong_from_blocks(pair, cx["blocks"])
        ok, _ = is_congruence(pair, cong)
        a1, a2 = ix[cx["a1"]], ix[cx["a2"]]
        return ok and cong.related(a1, a2) and int(add[a1, a2]) not in pair.a_zero
    if check_id == "CHAINS" and cx.get("part") == "iii":
        (a1, b1) = (ix[x] for x in cx["x"])
        (a2, b2) = (ix[x] for x in cx["y"])
        p, q = twist(pair, (a1, b1), (a2, b2))
        very = p in pair.tangible and q in pair.a_zero and int(add[p, q]) == p
        return not very
    if check_id == "RD1":
        cong = _cong_from_blocks(pair, cx["blocks"])
        ok, _ = is_congruence(pair, cong)
        cls = classify_congruence_elementwise(pair, cong)
        return ok and cls.radical and not cls.contains_1e
    if check_id == "PRS1":
        cong = _cong_from_blocks(pair, cx["blocks"])
        cls = classify_congruence_elementwise(pair, cong)
        if not cls.radical:
            return False
        if cx["part"] == "i":
            b1, b2 = (ix[x] for x in cx["b"])
            return cong.related(*twist(pair, (b1, b2), (b2, b1))) and not cong.related(b1, b2)
        b = ix[cx["b"]]
        sq = (int(add[pair.one, mul[b, b]]), int(add[b, b]))
        return cong.related(pair.one, b) != cong.related(*sq)
    if check_id == "ID1":
        cong = _cong_from_blocks(pair, cx["blocks"])
        q = quotient_pair(pair, cong)
        if cx["kind"] == "not_degenerate":
            return q.a_zero != set(range(q.n))
        return any(int(q.add[x, x]) != x for x in range(q.n))
    if check_id == "PRO3":
        cong = _cong_from_blocks(pair, cx["blocks"])
        a, c = ix[cx["a"]], ix[cx["c"]]
        e = pair.property_n.e
        return (cong.related(e, int(mul[e, e])) and cong.related(a, c)
                and not cong.related(a, int(mul[a, e])))
    if check_id == "PRO3C":
        cong = _cong_from_blocks(pair, cx["blocks"])
        cls = classify_congruence_elementwise(pair, cong)
        return cls.t_cancellative and not cls.proper and not cls.contains_1e
    if check_id == "CP":
        cong = _cong_from_blocks(pair, cx["blocks"])
        q = quotient_pair(pair, cong)
        return not classify_pair(q).proper
    if check_id == "ETYPE_SHALLOW":
        from .core import e_type as _et
        return _et(pair) not in ((cx["k"], cx["k"]), (cx["k"], 1))
    # congruence-membership style counterexamples from the remaining checks
    if "blocks" in (cx or {}):
        cong = _cong_from_blocks(pair, cx["blocks"])
        ok, _ = is_congruence(pair, cong)
        return ok
    return True
