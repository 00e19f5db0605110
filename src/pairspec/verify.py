"""Law harness: run each statement whose hypotheses hold and report a pass
or a concrete counterexample.

Check ids are stable strings (part of the CLI contract).  Hypotheses are
always evaluated first; a check on a pair that does not satisfy them reports
hypotheses_held=False rather than a failure.  Counterexamples carry element
labels.

The checks over lattice members are column tests: BF, ID1, TR1, PRS1, PRS2,
RD1, SP2 part ii, PRO3, PRO3C, CP, SHALLOW1K and CHAINS compare columns of
the root matrix ``lattice.roots``, its order ``leq``, the member columns of
``Analysis.columns`` and the A*e images of ``Analysis.images``, and GEN, EMUL
and ESQ gather over the tables.  CONGB takes every distinct sum b1 + b2 at
once (``cong_bs``).  Each reports the first counterexample of the loop over
members and elements that it replaced, located with ``argmax``.  CHAINS
part iv gathers a witness product per triple of members, and scans only the
triples a witness does not clear (none, unless the flags are planted).  No
check builds a quotient pair or pushes one congruence at a time; the
reverifiers do.

The prime column is semiprime and irreducible by construction
(``spectrum.twist_columns``), so BF part ii tests the two implications that
construction rests on: no strongly prime member has two covers, and any two
distinct covers of a semiprime member have their twist product inside it.

``reverify_counterexample`` recomputes the violated instance from the raw
tables for EST, ESQ, EMUL, EFINAL_IDEM, KIND, ETYPE_SHALLOW, TWASS, GEN, ID1,
CP, PRO3, SHALLOW1K, CHAINS part iii and BF parts iii and iv, for CONGB with
the per-element ``cong_b``, and for RD1, PRS1 and PRO3C with each flag taken
by its definition on the reported congruence: radical and T-cancellative by
the kernels' violation scans over its matrix, proper as no related pair of
T x A0, and (1, e) as one related pair.  TR1, PRS2, RD2, SP2, HYPROP, BF
parts i, ii and v and CHAINS parts i, ii and iv have no recompute yet, so
no counterexample of theirs is confirmed.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from . import _kernels
from ._kernels import first_nonassoc, first_row, refinement_order
from .congruences import (
    Congruence,
    all_relation,
    are_congruences,
    cong_b,
    cong_bs,
    diagonal,
    enumerate_congruences,
    is_congruence,
    meets,
    relates_t_a0,
)
from .constructions import _block_label, doubled_names, quotient_pair, twist_table
from .core import Pair, e_type, is_distributively_central, is_proper
from .errors import CapExceeded, CarrierTooLarge, NoPropertyN, UnknownCheckId
from .spectrum import (
    MISSING,
    NOT_CONGRUENCE,
    Analysis,
    _maximal,
    _order_iso,
    sqrt_phi,
    twist,
    twist_subset,
)


# each check: Analysis -> (hypotheses_held, passed|None, counterexample|None, notes)

def _check_est(ctx):
    pair = ctx.pair
    if pair.property_n is None:
        return False, None, None, "needs a Property-N witness"
    w = pair.property_n
    ds = np.array(sorted(w.all_daggers))
    hit = first_row(ds, 1, lambda d: pair.mul[w.e, d] != w.e)
    if hit:
        d = ds[hit[0]]
        return True, False, {"dagger": pair.names[d], "e": pair.names[w.e],
                             "e_times_dagger": pair.names[pair.mul[w.e, d]]}, ""
    return True, True, None, f"checked {len(ds)} dagger(s)"


def _check_esq(ctx):
    pair = ctx.pair
    if not ctx.cls["e_distributive"]:
        return False, None, None, "needs an e-distributive pair"
    e = pair.property_n.e
    esq = int(pair.mul[e, e])
    twoe = int(pair.add[e, e])
    if esq != twoe:
        return True, False, {"e_squared": pair.names[esq], "e_plus_e": pair.names[twoe]}, ""
    add, mul = pair.add, pair.mul
    zs = np.flatnonzero(pair.a0_mask)
    hit = first_row(zs, len(zs), lambda b1: (
        mul[e, add[b1[:, None], zs]] != add[mul[e, b1][:, None], mul[e, zs]]))
    if hit:
        b1, b2 = zs[list(hit)]
        return True, False, {
            "b1": pair.names[b1], "b2": pair.names[b2],
            "e(b1+b2)": pair.names[mul[e, add[b1, b2]]],
            "eb1+eb2": pair.names[add[mul[e, b1], mul[e, b2]]],
        }, ""
    return True, True, None, ""


def _check_emul(ctx):
    pair = ctx.pair
    if not (ctx.cls["e_central"] and ctx.cls["e_idempotent"]):
        return False, None, None, "needs an e-central, e-idempotent pair"
    add, mul = pair.add, pair.mul
    e = pair.property_n.e
    proj = mul[:, e]
    image = np.unique(proj)
    # x -> xe fails to respect + or * at (x, y), over y
    hit = first_row(np.arange(pair.n), pair.n, lambda x: (
        (proj[add[x]] != add[proj[x, None], proj]) | (proj[mul[x]] != mul[proj[x, None], proj])))
    if hit:
        x, y = hit
        kind = "not_additive" if proj[add[x, y]] != add[proj[x], proj[y]] else "not_multiplicative"
        return True, False, {"kind": kind, "x": pair.names[x], "y": pair.names[y]}, ""
    not_idem = add[image, image] != image
    bad = not_idem | (mul[image, e] != image) | (mul[e, image] != image)
    if bad.any():
        k = int(bad.argmax())
        kind = "image_not_idempotent" if not_idem[k] else "e_not_unit"
        return True, False, {"kind": kind, "x": pair.names[image[k]]}, ""
    return True, True, None, f"projection onto {len(image)} elements"


def _check_efinal_idem(ctx):
    pair = ctx.pair
    if not ctx.cls["e_final"]:
        return False, None, None, "needs an e-final pair"
    e = pair.property_n.e
    if int(pair.add[e, e]) != e:
        return True, False, {"e": pair.names[e], "e_plus_e": pair.names[int(pair.add[e, e])]}, ""
    return True, True, None, ""


def _check_kind(ctx):
    pair = ctx.pair
    two = int(pair.add[pair.one, pair.one])
    two_in = two in pair.a_zero
    if two_in and ctx.cls["kind"] != "first":
        a = pair.t_sorted[first_row(pair.t_sorted, 1, lambda a: ~pair.a0_mask[pair.add[a, a]])[0]]
        return True, False, {"two": pair.names[two], "tangible": pair.names[a],
                             "a_plus_a": pair.names[int(pair.add[a, a])]}, ""
    notes = f"two={pair.names[two]}, in A0: {two_in}"
    if ctx.cls["cancellative"]:
        if (ctx.cls["kind"] == "second") != (not two_in):
            return True, False, {"kind": ctx.cls["kind"], "two_in_a0": two_in}, ""
        notes += "; cancellative equivalence checked"
    return True, True, None, notes


def _check_etype_shallow(ctx):
    pair = ctx.pair
    if not (ctx.cls["e_distributive"] and ctx.cls["shallow"]):
        return False, None, None, "needs an e-distributive shallow pair"
    hit = np.flatnonzero(pair.a0_mask[pair.add[pair.one, pair.e_multiples]])
    if not len(hit):
        return False, None, None, "no k with 1 + k*e in A0"
    k_min = int(hit[0]) + 1
    et = ctx.cls["e_type"]
    if et in ([k_min, k_min], [k_min, 1]):
        return True, True, None, f"k={k_min}, e-type {tuple(et)}"
    return True, False, {"k": k_min, "e_type": et}, ""


def _check_twass(ctx):
    pair = ctx.pair
    if not pair.structure.is_semiring():
        return False, None, None, "needs a semiring pair"
    i, j, k = first_nonassoc(twist_table(pair.structure))
    if i < 0:
        return True, True, None, f"all {pair.n * pair.n}^3 triples associate"
    names = doubled_names(pair.names)
    return True, False, {"triple": [names[i], names[j], names[k]]}, ""


def _check_gen(ctx):
    pair = ctx.pair
    if not pair.structure.distributive:
        return False, None, None, "needs a distributive pair"
    add, mul, n = pair.add, pair.mul, pair.n
    z = np.arange(n)

    def bad(b):     # (b1, b2)(z, z) against ((b1+b2)z, (b1+b2)z), b = b1 * n + b2
        b1, b2 = (x[:, None] for x in np.divmod(b, n))
        want = mul[add[b1, b2], z]
        p, q = _kernels.twist(add, mul, b1, b2, z, z)
        return (p != want) | (q != want)

    hit = first_row(np.arange(n * n), n, bad)
    if hit:
        (b1, b2), z = divmod(hit[0], n), hit[1]
        want = int(mul[add[b1, b2], z])
        labels = pair.structure.labels
        return True, False, {
            "b": labels((b1, b2)), "z": pair.names[z],
            "product": labels(twist(pair, (b1, b2), (z, z))), "expected": pair.names[want],
        }, ""
    return True, True, None, ""


def _check_id1(ctx):
    pair = ctx.pair
    if pair.property_n is None:
        return False, None, None, "needs a Property-N witness"
    lat, n = ctx.lattice, pair.n
    one_e = np.flatnonzero(ctx.columns["contains_1e"])
    zs = np.flatnonzero(pair.a0_mask)
    twice = pair.add.diagonal()
    # over the elements x: x's block misses A0, then x + x lies outside it.
    # Both hold for the whole block, so the first x to fail is the least
    # member of the first failing block of A/cong
    hit = first_row(lat.roots[one_e], n * (len(zs) + 2), lambda r: np.hstack([
        ~(r[:, :, None] == r[:, None, zs]).any(axis=2), r[:, twice] != r]))
    if hit:
        row, cell = hit
        i, x = one_e[row], cell % n
        return True, False, {"kind": ("not_degenerate", "not_idempotent")[cell // n],
                             "blocks": lat[i].block_labels(),
                             "element": _block_label(pair.names, np.flatnonzero(lat.roots[i] == x))}, ""
    return True, True, None, f"{len(one_e)} (1,e)-congruence(s) checked"


def _check_tr1(ctx):
    pair = ctx.pair
    if pair.property_n is None:
        return False, None, None, "needs a Property-N witness"
    q, q_proj = ctx.quotient_e
    q_lat = q.lattice
    # x and y are related in the pullback of psi iff psi relates their images
    labels = q_lat.roots[:, q_proj]
    pulled = np.concatenate([meets(labels[s], labels[s])
                             for s in _kernels.row_blocks(len(labels), pair.n)])
    ok = are_congruences(pair, pulled)
    if not ok.all():
        k = int(ok.argmin())
        return True, False, {"kind": "pullback_not_congruence",
                             "quotient_blocks": q_lat[k].block_labels(),
                             "witness": is_congruence(pair, pulled[k].tolist())[1]}, ""
    if len(np.unique(pulled, axis=0)) != len(q_lat):
        return True, False, {"kind": "pullback_not_injective"}, ""
    bad = np.argwhere(q_lat.leq != refinement_order(pulled))
    if len(bad):                    # the first pair (i, j) in row-major order
        i, j = bad[0]
        return True, False, {"kind": "pullback_not_order_embedding",
                             "i": q_lat[i].block_labels(), "j": q_lat[j].block_labels()}, ""
    notes = f"injected {len(q_lat)} congruences"

    if ctx.cls["e_central"]:
        img, lat = ctx.images("ae"), ctx.lattice
        ae_lat = ctx.ae[0].lattice
        for marker, kind in ((NOT_CONGRUENCE, "e_image_not_congruence"),
                             (MISSING, "e_image_missing")):
            bad = np.flatnonzero(img == marker)
            if len(bad):
                return True, False, {"kind": kind, "blocks": lat[bad[0]].block_labels()}, ""
        bad = np.argwhere(lat.leq & ~ae_lat.leq[np.ix_(img, img)])
        if len(bad):
            return True, False, {"kind": "e_image_not_monotone",
                                 "i": lat[bad[0][0]].block_labels()}, ""
        notes += "; e-image map is monotone"
        if ctx.cls["e_final"]:
            src = np.flatnonzero(ctx.columns["contains_1e"])
            onto, iso = _order_iso(lat.leq, src, ae_lat.leq, img[src], np.arange(len(ae_lat)))
            if not onto:
                return True, False, {"kind": "e_image_not_bijection",
                                     "one_e_count": len(src), "ae_count": len(ae_lat)}, ""
            if not iso:
                return True, False, {"kind": "e_image_not_order_iso"}, ""
            notes += f"; (1,e)-congruences biject onto {len(ae_lat)} congruences of A*e"
    return True, True, None, notes


def _check_congb(ctx):
    pair = ctx.pair
    if ctx.cls["e_type"] is None:
        return False, None, None, "needs a pair with an e-type"
    # cong_b(b) depends on b only through s = b1 + b2, so each distinct sum
    # is taken once, and the first failing b of the loop over b in
    # row-major order is found with argmax
    n = pair.n
    sums, at = np.unique(pair.add.ravel(), return_inverse=True)
    rel, ok = cong_bs(pair, sums)
    held = (np.ones(len(sums), dtype=bool) if pair.structure.is_semiring()
            else np.array([is_distributively_central(pair, s) for s in sums], dtype=bool))[at]
    b1, b2 = np.divmod(np.arange(n * n), n)
    contains_b = rel[at, b1, b2]
    bad = held & ~(ok[at] & contains_b)
    if bad.any():
        k = int(bad.argmax())
        return True, False, {"b": pair.structure.labels((b1[k], b2[k])),
                             "is_congruence": bool(ok[at[k]]), "contains_b": bool(contains_b[k])}, ""
    return True, True, None, f"{int(held.sum())} elements checked"


def _check_bf(ctx):
    pair = ctx.pair
    lat = ctx.lattice
    # (i): + is commutative, so in a congruence x ~ y gives ax + by ~ ay + by
    # ~ ay + bx.  Only a row that is no congruence can fail, so the twist
    # scan runs on those rows alone.
    full = all_relation(pair)
    for i in np.flatnonzero(~are_congruences(pair, lat.roots)):
        if not twist_subset(pair, full, lat[i], lat[i].matrix):
            return True, False, {"part": "i", "blocks": lat[i].block_labels()}, ""
    # (ii): prime is semiprime and irreducible.  The prime column is that by
    # construction, through two implications ``twist_columns`` relies on, so
    # test them: no strongly prime member has two covers, and any two
    # distinct covers of a semiprime member have their twist product inside it
    strong, semi = ctx.columns["strongly_prime"], ctx.columns["semiprime"]
    two = np.fromiter(map(len, lat.covers), dtype=np.intp, count=len(lat)) >= 2
    for i in np.flatnonzero(two & (strong | semi)):
        cov = lat.covers[i]
        if strong[i] or not all(twist_subset(pair, lat[a], lat[b], lat[i].matrix)
                                for a in cov for b in cov if a != b):
            return True, False, {"part": "ii", "blocks": lat[i].block_labels(),
                                 "prime": bool(ctx.columns["prime"][i]), "semiprime": bool(semi[i]),
                                 "irreducible": bool(ctx.columns["irreducible"][i])}, ""
    # (iii)/(iv): meets are symmetric, so the first (i, j) in row-major order
    # whose meet lacks the flag has j >= i
    sizes = []
    for part, flag in (("iii", "semiprime"), ("iv", "radical")):
        has = ctx.columns[flag]
        idx = np.flatnonzero(has)
        sizes.append(len(idx))
        flagged = lat.roots[idx]
        hit = first_row(np.arange(len(idx)), len(idx) * pair.n, lambda ks: (
            ~has[lat.find_rows(meets(flagged[ks, None], flagged[None]).reshape(-1, pair.n))]
            .reshape(len(ks), -1) & (ks[:, None] <= np.arange(len(idx)))))
        if hit:
            return True, False, {"part": part, "i": lat[idx[hit[0]]].block_labels(),
                                 "j": lat[idx[hit[1]]].block_labels()}, ""
    # (v)/(vi): in a finite lattice a chain's union/intersection is its top/
    # bottom; check over all comparable pairs i <= j, a few rows of leq at a
    # time, that the meet is i.  For partitions the meet of i and j is i
    # exactly when their join is j, so a mismatch is also one of the join,
    # which was tested first.
    roots, m = lat.roots, len(lat)
    for s in _kernels.row_blocks(m, m * pair.n):
        i, j = np.nonzero(lat.leq[s])
        if (meets(roots[i + s.start], roots[j]) != roots[i + s.start]).any():
            return True, False, {"part": "v", "join_mismatch": True}, ""
    return True, True, None, f"lattice of {m}; semiprime={sizes[0]}, radical={sizes[1]}"


def _check_prs1(ctx):
    pair = ctx.pair
    lat = ctx.lattice
    add, mul, n, one = pair.add, pair.mul, pair.n, pair.one
    rad = ctx.having("radical")
    b = np.arange(n)
    b1, b2 = np.divmod(np.arange(n * n), n)
    p, q = _kernels.twist(add, mul, b1, b2, b2, b1)
    s1, s2 = add[one, mul[b, b]], add[b, b]

    def bad(r):     # part i over the n^2 pairs (b1, b2), then part ii over the elements b
        part_i = (r[:, p] == r[:, q]) & (r[:, b1] != r[:, b2])
        return np.hstack([part_i, (r[:, [one]] == r) != (r[:, s1] == r[:, s2])])

    hit = first_row(lat.roots[rad], n * n + n, bad)
    if hit:
        row, cell = hit
        blocks = lat[rad[row]].block_labels()
        if cell < n * n:
            return True, False, {"part": "i", "blocks": blocks,
                                 "b": pair.structure.labels(divmod(cell, n))}, ""
        return True, False, {"part": "ii", "blocks": blocks, "b": pair.names[cell - n * n]}, ""
    return True, True, None, f"{len(rad)} radical congruence(s)"


def _check_prs2(ctx):
    pair = ctx.pair
    if not ctx.cls["e_distributive"]:
        return False, None, None, "needs an e-distributive pair"
    e = pair.property_n.e
    notes = []
    # the radical flag of the diagonal alone, which reads no lattice
    if _kernels.radical_violation(pair.add, pair.mul, np.eye(pair.n, dtype=bool))[0] < 0:
        roots, two_e = ctx.lattice.roots, pair.add[e, e]
        probe = roots[:, pair.add[pair.one, two_e]] == roots[:, two_e]
        bad = np.flatnonzero(ctx.columns["contains_1e"] != probe)
        if len(bad):
            return True, False, {"part": "i", "blocks": ctx.lattice[bad[0]].block_labels()}, ""
        notes.append("reduced: part (i) checked")
    else:
        notes.append("pair not reduced: part (i) vacuous")
    if ctx.cls["positive_e_type"] is not None:
        root, depth = sqrt_phi(pair, diagonal(pair))
        if not (root[pair.one, e] and root[e, pair.one]):
            return True, False, {"part": "iii", "sqrt_depth": depth}, ""
        notes.append(f"(1,e),(e,1) in sqrt(diag) at depth {depth}")
        # empirical twist-squares of (1+k'e, k'e); the printed closed form
        # is treated as data, not as an assertion
        ke = pair.e_multiples
        ones = pair.add[pair.one, ke]        # 1 + k*e at index k - 1
        ks = []
        for k in range(min(pair.n, 4)):
            p, q = twist(pair, (ones[k], ke[k]), (ones[k], ke[k]))
            hit = np.flatnonzero((ones == p) & (ke == q))
            ks.append((k + 1, int(hit[0]) + 1 if len(hit) else None))
        notes.append(f"square exponents {ks}")
    else:
        notes.append("no positive e-type: part (iii) vacuous")
    return True, True, None, "; ".join(notes)


def _check_rd1(ctx):
    v, bad = ctx.rd1
    if not v["applicable"]:
        return False, None, None, "needs positive e-type"
    if bad:
        return True, False, {"blocks": ctx.lattice[bad[0]].block_labels()}, ""
    return True, True, None, f"{ctx.columns['radical'].sum()} radical congruence(s) contain (1,e)"


def _check_rd2(ctx):
    v, vw = ctx.rd2
    if not v["applicable"]:
        return False, None, None, v["detail"]
    notes = f"strongly prime: {v['detail']}; weak primes: holds={vw['holds']} ({vw['detail']})"
    if not v["holds"]:
        return True, False, {"detail": v["detail"]}, notes
    return True, True, None, notes


def _check_sp2(ctx):
    v, vw = ctx.sp2i
    if not v["applicable"]:
        return False, None, None, v["detail"]
    notes = f"strongly prime: {v['detail']}; weak primes: holds={vw['holds']}"
    if not v["holds"]:
        return True, False, {"part": "i", "detail": v["detail"]}, notes
    maximal_wo = np.array(_maximal(ctx.lattice, np.flatnonzero(ctx.columns["e_type"] == 0)),
                          dtype=np.intp)
    bad = maximal_wo[~ctx.columns["prime"][maximal_wo]]
    if len(bad):
        return True, False, {"part": "ii", "blocks": ctx.lattice[bad[0]].block_labels()}, notes
    notes += f"; {len(maximal_wo)} maximal congruence(s) without positive e-type are prime"
    return True, True, None, notes


def _check_pro3(ctx):
    pair = ctx.pair
    if not ctx.cls["e_central"]:
        return False, None, None, "needs an e-central pair"
    lat = ctx.lattice
    e = pair.property_n.e
    ae = pair.mul[:, e]
    cs = np.unique(ae)
    rows = np.flatnonzero(lat.roots[:, e] == lat.roots[:, pair.mul[e, e]])
    # a related to some c in A*e but not to ae, over [a, c]
    hit = first_row(lat.roots[rows], pair.n * len(cs),
                     lambda r: (r[:, :, None] == r[:, None, cs]) & (r != r[:, ae])[:, :, None])
    if hit:
        row, cell = hit
        a, c = divmod(cell, len(cs))
        return True, False, {"blocks": lat[rows[row]].block_labels(),
                             "a": pair.names[a], "c": pair.names[cs[c]]}, ""
    return True, True, None, ""


def _check_pro3c(ctx):
    if not (ctx.cls["e_central"] and ctx.cls["e_idempotent"]):
        return False, None, None, "needs an e-central, e-idempotent pair"
    cols = ctx.columns
    bad = np.flatnonzero(cols["t_cancellative"] & ~cols["proper"] & ~cols["contains_1e"])
    if len(bad):
        return True, False, {"blocks": ctx.lattice[bad[0]].block_labels()}, ""
    return True, True, None, ""


def _check_cp(ctx):
    pair = ctx.pair
    if not ctx.cls["proper"]:
        return False, None, None, "needs a proper pair"
    lat = ctx.lattice
    proper = ctx.having("proper")
    ts, zs = pair.t_sorted, np.flatnonzero(pair.a0_mask)
    # A/cong is proper unless the block of some t in T meets A0 away from 0
    hit = first_row(lat.roots[proper], len(ts) * len(zs), lambda r: (
        (r[:, ts, None] == r[:, None, zs]) & (r[:, ts] != r[:, [pair.zero]])[:, :, None]))
    if hit:
        return True, False, {"blocks": lat[proper[hit[0]]].block_labels()}, ""
    return True, True, None, ""


def _check_shallow1k(ctx):
    pair = ctx.pair
    if not (ctx.cls["shallow"] and ctx.cls["kind"] == "first" and pair.structure.is_semiring()):
        return False, None, None, "needs a shallow semiring pair of the first kind"
    lat = ctx.lattice
    proper = ctx.having("proper")
    ts = pair.t_sorted
    outside = ~pair.a0_mask[pair.add[np.ix_(ts, ts)]]      # a1 + a2 not in A0
    hit = first_row(lat.roots[proper], len(ts) ** 2,
                     lambda r: (r[:, ts, None] == r[:, None, ts]) & outside)
    if hit:
        row, cell = hit
        a1, a2 = ts[list(divmod(cell, len(ts)))]
        return True, False, {"blocks": lat[proper[row]].block_labels(),
                             "a1": pair.names[a1], "a2": pair.names[a2],
                             "sum": pair.names[pair.add[a1, a2]]}, ""
    return True, True, None, ""


def _check_chains(ctx):
    pair = ctx.pair
    lat = ctx.lattice
    proper_idx = ctx.having("proper")
    # the improper members of meet(i, j) are the common improper members of
    # i and j, so a row of related pairs in T x A0 per member decides part i
    related = relates_t_a0(pair, lat.roots)
    bad = related[proper_idx].any(axis=1)
    if bad.any():
        i = proper_idx[int(bad.argmax())]
        j = int((related & related[i]).any(axis=1).argmax())
        return True, False, {"part": "i", "proper": lat[i].block_labels(),
                             "other": lat[j].block_labels()}, ""
    maximal_proper = _maximal(lat, proper_idx)
    below = lat.leq[np.ix_(proper_idx, maximal_proper)].any(axis=1)
    if not below.all():
        return True, False, {"part": "ii",
                             "blocks": lat[proper_idx[int(below.argmin())]].block_labels()}, ""
    notes = [f"{len(proper_idx)} proper, {len(maximal_proper)} maximal proper"]
    if not pair.structure.is_semiring():
        notes += [f"part {part} needs a semiring pair: skipped" for part in ("iii", "iv")]
        return True, True, None, "; ".join(notes)

    # the top relates everything, so every very improper pair shows there;
    # twist products of two of them must be very improper again
    add, mul, n = pair.add, pair.mul, pair.n
    vt, vz = pair.very_improper
    code = np.ravel_multi_index((vt, vz), (n, n))
    hit = first_row(np.arange(len(vt)), len(vt), lambda x: ~np.isin(np.ravel_multi_index(
        _kernels.twist(add, mul, vt[x, None], vz[x, None], vt, vz), (n, n)), code))
    if hit:
        x, y = (vt[hit[0]], vz[hit[0]]), (vt[hit[1]], vz[hit[1]])
        labels = pair.structure.labels
        return True, False, {"part": "iii", "x": labels(x), "y": labels(y),
                             "product": labels(twist(pair, x, y))}, ""
    notes.append(f"part iii over {len(vt)} very improper pair(s)")

    # iv: no j.k, for j, k relating a very improper pair, lies inside a
    # maximal weakly proper i.  If j.k lies inside i, so does w_j.w_k, the
    # product of the first very improper pairs j and k relate.  By part iii
    # w_j.w_k is very improper and i relates none, so the witnesses clear
    # every triple; the exact scan runs on those left, in row-major order.
    # A row relating none (planted flags) takes the witness (0, 0), whose
    # products are diagonal, so it clears nothing.
    max_weakly = np.asarray(_maximal(lat, ctx.having("weakly_proper")), dtype=np.intp)
    has_very = np.flatnonzero(~ctx.columns["weakly_proper"])
    very = lat.roots[has_very]
    first = np.c_[very[:, vt] == very[:, vz], np.ones(len(very), dtype=bool)].argmax(axis=1)
    u, w = np.unique(first, return_inverse=True)
    wt, wz = np.r_[vt, pair.zero][u], np.r_[vz, pair.zero][u]
    p, q = _kernels.twist(add, mul, wt[:, None], wz[:, None], wt, wz)

    def uncleared():
        for s in _kernels.row_blocks(len(max_weakly), len(has_very) ** 2):
            r = lat.roots[max_weakly[s]]
            for i, j, k in np.argwhere((r[:, p] == r[:, q])[:, w[:, None], w]):
                yield max_weakly[s][i], has_very[j], has_very[k]
    hit = next((t for t in uncleared()
                if twist_subset(pair, lat[t[1]], lat[t[2]], lat[t[0]].matrix)), None)
    if hit:
        return True, False, {"part": "iv", "blocks": lat[hit[0]].block_labels(),
                             "factors": (lat[hit[1]].block_labels(),
                                         lat[hit[2]].block_labels())}, ""
    notes.append(f"{len(max_weakly)} maximal weakly proper checked")
    return True, True, None, "; ".join(notes)


def _check_hyprop(ctx):
    hyper = ctx.pair.hyper
    if hyper is None:
        return False, None, None, "needs a pair built from a hyperstructure"
    e_set = hyper.e_set
    if e_set is None:
        return False, None, None, "hyperstructure has no hypernegation"
    nonzero = np.flatnonzero(np.arange(hyper.n) != hyper.zero)
    # the tangibles are the nonzero elements, and each has a right inverse
    group_like = hyper.tangible == frozenset(nonzero.tolist()) and first_row(
        nonzero, len(nonzero), lambda a: ~(hyper.mul[a[:, None], nonzero] == hyper.one).any(axis=1)
    ) is None
    if group_like and e_set == frozenset(range(hyper.n)) - {hyper.one} and hyper.n > 2:
        if ctx.cls["e_type"] != [2, 2]:
            return True, False, {"case": "group_complement", "e_type": ctx.cls["e_type"]}, ""
        return True, True, None, "group hyperfield with e the complement of one: e-type 2"
    neg = hyper.hypernegation
    if neg is not None and neg[hyper.one] != hyper.one and e_set == frozenset(
        {hyper.zero, hyper.one, neg[hyper.one]}
    ):
        if not (ctx.cls["e_idempotent"] and ctx.cls["e_final"]):
            return True, False, {"case": "zero_one_minus_one",
                                 "e_idempotent": ctx.cls["e_idempotent"],
                                 "e_final": ctx.cls["e_final"]}, ""
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


def run_check(pair: Pair, check_id: str, analysis: Optional[Analysis] = None) -> dict:
    """Run one named check; hypotheses are tested first.  Checks that share
    an ``analysis`` of the pair share its lattices; without one, a fresh
    uncapped analysis is made."""
    if check_id not in CHECKS:
        raise UnknownCheckId(f"unknown check id {check_id!r}; have {sorted(CHECKS)}")
    if analysis is None:
        analysis = Analysis(pair, None)
    t0 = time.perf_counter()
    held, passed, cx, notes = CHECKS[check_id](analysis)
    return {"check_id": check_id, "hypotheses_held": held, "passed": passed if held else None,
            "counterexample": cx, "runtime": round(time.perf_counter() - t0, 6), "notes": notes}


def run_all(pair: Pair, cap: Optional[int] = None) -> list[dict]:
    """Every check in id order; CapExceeded and CarrierTooLarge are recorded
    per check."""
    analysis = Analysis(pair, cap)
    out = []
    for cid in sorted(CHECKS):
        try:
            out.append(run_check(pair, cid, analysis=analysis))
        except (CapExceeded, CarrierTooLarge) as exc:
            out.append({"check_id": cid, "hypotheses_held": True, "passed": None,
                        "counterexample": None, "runtime": 0.0, "notes": f"cap exceeded: {exc}"})
    return out


def summarize(reports: list[dict]) -> dict:
    verdicts = [r["passed"] for r in reports]
    return {"passed": verdicts.count(True), "failed": verdicts.count(False),
            "skipped": verdicts.count(None)}


# ---------------------------------------------------------------------------
# independent re-verification of counterexamples
# ---------------------------------------------------------------------------

def _cong_from_blocks(pair: Pair, block_labels) -> Optional[Congruence]:
    """The congruence named by lists of labels, or None unless they are
    nonempty blocks that partition the carrier and form a congruence."""
    labels = [x for blk in block_labels for x in blk]
    if sorted(labels) != sorted(pair.names) or not all(block_labels):
        return None
    block = {x: b for b, blk in enumerate(block_labels) for x in blk}
    cong = Congruence.from_labels(pair, [block[x] for x in pair.names])
    return cong if is_congruence(pair, cong)[0] else None


def _meet_loses_flag(pair: Pair, part: str, i: Optional[Congruence],
                     j: Optional[Congruence]) -> bool:
    """BF part iii (semiprime) or iv (radical): whether the congruences i and
    j have the flag and their meet lacks it, each tested by definition.  A
    radical theta has no pair outside it whose twist square lies inside it;
    a semiprime theta no congruence psi strictly above it with psi.psi
    inside it."""
    if i is None or j is None:
        return False
    meet = Congruence(pair=pair, roots=tuple(meets(i.roots, j.roots).tolist()))
    if part == "iv":
        def has(theta):
            return _kernels.radical_violation(pair.add, pair.mul, theta.matrix)[0] < 0
    else:
        roots = enumerate_congruences(pair).roots

        def has(theta):
            r = np.asarray(theta.roots)
            above = roots[(roots[:, r] == roots).all(axis=1) & (roots != r).any(axis=1)]
            return not any(twist_subset(pair, psi, psi, theta.matrix)
                           for psi in (Congruence(pair=pair, roots=tuple(x)) for x in above.tolist()))
    return has(i) and has(j) and not has(meet)


def reverify_counterexample(pair: Pair, check_id: str, cx: dict) -> bool:
    """Recompute the violated instance directly from the tables (for the
    ids the module docstring lists; any other counterexample is refused).

    Returns True when the counterexample indeed violates the named law, and
    False for an id that names no check, blocks that are no congruence, an
    e the pair has no witness for, an unknown label, a field that is
    missing, too short or wrong (a PRS1 ``part`` other than "i" or "ii", or
    an ETYPE_SHALLOW ``k`` that is not the least k, among them), or nothing
    to recompute.
    """
    if check_id not in CHECKS:
        return False
    cx = cx or {}
    try:      # an unknown label, a missing or short field, a wrong type, or no e raises
        # these ids recompute on the reported blocks, which must form a congruence
        if check_id in ("SHALLOW1K", "RD1", "PRS1", "ID1", "PRO3", "PRO3C", "CP"):
            cong = _cong_from_blocks(pair, cx["blocks"])
            if cong is None:
                return False
        ix = pair.structure.index
        add, mul = pair.add, pair.mul
        if check_id == "EST":
            return int(mul[ix[cx["e"]], ix[cx["dagger"]]]) != ix[cx["e"]]
        if check_id == "ESQ":
            e = pair.require_property_n().e
            if "e_squared" in cx:
                return int(mul[e, e]) != int(add[e, e])
            b1, b2 = ix[cx["b1"]], ix[cx["b2"]]
            return int(mul[e, add[b1, b2]]) != int(add[mul[e, b1], mul[e, b2]])
        if check_id == "EFINAL_IDEM":
            e = ix[cx["e"]]
            return int(add[e, e]) != e
        if check_id == "KIND":
            if "tangible" in cx:
                a = ix[cx["tangible"]]
                return int(add[a, a]) not in pair.a_zero and ix[cx["two"]] in pair.a_zero
            a0, n = pair.a_zero, pair.n
            second = any(int(add[a, a]) not in a0 for a in pair.tangible)
            cancellative = all(
                len({int(mul[a, x]) for x in range(n)}) == n
                and all(int(mul[a, x]) not in a0 for x in range(n) if x not in a0)
                for a in pair.tangible
            )
            two_in = int(add[pair.one, pair.one]) in a0
            return (cancellative and second != (not two_in)
                    and cx["kind"] == ("second" if second else "first") and cx["two_in_a0"] == two_in)
        if check_id == "TWASS":
            # label (a,b) is a * n + b of the double; the twist product on the
            # base tables, with no doubled table built
            at = {x: divmod(k, pair.n) for k, x in enumerate(doubled_names(pair.names))}
            i, j, k = (at[x] for x in cx["triple"])
            return twist(pair, twist(pair, i, j), k) != twist(pair, i, twist(pair, j, k))
        if check_id == "GEN":
            b1, b2 = (ix[x] for x in cx["b"])
            z = ix[cx["z"]]
            got = twist(pair, (b1, b2), (z, z))
            want = int(mul[add[b1, b2], z])
            return got != (want, want)
        if check_id == "SHALLOW1K":
            a1, a2 = ix[cx["a1"]], ix[cx["a2"]]
            return cong.related(a1, a2) and int(add[a1, a2]) not in pair.a_zero
        if check_id == "CHAINS" and cx.get("part") == "iii":
            x, y = (tuple(ix[v] for v in cx[k]) for k in ("x", "y"))
            return twist(pair, x, y) not in zip(*pair.very_improper)
        if check_id == "BF" and cx["part"] in ("iii", "iv"):
            return _meet_loses_flag(pair, cx["part"], *(_cong_from_blocks(pair, cx[k])
                                                         for k in ("i", "j")))
        if check_id == "RD1":
            return (_kernels.radical_violation(add, mul, cong.matrix)[0] < 0
                    and not cong.related(pair.one, pair.require_property_n().e))
        if check_id == "PRS1":
            if _kernels.radical_violation(add, mul, cong.matrix)[0] >= 0:
                return False
            if cx["part"] == "i":
                b1, b2 = (ix[x] for x in cx["b"])
                return cong.related(*twist(pair, (b1, b2), (b2, b1))) and not cong.related(b1, b2)
            if cx["part"] != "ii":
                return False
            b = ix[cx["b"]]
            sq = (int(add[pair.one, mul[b, b]]), int(add[b, b]))
            return cong.related(pair.one, b) != cong.related(*sq)
        if check_id == "ID1":
            q = quotient_pair(pair, cong)
            if cx["kind"] == "not_degenerate":
                return q.a_zero != set(range(q.n))
            return any(int(q.add[x, x]) != x for x in range(q.n))
        if check_id == "PRO3":
            a, c = ix[cx["a"]], ix[cx["c"]]
            e = pair.require_property_n().e
            return (cong.related(e, int(mul[e, e])) and cong.related(a, c)
                    and not cong.related(a, int(mul[a, e])))
        if check_id == "PRO3C":
            return (_kernels.t_cancel_violation(mul, cong.matrix, pair.t_sorted)[0] < 0
                    and any(cong.related(t, z) for t in pair.tangible for z in pair.a_zero)
                    and not cong.related(pair.one, pair.require_property_n().e))
        if check_id == "CP":
            return not is_proper(quotient_pair(pair, cong))
        if check_id == "ETYPE_SHALLOW":
            ke = [pair.require_property_n().e]      # k*e at index k - 1, k = 1..n
            while len(ke) < pair.n:
                ke.append(int(add[ke[-1], ke[0]]))
            k = next((k for k, x in enumerate(ke, 1) if int(add[pair.one, x]) in pair.a_zero), None)
            et = e_type(pair)
            return (type(cx["k"]) is int and cx["k"] == k and et not in ((k, k), (k, 1))
                    and cx["e_type"] == (list(et) if et else None))
        if check_id == "EMUL":
            e, x, kind = pair.require_property_n().e, ix[cx["x"]], cx["kind"]
            if kind in ("not_additive", "not_multiplicative"):
                y = ix[cx["y"]]
                op = add if kind == "not_additive" else mul
                return int(mul[op[x, y], e]) != int(op[mul[x, e], mul[y, e]])
            fails = {"image_not_idempotent": int(add[x, x]) != x,
                     "e_not_unit": int(mul[x, e]) != x or int(mul[e, x]) != x}[kind]
            return bool((mul[:, e] == x).any()) and fails
        if check_id == "CONGB":
            b1, b2 = (ix[x] for x in cx["b"])
            rel, ok = cong_b(pair, (b1, b2))
            got = (ok, bool(rel[b1, b2]))
            held = pair.structure.is_semiring() or is_distributively_central(pair, add[b1, b2])
            return held and not all(got) and got == (cx["is_congruence"], cx["contains_b"])
        # TR1, PRS2, RD2, SP2, HYPROP, BF parts i, ii and v and CHAINS parts
        # i, ii and iv have no recompute yet, so they confirm nothing
        return False
    except (KeyError, ValueError, TypeError, NoPropertyN):
        return False
