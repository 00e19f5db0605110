"""The law harness: hypothesis gating, pass/fail reporting, re-verification."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import census
import oracle
from pairspec import _kernels, spectrum, verify
from pairspec._kernels import first_nonassoc
from pairspec.congruences import Congruence, CongruenceLattice, cong_b, cong_bs, is_congruence
from pairspec.constructions import double, minimal_bipotent, quotient_pair
from pairspec.core import (
    FiniteStructure,
    PropertyNWitness,
    classify_pair,
    positive_e_type,
    validate_pair,
    validate_structure,
)
from pairspec.errors import CarrierTooLarge, UnknownCheckId
from pairspec.monoids import trivial_monoid
from pairspec.spectrum import (
    MISSING,
    NOT_CONGRUENCE,
    Analysis,
    member_record,
    spectrum_report,
    twist,
    twist_subset,
)
from pairspec.verify import (
    CHECKS,
    reverify_counterexample,
    run_all,
    run_check,
    summarize,
)
from test_congruences import _random_pair

CHECK_IDS = (
    "BF", "CHAINS", "CONGB", "CP", "EFINAL_IDEM", "EMUL", "ESQ", "EST",
    "ETYPE_SHALLOW", "GEN", "HYPROP", "ID1", "KIND", "PRO3", "PRO3C",
    "PRS1", "PRS2", "RD1", "RD2", "SHALLOW1K", "SP2", "TR1", "TWASS",
)


def _classes(a):
    """Each member's record, read off the analysis's columns."""
    return tuple(member_record(c, a.columns, i) for i, c in enumerate(a.lattice))


def _plant(monkeypatch, a, **columns):
    """The analysis's member columns with the given ones replaced."""
    monkeypatch.setitem(a.__dict__, "columns", {**a.columns, **columns})


def _plant_classes(monkeypatch, a, fake):
    """The member records ``fake``, planted as the analysis's columns (an
    e-type of None as 0)."""
    _plant(monkeypatch, a, **{f: np.array([c[f] or 0 for c in fake], dtype=col.dtype)
                              for f, col in a.columns.items()})


def test_check_id_registry_is_stable():
    assert tuple(sorted(CHECKS)) == CHECK_IDS


def test_unknown_check_id(sb):
    with pytest.raises(UnknownCheckId):
        run_check(sb, "NOPE")


def test_est_passes_on_super_boolean(sb):
    r = run_check(sb, "EST")
    assert r["hypotheses_held"] and r["passed"] and r["counterexample"] is None


def test_rd1_passes_on_super_boolean(sb):
    r = run_check(sb, "RD1")
    assert r["passed"]


def test_est_hypotheses_fail_without_witness():
    p = minimal_bipotent(trivial_monoid(), "second")
    r = run_check(p, "EST")
    assert not r["hypotheses_held"]
    assert r["passed"] is None


def test_twass_skipped_on_nondistributive(pairs):
    r = run_check(pairs["supertropical_c2"], "TWASS")
    assert not r["hypotheses_held"]


def test_twass_passes_on_semirings(pairs):
    for name in ("super_boolean", "minbp_c2_first", "field_f5", "function_sb_sat2"):
        r = run_check(pairs[name], "TWASS")
        assert r["passed"], name


def test_prs2_reports_depth(sb):
    r = run_check(sb, "PRS2")
    assert r["passed"]
    assert "depth" in r["notes"]
    assert "square exponents" in r["notes"]


def test_run_all_super_boolean_all_green(sb):
    reports = run_all(sb)
    s = summarize(reports)
    assert s["failed"] == 0
    assert s["passed"] >= 20
    assert [r["check_id"] for r in reports] == sorted(CHECKS)


def test_run_all_deterministic(sb):
    a = [(r["check_id"], r["hypotheses_held"], r["passed"]) for r in run_all(sb)]
    b = [(r["check_id"], r["hypotheses_held"], r["passed"]) for r in run_all(sb)]
    assert a == b


def test_known_finding_pro3c_on_signs_power(pairs):
    """The signs power-set pair refutes the stated corollary: a cancellative
    congruence with an improper element need not relate one and e, because
    A0 is strictly larger than the image A*e there."""
    p = pairs["power_signs"]
    r = run_check(p, "PRO3C")
    assert r["hypotheses_held"]
    assert r["passed"] is False
    assert reverify_counterexample(p, "PRO3C", r["counterexample"])


def test_catalog_findings_are_exactly_the_known_ones(pairs):
    known = {("power_signs", "PRO3C")}
    found = set()
    for name, p in pairs.items():
        for r in run_all(p):
            if r["passed"] is False:
                found.add((name, r["check_id"]))
    assert found == known


def test_shared_analysis_matches_fresh_runs(pairs):
    # run_all shares one analysis between the checks; no check may change
    # what a later one reads from it
    def key(r):
        return r["check_id"], r["hypotheses_held"], r["passed"], r["counterexample"], r["notes"]

    for name, p in pairs.items():
        shared = [key(r) for r in run_all(p)]
        fresh = [key(run_check(p, cid)) for cid in sorted(CHECKS)]
        assert shared == fresh, name


def test_every_failure_reverifies(pairs):
    for name, p in pairs.items():
        for r in run_all(p):
            if r["passed"] is False:
                assert reverify_counterexample(p, r["check_id"], r["counterexample"]), (
                    name, r["check_id"])


def test_reverify_rejects_fabricated_counterexample(sb):
    # a radical congruence that does contain (1, e) is not a counterexample
    fake = {"blocks": [["0"], ["1", "e"]]}
    assert not reverify_counterexample(sb, "RD1", fake)
    # {0, 1}, {e} is no congruence, so no law is recomputed on it
    assert not reverify_counterexample(
        sb, "PRS1", {"blocks": [["0", "1"], ["e"]], "part": "i", "b": ["1", "e"]})
    assert not reverify_counterexample(
        sb, "ID1", {"blocks": [["0", "1"], ["e"]], "kind": "not_degenerate"})
    assert not reverify_counterexample(sb, "CP", {"blocks": [["0", "1"], ["e"]]})
    # ETYPE_SHALLOW holds on super_boolean with k = 1 and e-type (1, 1)
    assert not reverify_counterexample(sb, "ETYPE_SHALLOW", {"k": 5, "e_type": None})
    assert not reverify_counterexample(sb, "ETYPE_SHALLOW", {"k": 1, "e_type": [1, 1]})
    # a pair without a Property-N witness has no e to recompute with
    p = next(q for q in census.pairs(2) if q.name == "s2.0.T01.A01")
    assert p.property_n is None
    for cid, cx in (("ESQ", {"b1": "0", "b2": "1"}),
                    ("EMUL", {"kind": "not_additive", "x": "0", "y": "1"}),
                    ("PRO3", {"blocks": [["0"], ["1"]], "a": "0", "c": "1"}),
                    ("ETYPE_SHALLOW", {"k": 1, "e_type": None})):
        assert not reverify_counterexample(p, cid, cx), cid


def _kind_pair(a_plus_a, a_times_a=1):
    """A bare pair on {0, 1, a}: a is the only tangible, A0 = {0},
    1 + 1 = 1 + a = 1, and a + a and a * a as given.  With a * a = 1,
    multiplication by a permutes the carrier and fixes A0, so the pair is
    cancellative.  1 + 1 is outside A0."""
    add = [[0, 1, 2], [1, 1, 1], [2, 1, a_plus_a]]
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, a_times_a]]
    st_ = validate_structure(["0", "1", "a"], 0, 1, add, mul)
    return oracle.bare_pair(st_, {2}, {0}, name="kind")


def test_kind_cancellative_counterexample_is_recomputed():
    # first kind (a + a = 0 in A0) although 1 + 1 is outside A0: a finding
    p = _kind_pair(a_plus_a=0)
    r = run_check(p, "KIND")
    assert r["passed"] is False and r["counterexample"] == {"kind": "first", "two_in_a0": False}
    assert reverify_counterexample(p, "KIND", r["counterexample"])
    # the same claim misreported, or made of a pair where the law holds
    assert not reverify_counterexample(p, "KIND", {"kind": "second", "two_in_a0": False})
    assert not reverify_counterexample(p, "KIND", {"kind": "first", "two_in_a0": True})
    q = _kind_pair(a_plus_a=2)
    assert run_check(q, "KIND")["passed"]
    assert not reverify_counterexample(q, "KIND", {"kind": "second", "two_in_a0": False})
    # not cancellative (a * a = a), so the equivalence is not claimed
    r = _kind_pair(a_plus_a=0, a_times_a=2)
    assert run_check(r, "KIND")["passed"]
    assert not reverify_counterexample(r, "KIND", {"kind": "first", "two_in_a0": False})


def _chains_part_i(analysis):
    cx = CHECKS["CHAINS"](analysis)[2]
    return cx if cx is not None and cx["part"] == "i" else None


def _called(column, rows, value=True):
    """A copy of a flag column with ``rows`` set to ``value``."""
    out = column.copy()
    out[list(rows)] = value
    return out


def test_chains_part_i_matches_meet_loop(pairs, monkeypatch):
    planted = 0
    for p in pairs.values():
        a = Analysis(p, None)
        lat = a.lattice
        proper = a.columns["proper"]
        improper = np.flatnonzero(~proper).tolist()
        for plant in ([], improper[:1], improper[-1:], improper[-2:]):
            # call the planted improper congruences proper
            _plant(monkeypatch, a, proper=_called(proper, plant))
            hit = oracle.chains_part_i_loop(p, [c.block_of for c in lat], a.having("proper"))
            want = None if hit is None else {
                "part": "i", "proper": lat[hit[0]].block_labels(),
                "other": lat[hit[1]].block_labels()}
            assert _chains_part_i(a) == want, (p.name, plant)
            planted += want is not None
    assert planted


def test_contains_1e_checks_match_old_loops(pairs, monkeypatch):
    """RD1 and PRO3C read the radical, T-cancellative, proper and
    contains_1e columns: planted failures give the first counterexample of
    the old loops over the classifications and ``related(1, e)``."""
    planted = {"RD1": 0, "PRO3C": 0}
    for p in pairs.values():
        if p.property_n is None:
            continue
        a = Analysis(p, None)
        lat, cls = a.lattice, _classes(a)
        # call some members without (1, e) radical, or T-cancellative and
        # improper
        without = [i for i, c in enumerate(lat) if not c.related(p.one, p.property_n.e)]
        for check, fields, flagged in (
                ("RD1", {"radical": True}, lambda c: c["radical"]),
                ("PRO3C", {"t_cancellative": True, "proper": False},
                 lambda c: c["t_cancellative"] and not c["proper"])):
            for chosen in ([], without[:1], without[-1:], without[1::2]):
                fake = tuple({**c, **fields} if i in chosen else c for i, c in enumerate(cls))
                _plant_classes(monkeypatch, a, fake)
                held, _, cx, _ = CHECKS[check](a)
                if held:
                    assert cx == oracle.without_1e_loop(p, lat, fake, flagged), (p.name, check)
                    planted[check] += cx is not None
                monkeypatch.undo()
    assert all(planted.values()), planted


def _with_witness(rng, p):
    """A random pair with a random e as its Property-N witness."""
    e = int(rng.integers(p.n))
    return replace(p, property_n=PropertyNWitness(p.one, e, frozenset({p.one})))


def test_id1_matches_quotient_loop(pairs):
    """ID1 reads the blocks off the root rows of the (1,e)-congruences: with
    A0 as built, cut to zero, or the whole carrier, on the catalog and on
    random tables with a random e, it reports the first counterexample of
    the loop over whole quotient pairs."""
    rng = np.random.default_rng(23)
    randoms = [_with_witness(rng, _random_pair(rng, n)) for n in range(2, 7) for _ in range(8)]
    planted = {"not_degenerate": 0, "not_idempotent": 0}
    for p in [*pairs.values(), *randoms]:
        if p.property_n is None:
            continue
        for a0 in (p.a_zero, {p.zero}, range(p.n)):
            fake = replace(p, a_zero=frozenset(a0))
            a = Analysis(fake, None)
            want = oracle.id1_loop(fake, a.lattice, quotient_pair)
            assert CHECKS["ID1"](a) == (True, *want), (p.name, sorted(a0))
            if want[1] is not None:
                planted[want[1]["kind"]] += 1
    assert all(planted.values()), planted


def test_cp_matches_quotient_loop(pairs, monkeypatch):
    """CP reads the blocks of T and A0 off the root rows: with improper
    members called proper, it reports the first member of the loop over
    whole quotient pairs."""
    from pairspec.core import is_proper
    planted = 0
    for p in pairs.values():
        a = Analysis(p, None)
        if not a.cls["proper"]:
            continue
        lat = a.lattice
        proper = a.columns["proper"]
        improper = np.flatnonzero(~proper).tolist()
        for plant in ([], improper[:1], improper[-1:], improper[1::2], improper):
            _plant(monkeypatch, a, proper=_called(proper, plant))
            want = oracle.cp_loop(p, lat, a.having("proper"), quotient_pair, is_proper)
            assert CHECKS["CP"](a)[2] == want, (p.name, plant)
            planted += want is not None
    assert planted


def test_bf_part_ii_and_sp2_part_ii_match_class_loops(pairs, monkeypatch):
    """BF part ii reads the strongly prime and semiprime columns, SP2 part
    ii the prime and e-type columns: with prime and strongly prime flags
    flipped, and members called without an e-type, each reports the first
    member of its loop over the classifications."""
    planted = {"BF": 0, "SP2": 0}
    for p in pairs.values():
        a = Analysis(p, None)
        lat, cls, m = a.lattice, _classes(a), len(a.lattice)
        sp2_held = CHECKS["SP2"](a)[0]       # part i's verdict is cached first
        two = [i for i in range(m) if len(lat.covers[i]) >= 2]
        offs = [[]] if p.property_n is None else [[], list(range(0, m, 2)), list(range(m // 2))]
        for off in offs:
            wo = sorted(set(off) | {i for i, c in enumerate(cls) if c["e_type"] is None})
            for chosen in ([], [0], [m - 1], wo[:1], wo[-1:], wo[-2:], wo[::2], two[:1], two[-1:]):
                fake = tuple({**c, "prime": c["prime"] != (i in chosen),
                              "strongly_prime": c["strongly_prime"] != (i in chosen),
                              "e_type": None if i in off else c["e_type"]}
                             for i, c in enumerate(cls))
                _plant_classes(monkeypatch, a, fake)
                want = oracle.bf_part_ii_loop(p, lat, lat.covers, fake)
                assert CHECKS["BF"](a)[2] == want, (p.name, chosen)
                planted["BF"] += want is not None
                if sp2_held:
                    want = oracle.sp2_part_ii_loop(lat, fake)
                    assert CHECKS["SP2"](a)[2] == want, (p.name, off, chosen)
                    planted["SP2"] += want is not None
                monkeypatch.undo()
    assert all(planted.values()), planted


def test_e_multiples_match_old_walks(pairs):
    """positive_e_type, ETYPE_SHALLOW and PRS2 read ``Pair.e_multiples``:
    their values and notes are those of the old walks over k*e, PRS2's
    search for k'' up to n^2 included."""
    rng = np.random.default_rng(5)
    randoms = [_random_pair(rng, n) for n in range(1, 6) for _ in range(20)]
    # Z/6 with T = {1} and A0 = {0, 2, 4}: e = 2, and k*e runs 2, 4, 0, ...
    idx = np.arange(6)
    z6 = validate_pair(validate_structure([str(x) for x in idx], 0, 1, (idx[:, None] + idx) % 6,
                                          idx[:, None] * idx % 6), {1}, {0, 2, 4}, name="z6")
    seen = {"ETYPE_SHALLOW": 0, "PRS2": 0}
    for p in [*pairs.values(), *randoms, z6]:
        assert positive_e_type(p) == oracle.positive_e_type_loop(p), p.name
        if p.property_n is None:
            continue
        n, e = p.n, p.property_n.e
        assert p.e_multiples.tolist() == [oracle.iterated_sum(p.add, e, k) for k in range(1, n + 1)]
        a = Analysis(p, None)
        held, _, _, notes = CHECKS["ETYPE_SHALLOW"](a)
        if a.cls["e_distributive"] and a.cls["shallow"]:
            k = oracle.etype_shallow_k_loop(p)
            assert held == (k is not None), p.name
            assert notes.startswith(f"k={k}, ") if held else notes == "no k with 1 + k*e in A0"
            seen["ETYPE_SHALLOW"] += held
        if a.cls["e_distributive"] and a.cls["positive_e_type"] is not None:
            notes = CHECKS["PRS2"](a)[3]
            assert notes.endswith(f"; square exponents {oracle.square_exponents_loop(p, twist)}")
            seen["PRS2"] += 1
    assert all(seen.values()), seen


def test_tr1_monotone_matches_refines_loop(pairs, monkeypatch):
    # send one congruence's A*e image to the bottom or the top of A*e
    planted = 0
    for p in pairs.values():
        if not (p.property_n is not None and classify_pair(p)["e_central"]):
            continue
        a = Analysis(p, None)
        lat, ae_lat, real = a.lattice, a.ae[0].lattice, a.images("ae")
        for k, to in ((len(lat) // 2, 0), (0, len(ae_lat) - 1), (len(lat) - 1, 0)):
            fake = real.copy()
            fake[k] = to
            monkeypatch.setitem(a.__dict__, "ae_images", fake)
            images = [ae_lat[j].roots for j in fake]
            hit = next((i for i in range(len(lat)) for j in range(len(lat))
                        if oracle.refines_by_definition(lat[i].roots, lat[j].roots)
                        and not oracle.refines_by_definition(images[i], images[j])), None)
            cx = CHECKS["TR1"](a)[2]
            if hit is None:
                assert cx is None or cx["kind"] != "e_image_not_monotone", p.name
            else:
                assert cx == {"kind": "e_image_not_monotone",
                              "i": lat[hit].block_labels()}, (p.name, k)
                planted += 1
    assert planted


def _tr1_plants(rng, a):
    """Plants for TR1 on the analysis ``a``, each a function of the
    monkeypatch: rows or order of the quotient lattice, the A*e images, or
    the order of A*e's lattice."""
    q = a.quotient_e[0]
    q_rows, m = _roots_rows(q.lattice), len(q.lattice)

    def q_rows_plant(plant):
        return lambda mp: mp.setattr(q, "lattice", _planted_lattice(q.pair, q_rows, plant)[1])

    plants = [lambda mp: None]
    plants += [q_rows_plant({m - 1: r}) for r in _random_partitions(rng, q.pair.n, 3)]
    if m > 1:
        flip = q.lattice.leq.copy()
        flip[m - 1, 0] = not flip[m - 1, 0]
        plants += [q_rows_plant({m - 1: q_rows[0]}),
                   lambda mp: mp.setitem(q.lattice.__dict__, "leq", flip)]
    if not a.cls["e_central"]:
        return plants
    ae_lat, real, last = a.ae[0].lattice, a.images("ae"), len(a.lattice) - 1

    def images_plant(values):
        fake = real.copy()
        fake[list(values)] = list(values.values())
        return lambda mp: mp.setitem(a.__dict__, "ae_images", fake)

    for k in (0, last // 2, last):
        plants += [images_plant({k: NOT_CONGRUENCE}), images_plant({k: MISSING}),
                   images_plant({k: 0})]
    plants += [images_plant({0: MISSING, last: NOT_CONGRUENCE}),
               images_plant({k: len(ae_lat) - 1 for k in range(last + 1)})]
    off = np.argwhere(~ae_lat.leq)
    if len(off):
        more = ae_lat.leq.copy()
        more[tuple(off[0])] = True
        plants.append(lambda mp: mp.setitem(ae_lat.__dict__, "leq", more))
    return plants


def test_tr1_matches_member_loop(pairs, monkeypatch):
    """TR1's pullback and e-image parts as column tests: plants in the
    quotient lattice, the A*e images and A*e's order give the counterexample
    of the loops over members (``oracle.tr1_loop``), for every kind of
    failure."""
    rng = np.random.default_rng(29)
    kinds = set()
    for p in pairs.values():
        if p.property_n is None:
            continue
        a = Analysis(p, None)
        for plant in _tr1_plants(rng, a):
            plant(monkeypatch)
            (q, q_proj), lat = a.quotient_e, a.lattice
            ae_lat = a.ae[0].lattice if a.cls["e_central"] else None

            def push(cong):     # the planted image, one member at a time
                k = a.images("ae")[lat.find(cong)]
                return (None if k == NOT_CONGRUENCE else
                        SimpleNamespace(roots=None) if k == MISSING else ae_lat[k])

            want = oracle.tr1_loop(p, q.lattice, q_proj, lat, ae_lat, push,
                                   a.cls["e_central"], a.cls["e_final"], is_congruence)
            held, passed, cx, _ = CHECKS["TR1"](a)
            assert (held, passed, cx) == (True, *want), p.name
            kinds.add(cx and cx["kind"])
            monkeypatch.undo()
    assert kinds == {None, "pullback_not_congruence", "pullback_not_injective",
                     "pullback_not_order_embedding", "e_image_not_congruence", "e_image_missing",
                     "e_image_not_monotone", "e_image_not_bijection",
                     "e_image_not_order_iso"}, kinds


def test_reverify_rejects_unknown_check_id(sb):
    assert not reverify_counterexample(sb, "NOPE", {})
    assert not reverify_counterexample(sb, "NOPE", {"blocks": [["0"], ["1"], ["e"]]})


def test_reverify_rejects_counterexample_without_instance(pairs):
    """A counterexample that names nothing to recompute confirms nothing:
    an id the reverifier does not recompute, given no blocks, and an
    ETYPE_SHALLOW k that is no integer."""
    f3 = pairs["field_f3"]
    assert not reverify_counterexample(f3, "CHAINS", {})
    assert not reverify_counterexample(f3, "ETYPE_SHALLOW", {"k": [1]})
    assert not reverify_counterexample(f3, "ETYPE_SHALLOW", {"k": True})


def test_reverify_recomputes_emul_and_congb(monkeypatch):
    """EMUL and CONGB failures on random tables with a random e (EMUL's
    hypotheses forced) are recomputed from the tables and confirmed; a
    CONGB report with its verdicts turned round is not, and an EMUL report
    with its kind swapped is exactly when the other law holds there."""
    rng = np.random.default_rng(31)
    confirmed = {"EMUL": 0, "CONGB": 0}
    for n in range(2, 7):
        for _ in range(12):
            p = _with_witness(rng, _random_pair(rng, n))
            a = Analysis(p, None)
            r = run_check(p, "CONGB")
            if r["passed"] is False:
                cx = r["counterexample"]
                assert reverify_counterexample(p, "CONGB", cx), cx
                turned = {**cx, "contains_b": not cx["contains_b"],
                          "is_congruence": not cx["is_congruence"]}
                assert not reverify_counterexample(p, "CONGB", turned), cx
                confirmed["CONGB"] += 1
            monkeypatch.setattr(a, "cls", {"e_central": True, "e_idempotent": True})
            _, passed, cx, _ = CHECKS["EMUL"](a)
            monkeypatch.undo()
            if passed is False:
                assert reverify_counterexample(p, "EMUL", cx), cx
                confirmed["EMUL"] += 1
                if "y" in cx:
                    kinds = ("not_additive", "not_multiplicative")
                    swapped = kinds[1 - kinds.index(cx["kind"])]
                    x, y = (p.structure.index[cx[k]] for k in ("x", "y"))
                    op, e = (p.add if swapped == kinds[0] else p.mul), p.property_n.e
                    holds = int(p.mul[op[x, y], e]) == int(op[p.mul[x, e], p.mul[y, e]])
                    assert reverify_counterexample(p, "EMUL", {**cx, "kind": swapped}) != holds
    assert all(confirmed.values()), confirmed


def _twass_by_double(pair):
    """TWASS read off the full doubled pair (table validation, switch map and
    all): the reference for the check, which scans the twist product alone."""
    if not pair.structure.is_semiring():
        return False, None, None, "needs a semiring pair"
    d = double(pair)
    if d.structure.mul_associative:
        return True, True, None, f"all {d.structure.n}^3 triples associate"
    triple = d.structure.labels(first_nonassoc(d.structure.mul))
    return True, False, {"triple": list(triple)}, ""


def _twass(pair):
    r = run_check(pair, "TWASS")
    return r["hypotheses_held"], r["passed"], r["counterexample"], r["notes"]


def _zero_triple(pair):
    """Three times (0, 0): it associates in every pair, so as a claimed
    TWASS counterexample it is fabricated."""
    zero = pair.names[pair.zero]
    return {"triple": [f"({zero},{zero})"] * 3}


def test_twass_matches_doubled_pair_on_catalog(pairs):
    for name, p in pairs.items():
        assert _twass(p) == _twass_by_double(p), name
        assert not reverify_counterexample(p, "TWASS", _zero_triple(p)), name


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 6))
def test_twass_matches_doubled_pair_on_random_tables(seed, n):
    # random products are rarely associative: force the hypothesis so that
    # the scan runs and failing witnesses are compared
    p = _random_pair(np.random.default_rng(seed), n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FiniteStructure, "is_semiring", lambda self: True)
        got = _twass(p)
        assert got == _twass_by_double(p)
        if got[1] is False:
            assert reverify_counterexample(p, "TWASS", got[2])
        assert not reverify_counterexample(p, "TWASS", _zero_triple(p))


def test_reports_serialize(sb):
    from pairspec.dsl import serialize
    reports = run_all(sb)
    text = serialize({"reports": reports})
    assert text == serialize({"reports": reports})


def test_hyprop_on_power_pairs(pairs):
    r = run_check(pairs["power_massouros_c2"], "HYPROP")
    assert r["passed"] and "e-type 2" in r["notes"]
    r = run_check(pairs["power_signs"], "HYPROP")
    assert r["passed"] and "e-idempotent" in r["notes"]
    r = run_check(pairs["super_boolean"], "HYPROP")
    assert not r["hypotheses_held"]


def test_congb_passes_on_etype_catalog(pairs):
    for name in ("super_boolean", "minbp_c2_first", "supertropical_c2"):
        r = run_check(pairs[name], "CONGB")
        assert r["passed"], name


def test_cong_b_depends_only_on_the_sum(pairs):
    for p in pairs.values():
        by_sum = {}
        for b1 in range(p.n):
            for b2 in range(p.n):
                res = cong_b(p, (b1, b2))
                key = (res.relation.tobytes(), res.is_congruence,
                       res.hypothesis_semiring, res.hypothesis_s_central)
                assert by_sum.setdefault(int(p.add[b1, b2]), key) == key, (p.name, b1, b2)
                assert res.contains_b == res.relation[b1, b2]


def _planted_cong_b(plant, s0, cell):
    """cong_b with a fault planted at the sum s0; still a function of the sum."""
    def fake(pair, b):
        res = cong_b(pair, b)
        if plant == "none" or int(pair.add[b[0], b[1]]) != s0:
            return res
        if plant == "not_congruence":
            return replace(res, is_congruence=False)
        rel = res.relation.copy()
        rel[cell] = False
        return replace(res, relation=rel, contains_b=bool(rel[b]))
    return fake


def _planted_cong_bs(plant, s0, cell):
    """cong_bs with the fault of ``_planted_cong_b`` planted at the sum s0."""
    def fake(pair, sums):
        rel, ok = cong_bs(pair, sums)
        k = list(sums).index(s0)
        if plant == "not_congruence":
            ok[k] = False
        elif plant == "drop_cell":
            rel[k][cell] = False
        return rel, ok
    return fake


def test_congb_matches_per_element_loop(pairs, monkeypatch):
    """CONGB in one pass over the distinct sums reports what the loop
    calling ``cong_b`` for every doubled element does: on the catalog with
    faults planted at one sum, and on random pairs with a random e, where
    the hypotheses and the verdicts vary."""
    rng = np.random.default_rng(29)
    randoms = [_with_witness(rng, _random_pair(rng, n)) for n in range(2, 7) for _ in range(12)]
    verdicts = {True: 0, False: 0}
    for p in [*pairs.values(), *randoms]:
        if classify_pair(p)["e_type"] is None:
            continue
        sums = p.add.ravel().tolist()
        s0 = sums[len(sums) // 2]
        # the last doubled element with sum s0, so that earlier ones pass
        cell = divmod(len(sums) - 1 - sums[::-1].index(s0), p.n)
        for plant in ("none", "not_congruence", "drop_cell"):
            monkeypatch.setattr(verify, "cong_bs", _planted_cong_bs(plant, s0, cell))
            r = run_check(p, "CONGB")
            want = oracle.check_congb_loop(p, _planted_cong_b(plant, s0, cell))
            assert (r["passed"], r["counterexample"], r["notes"]) == want, (p.name, plant)
            verdicts[want[0]] += 1
            if want[0] is False and plant == "none":
                assert reverify_counterexample(p, "CONGB", r["counterexample"]), p.name
    assert all(verdicts.values()), verdicts


def test_tr1_reports_injection(sb):
    r = run_check(sb, "TR1")
    assert r["passed"]
    assert "injected" in r["notes"]
    assert "biject" in r["notes"]  # super-Boolean is e-final


def test_cap_is_recorded_not_raised(sb):
    reports = run_all(sb, cap=1)
    # lattice-dependent checks record the cap, table-level checks still run
    assert any("cap exceeded" in r["notes"] for r in reports)
    assert any(r["passed"] is True for r in reports)


def test_capped_run_all_enumerates_each_lattice_once(monkeypatch):
    from pairspec.constructions import function_pair, super_boolean
    from pairspec.errors import CapExceeded
    from pairspec.monoids import cyclic_group

    pair = function_pair(super_boolean(), cyclic_group(3), name="function_sb_c3")
    seen = []
    enumerate_congruences = spectrum.enumerate_congruences

    def recording(p, cap=None):
        seen.append(p.name)
        return enumerate_congruences(p, cap)

    monkeypatch.setattr(spectrum, "enumerate_congruences", recording)
    for cap in (None, 20):
        seen.clear()
        reports = run_all(pair, cap=cap)
        assert len(seen) == len(set(seen)), (cap, seen)
    capped = [r for r in reports if r["notes"].startswith("cap exceeded")]
    assert len(capped) == 11
    # each note is the one a fresh analysis of that check alone raises
    for r in capped:
        with pytest.raises(CapExceeded) as info:
            run_check(pair, r["check_id"], analysis=Analysis(pair, 20))
        assert r["notes"] == f"cap exceeded: {info.value}"
        assert (r["hypotheses_held"], r["passed"], r["counterexample"]) == (True, None, None)


def test_cp_reads_properness_alone(pairs):
    from pairspec.core import is_proper
    for p in pairs.values():
        assert is_proper(p) == classify_pair(p)["proper"] == (
            p.a_zero & (p.tangible | {p.zero}) == {p.zero}), p.name


def test_carrier_cap_is_recorded_not_raised(sb, monkeypatch):
    def too_large(structure):
        raise CarrierTooLarge(structure.n ** 2, 4)

    def verdicts(reports):
        return {r["check_id"]: (r["hypotheses_held"], r["passed"], r["notes"]) for r in reports}

    before = verdicts(run_all(sb))
    monkeypatch.setattr(verify, "twist_table", too_large)
    after = verdicts(run_all(sb))
    # recorded as CapExceeded is: hypotheses held, no verdict, a cap note
    assert after.pop("TWASS") == (True, None, "cap exceeded: carrier would have 9 elements, cap is 4")
    before.pop("TWASS")
    assert after == before


def _planted_twist(bad, value):
    """``_kernels.twist`` with the product of each planted ((x1, y1), (x2, y2))
    of ``bad`` set to (value, value), on index arrays or scalars alike."""
    real = _kernels.twist

    def fake(add, mul, x1, y1, x2, y2):
        p, q = real(add, mul, x1, y1, x2, y2)
        keys = np.broadcast_arrays(x1, y1, x2, y2)
        hit = np.zeros(np.shape(p), dtype=bool)
        for (a1, b1), (a2, b2) in bad:
            hit |= (keys[0] == a1) & (keys[1] == b1) & (keys[2] == a2) & (keys[3] == b2)
        return np.where(hit, value, p), np.where(hit, value, q)
    return fake


def test_chains_part_iii_reads_the_tables(pairs, monkeypatch):
    """The very improper pairs are those of the lattice union, in the same
    order, and a row is weakly proper iff it relates none of them: planted
    twist failures give the old loop's first counterexample."""
    planted = 0
    for p in pairs.values():
        a = Analysis(p, None)
        very = oracle.very_improper_over_lattice(p, a.lattice)
        quiet = [not any(c.related(*x) for x in very) for c in a.lattice]
        assert a.columns["weakly_proper"].tolist() == quiet, p.name
        if not p.structure.is_semiring():
            continue
        notes = CHECKS["CHAINS"](a)[3]
        assert f"part iii over {len(very)} very improper pair(s)" in notes, p.name
        rng = np.random.default_rng(len(very))
        bad = {(x, y) for x in very for y in very if rng.random() < 0.2}
        if not bad:
            continue
        monkeypatch.setattr(_kernels, "twist", _planted_twist(bad, p.zero))
        cx = CHECKS["CHAINS"](a)[2]
        want = oracle.chains_part_iii_loop(p, twist)
        monkeypatch.undo()
        if cx["part"] == "iii":
            assert cx == want, p.name
            planted += 1
    assert planted


# -- the array checks against the loops they replaced ----------------------------------

def _roots_rows(lattice):
    return [tuple(r) for r in lattice.roots.tolist()]


def _planted_lattice(pair, rows, plant):
    """The rows with row k replaced by the root vector ``plant[k]``, as a
    lattice object (its rows need not be congruences)."""
    rows = [plant.get(k, r) for k, r in enumerate(rows)]
    return rows, CongruenceLattice(pair=pair, roots=_kernels.compact(np.array(rows)))


def _random_partitions(rng, n, count, merge=()):
    """Random partitions of range(n) as root vectors; the elements of
    ``merge`` share a block."""
    out = []
    for _ in range(count):
        labels = rng.integers(0, int(rng.integers(1, n + 1)), n)
        labels[list(merge)] = labels[merge[0]] if merge else 0
        out.append(oracle.roots_of(labels.tolist()))
    return out


def test_bf_part_ii_scans_planted_covers(pairs, monkeypatch):
    """BF part ii runs the pairwise twist test over the covers of each
    semiprime member with two or more: with the real covers nothing fails,
    and with other members planted as covers it reports the first member of
    the loop over the dense twist products."""
    planted = 0
    for p in pairs.values():
        a = Analysis(p, None)
        lat, cls, m = a.lattice, _classes(a), len(a.lattice)
        assert oracle.bf_part_ii_loop(p, lat, lat.covers, cls) is None, p.name
        semi = [i for i, c in enumerate(cls) if c["semiprime"] and not c["strongly_prime"]]
        for i in semi[:2] + semi[-2:]:
            for cov in ((0, m - 1), tuple(j for j in range(m) if j != i), (m - 1, i)):
                fake = list(lat.covers)
                fake[i] = cov
                monkeypatch.setitem(lat.__dict__, "covers", tuple(fake))
                want = oracle.bf_part_ii_loop(p, lat, fake, cls)
                assert CHECKS["BF"](a)[2] == want, (p.name, i, cov)
                planted += want is not None
                monkeypatch.undo()
    assert planted


def test_bf_part_i_matches_twist_loop(pairs, monkeypatch):
    """Rows that are no congruences, planted in the lattice: the twist scan
    over the rows failing the bulk congruence test finds the loop's first
    failing row, passing over rows that fail the test but not part i."""
    rng = np.random.default_rng(11)
    planted = 0
    for p in pairs.values():
        a = Analysis(p, None)
        lat, _ = a.lattice, a.columns
        rows = _roots_rows(lat)
        others = [r for r in _random_partitions(rng, p.n, 40)
                  if not is_congruence(p, Congruence(pair=p, roots=r))[0]]
        passing = [r for r in others if oracle.bf_part_i_loop(p, lat, [r]) is None]
        failing = [r for r in others if r not in passing]
        m = len(rows)
        plants = [{}] + [{k: r} for r in failing[:1] for k in (0, m // 2, m - 1)]
        plants += [{0: x, m - 1: r} for x in passing[:1] for r in failing[:1]]
        for plant in plants:
            fake_rows, fake = _planted_lattice(p, rows, plant)
            monkeypatch.setattr(a, "lattice", fake)
            want = oracle.bf_part_i_loop(p, fake, fake_rows)
            assert CHECKS["BF"](a)[2] == want, (p.name, plant)
            planted += want is not None
    assert planted


def _with(c, flag, value):
    """A member record with ``flag`` set to ``value``; for semiprime, prime
    follows as semiprime and irreducible, so BF part ii still holds."""
    if flag == "semiprime":
        return {**c, "semiprime": value, "prime": value and c["irreducible"]}
    return {**c, flag: value}


def test_bf_meets_match_meet_loops(pairs, monkeypatch):
    """BF parts iii and iv with semiprime (radical) flags planted on or off:
    the bulk meets give the first (i, j) of the loop over all pairs."""
    planted = {"iii": 0, "iv": 0}
    for p in pairs.values():
        a = Analysis(p, None)
        lat, cls = a.lattice, _classes(a)
        rows = _roots_rows(lat)
        for part, flag in (("iii", "semiprime"), ("iv", "radical")):
            on = [i for i, c in enumerate(cls) if c[flag]]
            off = [i for i, c in enumerate(cls) if not c[flag]]
            for value, chosen in ((True, []), (True, off[:1]), (True, off[-2:]),
                                  (True, off[1::2]), (False, on[-1:]), (False, on[1:2])):
                fake = tuple(_with(c, flag, value) if i in chosen else c for i, c in enumerate(cls))
                _plant_classes(monkeypatch, a, fake)
                want = oracle.bf_meets_loop(lat, rows, [c[flag] for c in fake], part)
                assert CHECKS["BF"](a)[2] == want, (p.name, part, value, chosen)
                planted[part] += want is not None
    assert all(planted.values()), planted


def test_bf_part_v_matches_join_meet_loop(pairs, monkeypatch):
    """BF part v with cells of ``leq`` flipped: a false i <= j shows as a
    join mismatch, as in the loop that built both the join and the meet."""
    rng = np.random.default_rng(3)
    planted = 0
    for p in pairs.values():
        a = Analysis(p, None)
        lat, _ = a.lattice, a.columns
        rows, m = _roots_rows(lat), len(lat)
        for rate in (0.0, 0.05, 0.3):
            flip = rng.random((m, m)) < rate
            for fake in (lat.leq | flip, lat.leq & ~flip):
                monkeypatch.setitem(lat.__dict__, "leq", fake)
                want = oracle.bf_part_v_loop(rows, fake)
                assert CHECKS["BF"](a)[2] == want, (p.name, rate)
                planted += want is not None
    assert planted


def test_prs1_matches_member_loop(pairs, monkeypatch):
    """PRS1 with members called radical: real members, and random
    partitions planted in the lattice."""
    rng = np.random.default_rng(19)
    planted = 0
    for p in pairs.values():
        a = Analysis(p, None)
        lat, cls = a.lattice, _classes(a)
        rows, m = _roots_rows(lat), len(lat)
        others = [i for i, c in enumerate(cls) if not c["radical"]]
        plants = [{}] * 4 + [dict(zip(rng.choice(m, size=min(m, 3), replace=False).tolist(),
                                      _random_partitions(rng, p.n, 3))) for _ in range(3)]
        # a row failing part ii alone, ahead of one failing part i
        by_part = {}
        for r in _random_partitions(rng, p.n, 60):
            cx = oracle.prs1_loop(p, _planted_lattice(p, [r], {})[1], [r], [0])
            by_part.setdefault(cx and cx["part"], r)
        if m > 1 and "i" in by_part and "ii" in by_part:
            plants.append({0: by_part["ii"], 1: by_part["i"]})
        chosen_sets = ([], others[:1], others[-1:], others[1::2]) + (others,) * 4
        for chosen, plant in zip(chosen_sets, plants):
            fake_rows, fake = _planted_lattice(p, rows, plant)
            called = set(chosen) | set(plant)
            fake_cls = tuple({**c, "radical": True} if i in called else c
                             for i, c in enumerate(cls))
            monkeypatch.setattr(a, "lattice", fake)
            _plant_classes(monkeypatch, a, fake_cls)
            radical = [i for i, c in enumerate(fake_cls) if c["radical"]]
            want = oracle.prs1_loop(p, fake, fake_rows, radical)
            assert CHECKS["PRS1"](a)[2] == want, (p.name, chosen, plant)
            planted += want is not None
    assert planted


def test_pro3_matches_member_loop(pairs, monkeypatch):
    """PRO3 over lattices with random partitions planted, half of them
    relating e and e^2."""
    rng = np.random.default_rng(7)
    planted = 0
    for p in pairs.values():
        a = Analysis(p, None)
        if not a.cls["e_central"]:
            continue
        e = p.property_n.e
        rows, m = _roots_rows(a.lattice), len(a.lattice)
        extra = (_random_partitions(rng, p.n, 3)
                 + _random_partitions(rng, p.n, 3, merge=(e, int(p.mul[e, e]))))
        for plant in ({}, dict(zip((0, m // 2, m - 1), extra[:3])),
                      dict(zip((1, m - 1), extra[3:]))):
            fake_rows, fake = _planted_lattice(p, rows, plant)
            monkeypatch.setattr(a, "lattice", fake)
            want = oracle.pro3_loop(p, fake, fake_rows)
            assert CHECKS["PRO3"](a)[2] == want, (p.name, plant)
            planted += want is not None
    assert planted


def test_shallow1k_matches_member_loop(pairs, monkeypatch):
    """SHALLOW1K over lattices with random partitions planted and called
    proper: on the catalog pairs where it applies, and on random tables with
    random tangibles and the hypotheses forced."""
    rng = np.random.default_rng(9)
    randoms = []
    for n in range(2, 7):
        for _ in range(8):
            p = _random_pair(rng, n)
            randoms.append(replace(p, tangible=frozenset(rng.choice(n, 2).tolist()) - {0}))
    monkeypatch.setattr(FiniteStructure, "is_semiring", lambda self: True)
    planted = 0
    for forced, p in [(False, p) for p in pairs.values()] + [(True, p) for p in randoms]:
        a = Analysis(p, None)
        if forced:
            monkeypatch.setattr(a, "cls", {"shallow": True, "kind": "first"})
        elif not CHECKS["SHALLOW1K"](a)[0]:
            continue
        lat, proper = a.lattice, a.columns["proper"]
        rows, m = _roots_rows(lat), len(lat)
        for k in range(4):
            plant = dict(zip(rng.choice(m, size=min(m, k), replace=False).tolist(),
                             _random_partitions(rng, p.n, k)))
            fake_rows, fake = _planted_lattice(p, rows, plant)
            called = _called(proper, plant)
            _plant(monkeypatch, a, proper=called)
            monkeypatch.setattr(a, "lattice", fake)
            want = oracle.shallow1k_loop(p, fake, fake_rows, np.flatnonzero(called).tolist())
            assert CHECKS["SHALLOW1K"](a)[2] == want, (p.name, plant)
            planted += want is not None
    assert planted


def test_chains_part_iv_matches_triple_loop(pairs, monkeypatch):
    """CHAINS part iv with planted weakly proper flags gives the old triple
    loop's first counterexample: the top called weakly proper (every j.k
    lies inside it), a member relating a very improper pair called weakly
    proper (a witness product can land inside it while the exact scan
    clears the triple), and a member relating none called not weakly proper
    (its witness clears nothing, and bottom.k is diagonal)."""
    from pairspec.constructions import function_pair, super_boolean
    from pairspec.monoids import cyclic_group

    scans = []

    def scan(*args):
        scans.append(twist_subset(*args))
        return scans[-1]

    monkeypatch.setattr(verify, "twist_subset", scan)
    planted = 0
    for p in [*pairs.values(), function_pair(super_boolean(), cyclic_group(3))]:
        if not p.structure.is_semiring():
            continue
        a = Analysis(p, None)
        lat = a.lattice
        top = len(lat) - 1
        weakly = a.columns["weakly_proper"]
        quiet = np.flatnonzero(weakly)
        plants = [{}, {top: True}, {quiet[0]: False}, {quiet[-1]: False},
                  {top: True, quiet[0]: False}]
        plants += [{m: True} for m in np.flatnonzero(~weakly) if m != top]
        for plant in plants:
            column = weakly.copy()
            column[list(plant)] = list(plant.values())
            _plant(monkeypatch, a, weakly_proper=column)
            want = oracle.chains_part_iv_loop(p, lat, column, twist_subset)
            assert CHECKS["CHAINS"](a)[2] == want, (p.name, plant)
            planted += want is not None
    assert planted
    assert False in scans           # a triple the witness left, cleared exactly


def test_chains_part_ii_matches_maximal_loop(pairs, monkeypatch):
    """CHAINS part ii with ``leq`` perturbed among the proper members: a
    cycle i <= j <= i cut off from everything else puts both below no
    maximal proper member."""
    rng = np.random.default_rng(5)
    planted = 0
    for p in pairs.values():
        a = Analysis(p, None)
        lat, _ = a.lattice, a.columns
        proper = a.having("proper")
        pairs_ij = [(i, j) for i in proper for j in proper if i != j and lat.leq[i, j]]
        fakes = [lat.leq.copy()]
        for i, j in pairs_ij[:1] + pairs_ij[-1:]:
            fake = lat.leq.copy()
            fake[[i, j]] = False
            fake[i, i] = fake[j, j] = fake[i, j] = fake[j, i] = True
            fakes.append(fake)
        noise = lat.leq ^ (rng.random(lat.leq.shape) < 0.1)
        fakes.append(noise)
        for fake in fakes:
            monkeypatch.setitem(lat.__dict__, "leq", fake)
            cx = CHECKS["CHAINS"](a)[2]
            got = cx if cx is not None and cx["part"] == "ii" else None
            hit = oracle.chains_part_ii_loop(fake, proper)
            want = None if hit is None else {"part": "ii", "blocks": lat[hit].block_labels()}
            assert got == want, p.name
            planted += want is not None
    assert planted


def test_gen_matches_element_loop(pairs, monkeypatch):
    """GEN with twist products planted off the diagonal rule."""
    rng = np.random.default_rng(13)
    planted = 0
    for p in pairs.values():
        if not p.structure.distributive:
            continue
        a = Analysis(p, None)
        cells = [((b1, b2), (z, z)) for b1 in range(p.n) for b2 in range(p.n) for z in range(p.n)]
        for rate in (0.0, 0.01, 0.2):
            bad = {c for c in cells if rng.random() < rate}
            monkeypatch.setattr(_kernels, "twist", _planted_twist(bad, p.one))
            want = oracle.gen_loop(p, twist)
            assert CHECKS["GEN"](a)[2] == want, (p.name, rate)
            planted += want is not None
            monkeypatch.undo()
    assert planted


def test_emul_and_esq_match_element_loops(pairs, monkeypatch):
    """EMUL and ESQ on the catalog, and on random tables with a random e and
    the hypotheses forced."""
    rng = np.random.default_rng(17)
    randoms = []
    for n in range(2, 7):
        for _ in range(12):
            p = _random_pair(rng, n)
            e = int(rng.integers(n))
            randoms.append(replace(p, property_n=PropertyNWitness(p.one, e, frozenset({p.one})),
                                   a_zero=frozenset(rng.choice(n, 3).tolist()) | {0}))
    planted = {"EMUL": 0, "ESQ": 0}
    for p in [*pairs.values(), *randoms]:
        if p.property_n is None:
            continue
        a = Analysis(p, None)
        monkeypatch.setattr(a, "cls", {"e_central": True, "e_idempotent": True,
                                       "e_distributive": True})
        for check, loop in (("EMUL", oracle.emul_loop), ("ESQ", oracle.esq_loop)):
            want = loop(p)
            assert CHECKS[check](a)[2] == want, (p.name, check)
            planted[check] += want is not None
    assert all(planted.values()), planted


# -- block lists that do not partition the carrier ---------------------------------------

_MALFORMED = {
    "missing": [["1"], ["e"]],
    "repeated": [["0"], ["1", "e"], ["0"]],
    "unknown": [["0"], ["1", "e"], ["x"]],
}

# each id whose reverifier reads "blocks", with the other fields it reads
_BLOCK_READERS = {
    "BF": {"part": "i"}, "CHAINS": {"part": "ii"}, "CP": {}, "ID1": {"kind": "not_degenerate"},
    "PRO3": {"a": "1", "c": "e"}, "PRO3C": {}, "PRS1": {"part": "ii", "b": "1"},
    "PRS2": {"part": "i"}, "RD1": {}, "SHALLOW1K": {"a1": "1", "a2": "e"}, "SP2": {"part": "ii"},
    "TR1": {"kind": "e_image_not_congruence"},
}


@pytest.mark.parametrize("shape", sorted(_MALFORMED))
def test_reverify_rejects_malformed_blocks(sb, shape):
    for cid, fields in _BLOCK_READERS.items():
        assert not reverify_counterexample(sb, cid, {**fields, "blocks": _MALFORMED[shape]}), cid


# each id whose reverifier reads labels: a well-formed counterexample on
# field_f3, and the fields it reads (each dropped in turn; each label
# replaced by an unknown one)
_DIAG_F3 = [["0"], ["1"], ["2"]]
_LABEL_READERS = {
    "EST": ({"e": "1", "dagger": "2"}, ("e", "dagger")),
    "ESQ": ({"b1": "1", "b2": "2"}, ("b1", "b2")),
    "EFINAL_IDEM": ({"e": "1"}, ("e",)),
    "KIND": ({"two": "2", "tangible": "1"}, ("two", "tangible")),
    "ETYPE_SHALLOW": ({"k": 1}, ("k",)),
    "TWASS": ({"triple": ["(0,0)", "(0,1)", "(1,1)"]}, ("triple",)),
    "GEN": ({"b": ["0", "1"], "z": "0"}, ("b", "z")),
    "SHALLOW1K": ({"blocks": _DIAG_F3, "a1": "1", "a2": "2"}, ("blocks", "a1", "a2")),
    "CHAINS": ({"part": "iii", "x": ["1", "0"], "y": ["2", "0"]}, ("x", "y")),
    "PRS1": ({"part": "i", "blocks": _DIAG_F3, "b": ["1", "2"]}, ("part", "blocks", "b")),
    "PRO3": ({"blocks": _DIAG_F3, "a": "1", "c": "2"}, ("blocks", "a", "c")),
    "EMUL": ({"kind": "not_additive", "x": "1", "y": "2"}, ("kind", "x", "y")),
    "CONGB": ({"b": ["1", "2"], "is_congruence": True, "contains_b": False}, ("b",)),
}


@pytest.mark.parametrize("cid", sorted(_LABEL_READERS))
def test_reverify_rejects_unknown_labels_and_missing_fields(pairs, cid):
    """A counterexample that names an unknown label, or lacks a field its
    reverifier reads, is not confirmed (and raises nothing)."""
    p = pairs["field_f3"]
    cx, fields = _LABEL_READERS[cid]
    assert reverify_counterexample(p, cid, cx) in (True, False)
    for f in fields:
        assert not reverify_counterexample(p, cid, {k: v for k, v in cx.items() if k != f}), f
        if f not in ("part", "blocks", "k"):       # a label, or a list of them
            unknown = "zz" if isinstance(cx[f], str) else [*cx[f][:-1], "zz"]
            assert not reverify_counterexample(p, cid, {**cx, f: unknown}), f
        if f not in ("part", "k"):                 # a list where a label goes
            wrong = [cx[f]] if isinstance(cx[f], str) else [[x] for x in cx[f]]
            assert not reverify_counterexample(p, cid, {**cx, f: wrong}), f


def test_reverify_rejects_fields_of_the_wrong_type(pairs):
    """A PRS1 part other than "i" or "ii", a list where a label goes, and a
    block list mixing labels and lists are rejected rather than raising
    TypeError."""
    p = pairs["field_f3"]
    assert not reverify_counterexample(
        p, "PRS1", {"part": "zz", "blocks": [["0"], ["1"], ["2"]], "b": ["1", "2"]})
    assert not reverify_counterexample(p, "PRS1", {"part": "zz", "blocks": _DIAG_F3, "b": "1"})
    assert not reverify_counterexample(p, "EST", {"e": ["1"], "dagger": "2"})
    assert not reverify_counterexample(p, "RD1", {"blocks": [["0"], [["1"]], ["2"]]})


def test_est_kind_and_hyprop_match_their_loops(pairs):
    """EST with a random e and random daggers, KIND with a random A0 and the
    flags its loop gives, and HYPROP on the named hyperstructures with
    planted products, tangibles, e-sets and flags: each check gives what
    its old loop gave."""
    from pairspec.catalog import NAMED_HYPERSTRUCTURES

    rng = np.random.default_rng(29)
    failed = {"EST": 0, "KIND": 0, "HYPROP": 0}
    for p in pairs.values():
        ts = sorted(p.tangible)
        for _ in range(6):
            daggers = frozenset(rng.choice(ts, int(rng.integers(1, 4))).tolist())
            a0 = p.a_zero | frozenset(rng.choice(p.n, int(rng.integers(3))).tolist())
            q = replace(p, a_zero=a0,
                        property_n=PropertyNWitness(min(daggers), int(rng.integers(p.n)), daggers))
            want = oracle.est_loop(q)
            assert CHECKS["EST"](SimpleNamespace(pair=q))[2] == want, p.name
            failed["EST"] += want is not None
            flags = oracle.classify_flags_loop(q)
            cls = {"kind": flags["kind"], "cancellative": bool(rng.integers(2))}
            want = oracle.kind_loop(q, cls)
            assert CHECKS["KIND"](SimpleNamespace(pair=q, cls=cls)) == want, p.name
            failed["KIND"] += want[1] is False
    for build in NAMED_HYPERSTRUCTURES.values():
        h = build()
        nonzero = frozenset(range(h.n)) - {h.zero}
        for _ in range(12):
            mul = h.mul.copy()
            if rng.integers(2):             # take away some a's right inverse
                a, b = np.argwhere(mul == h.one)[int(rng.integers(len(nonzero)))]
                mul[a, b] = rng.integers(h.n)
            tangible = nonzero if rng.integers(3) else frozenset({h.one})
            e_set = [frozenset(range(h.n)) - {h.one}, h.e_set, None][int(rng.integers(3))]
            hyper = SimpleNamespace(n=h.n, zero=h.zero, one=h.one, mul=mul, tangible=tangible,
                                    e_set=e_set, hypernegation=h.hypernegation)
            cls = {"e_type": [[2, 2], [1, 1], None][int(rng.integers(3))],
                   "e_idempotent": bool(rng.integers(2)), "e_final": bool(rng.integers(2))}
            ctx = SimpleNamespace(pair=SimpleNamespace(hyper=hyper), cls=cls)
            want = oracle.hyprop_loop(ctx)
            assert CHECKS["HYPROP"](ctx) == want, h.name
            failed["HYPROP"] += want[1] is False
    assert all(failed.values()), failed


def test_bf_meet_reverifier_recomputes_by_definition():
    """BF part iii on function_pair(minbp_c2_second, chain2 and sat2): two
    semiprime congruences whose meet is not semiprime, confirmed by the
    definitions.  A fabricated counterexample with i = j, or one claiming
    the radical part iv of the same pair, is refused."""
    from pairspec.catalog import build
    from pairspec.constructions import function_pair
    from pairspec.monoids import chain_monoid, saturating_monoid
    for s in (chain_monoid(2), saturating_monoid(2)):
        p = function_pair(build("minbp_c2_second"), s)
        r = run_check(p, "BF")
        assert r["passed"] is False and r["counterexample"]["part"] == "iii", s.names
        assert reverify_counterexample(p, "BF", r["counterexample"]), s.names
        cx = r["counterexample"]
        assert not reverify_counterexample(p, "BF", {**cx, "j": cx["i"]})
        assert not reverify_counterexample(p, "BF", {**cx, "part": "iv"})
        assert not reverify_counterexample(p, "BF", {**cx, "i": [["[0,0]"]]})


# The census of every semiring pair with n <= 4 (tests/census.py): check id
# -> (passed, failed, skipped), spectrum verdict -> (holds, fails, not
# applicable), and each failing (pair, check) with n <= 3.  Every failure
# at n <= 3 has A0 = A or 0 in T, and every failure's reverifier confirms it.
CENSUS_CHECKS = {
    "BF": (1371, 0, 0), "CHAINS": (1371, 0, 0), "CONGB": (263, 2, 1106), "CP": (568, 0, 803),
    "EFINAL_IDEM": (260, 0, 1111), "EMUL": (376, 0, 995), "ESQ": (385, 0, 986),
    "EST": (307, 78, 986), "ETYPE_SHALLOW": (226, 23, 1122), "GEN": (1371, 0, 0),
    "HYPROP": (0, 0, 1371), "ID1": (385, 0, 986), "KIND": (1371, 0, 0), "PRO3": (385, 0, 986),
    "PRO3C": (334, 42, 995), "PRS1": (1371, 0, 0), "PRS2": (385, 0, 986), "RD1": (263, 0, 1108),
    "RD2": (263, 0, 1108), "SHALLOW1K": (420, 0, 951), "SP2": (385, 0, 986),
    "TR1": (385, 0, 986), "TWASS": (1371, 0, 0),
}
CENSUS_VERDICTS = {
    "verdict_radical_contains_1e": (263, 0, 1108),
    "verdict_spec_iso_ae": (263, 0, 1108),
    "verdict_spec_e_iso_quotient": (385, 0, 986),
    "verdict_spec_iso_ae_weak_primes": (243, 20, 1108),
    "verdict_spec_e_iso_quotient_weak_primes": (365, 20, 986),
}
CENSUS_FAILURES = [
    ("s2.0.T1.A01", "ETYPE_SHALLOW"), ("s2.0.T1.A01", "PRO3C"), ("s2.1.T01.A01", "EST"),
    ("s3.0.T01.A012", "EST"), ("s3.0.T012.A012", "EST"), ("s3.1.T01.A012", "EST"),
    ("s3.1.T12.A012", "EST"), ("s3.1.T012.A012", "EST"), ("s3.2.T01.A012", "EST"),
    ("s3.3.T1.A012", "CONGB"), ("s3.3.T1.A012", "ETYPE_SHALLOW"),
    ("s3.4.T1.A012", "ETYPE_SHALLOW"), ("s3.4.T1.A012", "PRO3C"), ("s3.5.T1.A012", "PRO3C"),
]
# failures that no reverifier confirms, each with a FOUND line in CHANGES.md
CENSUS_UNCONFIRMED = []


def test_census_tally_and_every_failure_reverifies():
    assert [len(census.semirings(n)) for n in (2, 3, 4)] == [2, 6, 40]
    pairs = census.pairs(2) + census.pairs(3) + census.pairs(4)
    assert len(pairs) == 8 + 71 + 1292
    checks, verdicts, failures, unconfirmed = {}, {}, [], []
    outcome = {True: 0, False: 1, None: 2}
    for p in pairs:
        for key, v in spectrum_report(p).items():
            if key.startswith("verdict_"):
                verdicts.setdefault(key, [0, 0, 0])[outcome[v["holds"]]] += 1
        for r in run_all(p):
            checks.setdefault(r["check_id"], [0, 0, 0])[outcome[r["passed"]]] += 1
            if r["passed"] is False:
                failures.append((p.name, r["check_id"]))
                if not reverify_counterexample(p, r["check_id"], r["counterexample"]):
                    unconfirmed.append((p.name, r["check_id"]))
    assert {k: tuple(v) for k, v in checks.items()} == CENSUS_CHECKS
    assert {k: tuple(v) for k, v in verdicts.items()} == CENSUS_VERDICTS
    assert [f for f in failures if not f[0].startswith("s4.")] == CENSUS_FAILURES
    assert unconfirmed == CENSUS_UNCONFIRMED


def test_flag_reverifiers_do_not_call_the_member_classifier(pairs, monkeypatch):
    """RD1, PRS1 and PRO3C take each flag by its definition on the reported
    congruence: with ``classify_congruence_elementwise`` raising wherever a
    module holds it, the census failures of these checks and the signs
    PRO3C counterexample still confirm, and fabricated ones are refused."""
    def boom(*args):
        raise AssertionError("a reverifier called classify_congruence_elementwise")

    for module in (spectrum, verify):
        monkeypatch.setattr(module, "classify_congruence_elementwise", boom, raising=False)
    failed = {cid: 0 for cid in ("RD1", "PRS1", "PRO3C")}
    for p in census.pairs(2) + census.pairs(3) + census.pairs(4):
        a = Analysis(p, None)
        for cid in failed:
            r = run_check(p, cid, analysis=a)
            if r["passed"] is False:
                assert reverify_counterexample(p, cid, r["counterexample"]), (p.name, cid)
                failed[cid] += 1
    assert failed == {cid: CENSUS_CHECKS[cid][1] for cid in failed}
    p = pairs["power_signs"]
    cx = run_check(p, "PRO3C")["counterexample"]
    assert reverify_counterexample(p, "PRO3C", cx)
    lat = Analysis(p, None).lattice
    # member 1 is proper, member 3 relates 1 and e, member 0 is not radical
    for cid, i in (("PRO3C", 1), ("PRO3C", 3), ("RD1", 0), ("PRS1", 0)):
        fake = {**cx, "blocks": lat[i].block_labels(), "part": "ii", "b": "{1}"}
        assert not reverify_counterexample(p, cid, fake), (cid, i)
    assert not reverify_counterexample(pairs["super_boolean"], "RD1",
                                       {"blocks": [["0"], ["1", "e"]]})
