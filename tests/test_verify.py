"""The law harness: hypothesis gating, pass/fail reporting, re-verification."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pairspec import verify
from pairspec.congruences import cong_b
from pairspec.constructions import double, minimal_bipotent
from pairspec.core import FiniteStructure, classify_pair
from pairspec.errors import CarrierTooLarge, UnknownCheckId
from pairspec.monoids import trivial_monoid
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


def test_check_id_registry_is_stable():
    assert tuple(sorted(CHECKS)) == CHECK_IDS


def test_unknown_check_id(sb):
    with pytest.raises(UnknownCheckId):
        run_check(sb, "NOPE")


def test_est_passes_on_super_boolean(sb):
    r = run_check(sb, "EST")
    assert r.hypotheses_held and r.passed and r.counterexample is None


def test_rd1_passes_on_super_boolean(sb):
    r = run_check(sb, "RD1")
    assert r.passed


def test_est_hypotheses_fail_without_witness():
    p = minimal_bipotent(trivial_monoid(), "second")
    r = run_check(p, "EST")
    assert not r.hypotheses_held
    assert r.passed is None


def test_twass_skipped_on_nondistributive(pairs):
    r = run_check(pairs["supertropical_c2"], "TWASS")
    assert not r.hypotheses_held


def test_twass_passes_on_semirings(pairs):
    for name in ("super_boolean", "minbp_c2_first", "field_f5", "function_sb_sat2"):
        r = run_check(pairs[name], "TWASS")
        assert r.passed, name


def test_prs2_reports_depth(sb):
    r = run_check(sb, "PRS2")
    assert r.passed
    assert "depth" in r.notes
    assert "square exponents" in r.notes


def test_run_all_super_boolean_all_green(sb):
    reports = run_all(sb)
    s = summarize(reports)
    assert s["failed"] == 0
    assert s["passed"] >= 20
    assert [r.check_id for r in reports] == sorted(CHECKS)


def test_run_all_deterministic(sb):
    a = [(r.check_id, r.hypotheses_held, r.passed) for r in run_all(sb)]
    b = [(r.check_id, r.hypotheses_held, r.passed) for r in run_all(sb)]
    assert a == b


def test_known_finding_pro3c_on_signs_power(pairs):
    """The signs power-set pair refutes the stated corollary: a cancellative
    congruence with an improper element need not relate one and e, because
    A0 is strictly larger than the image A*e there."""
    p = pairs["power_signs"]
    r = run_check(p, "PRO3C")
    assert r.hypotheses_held
    assert r.passed is False
    assert reverify_counterexample(p, "PRO3C", r.counterexample)


def test_catalog_findings_are_exactly_the_known_ones(pairs):
    known = {("power_signs", "PRO3C")}
    found = set()
    for name, p in pairs.items():
        for r in run_all(p):
            if r.passed is False:
                found.add((name, r.check_id))
    assert found == known


def test_shared_analysis_matches_fresh_runs(pairs):
    # run_all shares one analysis between the checks; no check may change
    # what a later one reads from it
    def key(r):
        return r.check_id, r.hypotheses_held, r.passed, r.counterexample, r.notes

    for name, p in pairs.items():
        shared = [key(r) for r in run_all(p)]
        fresh = [key(run_check(p, cid)) for cid in sorted(CHECKS)]
        assert shared == fresh, name


def test_every_failure_reverifies(pairs):
    for name, p in pairs.items():
        for r in run_all(p):
            if r.passed is False:
                assert reverify_counterexample(p, r.check_id, r.counterexample), (
                    name, r.check_id)


def test_reverify_rejects_fabricated_counterexample(sb):
    # a radical congruence that does contain (1, e) is not a counterexample
    fake = {"blocks": [["0"], ["1", "e"]]}
    assert not reverify_counterexample(sb, "RD1", fake)


def test_reverify_rejects_unknown_check_id(sb):
    assert not reverify_counterexample(sb, "NOPE", {})
    assert not reverify_counterexample(sb, "NOPE", {"blocks": [["0"], ["1"], ["e"]]})


def _twass_by_double(pair):
    """TWASS read off the full doubled pair (table validation, switch map and
    all): the reference for the check, which scans the twist product alone."""
    if not pair.structure.is_semiring():
        return False, None, None, "needs a semiring pair"
    d = double(pair)
    if d.twist_associative:
        return True, True, None, f"all {d.n}^3 triples associate"
    return True, False, {"triple": list(d.twist_witness)}, ""


def _twass(pair):
    r = run_check(pair, "TWASS")
    return r.hypotheses_held, r.passed, r.counterexample, r.notes


def test_twass_matches_doubled_pair_on_catalog(pairs):
    for name, p in pairs.items():
        assert _twass(p) == _twass_by_double(p), name


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


def test_reports_serialize(sb):
    from pairspec.dsl import serialize_report
    reports = run_all(sb)
    text = serialize_report({"reports": [r.to_dict() for r in reports]})
    assert text == serialize_report({"reports": [r.to_dict() for r in reports]})


def test_hyprop_on_power_pairs(pairs):
    r = run_check(pairs["power_massouros_c2"], "HYPROP")
    assert r.passed and "e-type 2" in r.notes
    r = run_check(pairs["power_signs"], "HYPROP")
    assert r.passed and "e-idempotent" in r.notes
    r = run_check(pairs["super_boolean"], "HYPROP")
    assert not r.hypotheses_held


def test_congb_passes_on_etype_catalog(pairs):
    for name in ("super_boolean", "minbp_c2_first", "supertropical_c2"):
        r = run_check(pairs[name], "CONGB")
        assert r.passed, name


def test_cong_b_depends_only_on_the_sum(pairs):
    for p in pairs.values():
        by_sum = {}
        for b1 in range(p.n):
            for b2 in range(p.n):
                res = cong_b(p, (b1, b2))
                key = (res.relation.tobytes(), res.is_congruence, res.z_set,
                       res.hypothesis_semiring, res.hypothesis_s_central)
                assert by_sum.setdefault(int(p.add[b1, b2]), key) == key, (p.name, b1, b2)
                assert res.contains_b == res.relation[b1, b2]


def _planted_cong_b(plant, s0, cell):
    """cong_b with a fault planted at the sum s0; still a function of the sum."""
    def fake(pair, b):
        res = cong_b(pair, b)
        s = int(pair.add[b[0], b[1]])
        if plant == "skip" and s % 2 == s0 % 2:
            return replace(res, hypothesis_semiring=False, hypothesis_s_central=False)
        if plant == "none" or s != s0:
            return res
        if plant == "not_congruence":
            return replace(res, is_congruence=False, congruence=None)
        rel = res.relation.copy()
        rel[cell] = False
        return replace(res, relation=rel, contains_b=bool(rel[b]))
    return fake


def test_congb_matches_per_element_loop(pairs, monkeypatch):
    failed = 0
    for p in pairs.values():
        if classify_pair(p).e_type is None:
            continue
        sums = p.add.ravel().tolist()
        s0 = sums[len(sums) // 2]
        # the last doubled element with sum s0, so that earlier ones pass
        cell = divmod(len(sums) - 1 - sums[::-1].index(s0), p.n)
        for plant in ("none", "skip", "not_congruence", "drop_cell"):
            fake = _planted_cong_b(plant, s0, cell)
            monkeypatch.setattr(verify, "cong_b", fake)
            r = run_check(p, "CONGB")
            want = oracle.check_congb_loop(p, fake)
            assert (r.passed, r.counterexample, r.notes) == want, (p.name, plant)
            failed += want[0] is False
    assert failed


def test_tr1_reports_injection(sb):
    r = run_check(sb, "TR1")
    assert r.passed
    assert "injected" in r.notes
    assert "biject" in r.notes  # super-Boolean is e-final


def test_cap_is_recorded_not_raised(sb):
    reports = run_all(sb, cap=1)
    # lattice-dependent checks record the cap, table-level checks still run
    assert any("cap exceeded" in r.notes for r in reports)
    assert any(r.passed is True for r in reports)


def test_carrier_cap_is_recorded_not_raised(sb, monkeypatch):
    def too_large(structure):
        raise CarrierTooLarge(structure.n ** 2, 4)

    def verdicts(reports):
        return {r.check_id: (r.hypotheses_held, r.passed, r.notes) for r in reports}

    before = verdicts(run_all(sb))
    monkeypatch.setattr(verify, "twist_tables", too_large)
    after = verdicts(run_all(sb))
    # recorded as CapExceeded is: hypotheses held, no verdict, a cap note
    assert after.pop("TWASS") == (True, None, "cap exceeded: carrier would have 9 elements, cap is 4")
    before.pop("TWASS")
    assert after == before
