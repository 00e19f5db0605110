"""The law harness: hypothesis gating, pass/fail reporting, re-verification."""

import pytest

from pairspec.constructions import minimal_bipotent
from pairspec.errors import UnknownCheckId
from pairspec.monoids import trivial_monoid
from pairspec.verify import (
    CHECKS,
    reverify_counterexample,
    run_all,
    run_check,
    summarize,
)

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
