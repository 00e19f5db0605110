"""Twist-product classification, radicals, spectra, and the isomorphisms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pairspec import constructions, monoids
from pairspec.congruences import (
    all_relation,
    diag_e,
    diagonal,
    enumerate_congruences,
    generated_congruence,
    meet,
)
from pairspec.core import classify_pair, positive_e_type
from pairspec.errors import LatticeRequired
from pairspec.spectrum import (
    classify_congruence,
    classify_congruence_elementwise,
    congruence_e_type,
    improper_members,
    spectrum_report,
    sqrt_phi,
    twist,
    twist_subset,
)
from pairspec.verify import run_check

from test_congruences import _random_pair

SMALL = ("super_boolean", "minbp_c2_first", "minbp_c2_second",
         "supertropical_c2", "power_krasner", "field_f3", "field_f5")


# -- twist products -----------------------------------------------------------------

def test_twist_diag_products_stay_diagonal(sb):
    d = diagonal(sb)
    assert twist_subset(sb, d, d, d.matrix)


def test_twist_with_diagonal_lands_inside(pairs):
    for name in SMALL:
        p = pairs[name]
        lat = enumerate_congruences(p)
        for cong in lat:
            assert twist_subset(p, cong, diagonal(p), cong.matrix), name


def test_twist_explicit_super_boolean(sb):
    phi = generated_congruence(sb, [(1, 2)])
    # every product of two members collapses onto the diagonal
    assert twist_subset(sb, phi, phi, diagonal(sb).matrix)
    assert twist(sb, (0, 1), (0, 1)) == (1, 0)


def test_twist_subset_early_exit(sb):
    full = all_relation(sb)
    assert twist_subset(sb, full, full, all_relation(sb).matrix)
    assert not twist_subset(sb, full, full, diagonal(sb).matrix)


# -- radical -------------------------------------------------------------------------

def test_sqrt_of_radical_congruence_is_itself(sb):
    lat = enumerate_congruences(sb)
    for i, cong in enumerate(lat):
        cls = classify_congruence_elementwise(sb, cong)
        r = sqrt_phi(sb, cong)
        if cls.radical:
            assert (r.matrix == cong.matrix).all()
        else:
            assert (r.matrix & ~cong.matrix).any()


def test_sqrt_diag_contains_1e_for_positive_e_type(pairs):
    for name, p in pairs.items():
        if p.property_n is None or positive_e_type(p) is None:
            continue
        r = sqrt_phi(p, diagonal(p))
        e = p.property_n.e
        assert r.contains(p.one, e) and r.contains(e, p.one), name
        assert r.depth >= 2


def test_sqrt_all_relation_is_all(sb):
    r = sqrt_phi(sb, all_relation(sb))
    assert r.matrix.all()
    assert r.is_congruence


def test_sqrt_need_not_be_congruence(pairs):
    r = sqrt_phi(pairs["minbp_c2_second"], diagonal(pairs["minbp_c2_second"]))
    assert not r.is_congruence


# -- classification -------------------------------------------------------------------

def test_classify_super_boolean_congruences(sb):
    lat = enumerate_congruences(sb)
    by_blocks = {c.block_of: classify_congruence(sb, c, lat) for c in lat}
    diag_cls = by_blocks[(0, 1, 2)]
    mid_cls = by_blocks[(0, 1, 1)]
    top_cls = by_blocks[(0, 0, 0)]

    assert not diag_cls.radical          # (1,e) squares into the diagonal
    assert not diag_cls.semiprime
    assert not diag_cls.prime
    assert diag_cls.proper

    assert mid_cls.radical and mid_cls.strongly_prime and mid_cls.prime
    assert mid_cls.semiprime and mid_cls.irreducible
    assert mid_cls.contains_1e
    assert mid_cls.e_type == 1
    assert not mid_cls.proper and mid_cls.weakly_proper

    assert top_cls.prime and top_cls.radical and top_cls.strongly_prime
    assert not top_cls.weakly_proper


def test_lattice_required(sb):
    with pytest.raises(LatticeRequired):
        classify_congruence(sb, diagonal(sb), None)


def test_congruence_e_type_values(sb):
    lat = enumerate_congruences(sb)
    # the pair itself has positive e-type, so (1+e, e) is diagonal and every
    # congruence reports e-type 1
    for cong in lat:
        assert congruence_e_type(sb, cong) == 1


def test_prime_iff_semiprime_and_irreducible(pairs):
    for name in SMALL:
        p = pairs[name]
        lat = enumerate_congruences(p)
        for cong in lat:
            c = classify_congruence(p, cong, lat)
            assert c.prime == (c.semiprime and c.irreducible), name


def test_intersections_preserve_radical_and_semiprime(pairs):
    for name in SMALL:
        p = pairs[name]
        lat = enumerate_congruences(p)
        cls = [classify_congruence(p, c, lat) for c in lat]
        rad = [i for i, c in enumerate(cls) if c.radical]
        semi = [i for i, c in enumerate(cls) if c.semiprime]
        for i in rad:
            for j in rad:
                m = meet(lat[i], lat[j])
                assert classify_congruence_elementwise(p, m).radical, name
        for i in semi:
            for j in semi:
                m = meet(lat[i], lat[j])
                assert classify_congruence(p, m, lat).semiprime, name


def test_prime_but_not_strongly_prime_finding(pairs):
    """The diagonal of the second-kind minimal pair separates the two prime
    notions on a commutative semiring pair of positive e-type."""
    p = pairs["minbp_c2_second"]
    assert p.structure.is_semiring()
    assert positive_e_type(p) == 1
    lat = enumerate_congruences(p)
    d = classify_congruence(p, diagonal(p), lat)
    assert d.prime
    assert not d.strongly_prime
    # the witnessing square: (1, inf) twists to a diagonal element
    inf = p.structure.index["inf"]
    assert twist(p, (1, inf), (1, inf)) == (inf, inf)


def test_weak_and_strong_spectra_diverge_on_signs_power(pairs):
    rep = spectrum_report(pairs["power_signs"])
    assert len(rep.hspec) == 4
    assert len(rep.strongly_prime_set) == 2
    assert set(rep.strongly_prime_set) <= set(rep.hspec)
    assert rep.rd2.holds and rep.sp2i.holds
    assert rep.rd2_weak.holds is False and rep.sp2i_weak.holds is False


def test_strongly_prime_implies_prime(pairs):
    for name in SMALL:
        p = pairs[name]
        lat = enumerate_congruences(p)
        for cong in lat:
            c = classify_congruence(p, cong, lat)
            if c.strongly_prime:
                assert c.prime, name


def _assert_classes_match_definition(p):
    lat = enumerate_congruences(p)
    rows = [c.block_of for c in lat]
    for c in lat:
        got = classify_congruence(p, c, lat).to_dict()
        assert got == oracle.classify_by_definition(p, c.block_of, rows), (p.name, c.block_of)


def test_classification_matches_definition_on_catalog(pairs):
    for p in pairs.values():
        _assert_classes_match_definition(p)
    _assert_classes_match_definition(constructions.function_pair(
        constructions.super_boolean(), monoids.cyclic_group(3), name="function_sb_c3"))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 5))
def test_classification_matches_definition_random_pairs(seed, n):
    _assert_classes_match_definition(_random_pair(np.random.default_rng(seed), n))


# -- reports -------------------------------------------------------------------------

def test_spectrum_report_super_boolean(sb):
    rep = spectrum_report(sb)
    assert len(rep.lattice) == 3
    assert len(rep.hspec) == 2
    assert rep.hspec == rep.strongly_prime_set
    assert rep.rd1.applicable and rep.rd1.holds
    assert rep.rd2.applicable and rep.rd2.holds
    assert rep.sp2i.applicable and rep.sp2i.holds
    d = rep.to_dict()
    assert d["lattice_size"] == 3
    assert d["verdict_radical_contains_1e"]["holds"] is True


def _record_lattice_work(monkeypatch):
    """Record every enumeration (pair name, cap) and every full
    classification (pair name, blocks) made through ``pairspec.spectrum``."""
    import pairspec.spectrum as spectrum
    enumerated, classified = [], []

    def enumerate_recording(pair, cap=None):
        enumerated.append((pair.name, cap))
        return enumerate_congruences(pair, cap)

    def classify_recording(pair, cong, lattice):
        classified.append((pair.name, cong.block_of))
        return classify_congruence(pair, cong, lattice)

    monkeypatch.setattr(spectrum, "enumerate_congruences", enumerate_recording)
    monkeypatch.setattr(spectrum, "classify_congruence", classify_recording)
    return enumerated, classified


def _assert_three_lattices_once(sb, enumerated, classified):
    from pairspec.constructions import quotient_pair
    from pairspec.spectrum import ae_pair
    names = ["super_boolean", "super_boolean*e", "super_boolean/diag_e"]
    assert enumerated == [(name, 7) for name in names]
    # each member of each of the three lattices is classified exactly once
    lattices = [enumerate_congruences(sb), enumerate_congruences(ae_pair(sb)[0]),
                enumerate_congruences(quotient_pair(sb, diag_e(sb)))]
    assert classified == [(name, c.block_of) for name, lat in zip(names, lattices)
                          for c in lat]


def test_spectrum_cap_reaches_auxiliary_lattices(sb, monkeypatch):
    enumerated, classified = _record_lattice_work(monkeypatch)
    spectrum_report(sb, cap=7)
    _assert_three_lattices_once(sb, enumerated, classified)


def test_run_all_builds_three_lattices_once(sb, monkeypatch):
    from pairspec.verify import run_all
    enumerated, classified = _record_lattice_work(monkeypatch)
    run_all(sb, cap=7)
    _assert_three_lattices_once(sb, enumerated, classified)


def test_spectrum_report_single_element_pair():
    from pairspec.core import validate_pair, validate_structure
    st = validate_structure(["0"], 0, 0, [[0]], [[0]])
    p = validate_pair(st, {0}, {0}, name="point")
    rep = spectrum_report(p)
    assert len(rep.lattice) == 1
    assert len(rep.hspec) == 1  # the unique congruence is vacuously prime


def test_spectrum_verdicts_on_applicable_catalog(pairs):
    for name, p in pairs.items():
        rep = spectrum_report(p)
        if rep.rd1.applicable:
            assert rep.rd1.holds, name
        if rep.rd2.applicable:
            assert rep.rd2.holds, (name, rep.rd2.detail)
        if rep.sp2i.applicable:
            assert rep.sp2i.holds, (name, rep.sp2i.detail)


# -- improper elements ------------------------------------------------------------------

def test_improper_scan_diag_empty_on_proper_pairs(pairs):
    for name, p in pairs.items():
        if classify_pair(p).proper:
            assert improper_members(p, diagonal(p)) == [], name


def test_improper_scan_all_relation_super_boolean(sb):
    found = improper_members(sb, all_relation(sb))
    as_labels = {(sb.names[a], sb.names[b], very) for a, b, very in found}
    assert ("1", "e", False) in as_labels     # 1 + e = e, improper but not very
    assert ("1", "0", True) in as_labels      # 1 + 0 = 1, very improper


def test_very_improper_in_fields(pairs):
    p = pairs["field_f5"]
    found = improper_members(p, all_relation(p))
    very = {(p.names[a], p.names[b]) for a, b, v in found if v}
    assert ("1", "0") in very


def test_very_improper_products_on_semiring_catalog(pairs):
    for name, p in pairs.items():
        if not p.structure.is_semiring():
            continue
        lat = enumerate_congruences(p)
        very = sorted({
            (a, b) for cong in lat for a, b, v in improper_members(p, cong) if v
        })
        for a1, b1 in very:
            for a2, b2 in very:
                x, y = twist(p, (a1, b1), (a2, b2))
                assert x in p.tangible, name
                assert y in p.a_zero, name
                assert int(p.add[x, y]) == x, name


# -- maximal congruences -------------------------------------------------------------------

def test_maximal_proper_report_super_boolean(sb):
    rep = spectrum_report(sb)
    lat = rep.lattice
    assert [lat[i].block_of for i in rep.maximal_proper] == [(0, 1, 2)]
    assert [lat[i].block_of for i in rep.maximal_weakly_proper] == [(0, 1, 1)]
    # CHAINS part iv: no twist product of very improper congruences lands
    # inside the maximal weakly proper one
    chains = run_check(sb, "CHAINS")
    assert chains.passed and "1 maximal weakly proper checked" in chains.notes


def test_full_pipeline_on_doubled_pair(sb):
    """The doubled pair feeds straight back into the congruence and spectrum
    machinery: a second-kind, e-central pair of positive e-type 2."""
    from pairspec.constructions import double
    dp = double(sb).pair
    c = classify_pair(dp)
    assert c.kind == "second"
    assert c.e_type == (2, 2)
    assert c.e_central and c.proper
    lat = enumerate_congruences(dp)
    assert len(lat) == 9
    rep = spectrum_report(dp)
    assert len(rep.hspec) == 3 and len(rep.strongly_prime_set) == 2
    assert rep.rd1.holds and rep.rd2.holds and rep.sp2i.holds


def test_degenerate_pair_has_no_proper_congruence():
    from pairspec.core import validate_pair, validate_structure
    st = validate_structure(["0", "1"], 0, 1, [[0, 1], [1, 1]], [[0, 0], [0, 1]])
    p = validate_pair(st, {1}, {0, 1}, name="degenerate")
    assert spectrum_report(p).maximal_proper == ()


def test_maximal_matches_pairwise_definition(pairs):
    from pairspec.spectrum import _maximal
    for name, p in pairs.items():
        lat = enumerate_congruences(p)
        subsets = [[], list(range(len(lat))), list(range(len(lat)))[::-1],
                   list(range(0, len(lat), 2)), [lat.bottom]]
        for idxs in subsets:
            want = tuple(i for i in idxs
                         if not any(j != i and lat.leq[i, j] for j in idxs))
            got = _maximal(lat, idxs)
            assert got == want and all(type(i) is int for i in got), (name, idxs)
