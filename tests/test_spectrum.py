"""Twist-product classification, radicals, spectra, and the isomorphisms."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from pairspec import constructions, monoids
from pairspec.congruences import (
    Congruence,
    all_relation,
    diag_e,
    diagonal,
    enumerate_congruences,
    generated_congruence,
    meet,
    relates_t_a0,
    relation_flags,
    relation_to_congruence,
)
from pairspec.core import classify_pair, positive_e_type, validate_pair, validate_structure
from pairspec.errors import PairspecError
from pairspec.spectrum import (
    Analysis,
    ae_pair,
    classify_congruence,
    classify_congruence_elementwise,
    member_record,
    spectrum_report,
    sqrt_phi,
    twist,
    twist_columns,
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
        r = sqrt_phi(sb, cong)
        if classify_congruence_elementwise(sb, cong)["radical"]:
            assert (r.matrix == cong.matrix).all()
        else:
            assert (r.matrix & ~cong.matrix).any()


def test_sqrt_diag_contains_1e_for_positive_e_type(pairs):
    for name, p in pairs.items():
        if p.property_n is None or positive_e_type(p) is None:
            continue
        r = sqrt_phi(p, diagonal(p))
        e = p.property_n.e
        assert r.matrix[p.one, e] and r.matrix[e, p.one], name
        assert r.depth >= 2


def test_sqrt_all_relation_is_all(sb):
    r = sqrt_phi(sb, all_relation(sb))
    assert r.matrix.all()
    assert relation_to_congruence(sb, r.matrix) is not None


def test_sqrt_need_not_be_congruence(pairs):
    p = pairs["minbp_c2_second"]
    assert relation_to_congruence(p, sqrt_phi(p, diagonal(p)).matrix) is None


# -- classification -------------------------------------------------------------------

def test_classify_super_boolean_congruences(sb):
    lat = enumerate_congruences(sb)
    by_blocks = {c.block_of: classify_congruence(sb, c, lat) for c in lat}
    diag_cls = by_blocks[(0, 1, 2)]
    mid_cls = by_blocks[(0, 1, 1)]
    top_cls = by_blocks[(0, 0, 0)]

    assert not diag_cls["radical"]          # (1,e) squares into the diagonal
    assert not diag_cls["semiprime"]
    assert not diag_cls["prime"]
    assert diag_cls["proper"]

    assert mid_cls["radical"] and mid_cls["strongly_prime"] and mid_cls["prime"]
    assert mid_cls["semiprime"] and mid_cls["irreducible"]
    assert mid_cls["contains_1e"]
    assert mid_cls["e_type"] == 1
    assert not mid_cls["proper"] and mid_cls["weakly_proper"]

    assert top_cls["prime"] and top_cls["radical"] and top_cls["strongly_prime"]
    assert not top_cls["weakly_proper"]


def test_congruence_e_type_values(sb):
    lat = enumerate_congruences(sb)
    # the pair itself has positive e-type, so (1+e, e) is diagonal and every
    # congruence reports e-type 1
    for cong in lat:
        assert relation_flags(sb, [cong.roots])["e_type"][0] == 1


def test_prime_iff_semiprime_and_irreducible(pairs):
    for name in SMALL:
        p = pairs[name]
        lat = enumerate_congruences(p)
        for cong in lat:
            c = classify_congruence(p, cong, lat)
            assert c["prime"] == (c["semiprime"] and c["irreducible"]), name


def test_intersections_preserve_radical_and_semiprime(pairs):
    for name in SMALL:
        p = pairs[name]
        lat = enumerate_congruences(p)
        cls = [classify_congruence(p, c, lat) for c in lat]
        rad = [i for i, c in enumerate(cls) if c["radical"]]
        semi = [i for i, c in enumerate(cls) if c["semiprime"]]
        for i in rad:
            for j in rad:
                m = meet(lat[i], lat[j])
                assert classify_congruence_elementwise(p, m)["radical"], name
        for i in semi:
            for j in semi:
                m = meet(lat[i], lat[j])
                assert classify_congruence(p, m, lat)["semiprime"], name


def test_prime_but_not_strongly_prime_finding(pairs):
    """The diagonal of the second-kind minimal pair separates the two prime
    notions on a commutative semiring pair of positive e-type."""
    p = pairs["minbp_c2_second"]
    assert p.structure.is_semiring()
    assert positive_e_type(p) == 1
    lat = enumerate_congruences(p)
    d = classify_congruence(p, diagonal(p), lat)
    assert d["prime"]
    assert not d["strongly_prime"]
    # the witnessing square: (1, inf) twists to a diagonal element
    inf = p.structure.index["inf"]
    assert twist(p, (1, inf), (1, inf)) == (inf, inf)


def test_weak_and_strong_spectra_diverge_on_signs_power(pairs):
    rep = spectrum_report(pairs["power_signs"])
    assert len(rep["hspec"]) == 4
    assert len(rep["strongly_prime"]) == 2
    assert set(rep["strongly_prime"]) <= set(rep["hspec"])
    assert rep["verdict_spec_iso_ae"]["holds"] and rep["verdict_spec_e_iso_quotient"]["holds"]
    assert rep["verdict_spec_iso_ae_weak_primes"]["holds"] is False
    assert rep["verdict_spec_e_iso_quotient_weak_primes"]["holds"] is False


def test_strongly_prime_implies_prime(pairs):
    for name in SMALL:
        p = pairs[name]
        lat = enumerate_congruences(p)
        for cong in lat:
            c = classify_congruence(p, cong, lat)
            if c["strongly_prime"]:
                assert c["prime"], name


def _assert_classes_match_definition(p):
    lat = enumerate_congruences(p)
    rows = [c.block_of for c in lat]
    flags = relation_flags(p, lat.roots)
    for i, c in enumerate(lat):
        want = {"blocks": c.block_labels(), **oracle.classify_by_definition(p, c.block_of, rows)}
        assert classify_congruence(p, c, lat) == want, (p.name, c.block_of)
        # the relation flags over the whole matrix, and over the one row
        for got in (member_record(c, flags, i), member_record(c, relation_flags(p, [c.roots]), 0)):
            assert {k: got[k] for k in flags} == {k: want[k] for k in flags}, (p.name, c.block_of)


def test_classification_matches_definition_on_catalog(pairs):
    for p in pairs.values():
        _assert_classes_match_definition(p)
    _assert_classes_match_definition(constructions.function_pair(
        constructions.super_boolean(), monoids.cyclic_group(3), name="function_sb_c3"))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 5))
def test_classification_matches_definition_random_pairs(seed, n):
    _assert_classes_match_definition(_random_pair(np.random.default_rng(seed), n))


def _flip_cell(rng, p):
    """p with one random cell of its multiplication table, off the rows and
    columns of zero and one, set to a random value; None when that is no
    pair."""
    free = [x for x in range(p.n) if x not in (p.zero, p.one)]
    if not free:
        return None
    mul = p.mul.copy()
    mul[rng.choice(free), rng.choice(free)] = rng.integers(p.n)
    try:
        st_ = validate_structure(p.names, p.zero, p.one, p.add, mul)
        return validate_pair(st_, p.tangible, p.a_zero, name="flipped")
    except PairspecError:
        return None


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 6), flip=st.booleans())
def test_columns_match_definition_with_planted_flips(seed, n, flip):
    """The twist columns of a whole lattice equal the definitions member by
    member, on random pairs and on pairs with a table cell flipped.  With a
    root row corrupted into another partition, the radical and
    T-cancellative columns, which read the row alone, still give that
    partition's flags by definition."""
    rng = np.random.default_rng(seed)
    p = _random_pair(rng, n)
    if flip:
        p = _flip_cell(rng, p)
        assume(p is not None)
    # more tangibles than the unit, so that T-cancellation is tested
    more = [x for x in range(n) if x != p.zero and rng.integers(2)]
    p = oracle.bare_pair(p.structure, {p.one, *more}, p.a_zero, name=p.name)
    lat = enumerate_congruences(p)
    rows = [c.block_of for c in lat]
    cols = twist_columns(p, lat.roots, lat.covers)
    for i, c in enumerate(lat):
        want = oracle.classify_by_definition(p, c.block_of, rows)
        assert {f: bool(c[i]) for f, c in cols.items()} == {f: want[f] for f in cols}
    k = int(rng.integers(len(lat)))
    roots = lat.roots.copy()
    roots[k] = oracle.roots_of(rng.integers(0, n, n).tolist())
    cols = twist_columns(p, roots, lat.covers, [k])
    want = oracle.classify_by_definition(p, oracle.restricted_growth(roots[k].tolist()), rows)
    for f in ("radical", "t_cancellative"):
        assert bool(cols[f][0]) == want[f], f


def _catalog_lattices(pairs):
    """Every catalog lattice, and those of its A*e and A/diag_e that exist."""
    for p in pairs.values():
        a = Analysis(p, None)
        yield a.lattice
        for sub in ("ae", "quotient_e"):
            try:
                yield getattr(a, sub)[0].lattice
            except PairspecError:
                pass


def _covers_relation(p, lat, i, a, b) -> bool:
    """Whether every twist product of covers a x b of member i lies in it."""
    return twist_subset(p, lat[a], lat[b], lat[i].matrix)


def test_implication_strongly_prime_implies_radical(pairs):
    seen = 0
    for lat in _catalog_lattices(pairs):
        for c in lat:
            cls = classify_congruence_elementwise(lat.pair, c)
            assert cls["radical"] or not cls["strongly_prime"], (lat.pair.name, c.roots)
            seen += cls["strongly_prime"]
    assert seen


def test_implication_radical_implies_semiprime(pairs):
    """No cover c of a radical member has c*c inside it."""
    seen = 0
    for lat in _catalog_lattices(pairs):
        for i, c in enumerate(lat):
            if classify_congruence_elementwise(lat.pair, c)["radical"]:
                for j in lat.covers[i]:
                    assert not _covers_relation(lat.pair, lat, i, j, j), (lat.pair.name, c.roots)
                    seen += 1
    assert seen


def test_implication_two_covers_twist_inside(pairs):
    """c1*c2 lies inside the member for any two distinct covers c1, c2."""
    seen = 0
    for lat in _catalog_lattices(pairs):
        for i, cov in enumerate(lat.covers):
            for a in cov:
                for b in cov:
                    if a != b:
                        assert _covers_relation(lat.pair, lat, i, a, b), (lat.pair.name, i)
                        seen += 1
    assert seen


def test_implication_strongly_prime_has_at_most_one_cover(pairs):
    seen = 0
    for lat in _catalog_lattices(pairs):
        for i, c in enumerate(lat):
            if classify_congruence_elementwise(lat.pair, c)["strongly_prime"]:
                assert len(lat.covers[i]) <= 1, (lat.pair.name, c.roots)
                seen += 1
    assert seen


def test_column_pass_memory_is_bounded(monkeypatch):
    """With the step sizes lowered, the peak of the column pass on the
    2,722 congruences of function_pair(super_boolean, sat3) is a small
    working set plus a few bytes per member and per (member, cover) edge;
    a pass that built every job's pairs at once would hold n^2 cells per
    edge."""
    from pairspec import _kernels
    p = constructions.function_pair(constructions.super_boolean(), monoids.saturating_monoid(3))
    lat = enumerate_congruences(p)
    edges = sum(map(len, lat.covers))
    monkeypatch.setattr(_kernels, "_SCAN_CELLS", 1 << 12)
    monkeypatch.setattr(_kernels, "ROW_CELLS", 1 << 12)
    tracemalloc.start()
    cols = twist_columns(p, lat.roots, lat.covers)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (int(cols["radical"].sum()), int(cols["strongly_prime"].sum())) == (4, 3)
    assert peak < 16 * 8 * (1 << 12) + (len(lat) + edges) * (p.n + 100), peak


# -- reports -------------------------------------------------------------------------

def test_spectrum_report_super_boolean(sb):
    rep = spectrum_report(sb)
    assert len(rep["congruences"]) == 3
    assert len(rep["hspec"]) == 2
    assert rep["hspec"] == rep["strongly_prime"]
    for key in ("verdict_radical_contains_1e", "verdict_spec_iso_ae",
                "verdict_spec_e_iso_quotient"):
        assert rep[key]["applicable"] and rep[key]["holds"], key
    assert rep["lattice_size"] == 3
    assert rep["verdict_radical_contains_1e"]["holds"] is True


def _record_lattice_work(monkeypatch):
    """Record every enumeration (pair name, cap) and every classification
    pass (pair name, the blocks of each row it classifies) made through
    ``pairspec.spectrum``."""
    import pairspec.spectrum as spectrum
    enumerated, classified = [], []

    def enumerate_recording(pair, cap=None):
        enumerated.append((pair.name, cap))
        return enumerate_congruences(pair, cap)

    def classify_recording(pair, roots, covers, rows=None):
        picked = roots if rows is None else roots[rows]
        classified.append((pair.name, [Congruence(pair, r).block_of for r in map(tuple, picked)]))
        return twist_columns(pair, roots, covers, rows)

    monkeypatch.setattr(spectrum, "enumerate_congruences", enumerate_recording)
    monkeypatch.setattr(spectrum, "twist_columns", classify_recording)
    return enumerated, classified


def _assert_three_lattices_once(sb, enumerated, classified):
    from pairspec.constructions import quotient_pair
    from pairspec.spectrum import ae_pair
    names = ["super_boolean", "super_boolean*e", "super_boolean/diag_e"]
    assert enumerated == [(name, 7) for name in names]
    # each of the three lattices is classified once, in one pass over all
    # its members
    lattices = [enumerate_congruences(sb), enumerate_congruences(ae_pair(sb)[0]),
                enumerate_congruences(quotient_pair(sb, diag_e(sb)))]
    assert classified == [(name, [c.block_of for c in lat])
                          for name, lat in zip(names, lattices)]


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
    assert len(rep["congruences"]) == 1
    assert len(rep["hspec"]) == 1  # the unique congruence is vacuously prime


def test_spectrum_verdicts_on_applicable_catalog(pairs):
    for name, p in pairs.items():
        rep = spectrum_report(p)
        for key in ("verdict_radical_contains_1e", "verdict_spec_iso_ae",
                    "verdict_spec_e_iso_quotient"):
            if rep[key]["applicable"]:
                assert rep[key]["holds"], (name, key, rep[key]["detail"])


# -- improper elements ------------------------------------------------------------------

def improper_members(pair, cong):
    """All related (a, b) in T x A0, flagged very improper when a + b = a,
    read off the relation flags."""
    t_a0 = [(a, b) for a in sorted(pair.tangible) for b in sorted(pair.a_zero)]
    related = relates_t_a0(pair, [cong.roots])[0]
    return [(a, b, int(pair.add[a, b]) == a) for (a, b), r in zip(t_a0, related) if r]


def test_improper_scan_diag_empty_on_proper_pairs(pairs):
    for name, p in pairs.items():
        if classify_pair(p)["proper"]:
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
        very = oracle.very_improper_over_lattice(p, enumerate_congruences(p))
        for a1, b1 in very:
            for a2, b2 in very:
                x, y = twist(p, (a1, b1), (a2, b2))
                assert x in p.tangible, name
                assert y in p.a_zero, name
                assert int(p.add[x, y]) == x, name


# -- maximal congruences -------------------------------------------------------------------

def test_maximal_proper_report_super_boolean(sb):
    rep = spectrum_report(sb)
    blocks = [c["blocks"] for c in rep["congruences"]]
    assert [blocks[i] for i in rep["maximal_proper"]] == [[["0"], ["1"], ["e"]]]
    assert [blocks[i] for i in rep["maximal_weakly_proper"]] == [[["0"], ["1", "e"]]]
    # CHAINS part iv: no twist product of very improper congruences lands
    # inside the maximal weakly proper one
    chains = run_check(sb, "CHAINS")
    assert chains["passed"] and "1 maximal weakly proper checked" in chains["notes"]


def test_full_pipeline_on_doubled_pair(sb):
    """The doubled pair feeds straight back into the congruence and spectrum
    machinery: a second-kind, e-central pair of positive e-type 2."""
    from pairspec.constructions import double
    dp = double(sb).pair
    c = classify_pair(dp)
    assert c["kind"] == "second"
    assert c["e_type"] == [2, 2]
    assert c["e_central"] and c["proper"]
    lat = enumerate_congruences(dp)
    assert len(lat) == 9
    rep = spectrum_report(dp)
    assert len(rep["hspec"]) == 3 and len(rep["strongly_prime"]) == 2
    assert all(rep[key]["holds"] for key in ("verdict_radical_contains_1e",
                                             "verdict_spec_iso_ae", "verdict_spec_e_iso_quotient"))


def test_degenerate_pair_has_no_proper_congruence():
    from pairspec.core import validate_pair, validate_structure
    st = validate_structure(["0", "1"], 0, 1, [[0, 1], [1, 1]], [[0, 0], [0, 1]])
    p = validate_pair(st, {1}, {0, 1}, name="degenerate")
    assert spectrum_report(p)["maximal_proper"] == []


def test_maximal_matches_pairwise_definition(pairs):
    from pairspec.spectrum import _maximal
    for name, p in pairs.items():
        lat = enumerate_congruences(p)
        subsets = [[], list(range(len(lat))), list(range(len(lat)))[::-1],
                   list(range(0, len(lat), 2)), [0]]
        for idxs in subsets:
            want = tuple(i for i in idxs
                         if not any(j != i and lat.leq[i, j] for j in idxs))
            got = _maximal(lat, idxs)
            assert got == want and all(type(i) is int for i in got), (name, idxs)


def _order_iso_loop(leq_a, idx_a, leq_b, idx_b, mapping):
    if sorted(mapping.values()) != sorted(idx_b):
        return False
    return all(bool(leq_a[i, j]) == bool(leq_b[mapping[i], mapping[j]])
               for i in idx_a for j in idx_a)


def test_order_iso_matches_pairwise_loop(pairs):
    """Random maps between index sets, one-to-one or not, onto the target
    set or one member short of it: the map is an order-isomorphism onto the
    target exactly as the pairwise loop finds."""
    from pairspec.spectrum import _order_iso
    rng = np.random.default_rng(3)
    for name, p in pairs.items():
        leq = enumerate_congruences(p).leq
        m = len(leq)
        assert _order_iso(leq, [], leq, [], []) == (True, True), name
        for _ in range(20):
            src = sorted(rng.choice(m, int(rng.integers(1, m + 1)), replace=False).tolist())
            img = rng.permutation(src).tolist() if rng.integers(2) else src
            if rng.integers(2):
                img = img[:1] + img[:-1]        # the first image twice
            mapping = dict(zip(src, img))
            for idx_b in (img, img[:-1]):
                onto, iso = _order_iso(leq, src, leq, img, idx_b)
                assert onto is (set(img) == set(idx_b)), (name, src, img)
                assert iso is _order_iso_loop(leq, src, leq, idx_b, mapping), (name, src, img)


# -- A*e -------------------------------------------------------------------------

def _ae_outcome(build, pair):
    try:
        p, proj = build(pair)
    except PairspecError as exc:
        return type(exc), str(exc), exc.witness
    return (p.names, p.add.tolist(), p.mul.tolist(), p.tangible, p.a_zero, p.zero, p.one,
            p.name, proj.tolist())


def test_ae_pair_matches_loop(pairs):
    for p in pairs.values():
        if p.property_n is not None:
            assert _ae_outcome(ae_pair, p) == _ae_outcome(oracle.ae_pair_loop, p), p.name


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6))
def test_ae_pair_matches_loop_on_random_tables(seed, n):
    """Random tables, most of them not closed on A*e: the same first
    witness, or the same tables."""
    rng = np.random.default_rng(seed)
    add, mul = rng.integers(0, n, (2, n, n))
    mul[1] = mul[:, 1] = np.arange(n)
    mul[0] = mul[:, 0] = 0
    a0 = rng.random(n) < 0.5
    a0[0] = True
    witness = SimpleNamespace(e=int(rng.integers(n)))
    fake = SimpleNamespace(
        n=n, names=tuple(f"x{i}" for i in range(n)), add=add, mul=mul, zero=0,
        one=1, a0_mask=a0, a_zero=frozenset(np.flatnonzero(a0).tolist()),
        name="random", require_property_n=lambda: witness)
    assert _ae_outcome(ae_pair, fake) == _ae_outcome(oracle.ae_pair_loop, fake)


def _jm_images(pairs):
    """The A*e images that are commutative and additively idempotent, of the
    catalog pairs and of their function pairs of at most 64 elements."""
    sources = list(pairs.values())
    for p in pairs.values():
        for make in monoids.NAMED_MONOIDS.values():
            s = make()
            if p.n ** s.k <= 64:
                try:
                    sources.append(constructions.function_pair(p, s))
                except PairspecError:
                    pass
    for p in sources:
        try:
            image = Analysis(p, None).ae[0]
        except PairspecError:
            continue
        add, mul = image.pair.add, image.pair.mul
        if (mul == mul.T).all() and (np.diag(add) == np.arange(image.pair.n)).all():
            yield image


def test_strongly_prime_is_joo_mincheva_prime(pairs):
    images = members = 0
    for image in _jm_images(pairs):
        images += 1
        sub = image.pair
        add, mul = sub.add.tolist(), sub.mul.tolist()
        for cong, strongly_prime in zip(image.lattice, image.columns["strongly_prime"]):
            if len(set(cong.block_of)) > 1:
                members += 1
                assert strongly_prime == oracle.jm_prime(add, mul, list(cong.block_of),
                                                             sub.zero), (sub.name, cong.roots)
    assert (images, members) == (54, 300)


def test_iso_verdicts_match_member_loop(pairs):
    """RD2 and SP2 read each member's image from ``Analysis.images``: with
    images planted that are no congruence, missing from the target lattice
    or not prime there, and over source sets that fail the kernel test or
    the bijection, each verdict is that of the loop over the source
    congruences pushed one at a time."""
    from pairspec.spectrum import MISSING, NOT_CONGRUENCE, _AE_WORDS, _QUOTIENT_WORDS, _iso_verdict
    seen = set()
    for p in pairs.values():
        a = Analysis(p, None)
        lat = a.lattice
        for sub, verdicts, words in (("ae", "rd2", _AE_WORDS), ("quotient_e", "sp2i", _QUOTIENT_WORDS)):
            if not getattr(a, verdicts)[0]["applicable"]:
                continue
            target, proj = getattr(a, sub)
            kernel = None if sub == "ae" else Congruence.from_labels(p, proj.tolist())
            real, t_lat = a.images(sub), target.lattice
            for flag in ("strongly_prime", "prime"):
                spec = target.having(flag)
                others = [k for k in range(len(t_lat)) if k not in spec]
                src = a.having(flag) if sub == "ae" else a.spec_e(flag)
                for s in (src, list(range(len(lat)))):
                    plants = [{}, {s[0]: NOT_CONGRUENCE}, {s[-1]: MISSING},
                              {s[0]: MISSING, s[-1]: NOT_CONGRUENCE}]
                    plants += [{s[len(s) // 2]: k} for k in others[:1]]
                    for plant in plants:
                        fake = real.copy()
                        fake[list(plant)] = list(plant.values())

                        def push(cong, fake=fake):
                            k = fake[lat.find(cong)]
                            return (None if k == NOT_CONGRUENCE else
                                    SimpleNamespace(roots=None) if k == MISSING else t_lat[k])

                        got = _iso_verdict(a, s, target, fake, flag, kernel, words)
                        want = oracle.iso_verdict_loop(lat, s, t_lat, spec, push,
                                                       kernel and kernel.roots, words)
                        assert (got["holds"], got["detail"]) == want, (p.name, sub, flag, plant)
                        seen.add(want[1].split("#")[-1].split(" ", 1)[-1] if "#" in want[1]
                                 else want[0])
    assert seen == {True, False, "does not contain diag_e", "is not a congruence of A*e",
                    "is not a congruence of the quotient", "missing from the A*e lattice",
                    "missing from the quotient lattice", "is not prime in A*e",
                    "is not prime in the quotient"}, seen
