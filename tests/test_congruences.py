"""Congruence closure, the principal-candidate relation, and the lattice."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pairspec import _kernels, catalog
from pairspec.constructions import function_pair
from pairspec.congruences import (
    Congruence,
    _closed,
    all_relation,
    cong_b,
    diag_e,
    diagonal,
    enumerate_congruences,
    generated_congruence,
    is_congruence,
    join,
    joins,
    meet,
    meets,
    pushes,
    relation_to_congruence,
)
from pairspec.core import e_type, validate_pair, validate_structure
from pairspec.errors import CapExceeded, NoPropertyN
from pairspec.monoids import saturating_monoid
from pairspec.spectrum import Analysis, push_congruence, twist_subset

SMALL = ("super_boolean", "minbp_c2_first", "minbp_c2_second",
         "supertropical_c2", "power_krasner", "field_f3", "field_f5")


def two_element_boolean():
    st_ = validate_structure(["0", "e"], 0, 1, [[0, 1], [1, 1]], [[0, 0], [0, 1]])
    return validate_pair(st_, {1}, {0}, name="boolean")


def degenerate_one_equals_e():
    st_ = validate_structure(["0", "1"], 0, 1, [[0, 1], [1, 1]], [[0, 0], [0, 1]])
    return validate_pair(st_, {1}, {0, 1}, name="degenerate")


def test_diagonal_super_boolean(sb):
    d = diagonal(sb)
    assert d.blocks() == [[0], [1], [2]]
    assert d.roots == (0, 1, 2) and d != all_relation(sb)


def test_generated_empty_is_diagonal(sb):
    assert generated_congruence(sb, []).block_of == diagonal(sb).block_of


def test_generated_reflexive_pair_is_diagonal(sb):
    assert generated_congruence(sb, [(1, 1)]).block_of == diagonal(sb).block_of


def test_generated_1e_super_boolean(sb):
    cong = generated_congruence(sb, [(1, 2)])
    assert cong.blocks() == [[0], [1, 2]]
    expect = oracle.generated_congruence_bruteforce(sb, [(1, 2)])
    assert cong.block_of == expect


def test_generated_matches_bruteforce_everywhere(pairs):
    for name in SMALL:
        p = pairs[name]
        for x in range(p.n):
            for y in range(x + 1, p.n):
                got = generated_congruence(p, [(x, y)]).block_of
                want = oracle.generated_congruence_bruteforce(p, [(x, y)])
                assert got == want, (name, x, y)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_generated_matches_bruteforce_random_gens(pairs, seed):
    rng = np.random.default_rng(seed)
    name = SMALL[int(rng.integers(len(SMALL)))]
    p = pairs[name]
    k = int(rng.integers(1, 4))
    gens = [(int(rng.integers(p.n)), int(rng.integers(p.n))) for _ in range(k)]
    got = generated_congruence(p, gens).block_of
    want = oracle.generated_congruence_bruteforce(p, gens)
    assert got == want


def test_generated_is_idempotent_and_monotone(pairs):
    for name in SMALL:
        p = pairs[name]
        c1 = generated_congruence(p, [(0, 1)])
        gens = [(blk[0], x) for blk in c1.blocks() for x in blk[1:]]
        assert generated_congruence(p, gens).block_of == c1.block_of
        c2 = generated_congruence(p, gens + [(p.n - 1, 0)])
        assert oracle.refines_by_definition(c1.roots, c2.roots)


def test_is_congruence_examples(sb):
    ok, _ = is_congruence(sb, diagonal(sb))
    assert ok
    ok, _ = is_congruence(sb, all_relation(sb))
    assert ok
    ok, witness = is_congruence(sb, [0, 0, 1])  # {{0,1},{e}}
    assert not ok
    assert witness["operation"] in ("add", "mul-right", "mul-left")


def test_is_congruence_matches_bruteforce(pairs):
    for name in ("super_boolean", "minbp_c2_second", "field_f3"):
        p = pairs[name]
        expected = oracle.congruences_bruteforce(p)
        for bo in oracle.all_partitions(p.n):
            ok, _ = is_congruence(p, bo)
            assert ok == (bo in expected), (name, bo)


def test_relation_to_congruence(pairs):
    p = pairs["function_sb_sat2"]
    for c in enumerate_congruences(p):
        assert _closed(c.matrix)[1]
        assert relation_to_congruence(p, c.matrix).block_of == c.block_of
    rel = np.eye(p.n, dtype=bool)
    rel[0, 1] = rel[1, 0] = rel[1, 2] = rel[2, 1] = True
    assert not _closed(rel)[1] and relation_to_congruence(p, rel) is None
    rel[0, 2] = rel[2, 0] = True
    assert not is_congruence(p, [0, 0, 0] + list(range(1, p.n - 2)))[0]
    assert _closed(rel)[1] and relation_to_congruence(p, rel) is None
    # an element related to nothing, not even itself, is a block of its own
    zeros = np.zeros((p.n, p.n), dtype=bool)
    assert _closed(zeros)[1] and relation_to_congruence(p, zeros) == diagonal(p)


# -- diag_e -------------------------------------------------------------------------

def test_diag_e_super_boolean(sb):
    de = diag_e(sb)
    assert de.blocks() == [[0], [1, 2]]


def test_diag_e_equals_intersection_of_1e_congruences(pairs):
    for name in SMALL:
        p = pairs[name]
        if p.property_n is None:
            continue
        e = p.property_n.e
        de = diag_e(p)
        holders = [
            bo for bo in oracle.congruences_bruteforce(p) if bo[p.one] == bo[e]
        ]
        assert holders, name
        for x in range(p.n):
            for y in range(p.n):
                meet_related = all(bo[x] == bo[y] for bo in holders)
                assert de.related(x, y) == meet_related, (name, x, y)


def test_diag_e_trivial_when_one_equals_e():
    p = degenerate_one_equals_e()
    assert p.property_n.e == p.one
    assert diag_e(p) == diagonal(p)


def test_diag_e_requires_witness(pairs):
    p = pairs["field_f5"]
    assert p.property_n is not None  # fields do have a witness (e = 0)
    # a pair genuinely lacking the witness:
    from pairspec.monoids import trivial_monoid
    from pairspec.constructions import minimal_bipotent
    q = minimal_bipotent(trivial_monoid(), "second")
    with pytest.raises(NoPropertyN):
        diag_e(q)


def test_quotient_by_diag_e_idempotent(pairs):
    from pairspec.constructions import quotient_pair
    for name in SMALL:
        p = pairs[name]
        if p.property_n is None:
            continue
        q = quotient_pair(p, diag_e(p))
        assert all(int(q.add[x, x]) == x for x in range(q.n)), name


# -- the explicit principal-candidate relation -----------------------------------------

def test_cong_b_diagonal_element(sb):
    res = cong_b(sb, (0, 0))
    assert res.contains_b
    assert res.relation.diagonal().all()


def test_cong_b_super_boolean_1e(sb):
    res = cong_b(sb, (1, 2))
    assert res.is_congruence and res.contains_b
    gen = generated_congruence(sb, [(1, 2)])
    # the relation contains the generated congruence; equality is reported
    # per instance, not assumed (here it is strictly larger)
    assert all(res.relation[x, y] for x, y in zip(*gen.members))
    assert relation_to_congruence(sb, res.relation) == all_relation(sb)


def test_cong_b_containment_fails_without_e_type(pairs):
    # in a field the absorbing set is trivial, so the relation collapses to
    # the diagonal and cannot contain an off-diagonal seed
    p = pairs["field_f5"]
    assert e_type(p) is None
    res = cong_b(p, (1, 0))
    assert res.is_congruence
    assert not res.contains_b
    assert relation_to_congruence(p, res.relation) == diagonal(p)


def test_cong_b_contains_b_iff_e_type_on_catalog(pairs):
    for name in SMALL:
        p = pairs[name]
        has_etype = e_type(p) is not None if p.property_n is not None else False
        if not has_etype:
            continue
        for b1 in range(p.n):
            for b2 in range(p.n):
                res = cong_b(p, (b1, b2))
                if res.hypothesis_semiring or res.hypothesis_s_central:
                    assert res.is_congruence and res.contains_b, (name, b1, b2)


# -- enumeration ---------------------------------------------------------------------

def test_enumerate_one_element_pair():
    st_ = validate_structure(["0"], 0, 0, [[0]], [[0]])
    p = validate_pair(st_, {0}, {0})
    lat = enumerate_congruences(p)
    assert len(lat) == 1


def test_enumerate_super_boolean_frozen(sb):
    lat = enumerate_congruences(sb)
    assert {c.block_of for c in lat} == {(0, 1, 2), (0, 1, 1), (0, 0, 0)}


def test_enumerate_two_element_boolean():
    p = two_element_boolean()
    lat = enumerate_congruences(p)
    assert {c.block_of for c in lat} == {(0, 1), (0, 0)}


def test_enumerate_matches_bruteforce_small_carriers(pairs):
    for name, p in pairs.items():
        if p.n > 6:
            continue
        got = {c.block_of for c in enumerate_congruences(p)}
        assert got == oracle.congruences_bruteforce(p), name


def test_enumerate_cap(sb):
    with pytest.raises(CapExceeded):
        enumerate_congruences(sb, cap=1)


def test_enumerate_cap_counts_cap_plus_one(pairs):
    p = pairs["function_sb_sat2"]
    size = len(enumerate_congruences(p))
    for cap in (1, 2, size // 2, size - 1):
        with pytest.raises(CapExceeded) as err:
            enumerate_congruences(p, cap=cap)
        assert err.value.partial_count == cap + 1
    assert len(enumerate_congruences(p, cap=size)) == size


def test_enumerate_order_is_finest_first(pairs):
    for p in pairs.values():
        lat = enumerate_congruences(p)
        # one read-only root matrix, whose rows the views hold
        assert lat.roots.dtype == np.uint8 and not lat.roots.flags.writeable
        assert [tuple(r) for r in lat.roots.tolist()] == [c.roots for c in lat], p.name
        keys = [(-len(c.blocks()), oracle.restricted_growth(c.roots)) for c in lat]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), p.name


def _by_roots_and_by_block_of(labelings):
    """Congruences of the labelings sorted by (-blocks, roots), and the
    same labelings sorted by (-blocks, first-occurrence block ids)."""
    congs = {Congruence.from_labels(None, lab) for lab in labelings}
    by_roots = [c.roots for c in sorted(congs, key=lambda c: (-len(c.blocks()), c.roots))]
    rg = sorted({oracle.restricted_growth(lab) for lab in labelings},
                key=lambda b: (-len(set(b)), b))
    return by_roots, [oracle.roots_of(b) for b in rg]


def test_root_order_is_block_of_order_on_every_small_partition():
    for n in range(1, 7):
        by_roots, by_block_of = _by_roots_and_by_block_of(list(oracle.all_partitions(n)))
        assert by_roots == by_block_of, n


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12), k=st.integers(1, 30))
def test_root_order_is_block_of_order_on_random_labelings(seed, n, k):
    rng = np.random.default_rng(seed)
    labelings = {tuple(rng.integers(0, int(rng.integers(1, n + 1)), n).tolist())
                 for _ in range(k)}
    by_roots, by_block_of = _by_roots_and_by_block_of(list(labelings))
    assert by_roots == by_block_of


def test_congruence_roots_are_least_block_members(pairs):
    for p in pairs.values():
        for c in enumerate_congruences(p):
            assert c.roots == oracle.roots_of(c.block_of), p.name
            assert c.block_of == oracle.restricted_growth(c.roots), p.name


def _random_pair(rng, n):
    """A pair on n elements with 0 as zero, its unit as the only tangible and
    A0 = {0}.  Addition is a commutative monoid (a chain under max, a cyclic
    group, or capped addition); multiplication is min on the chain, products
    mod n, or random, with 0 absorbing, the unit fixed and, outside their
    rows and columns, at most one random cell.  Labels are permuted apart
    from 0, so the tables are not monotone."""
    idx = np.arange(n)
    add = [np.maximum(idx[:, None], idx[None, :]),
           (idx[:, None] + idx[None, :]) % n,
           np.minimum(idx[:, None] + idx[None, :], n - 1)][int(rng.integers(3))]
    kind = int(rng.integers(3))
    one = n - 1 if kind == 0 else min(1, n - 1)
    mul = [np.minimum(idx[:, None], idx[None, :]),
           (idx[:, None] * idx[None, :]) % n,
           rng.integers(0, n, (n, n))][kind]
    free = [x for x in range(n) if x not in (0, one)]
    if free and rng.integers(2):
        mul[rng.choice(free), rng.choice(free)] = rng.integers(n)
    mul[one, :] = mul[:, one] = idx
    mul[0, :] = mul[:, 0] = 0
    perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    inv = np.argsort(perm)
    add, mul = (perm[t[inv][:, inv]] for t in (add, mul))
    one = int(perm[one])
    st_ = validate_structure([f"x{i}" for i in range(n)], 0, one, add, mul)
    return validate_pair(st_, {one}, {0}, name="random")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 5))
def test_enumerate_matches_bruteforce_random_pairs(seed, n):
    p = _random_pair(np.random.default_rng(seed), n)
    got = [c.block_of for c in enumerate_congruences(p)]
    assert len(got) == len(set(got))
    assert set(got) == oracle.congruences_bruteforce(p)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 24), k=st.integers(0, 3))
def test_closure_roots_matches_loop_and_bruteforce(seed, n, k):
    """The array closure against the old union-find closure on random
    tables, and against the brute-force closure where the carrier is small;
    generator lists may repeat a pair or hold an (x, x)."""
    rng = np.random.default_rng(seed)
    p = _random_pair(rng, n)
    gens = [tuple(rng.integers(0, n, 2).tolist()) for _ in range(k)]
    if gens and rng.integers(2):
        gens += [gens[0], (gens[0][0], gens[0][0])]
    got = _kernels.closure_roots(p.add, p.mul, gens).tolist()
    assert got == oracle.closure_roots_loop(p.add, p.mul, gens)
    if n <= 5:
        assert tuple(got) == oracle.roots_of(oracle.generated_congruence_bruteforce(p, gens))


def test_closure_reads_the_tables_in_place(monkeypatch):
    """A closure step gathers the translates of a block of rows x: with
    ``_SCAN_CELLS`` lowered to 4,096, the peak is a few int64 temporaries of
    that many bytes, a quarter of one int64 copy of a 256-element table (the
    three tables as lists, or stacked, take three copies)."""
    monkeypatch.setattr(_kernels, "_SCAN_CELLS", 1 << 12)
    n = 256
    idx = np.arange(n)
    add, mul = (idx[:, None] + idx) % n, (idx[:, None] * idx) % n
    tracemalloc.start()
    got = _kernels.closure_roots(add, mul, [(0, 2)])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got.tolist() == oracle.closure_roots_loop(add, mul, [(0, 2)]) == [0, 1] * (n // 2)
    assert peak < 32 * _kernels._SCAN_CELLS <= 8 * n * n // 4, peak


def test_enumeration_keeps_one_row_per_congruence(monkeypatch):
    """With the step sizes lowered, the peak of enumerating the 2,722
    congruences of function_pair(super_boolean, sat3) is a small working set
    plus one row per congruence; a row kept as a view of a bulk join result
    would keep that whole result alive."""
    monkeypatch.setattr(_kernels, "_SCAN_CELLS", 1 << 12)
    monkeypatch.setattr(_kernels, "ROW_CELLS", 1 << 12)
    p = function_pair(catalog.build("super_boolean"), saturating_monoid(3))
    tracemalloc.start()
    lat = enumerate_congruences(p)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(lat) == 2722
    assert peak < 16 * 8 * (1 << 12) + len(lat) * (p.n + 100), peak


def test_cap_env_override(sb, monkeypatch):
    monkeypatch.setenv("PAIRSPEC_MAX_CONGRUENCES", "1")
    with pytest.raises(CapExceeded):
        enumerate_congruences(sb)


# -- lattice structure ----------------------------------------------------------------

def test_meet_join_basics(sb):
    lat = enumerate_congruences(sb)
    phi = lat[lat.find(generated_congruence(sb, [(1, 2)]))]
    d, last = lat[0], len(lat) - 1
    assert meet(phi, d).block_of == d.block_of
    assert join(phi, phi).block_of == phi.block_of
    i, top = lat.find(phi), lat.roots[[last]]
    assert lat[lat.find_rows(meets(lat.roots[i], top))[0]].block_of == phi.block_of
    assert lat.find(join(phi, lat[last])) == last


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([1, 2, 5, 9, 255, 256, 257]),
       k=st.integers(1, 4))
def test_meets_is_the_common_refinement(seed, n, k):
    """Bulk meets of random partitions, held as the lattice holds them:
    uint8 up to 256 elements (where a key r1 * n + r2 overflows a uint8),
    uint16 above."""
    rng = np.random.default_rng(seed)

    def rows():
        labels = rng.integers(0, rng.integers(1, n + 1, size=(k, 1)), size=(k, n))
        return _kernels.compact(np.array([oracle.roots_of(r) for r in labels.tolist()]))

    r1, r2 = rows(), rows()
    assert r1.dtype == (np.uint8 if n <= 256 else np.uint16)
    tracemalloc.start()
    got = meets(r1, r2)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert [tuple(m) for m in got.tolist()] == [
        oracle.meet_by_definition(a, b) for a, b in zip(r1.tolist(), r2.tolist())]
    # one row against many, and meet as the one-row case
    assert (meets(r1[0], r2) == meets(r1[[0] * k], r2)).all()
    c1, c2 = (Congruence(pair=None, roots=tuple(r[0].tolist())) for r in (r1, r2))
    assert meet(c1, c2).roots == tuple(got[0].tolist())
    # temporaries hold a few int64 cells per row and element (16 at most
    # here), never n^2
    if n >= 255:
        assert peak < 16 * 8 * r1.size, peak


def test_find_rejects_non_members(sb, pairs):
    lat = enumerate_congruences(sb)
    assert [lat.find(c) for c in lat] == list(range(len(lat)))
    for other in (Congruence.from_labels(sb, (0, 0, 1)),      # {0, 1} is not a congruence
                  diagonal(pairs["field_f5"])):                  # another carrier
        with pytest.raises(KeyError, match="congruence not present in the lattice"):
            lat.find(other)


def test_lattice_closed_under_meet_join(pairs):
    for name in SMALL:
        p = pairs[name]
        lat = enumerate_congruences(p)
        for i in range(len(lat)):
            for j in range(len(lat)):
                lat.find(meet(lat[i], lat[j]))
                lat.find(join(lat[i], lat[j]))


def _gens(c):
    return [(blk[0], x) for blk in c.blocks() for x in blk[1:]]


def test_join_is_generated_by_the_union(pairs):
    for p in pairs.values():
        lat = enumerate_congruences(p)
        for a in lat:
            for b in lat:
                want = generated_congruence(p, _gens(a) + _gens(b)).block_of
                assert join(a, b).block_of == want, (p.name, a.block_of, b.block_of)


def test_join_reads_no_tables():
    a = Congruence.from_labels(None, (0, 0, 1, 2, 3, 4))
    b = Congruence.from_labels(None, (0, 1, 2, 1, 3, 2))
    assert join(a, b).block_of == (0, 0, 1, 0, 2, 1)
    assert join(b, a).block_of == join(a, b).block_of


def _root_rows(rng, n, k):
    """k random partitions of n elements as compact root rows."""
    labels = rng.integers(0, rng.integers(1, n + 1, size=(k, 1)), size=(k, n))
    return _kernels.compact(np.array([oracle.roots_of(r) for r in labels.tolist()]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.sampled_from([1, 2, 5, 9, 255, 256, 257]),
       k=st.integers(1, 4))
def test_joins_is_the_join_of_partitions(seed, n, k):
    """Bulk joins of random partitions, held as the lattice holds them
    (uint8 up to 256 elements, uint16 above), against the old union-find
    join and the definition; one row broadcast against many, and ``join``
    as the one-row case."""
    rng = np.random.default_rng(seed)
    r1, r2 = _root_rows(rng, n, k), _root_rows(rng, n, k)
    got = joins(r1, r2)
    assert got.dtype == r1.dtype == (np.uint8 if n <= 256 else np.uint16)
    assert [tuple(j) for j in got.tolist()] == [
        oracle.join_loop(a, b) for a, b in zip(r1.tolist(), r2.tolist())]
    assert tuple(got[0].tolist()) == oracle.join_by_definition(r1[0].tolist(), r2[0].tolist())
    assert (joins(r1[0], r2) == joins(r1[[0] * k], r2)).all()
    c1, c2 = (Congruence(pair=None, roots=tuple(r[0].tolist())) for r in (r1, r2))
    assert join(c1, c2).roots == tuple(got[0].tolist())


def test_joins_memory_does_not_grow_with_rows(monkeypatch):
    """Rows are joined a block of at most ``ROW_CELLS`` cells at a time: the
    peak grows with the rows only by the compact output.  All rows at once
    would take several int64 cells per row and element, 4.8 MB for the
    larger case."""
    monkeypatch.setattr(_kernels, "ROW_CELLS", 1 << 12)
    n = 40
    rng = np.random.default_rng(5)
    r1, r2 = _root_rows(rng, n, 50), _root_rows(rng, n, 50)
    for count in (300, 3000):
        a, b = np.resize(r1, (count, n)), np.resize(r2, (count, n))
        tracemalloc.start()
        joins(a, b)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < count * n + 16 * 8 * _kernels.ROW_CELLS, (count, peak)


def test_lattice_bounds(pairs):
    """Row 0 is the diagonal and row L-1 the all relation, on every catalog
    lattice and on the A*e and A/diag_e lattices of each catalog pair."""
    for name, p in pairs.items():
        a = Analysis(p, None)
        for sub in (a, a.ae[0], a.quotient_e[0]):
            lat, q = sub.lattice, sub.pair
            assert lat[0] == diagonal(q), (name, q.name)
            assert lat[len(lat) - 1] == all_relation(q), (name, q.name)


def test_meet_join_are_bounds(pairs):
    # meet is the greatest lower bound, join the least upper bound
    for name in ("super_boolean", "minbp_c2_second", "supertropical_c2"):
        p = pairs[name]
        lat = enumerate_congruences(p)
        m = len(lat)

        def le(a, b):
            return oracle.refines_by_definition(a.roots, b.roots)

        for i in range(m):
            for j in range(m):
                lo = lat[lat.find_rows(meets(lat.roots[i], lat.roots[[j]]))[0]]
                hi = lat[lat.find(join(lat[i], lat[j]))]
                assert le(lo, lat[i]) and le(lo, lat[j])
                assert le(lat[i], hi) and le(lat[j], hi)
                for k in range(m):
                    if le(lat[k], lat[i]) and le(lat[k], lat[j]):
                        assert le(lat[k], lo)
                    if le(lat[i], lat[k]) and le(lat[j], lat[k]):
                        assert le(hi, lat[k])


def test_congruences_absorb_twist_products(pairs):
    # a congruence swallows twist products with arbitrary doubled elements
    for name in SMALL:
        p = pairs[name]
        lat = enumerate_congruences(p)
        full = all_relation(p)
        for cong in lat:
            assert twist_subset(p, full, cong, cong.matrix), name


@st.composite
def _symmetric_relations(draw):
    """Symmetric relations on a catalog pair: a partition's relation with some
    elements cut out (transitive), perhaps with one pair flipped, or random
    bits; diagonals may be cleared."""
    name = draw(st.sampled_from(SMALL + ("function_sb_sat2",)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = catalog.build(name).n
    if draw(st.booleans()):
        labels = rng.integers(0, int(rng.integers(1, n + 1)), n)
        rel = labels[:, None] == labels[None, :]
        cut = rng.random(n) < 0.3
        rel[cut] = False
        rel[:, cut] = False
        if draw(st.booleans()):
            x, y = rng.integers(0, n, 2)
            rel[x, y] = rel[y, x] = not rel[x, y]
    else:
        rel = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
        rel |= rel.T
        if draw(st.booleans()):
            np.fill_diagonal(rel, False)
    return name, rel


@settings(max_examples=300, deadline=None)
@given(_symmetric_relations())
def test_relation_to_congruence_matches_cube(pairs, case):
    name, rel = case
    p = pairs[name]
    closed, got = _closed(rel)[1], relation_to_congruence(p, rel)
    assert closed == oracle.transitive_cube(rel)
    if closed:
        want = Congruence.from_labels(p, [tuple(np.flatnonzero(row)) or (x,)
                                          for x, row in enumerate(rel)])
        assert got == (want if is_congruence(p, want)[0] else None)
    else:
        assert got is None


# -- bulk pushes -----------------------------------------------------------------

def _push_case(seed, n, m):
    """A random pair on m elements, a random surjection of n >= m elements
    onto it, and root rows over the n elements: random partitions, then the
    pullback of each congruence of the target, which pushes back to it."""
    rng = np.random.default_rng(seed)
    target = _random_pair(rng, m)
    proj = rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, n - m)]))
    rows = [oracle.roots_of(rng.integers(0, rng.integers(1, n + 1), n).tolist())
            for _ in range(12)]
    rows += [oracle.roots_of([c.roots[a] for a in proj]) for c in enumerate_congruences(target)]
    return target, proj, rows


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), m=st.integers(1, 5), extra=st.integers(0, 3))
def test_pushes_match_push_loop(seed, m, extra):
    """Each row's bulk image, and push_congruence as the one-row case, is
    the old per-congruence push's."""
    target, proj, rows = _push_case(seed, m + extra, m)
    got, ok = pushes(_kernels.compact(np.array(rows)), proj, target)
    for r, image, is_cong in zip(rows, got.tolist(), ok.tolist()):
        want = oracle.push_loop(r, proj, target)
        assert is_cong == (want is not None)
        if is_cong:
            assert tuple(image) == want
        one = push_congruence(Congruence(pair=None, roots=r), proj, target)
        assert (None if one is None else one.roots) == want


def test_push_cases_cover_every_outcome():
    """The rows of ``_push_case`` push to images that are not transitive,
    transitive but no congruence, and congruences."""
    seen = set()
    for seed in range(20):
        for m, extra in ((3, 0), (4, 2)):
            target, proj, rows = _push_case(seed, m + extra, m)
            for r in rows:
                if not oracle.transitive_cube(oracle.image_relation(r, proj, m)):
                    seen.add("not_transitive")
                else:
                    seen.add(oracle.push_loop(r, proj, target) is not None)
    assert seen == {"not_transitive", False, True}


def test_pushes_memory_does_not_grow_with_rows():
    """The relations are built a block of rows at a time: the peak grows
    with the rows only by the output and its masks, a few bytes per row and
    target element.  The n x n relation of every row at once would take
    len(rows) * n^2 bytes, 4.8 MB for the larger case."""
    n, m = 40, 9
    target, proj, rows = _push_case(3, n, m)
    rows = _kernels.compact(np.array(rows))
    for count in (300, 3000):
        r = np.resize(rows, (count, n))
        tracemalloc.start()
        pushes(r, proj, target)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 4 * count * (m + 1) + 8 * _kernels.ROW_CELLS, (count, peak)
