"""Congruence closure, the principal-candidate relation, and the lattice."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pairspec.congruences import (
    Congruence,
    all_relation,
    cong_b,
    diag_e,
    diagonal,
    enumerate_congruences,
    generated_congruence,
    is_congruence,
    join,
    meet,
    relation_to_congruence,
)
from pairspec.core import e_type, validate_pair, validate_structure
from pairspec.errors import CapExceeded, NoPropertyN
from pairspec.spectrum import twist_subset

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
    assert d.is_diagonal() and not d.is_all()


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
        assert c1.refines(c2)


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
        closed, got = relation_to_congruence(p, c.matrix)
        assert closed and got.block_of == c.block_of
    rel = np.eye(p.n, dtype=bool)
    rel[0, 1] = rel[1, 0] = rel[1, 2] = rel[2, 1] = True
    assert relation_to_congruence(p, rel) == (False, None)
    rel[0, 2] = rel[2, 0] = True
    assert not is_congruence(p, [0, 0, 0] + list(range(1, p.n - 2)))[0]
    assert relation_to_congruence(p, rel) == (True, None)
    # an element related to nothing, not even itself, is a block of its own
    closed, got = relation_to_congruence(p, np.zeros((p.n, p.n), dtype=bool))
    assert closed and got.is_diagonal()


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
    assert diag_e(p).is_diagonal()


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
    assert res.congruence.is_all()


def test_cong_b_containment_fails_without_e_type(pairs):
    # in a field the absorbing set is trivial, so the relation collapses to
    # the diagonal and cannot contain an off-diagonal seed
    p = pairs["field_f5"]
    assert e_type(p) is None
    res = cong_b(p, (1, 0))
    assert res.is_congruence
    assert not res.contains_b
    assert res.congruence.is_diagonal()


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
        keys = [(-c.n_blocks, c.block_of) for c in lat]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), p.name


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


def test_cap_env_override(sb, monkeypatch):
    monkeypatch.setenv("PAIRSPEC_MAX_CONGRUENCES", "1")
    with pytest.raises(CapExceeded):
        enumerate_congruences(sb)


# -- lattice structure ----------------------------------------------------------------

def test_meet_join_basics(sb):
    lat = enumerate_congruences(sb)
    phi = lat[lat.find(generated_congruence(sb, [(1, 2)]))]
    d = lat[lat.bottom]
    assert meet(phi, d).block_of == d.block_of
    assert join(phi, phi).block_of == phi.block_of
    i = lat.find(phi)
    assert lat[lat.meet_index(i, lat.top)].block_of == phi.block_of
    assert lat.join_index(i, lat.top) == lat.top


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
    a = Congruence(pair=None, block_of=(0, 0, 1, 2, 3, 4))
    b = Congruence(pair=None, block_of=(0, 1, 2, 1, 3, 2))
    assert join(a, b).block_of == (0, 0, 1, 0, 2, 1)
    assert join(b, a).block_of == join(a, b).block_of


def test_lattice_bounds(pairs):
    for name in SMALL:
        lat = enumerate_congruences(pairs[name])
        assert lat[lat.bottom].is_diagonal()
        assert lat[lat.top].is_all()


def test_meet_join_are_bounds(pairs):
    # meet is the greatest lower bound, join the least upper bound
    for name in ("super_boolean", "minbp_c2_second", "supertropical_c2"):
        p = pairs[name]
        lat = enumerate_congruences(p)
        m = len(lat)
        for i in range(m):
            for j in range(m):
                lo = lat[lat.meet_index(i, j)]
                hi = lat[lat.join_index(i, j)]
                assert lo.refines(lat[i]) and lo.refines(lat[j])
                assert lat[i].refines(hi) and lat[j].refines(hi)
                for k in range(m):
                    if lat[k].refines(lat[i]) and lat[k].refines(lat[j]):
                        assert lat[k].refines(lo)
                    if lat[i].refines(lat[k]) and lat[j].refines(lat[k]):
                        assert hi.refines(lat[k])


def test_congruences_absorb_twist_products(pairs):
    # a congruence swallows twist products with arbitrary doubled elements
    for name in SMALL:
        p = pairs[name]
        lat = enumerate_congruences(p)
        full = all_relation(p)
        for cong in lat:
            assert twist_subset(p, full, cong, cong.matrix), name
