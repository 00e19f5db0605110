"""Builders: every construction validates and reproduces its known values."""

from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from pairspec import catalog
from pairspec.congruences import all_relation, diagonal, generated_congruence
from pairspec.constructions import (
    DEFAULT_CARRIER_CAP,
    constant_supertropical,
    double,
    function_pair,
    hyperpair_generated,
    power_set_pair,
    quotient_pair,
    residue_hyperstructure,
    standard_supertropical,
    super_boolean,
    supertropical,
    truncated_supertropical,
    twist_tables,
    validate_hyperstructure,
)
from pairspec.core import classify_pair
from pairspec.errors import (
    BadBound,
    CarrierTooLarge,
    NotAGroup,
    NuNotHomomorphism,
    S0NotValid,
    ZeroLaw,
)
from pairspec.monoids import cyclic_group, saturating_monoid, trivial_monoid


# -- layered pairs ---------------------------------------------------------------

def test_super_boolean_tables(sb):
    assert sb.n == 3
    assert sb.names == ("0", "1", "e")
    one, e = 1, 2
    assert int(sb.add[one, one]) == e
    assert all(int(sb.add[e, x]) == e for x in range(3))  # e additively absorbing


def test_supertropical_c2_is_not_distributive_but_valid(pairs):
    p = pairs["supertropical_c2"]
    assert p.n == 5
    assert not p.structure.distributive
    assert not p.t_distributive
    assert p.structure.mul_associative and p.structure.commutative_mul


def test_supertropical_singleton_tangible_matches_super_boolean(sb):
    p = standard_supertropical(trivial_monoid())
    assert p.n == 3
    # relabel through the canonical order: 0, 1, ghost
    assert (p.add == sb.add).all()
    assert (p.mul == sb.mul).all()
    assert classify_pair(p).e_final


def test_constant_supertropical_over_c2():
    p = constant_supertropical(cyclic_group(2))
    c = classify_pair(p)
    assert p.n == 4
    assert c.kind == "first"
    assert c.characteristic == (1, 2)
    assert c.a0_characteristic == 2
    # with A0 the whole ghost layer, collapsed sums stay inside T union A0
    assert c.metatangible


def test_supertropical_rejects_non_homomorphism():
    t = cyclic_group(2)
    with pytest.raises(NuNotHomomorphism):
        supertropical(t, t, [1, 0])  # swaps the unit away
    with pytest.raises(NuNotHomomorphism):
        supertropical(cyclic_group(4), cyclic_group(4), [0, 0, 1, 0])  # not multiplicative


def test_truncated_chain3_examples(pairs):
    p = pairs["truncated_chain3"]
    assert p.n == 7
    two = p.structure.index["2"]
    three = p.structure.index["3"]
    assert int(p.mul[two, two]) == three  # 2*2 saturates to the tangible top
    ghost3 = p.structure.index["3*"]
    assert int(p.mul[two, ghost3]) == ghost3
    c = classify_pair(p)
    assert c.proper and c.shallow and c.e_final and c.a0_bipotent


def test_truncated_m1_is_two_layer_singleton():
    p = truncated_supertropical([1], 1)
    assert p.n == 3
    assert classify_pair(p).e_final


def test_truncated_bad_bounds():
    with pytest.raises(BadBound):
        truncated_supertropical([1, 2, 3], 4)      # top not reachable
    with pytest.raises(BadBound):
        truncated_supertropical([2, 3], 3)         # missing unit
    with pytest.raises(BadBound):
        truncated_supertropical([1, 2, 5], 5)      # 2*2 = 4 < 5 not in carrier


def test_minimal_bipotent_kinds(pairs):
    first = pairs["minbp_c2_first"]
    second = pairs["minbp_c2_second"]
    inf_f = first.structure.index["inf"]
    g = first.structure.index["g"]
    assert int(first.add[1, 1]) == inf_f
    assert int(second.add[1, 1]) == 1
    assert int(second.add[1, g]) == second.structure.index["inf"]
    assert classify_pair(first).kind == "first"
    assert classify_pair(second).kind == "second"


# -- doubling ---------------------------------------------------------------------

def test_double_super_boolean_basics(sb):
    d = double(sb)
    assert d.n == 9
    assert d.twist_associative
    assert d.pair is not None and d.switch_valid
    w = d.pair.property_n
    assert d.structure.names[w.e] == "(1,1)"
    i01 = d.idx(0, 1)
    assert d.structure.names[int(d.structure.mul[i01, i01])] == "(1,0)"


def test_double_diagonal_absorbs(pairs):
    # b twist (z,z) always lands on the diagonal
    for name in ("super_boolean", "minbp_c2_second", "field_f3"):
        p = pairs[name]
        d = double(p)
        for b1 in range(p.n):
            for b2 in range(p.n):
                for z in range(p.n):
                    prod = int(d.structure.mul[d.idx(b1, b2), d.idx(z, z)])
                    x, y = d.unpack(prod)
                    assert x == y


def test_double_gen_identity_on_semirings(pairs):
    for name in ("super_boolean", "minbp_c2_first", "field_f5"):
        p = pairs[name]
        d = double(p)
        for b1 in range(p.n):
            for b2 in range(p.n):
                for z in range(p.n):
                    prod = d.unpack(int(d.structure.mul[d.idx(b1, b2), d.idx(z, z)]))
                    want = int(p.mul[p.add[b1, b2], z])
                    assert prod == (want, want)


def test_double_twist_matches_bruteforce(sb):
    d = double(sb)
    add = [[int(v) for v in row] for row in sb.add]
    mul = [[int(v) for v in row] for row in sb.mul]
    for i in range(d.n):
        for j in range(d.n):
            got = d.unpack(int(d.structure.mul[i, j]))
            assert got == oracle.twist_bruteforce(add, mul, d.unpack(i), d.unpack(j))


def test_double_function_pair_table_matches_bruteforce(pairs):
    # the 81x81 vectorized twist table against the scalar recomputation
    p = pairs["function_sb_sat2"]
    d = double(p)
    add = [[int(v) for v in row] for row in p.add]
    mul = [[int(v) for v in row] for row in p.mul]
    for i in range(0, d.n, 7):
        for j in range(d.n):
            got = d.unpack(int(d.structure.mul[i, j]))
            assert got == oracle.twist_bruteforce(add, mul, d.unpack(i), d.unpack(j))


def test_double_of_relabeled_pair(sb):
    # zero and one need not sit at indices 0 and 1 in user-supplied tables
    perm = [2, 0, 1]  # new index of old element i
    inv = [1, 2, 0]
    names = [sb.names[inv[i]] for i in range(3)]
    add = [[0] * 3 for _ in range(3)]
    mul = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            add[perm[i]][perm[j]] = perm[int(sb.add[i, j])]
            mul[perm[i]][perm[j]] = perm[int(sb.mul[i, j])]
    from pairspec.core import validate_pair, validate_structure
    st = validate_structure(names, perm[sb.zero], perm[sb.one], add, mul)
    p = validate_pair(st, {perm[a] for a in sb.tangible}, {perm[x] for x in sb.a_zero})
    d = double(p)
    assert d.pair is not None and d.twist_associative
    z1, z2 = d.unpack(d.structure.zero)
    assert z1 == z2 == perm[sb.zero]
    o1, o2 = d.unpack(d.structure.one)
    assert (o1, o2) == (perm[sb.one], perm[sb.zero])


def test_double_nondistributive_base_reports_failure(pairs):
    d = double(pairs["supertropical_c2"])
    assert d.pair is None
    assert "associate" in d.pair_error
    assert not d.twist_associative
    assert d.switch_valid  # the switch axioms do not need distributivity


# -- quotients ---------------------------------------------------------------------

def test_quotient_by_diagonal_is_isomorphic(sb):
    q = quotient_pair(sb, diagonal(sb))
    assert q.n == sb.n
    assert (q.add == sb.add).all() and (q.mul == sb.mul).all()


def test_quotient_by_generated_1e_is_degenerate_idempotent(sb):
    cong = generated_congruence(sb, [(1, 2)])
    assert cong.blocks() == [[0], [1, 2]]
    q = quotient_pair(sb, cong)
    assert q.a_zero == set(range(q.n))            # degenerate
    assert all(int(q.add[x, x]) == x for x in range(q.n))  # idempotent


def test_quotient_by_all_relation_is_singleton(sb):
    q = quotient_pair(sb, all_relation(sb))
    assert q.n == 1


# -- hyperstructures -----------------------------------------------------------------

def test_krasner_valid():
    h = catalog.krasner_hyperfield()
    assert h.hyperadd_set(1, 1) == {0, 1}
    assert h.negation_unique
    assert h.e_set == {0, 1}


def test_signs_valid_with_full_e():
    h = catalog.signs_hyperfield()
    assert h.e_set == {0, 1, 2}
    assert h.negation_unique


def test_zero_law_rejected():
    with pytest.raises(ZeroLaw):
        validate_hyperstructure(
            ["0", "1"], 0, 1, [[0, 0], [0, 1]],
            [[{0}, {0}], [{0}, {0, 1}]],
        )


def test_power_set_krasner(pairs):
    p = pairs["power_krasner"]
    assert p.n == 3
    e = p.property_n.e
    assert p.names[e] == "{0,1}"
    assert classify_pair(p).e_final


def test_power_set_signs(pairs):
    p = pairs["power_signs"]
    assert p.n == 7
    assert classify_pair(p).e_final


def test_power_set_multiplication_elementwise_associative(pairs):
    for name in ("power_krasner", "power_signs", "power_massouros_c2"):
        assert pairs[name].structure.mul_associative, name


def test_power_set_product_inclusion(pairs):
    # S(S1 + S2) is contained in SS1 + SS2 even without distributivity
    for name in ("power_krasner", "power_signs", "power_massouros_c2"):
        p = pairs[name]
        for s in range(p.n):
            for s1 in range(p.n):
                for s2 in range(p.n):
                    lhs = p.structure.index[p.names[int(p.mul[s, p.add[s1, s2]])]]
                    rhs = int(p.add[p.mul[s, s1], p.mul[s, s2]])
                    lhs_mask = _mask_of_label(p.names[lhs])
                    rhs_mask = _mask_of_label(p.names[rhs])
                    assert lhs_mask & rhs_mask == lhs_mask, name


def _mask_of_label(label: str) -> frozenset:
    return frozenset(label.strip("{}").split(","))


def test_power_set_s0_validation():
    h = catalog.signs_hyperfield()
    with pytest.raises(S0NotValid):
        power_set_pair(h, s0={h.zero, 1})  # tangible member
    with pytest.raises(S0NotValid):
        power_set_pair(h, s0={1})          # missing zero


def test_power_set_carrier_cap():
    h = catalog.signs_hyperfield()
    with pytest.raises(CarrierTooLarge):
        power_set_pair(h, cap=3)


def test_twist_tables_carrier_cap():
    # refused from the size alone, before any table is read
    big = SimpleNamespace(n=65, add=None, mul=None)
    with pytest.raises(CarrierTooLarge) as info:
        twist_tables(big)
    assert (info.value.size, info.value.cap) == (65 * 65, DEFAULT_CARRIER_CAP)


def test_twist_tables_admit_benchmark_inputs(pairs):
    # every pair the benchmark doubles or runs TWASS on has n <= 16
    inputs = [*pairs.values(),
              power_set_pair(catalog.massouros_hyperfield(3)),
              function_pair(pairs["minbp_c2_first"], saturating_monoid(2))]
    for p in inputs:
        assert p.n <= 16
        add, mul = twist_tables(p.structure)
        assert add.shape == mul.shape == (p.n * p.n, p.n * p.n)


def test_hyperpair_krasner_is_full_power_set(pairs):
    p = hyperpair_generated(catalog.krasner_hyperfield())
    q = pairs["power_krasner"]
    assert p.n == q.n == 3
    assert set(p.names) == set(q.names)


def test_hyperpair_signs_closure():
    p = hyperpair_generated(catalog.signs_hyperfield())
    # singletons, their pairwise sums, and products thereof
    assert "{0,1,-1}" in p.names
    assert p.n <= 7
    for x in range(p.n):
        for y in range(p.n):
            assert 0 <= int(p.add[x, y]) < p.n


def test_hyperpair_single_element():
    h = validate_hyperstructure(["0"], 0, 0, [[0]], [[{0}]], tangible=None)
    # a single absorbing element: the only subset is {0}
    p = hyperpair_generated(h, s0={0})
    assert p.n == 1


# -- residue hyperstructures ------------------------------------------------------------

def test_residue_f5_matches_coset_oracle():
    h = residue_hyperstructure(catalog.finite_field(5), {1, 4})
    cosets, mul, hyperadd = oracle.residue_bruteforce(5, {1, 4})
    assert h.n == 3
    assert [set(c) for c in cosets] == [{0}, {1, 4}, {2, 3}]
    for i in range(3):
        for j in range(3):
            assert int(h.mul[i, j]) == mul[i][j], (i, j)
            assert h.hyperadd_set(i, j) == hyperadd[i][j], (i, j)
    assert h.negation_unique


def test_residue_f3_is_krasner():
    h = residue_hyperstructure(catalog.finite_field(3), {1, 2})
    k = catalog.krasner_hyperfield()
    assert h.n == k.n == 2
    assert (h.mul == k.mul).all()
    assert all(
        h.hyperadd_set(i, j) == k.hyperadd_set(i, j) for i in range(2) for j in range(2)
    )


def test_residue_trivial_subgroup_keeps_structure():
    f3 = catalog.finite_field(3)
    h = residue_hyperstructure(f3, {1})
    assert h.n == 3
    for i in range(3):
        for j in range(3):
            assert h.hyperadd_set(i, j) == {int(f3.add[i, j])}


def test_residue_requires_group():
    f5 = catalog.finite_field(5)
    with pytest.raises(NotAGroup):
        residue_hyperstructure(f5, {1, 2})  # 2*2 = 4 not in the set
    with pytest.raises(NotAGroup):
        residue_hyperstructure(f5, {2, 4})  # missing one


def test_residue_massouros_coincidence(pairs):
    # the residue of F5 by its squares is the two-element group hyperfield
    a = catalog.NAMED_HYPERSTRUCTURES["residue_f5_mod_squares"]()
    b = catalog.massouros_hyperfield(2)
    assert a.n == b.n == 3
    assert all(
        a.hyperadd_set(i, j) == b.hyperadd_set(i, j) for i in range(3) for j in range(3)
    )


# -- function pairs -------------------------------------------------------------------

def test_function_pair_singleton_monoid_is_isomorphic(sb):
    p = function_pair(sb, trivial_monoid())
    assert p.n == sb.n
    assert (p.add == sb.add).all() and (p.mul == sb.mul).all()


def test_function_pair_super_boolean_sat2(pairs):
    p = pairs["function_sb_sat2"]
    assert p.n == 9
    c = classify_pair(p)
    assert c.e_type == (1, 1)
    assert c.e_central  # centrality carries over elementwise


def test_function_pair_convolution_unit(pairs):
    p = pairs["function_sb_sat2"]
    assert (p.mul[p.one] == np.arange(p.n)).all()


def test_function_pair_of_relabeled_base(sb):
    perm = [2, 0, 1]
    inv = [1, 2, 0]
    names = [sb.names[inv[i]] for i in range(3)]
    add = [[0] * 3 for _ in range(3)]
    mul = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            add[perm[i]][perm[j]] = perm[int(sb.add[i, j])]
            mul[perm[i]][perm[j]] = perm[int(sb.mul[i, j])]
    from pairspec.core import validate_pair, validate_structure
    st = validate_structure(names, perm[sb.zero], perm[sb.one], add, mul)
    p = validate_pair(st, {perm[a] for a in sb.tangible}, {perm[x] for x in sb.a_zero})
    fp = function_pair(p, saturating_monoid(2))
    assert classify_pair(fp).e_type == (1, 1)


def test_function_pair_cap():
    with pytest.raises(CarrierTooLarge):
        function_pair(super_boolean(), saturating_monoid(2), cap=8)


# -- construction outputs all validate --------------------------------------------------

def test_every_catalog_entry_validates(pairs):
    for name, p in pairs.items():
        assert p.property_n is not None or p.property_n_error is None, name
        assert p.structure.n == len(p.names)


def test_double_validates_for_distributive_bases(pairs):
    for name, p in pairs.items():
        if not p.structure.distributive:
            continue
        d = double(p)
        assert d.pair is not None, name
        assert d.switch_valid, name


def test_group_hyperfield_e_type_two_scales():
    # second instance of the complement-of-one law, on the 4-element carrier
    p = power_set_pair(catalog.massouros_hyperfield(3))
    assert p.n == 15
    assert classify_pair(p).e_type == (2, 2)


def test_hyperpair_can_be_proper_subpair():
    # the singletons of the 4-element group hyperfield do not span the
    # whole power set
    p = hyperpair_generated(catalog.massouros_hyperfield(3))
    assert p.n == 12


def test_quotients_by_every_congruence_validate(pairs):
    from pairspec.congruences import enumerate_congruences
    for name in ("super_boolean", "minbp_c2_second", "supertropical_c2",
                 "truncated_chain3", "field_f5"):
        p = pairs[name]
        for cong in enumerate_congruences(p):
            q = quotient_pair(p, cong)
            assert q.n == cong.n_blocks, name
