"""Builders: every construction validates and reproduces its known values."""

import hashlib
from itertools import permutations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pairspec import catalog, constructions, dsl
from pairspec.congruences import all_relation, diagonal, generated_congruence
from pairspec.constructions import (
    DEFAULT_CARRIER_CAP,
    _validate_s0,
    constant_supertropical,
    double,
    function_pair,
    hyperpair_generated,
    minimal_bipotent,
    power_set_pair,
    quotient_pair,
    residue_hyperstructure,
    standard_supertropical,
    super_boolean,
    supertropical,
    truncated_supertropical,
    twist_table,
    validate_hyperstructure,
)
from pairspec.core import classify_pair, validate_negation_map
from pairspec.errors import (
    BadBound,
    CarrierTooLarge,
    NotAGroup,
    NuNotHomomorphism,
    PairspecError,
    S0NotValid,
    ZeroLaw,
)
from pairspec.monoids import (
    NAMED_MONOIDS,
    Monoid,
    chain_monoid,
    cyclic_group,
    saturating_monoid,
    trivial_monoid,
)


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
    assert classify_pair(p)["e_final"]


def test_constant_supertropical_over_c2():
    p = constant_supertropical(cyclic_group(2))
    c = classify_pair(p)
    assert p.n == 4
    assert c["kind"] == "first"
    assert c["characteristic"] == [1, 2]
    assert c["a0_characteristic"] == 2
    # with A0 the whole ghost layer, collapsed sums stay inside T union A0
    assert c["metatangible"]


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
    assert c["proper"] and c["shallow"] and c["e_final"] and c["a0_bipotent"]


def test_truncated_m1_is_two_layer_singleton():
    p = truncated_supertropical([1], 1)
    assert p.n == 3
    assert classify_pair(p)["e_final"]


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
    assert classify_pair(first)["kind"] == "first"
    assert classify_pair(second)["kind"] == "second"


# -- doubling ---------------------------------------------------------------------

def test_double_super_boolean_basics(sb):
    d, switch = double(sb)
    assert d.n == 9
    assert d.structure.mul_associative
    assert switch is not None
    w = d.property_n
    assert d.names[w.e] == "(1,1)"
    i01 = 0 * sb.n + 1                      # (b1, b2) sits at b1 * n + b2
    assert d.names[int(d.mul[i01, i01])] == "(1,0)"


def test_double_diagonal_absorbs(pairs):
    # b twist (z,z) always lands on the diagonal
    for name in ("super_boolean", "minbp_c2_second", "field_f3"):
        p = pairs[name]
        d, _ = double(p)
        for b1 in range(p.n):
            for b2 in range(p.n):
                for z in range(p.n):
                    prod = int(d.structure.mul[b1 * p.n + b2, z * p.n + z])
                    x, y = divmod(prod, p.n)
                    assert x == y


def test_double_gen_identity_on_semirings(pairs):
    for name in ("super_boolean", "minbp_c2_first", "field_f5"):
        p = pairs[name]
        d, _ = double(p)
        for b1 in range(p.n):
            for b2 in range(p.n):
                for z in range(p.n):
                    prod = divmod(int(d.structure.mul[b1 * p.n + b2, z * p.n + z]), p.n)
                    want = int(p.mul[p.add[b1, b2], z])
                    assert prod == (want, want)


def test_double_twist_matches_bruteforce(sb):
    d, _ = double(sb)
    add = [[int(v) for v in row] for row in sb.add]
    mul = [[int(v) for v in row] for row in sb.mul]
    n = sb.n
    for i in range(d.structure.n):
        for j in range(d.structure.n):
            got = divmod(int(d.structure.mul[i, j]), n)
            assert got == oracle.twist_bruteforce(add, mul, divmod(i, n), divmod(j, n))
            (a1, a2), (c1, c2) = divmod(i, n), divmod(j, n)
            assert divmod(int(d.structure.add[i, j]), n) == (add[a1][c1], add[a2][c2])


def test_double_function_pair_table_matches_bruteforce(pairs):
    # the 81x81 vectorized tables against the scalar recomputation
    p = pairs["function_sb_sat2"]
    d, _ = double(p)
    add = [[int(v) for v in row] for row in p.add]
    mul = [[int(v) for v in row] for row in p.mul]
    n = p.n
    for i in range(0, d.structure.n, 7):
        for j in range(d.structure.n):
            got = divmod(int(d.structure.mul[i, j]), n)
            assert got == oracle.twist_bruteforce(add, mul, divmod(i, n), divmod(j, n))
            (a1, a2), (c1, c2) = divmod(i, n), divmod(j, n)
            assert divmod(int(d.structure.add[i, j]), n) == (add[a1][c1], add[a2][c2])


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
    d, _ = double(p)
    assert d.structure.mul_associative
    z1, z2 = divmod(d.structure.zero, p.n)
    assert z1 == z2 == perm[sb.zero]
    o1, o2 = divmod(d.structure.one, p.n)
    assert (o1, o2) == (perm[sb.one], perm[sb.zero])


def test_double_nondistributive_base_reports_failure(pairs):
    p = pairs["supertropical_c2"]
    with pytest.raises(ValueError, match="associate"):
        double(p)
    d = oracle.doubled_structure(p)
    assert not d.mul_associative
    # the switch axioms do not need distributivity
    n, z = p.n, p.zero
    split = oracle.bare_pair(d, {a * n + z for a in p.tangible} | {z * n + a for a in p.tangible},
                             {b * n + b for b in range(n)})
    validate_negation_map(split, [(i % n) * n + i // n for i in range(n * n)])


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
            [[{0}, {0}], [{0}, {0, 1}]], tangible={1},
        )


def test_power_set_krasner(pairs):
    p = pairs["power_krasner"]
    assert p.n == 3
    e = p.property_n.e
    assert p.names[e] == "{0,1}"
    assert classify_pair(p)["e_final"]


def test_power_set_signs(pairs):
    p = pairs["power_signs"]
    assert p.n == 7
    assert classify_pair(p)["e_final"]


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


def test_power_set_carrier_cap(monkeypatch):
    h = catalog.signs_hyperfield()
    monkeypatch.setattr(constructions, "DEFAULT_CARRIER_CAP", 3)
    with pytest.raises(CarrierTooLarge):
        power_set_pair(h)


def test_twist_tables_carrier_cap():
    # refused from the size alone, before any table is read
    big = SimpleNamespace(n=65, add=None, mul=None)
    with pytest.raises(CarrierTooLarge) as info:
        twist_table(big)
    assert (info.value.size, info.value.cap) == (65 * 65, DEFAULT_CARRIER_CAP)


def test_twist_tables_admit_benchmark_inputs(pairs):
    # every pair the benchmark doubles or runs TWASS on has n <= 16
    inputs = [*pairs.values(),
              power_set_pair(catalog.massouros_hyperfield(3)),
              function_pair(pairs["minbp_c2_first"], saturating_monoid(2))]
    for p in inputs:
        assert p.n <= 16
        assert twist_table(p.structure).shape == (p.n * p.n, p.n * p.n)


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
    h = validate_hyperstructure(["0"], 0, 0, [[0]], [[{0}]], tangible={0})
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
    assert c["e_type"] == [1, 1]
    assert c["e_central"]  # centrality carries over elementwise


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
    assert classify_pair(fp)["e_type"] == [1, 1]


def test_function_pair_cap(monkeypatch):
    monkeypatch.setattr(constructions, "DEFAULT_CARRIER_CAP", 8)
    with pytest.raises(CarrierTooLarge):
        function_pair(super_boolean(), saturating_monoid(2))


# -- construction outputs all validate --------------------------------------------------

def test_every_catalog_entry_validates(pairs):
    for name, p in pairs.items():
        assert p.property_n is not None or p.property_n_error is None, name
        assert p.structure.n == len(p.names)


def test_double_validates_for_distributive_bases(pairs):
    for name, p in pairs.items():
        if not p.structure.distributive:
            continue
        _, switch = double(p)
        assert switch is not None, name


def test_group_hyperfield_e_type_two_scales():
    # second instance of the complement-of-one law, on the 4-element carrier
    p = power_set_pair(catalog.massouros_hyperfield(3))
    assert p.n == 15
    assert classify_pair(p)["e_type"] == [2, 2]


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
            assert q.n == len(cong.blocks()), name


# -- index-formula builders against their per-cell loops ----------------------

def _outcome(build, *args, **kwargs):
    """Everything a builder's result shows, or its error class, message and
    witness."""
    try:
        p = build(*args, **kwargs)
    except (PairspecError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    w = p.property_n
    return (p.names, p.add.tolist(), p.mul.tolist(), p.tangible, p.a_zero, p.zero, p.one,
            p.name, w and (w.one_dagger, w.e, w.all_daggers), p.property_n_error)


def test_supertropical_matches_loop():
    e = Monoid(names=("e",), table=np.zeros((1, 1), dtype=np.int64), unit=0)
    for t in (f() for f in NAMED_MONOIDS.values()):
        assert _outcome(supertropical, t, t, range(t.k)) == \
            _outcome(oracle.supertropical_loop, t, t, range(t.k))
        assert _outcome(supertropical, t, e, [0] * t.k, name="c") == \
            _outcome(oracle.supertropical_loop, t, e, [0] * t.k, name="c")
    # every map between small monoids: homomorphisms and both error kinds
    small = [cyclic_group(2), cyclic_group(3), chain_monoid(2), saturating_monoid(3)]
    for t, g in product(small, repeat=2):
        for nu in product(range(g.k), repeat=t.k):
            assert _outcome(supertropical, t, g, nu) == \
                _outcome(oracle.supertropical_loop, t, g, nu), (t.names, g.names, nu)
    assert _outcome(supertropical, cyclic_group(2), e, [0, 1])[0] is ValueError


def test_truncated_matches_loop():
    cases = [([1, 2, 3], 3), ([1, 2, 4, 8], 8), ([1], 1), ([1, 2], 2),
             (range(1, 7), 6), ([1, 3, 9], 9), ([1, 2, 3, 4, 6, 8, 9, 12], 12),
             (range(1, 60), 59), ([1, 2, 3, 5, 7], 7),
             ([], 1), ([0, 1], 1), ([2, 3], 3), ([1, 2, 3], 2), ([1, 2, 3], 4),
             ([1, 2, 5], 5), ([1, 3, 5], 5), ([1, 2, 4, 8], 4)]
    kinds = set()
    for values, m in cases:
        new = _outcome(truncated_supertropical, values, m)
        assert new == _outcome(oracle.truncated_loop, values, m), (values, m)
        kinds.add(new[0] if isinstance(new[0], type) else "pair")
    assert kinds == {"pair", BadBound}


def test_minimal_bipotent_matches_loop():
    for t in (f() for f in NAMED_MONOIDS.values()):
        for kind in ("first", "second", "third"):
            assert _outcome(minimal_bipotent, t, kind) == \
                _outcome(oracle.minimal_bipotent_loop, t, kind), (t.names, kind)


def test_subset_pairs_match_loops(monkeypatch):
    hypers = [(name, make()) for name, make in catalog.NAMED_HYPERSTRUCTURES.items()]
    for p, g in ((13, {1, 3, 9}), (19, {1, 7, 11})):
        hypers.append((f"F{p}/{sorted(g)}", residue_hyperstructure(catalog.finite_field(p), g)))
    for name, h in hypers:
        nonzero = sorted(set(range(h.n)) - {h.zero})
        for s0 in (None, {h.zero}, {h.zero, nonzero[0]}):
            assert _outcome(power_set_pair, h, s0) == \
                _outcome(oracle.power_set_loop, h, s0), (name, s0)
            assert _outcome(hyperpair_generated, h, s0) == \
                _outcome(oracle.hyperpair_loop, h, s0), (name, s0)
        with monkeypatch.context() as mp:
            mp.setattr(constructions, "DEFAULT_CARRIER_CAP", 2)
            for build, loop in ((power_set_pair, oracle.power_set_loop),
                                (hyperpair_generated, oracle.hyperpair_loop)):
                got = _outcome(build, h)
                assert got[0] is CarrierTooLarge and got == _outcome(loop, h, cap=2), name


def test_hyperpair_with_two_key_bytes():
    """F31/{1,5,25} has 11 elements, so each subset key takes two bytes; its
    580-element hyperpair is pinned by the digest of its serialized file."""
    h = residue_hyperstructure(catalog.finite_field(31), {1, 5, 25})
    p = hyperpair_generated(h)
    assert (h.n, p.n, p.name) == (11, 580, "hyperpair(F31/G)")
    text = dsl.serialize(dsl.pair_to_file(p))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "571f885794661e2440083a6be66e0b4e3b4d3bc4d4358858e502bd3924295c45"


def test_function_pair_matches_loop(pairs, monkeypatch):
    for base in ("super_boolean", "minbp_c2_first", "truncated_chain3", "field_f3"):
        for s in (f() for f in NAMED_MONOIDS.values()):
            p = pairs[base]
            if p.n ** s.k > 81:
                with monkeypatch.context() as mp:
                    mp.setattr(constructions, "DEFAULT_CARRIER_CAP", 80)
                    assert _outcome(function_pair, p, s)[0] is CarrierTooLarge
                continue
            assert _outcome(function_pair, p, s) == \
                _outcome(oracle.function_pair_loop, p, s), (base, s.names)


def test_hyperstructure_masks_past_64_bits():
    """64 elements, the first size whose top mask overflows int64: zero and a
    cyclic group of order 63, with x + y = {x, y}."""
    g = cyclic_group(63)
    n = 64
    mul = np.zeros((n, n), dtype=np.int64)
    mul[1:, 1:] = g.table + 1
    sums = [[{y} if x == 0 else {x} if y == 0 else {x, y} for y in range(n)] for x in range(n)]
    h = validate_hyperstructure([str(i) for i in range(n)], 0, 1, mul, sums,
                                tangible=range(1, n), name="wide")
    assert h.hyperadd_set(63, 62) == frozenset({62, 63})
    assert oracle.mask_add(h, 1 << 63, 1 << 1) == (1 << 63) | (1 << 1)
    with pytest.raises(CarrierTooLarge) as err:
        hyperpair_generated(h)
    assert (err.value.size, err.value.cap) == (4097, 4096)
    assert h.tangible == frozenset(range(1, n)) and h.hypernegation is None
    written = dsl.parse_hyper_file(dsl.serialize(dsl.hyper_to_file(h)))
    assert written.hyperadd[63][62] == ("62", "63")


# -- hyperstructure laws on the sum tensor against the bitmask loops -------------

def _outcome_of(fn, *args, **kwargs):
    """What ``fn`` returns, or its error class, message and witness."""
    try:
        return fn(*args, **kwargs)
    except (PairspecError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def _hyper_outcome(build, *args, **kwargs):
    """Everything a hyperstructure shows, or its error class, message and
    witness; ``build`` is the package's builder or its loop in the oracle."""
    h = _outcome_of(build, *args, **kwargs)
    if isinstance(h, tuple):
        return h
    n = len(h.names)
    sums = getattr(h, "sums", None) or [[h.hyperadd_set(i, j) for j in range(n)]
                                        for i in range(n)]
    return (h.names, h.zero, h.one, h.mul.tolist(), sums, h.tangible, h.hypernegation,
            h.negation_unique, h.e_set, h.name)


def _message(outcome) -> str:
    """The error message of an outcome without its witness, or "ok"."""
    if isinstance(outcome, tuple) and isinstance(outcome[0], type):
        return outcome[1].split("; witness=")[0]
    return "ok"


def _same_validation(**kw):
    new = _hyper_outcome(validate_hyperstructure, **kw)
    assert new == _hyper_outcome(oracle.validate_hyperstructure_loop, **kw), kw
    return new


def _hyper_args(h):
    n = h.n
    return dict(names=h.names, zero=h.zero, one=h.one, mul=h.mul.tolist(),
                hyperadd_sets=[[set(h.hyperadd_set(i, j)) for j in range(n)] for i in range(n)],
                tangible=h.tangible)


def _planted(h):
    """Arguments of ``validate_hyperstructure`` that break h one cell at a
    time: each flip of z in a + b (with and without its mirror in b + a), each
    product, empty and unknown entries, and each claimed negation."""
    kw = _hyper_args(h)
    n = h.n
    yield kw
    for a, b, z in product(range(n), repeat=3):
        for mirror in (False, True) if a != b else (False,):
            sums = [[set(s) for s in row] for row in kw["hyperadd_sets"]]
            sums[a][b] ^= {z}
            if mirror:
                sums[b][a] ^= {z}
            yield {**kw, "hyperadd_sets": sums}
        mul = [list(row) for row in kw["mul"]]
        mul[a][b] = z
        yield {**kw, "mul": mul}
    for cells in ({(n - 1, n - 1): set()}, {(0, n - 1): {n}}, {(n - 1, 0): {n + 2, 0}},
                  {(0, 1 % n): {n + 1}, (n - 1, n - 1): set()},
                  {(0, 1 % n): set(), (n - 1, n - 1): {n}}):
        sums = [[set(s) for s in row] for row in kw["hyperadd_sets"]]
        for (i, j), cell in cells.items():
            sums[i][j] = cell
        yield {**kw, "hyperadd_sets": sums}
    for perm in product(range(n), repeat=n):
        yield {**kw, "hypernegation": perm}


def test_negative_hyper_entry_is_unknown():
    # the bitmask loops failed on it with "negative shift count"
    with pytest.raises(ValueError, match="references unknown elements"):
        validate_hyperstructure(["0", "1"], 0, 1, [[0, 0], [0, 1]], [[{0}, {1}], [{1}, {-1}]],
                                {1})


LAW_MESSAGES = {
    "hyperaddition entry references unknown elements",
    "hyperaddition is not commutative",
    "zero boxplus a must be {a}",
    "set-extension associativity fails",
    "monoid action does not distribute over hyperaddition",
    "claimed hypernegation misses zero",
    "hypernegation is not an involution",
    "hypernegation does not reverse sums",
}


def test_hyper_laws_match_loops_on_planted_corpus():
    bases = [catalog.krasner_hyperfield(), catalog.signs_hyperfield(),
             catalog.massouros_hyperfield(2), catalog.massouros_hyperfield(3),
             catalog.NAMED_HYPERSTRUCTURES["residue_f5_mod_squares"](),
             # negatives are not unique, and swapping 1 and t does not reverse t + t
             validate_hyperstructure(["0", "1", "t"], 0, 1, [[0, 0, 0], [0, 1, 2], [0, 2, 2]],
                                     [[{0}, {1}, {2}], [{1}, {0, 1, 2}, {0, 1, 2}],
                                      [{2}, {0, 1, 2}, {0, 2}]], tangible={1, 2})]
    seen = set()
    for h in bases:
        for kw in _planted(h):
            out = _same_validation(**kw)
            seen.add(_message(out))
    assert LAW_MESSAGES <= seen
    assert any(m.startswith("hyperaddition entry (") and m.endswith(") is empty") for m in seen)


def test_tangible_closure_matches_loop():
    """Every tangible set with one and without zero, on the named
    hyperstructures and with a planted product: the first pair of the set's
    own iteration order whose product leaves it is the witness."""
    seen = set()
    for h in (catalog.krasner_hyperfield(), catalog.signs_hyperfield(),
              catalog.massouros_hyperfield(2), catalog.massouros_hyperfield(3),
              catalog.NAMED_HYPERSTRUCTURES["residue_f5_mod_squares"]()):
        kw = _hyper_args(h)
        others = [x for x in range(h.n) if x not in (h.zero, h.one)]
        planted = [list(row) for row in kw["mul"]]
        if others:
            planted[others[0]][others[-1]] = planted[others[-1]][others[0]] = h.zero
        for mul in (kw["mul"], planted):
            for bits in product((False, True), repeat=len(others)):
                tangible = {h.one, *(x for x, b in zip(others, bits) if b)}
                seen.add(_message(_same_validation(**{**kw, "mul": mul, "tangible": tangible})))
    assert "tangible set is not multiplicatively closed" in seen
    # {1, 2, 8} iterates as 8, 1, 2, so (8, 8) fails before the sorted (2, 2)
    f11 = residue_hyperstructure(catalog.finite_field(11), {1})
    out = _same_validation(**{**_hyper_args(f11), "tangible": {1, 2, 8}})
    assert list(frozenset({1, 2, 8})) == [8, 1, 2] and out[2] == ("8", "8")


def test_s0_checks_match_loops():
    # tangible {1} leaves elements outside T, so S0 can meet them
    seen = set()
    for h in (catalog.signs_hyperfield(), catalog.massouros_hyperfield(3)):
        for tangible in (h.tangible, {h.one}):
            kw = {**_hyper_args(h), "tangible": tangible}
            new, loop = validate_hyperstructure(**kw), oracle.validate_hyperstructure_loop(**kw)
            for bits in product((False, True), repeat=h.n):
                s0 = {x for x in range(h.n) if bits[x]}
                out = _outcome_of(_validate_s0, new, s0)
                assert out == _outcome_of(oracle.validate_s0_loop, loop, s0), (h.name, s0)
                seen.add(_message(out))
    assert seen == {"ok", "S0 must contain zero", "S0 must avoid the tangible submonoid",
                    "S0 is not closed under hyperaddition", "S0 is not multiplicatively closed"}


def _s3_with_zero():
    """Zero adjoined to the symmetric group S3, as the parts of a pair that
    the residue construction reads; its tangibles are not central."""
    perms = list(permutations(range(3)))
    n = 7
    mul = np.zeros((n, n), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mul[i + 1, j + 1] = 1 + perms.index(tuple(p[q[x]] for x in range(3)))
    return SimpleNamespace(names=("0", *("".join(map(str, p)) for p in perms)), n=n, zero=0,
                           one=1, mul=mul, add=np.maximum.outer(np.arange(n), np.arange(n)),
                           tangible=frozenset(range(1, n)), name="S3")


def test_residue_matches_loop():
    seen = set()
    cases = [(catalog.finite_field(p), set(sub)) for p in (3, 5, 7)
             for bits in product((False, True), repeat=p)
             for sub in [[x for x in range(p) if bits[x]]]]
    s3 = _s3_with_zero()
    cases += [(s3, {1, 2}), (s3, {1, 4, 5}), (s3, {1, 3}), (s3, {1, 2, 3}),
              (catalog.build("truncated_chain3"), {1, 3})]
    for pair, sub in cases:
        new = _hyper_outcome(residue_hyperstructure, pair, sub)
        assert new == _hyper_outcome(oracle.residue_hyperstructure_loop, pair, sub), (pair.name, sub)
        seen.add(_message(new))
    assert {"ok", "coset product is not a coset", "subgroup elements must be tangible",
            "subgroup must contain one", "subgroup is not closed",
            "element has no inverse in the subgroup"} <= seen


def _hyper_bases():
    out = [catalog.krasner_hyperfield(), catalog.signs_hyperfield()]
    out += [catalog.massouros_hyperfield(k) for k in (2, 3, 4, 5)]
    out += [residue_hyperstructure(catalog.finite_field(p), sub)
            for p, sub in ((5, {1, 4}), (7, {1, 6}), (7, {1, 2, 4}), (3, {1}), (5, {1}))]
    return out


HYPER_BASES = _hyper_bases()


@st.composite
def _hyper_cases(draw):
    """validate_hyperstructure arguments of at most 6 elements: a valid
    base with planted cells, or a random monoid with zero and random sums."""
    if draw(st.booleans()):
        kw = _hyper_args(draw(st.sampled_from(HYPER_BASES)))
    else:
        k = draw(st.integers(0, 5))
        mon = draw(st.sampled_from([cyclic_group, chain_monoid, saturating_monoid]))(k) \
            if k else None
        n = k + 1
        mul = np.zeros((n, n), dtype=np.int64)
        if mon is not None:
            mul[1:, 1:] = mon.table + 1
        sums = [[set() for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                cell = {b} if a == 0 else set(draw(st.sets(st.integers(0, n - 1), min_size=1)))
                sums[a][b] = sums[b][a] = cell
        kw = dict(names=[str(i) for i in range(n)], zero=0, one=1 % n, mul=mul.tolist(),
                  hyperadd_sets=sums, tangible={1 % n, *range(1, n)})
    n = len(kw["names"])
    sums = [[set(s) for s in row] for row in kw["hyperadd_sets"]]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        sums[a][b] = set(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        if draw(st.booleans()):
            sums[b][a] = set(sums[a][b])
    kw["hyperadd_sets"] = sums
    if draw(st.booleans()):
        kw["hypernegation"] = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        kw["tangible"] = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return kw


@given(_hyper_cases())
@settings(max_examples=300, deadline=None)
def test_hyper_laws_match_loops_on_random_structures(kw):
    _same_validation(**kw)
