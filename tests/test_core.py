"""Carrier validation, the 1-dagger witness, and pair classification."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pairspec.constructions import double, minimal_bipotent
from pairspec.core import (
    classify_pair,
    distributive_center,
    e_type,
    find_property_n,
    heights,
    validate_negation_map,
    validate_pair,
    validate_structure,
)
from pairspec.errors import (
    A0NotSubmodule,
    NonAssociativeAdd,
    NonCommutativeAdd,
    NonUniqueE,
    NoPropertyN,
    QuasiNegationFails,
    TNotCentral,
    TNotClosed,
    ZeroNotAbsorbing,
    ZeroNotNeutral,
)
from pairspec.monoids import trivial_monoid

SB_ADD = [[0, 1, 2], [1, 2, 2], [2, 2, 2]]
SB_MUL = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]


def test_super_boolean_structure_flags():
    st = validate_structure(["0", "1", "e"], 0, 1, SB_ADD, SB_MUL)
    assert st.distributive and st.mul_associative and st.commutative_mul


def test_noncommutative_add_rejected():
    add = [[0, 1], [0, 1]]  # 1+0 = 0 but 0+1 = 1
    with pytest.raises(NonCommutativeAdd) as exc:
        validate_structure(["0", "1"], 0, 1, add, [[0, 0], [0, 1]])
    assert exc.value.witness == ("0", "1")


def test_nonassociative_add_rejected():
    # commutative and zero-neutral, but (1+1)+2 = 2 while 1+(1+2) = 0
    add = [[0, 1, 2], [1, 0, 1], [2, 1, 1]]
    mul = [[0] * 3 for _ in range(3)]
    with pytest.raises(NonAssociativeAdd):
        validate_structure(["0", "1", "2"], 0, 1, add, mul)


def test_zero_laws_rejected():
    with pytest.raises(ZeroNotNeutral):
        validate_structure(["0", "1"], 0, 1, [[1, 1], [1, 1]], [[0, 0], [0, 1]])
    with pytest.raises(ZeroNotAbsorbing):
        validate_structure(["0", "1"], 0, 1, [[0, 1], [1, 1]], [[0, 1], [0, 1]])


def test_validate_pair_super_boolean(sb):
    assert sb.tangible == {1}
    assert sb.a_zero == {0, 2}
    assert sb.property_n is not None


def test_pair_missing_zero_in_a0():
    st = validate_structure(["0", "1", "e"], 0, 1, SB_ADD, SB_MUL)
    with pytest.raises(A0NotSubmodule):
        validate_pair(st, {1}, {2})


def test_pair_t_not_closed(pairs):
    p = pairs["supertropical_c2"]
    ghost_one = p.structure.index["1*"]
    with pytest.raises(TNotClosed):
        # g * 1-ghost is the g-ghost, outside the attempted tangible set
        validate_pair(p.structure, p.tangible | {ghost_one}, {p.zero})
    st = validate_structure(["0", "1", "e"], 0, 1, SB_ADD, SB_MUL)
    with pytest.raises(TNotClosed):
        validate_pair(st, {2}, {0, 2})  # one must be tangible


def test_pair_a0_not_closed_under_action():
    # A0 = {0, 1} is not closed under addition: 1+1 = e
    st = validate_structure(["0", "1", "e"], 0, 1, SB_ADD, SB_MUL)
    with pytest.raises(A0NotSubmodule):
        validate_pair(st, {1}, {0, 1})


def test_noncommutative_tangible_rejected():
    # two-sided zero plus two idempotents multiplying one way
    names = ["0", "1", "a"]
    add = [[0, 1, 2], [1, 1, 1], [2, 1, 2]]
    # make addition commutative/associative: use max-like chain 0 < a < 1
    add = [[0, 1, 2], [1, 1, 1], [2, 1, 2]]
    mul = [[0, 0, 0], [0, 1, 2], [0, 1, 2]]  # a*1 = 2 but 1*a... rows: mul[2][1]=1, mul[1][2]=2
    with pytest.raises(TNotCentral):
        st = validate_structure(names, 0, 1, add, mul)
        validate_pair(st, {1, 2}, {0})


# -- property N ---------------------------------------------------------------

def test_property_n_super_boolean(sb):
    w = sb.property_n
    assert sb.names[w.one_dagger] == "1"
    assert sb.names[w.e] == "e"
    assert w.all_daggers == {1}


def test_property_n_minimal_bipotent_second_kind(pairs):
    p = pairs["minbp_c2_second"]
    w = p.property_n
    assert p.names[w.one_dagger] == "g"
    assert p.names[w.e] == "inf"


def test_property_n_first_kind_has_both_daggers(pairs):
    p = pairs["minbp_c2_first"]
    w = p.property_n
    assert p.names[w.one_dagger] == "1"
    assert {p.names[d] for d in w.all_daggers} == {"1", "g"}


def test_property_n_absent_for_max_plus_like():
    # truncated max-plus chain: A0 = {-inf} only; no tangible sum lands in A0
    n = 4
    idx = np.arange(n)
    add = np.maximum(idx[:, None], idx[None, :])
    mul = np.minimum(idx[:, None] + idx[None, :] - 1, n - 1)
    mul[0, :] = 0
    mul[:, 0] = 0
    st = validate_structure([str(i) for i in range(n)], 0, 1, add, mul)
    pair = validate_pair(st, set(range(1, n)), {0})
    assert pair.property_n is None
    with pytest.raises(NoPropertyN):
        pair.require_property_n()


def test_property_n_trivial_minimal_bipotent_second_kind():
    p = minimal_bipotent(trivial_monoid(), "second")
    assert p.property_n is None


def test_non_unique_e_on_doubled_field(pairs):
    d = double(pairs["field_f5"])
    assert d.pair is not None
    assert d.pair.property_n is None
    assert "different e" in d.pair.property_n_error
    with pytest.raises(NonUniqueE):
        find_property_n(d.structure, d.tangible, d.diag)


# -- classification ------------------------------------------------------------

def test_classify_super_boolean(sb):
    c = classify_pair(sb)
    assert c.kind == "first"
    assert c.proper and c.shallow and c.cancellative
    assert c.metatangible and c.a0_bipotent and c.admissible
    assert c.characteristic == (1, 2)
    assert c.a0_characteristic == 2
    assert c.e_type == (1, 1) and c.e_final
    assert c.e_distributive and c.e_central and c.e_idempotent


def test_classify_supertropical_c2_matches_reported(pairs):
    c = classify_pair(pairs["supertropical_c2"])
    assert c.proper
    assert c.kind == "first"
    assert c.shallow
    assert c.e_final
    assert c.characteristic == (1, 2)
    assert c.a0_characteristic == 2
    assert c.a0_bipotent and c.metatangible


def test_classify_signs_power_set_e_final(pairs):
    assert classify_pair(pairs["power_signs"]).e_final


def test_classify_massouros_power_has_e_type_two(pairs):
    c = classify_pair(pairs["power_massouros_c2"])
    assert c.e_type == (2, 2)
    assert not c.e_final


def test_classify_fields(pairs):
    for name in ("field_f3", "field_f5"):
        c = classify_pair(pairs[name])
        assert c.kind == "second"
        assert c.proper and c.cancellative
        assert c.e_type is None
        assert c.positive_e_type is None
    assert classify_pair(pairs["field_f5"]).characteristic == (5, 1)


def test_characteristic_against_bruteforce(pairs):
    for name, p in pairs.items():
        add = [[int(v) for v in row] for row in p.add]
        expect = oracle.characteristic_bruteforce(add, p.one, p.n + 1)
        assert classify_pair(p).characteristic == expect, name


def test_e_type_against_bruteforce(pairs):
    for name, p in pairs.items():
        if p.property_n is None:
            continue
        add = [[int(v) for v in row] for row in p.add]
        mul = [[int(v) for v in row] for row in p.mul]
        expect = oracle.e_type_bruteforce(add, mul, p.property_n.one_dagger, p.n)
        assert e_type(p) == expect, name


def test_first_kind_iff_two_in_a0_on_catalog(pairs):
    for name, p in pairs.items():
        two = p.structure.iterated_sum(p.one, 2)
        c = classify_pair(p)
        if two in p.a_zero:
            assert c.kind == "first", name
        if c.cancellative:
            assert (c.kind == "second") == (two not in p.a_zero), name


# -- heights --------------------------------------------------------------------

def test_heights_super_boolean(sb):
    h = heights(sb)
    assert h[0] == 0          # zero
    assert h[1] == 1          # tangible
    assert h[2] == 2          # e = 1 + 1


def test_height_inf_minimal_bipotent(pairs):
    p = pairs["minbp_c2_first"]
    inf = p.structure.index["inf"]
    assert heights(p)[inf] == 2


def test_heights_satisfy_recurrence(pairs):
    for name, p in pairs.items():
        h = heights(p)
        assert h[p.zero] == 0
        for a in p.tangible:
            assert h[a] == 1 or (a == p.zero)
        known = [i for i in range(p.n) if h[i] is not None]
        for x in known:
            for y in known:
                s = int(p.add[x, y])
                assert h[s] is not None and h[s] <= h[x] + h[y], name


def test_heights_match_loop_on_catalog(pairs):
    for p in pairs.values():
        assert heights(p) == oracle.heights_loop(p), p.name


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 30))
def test_heights_match_loop_on_random_tables(seed, n):
    # any addition table will do: the fixpoint needs no axiom
    rng = np.random.default_rng(seed)
    tangible = frozenset(np.nonzero(rng.random(n) < 0.2)[0].tolist())
    p = SimpleNamespace(n=n, add=rng.integers(0, n, (n, n)), zero=int(rng.integers(n)),
                        tangible=tangible, t_sorted=np.array(sorted(tangible), dtype=np.int64))
    assert heights(p) == oracle.heights_loop(p)


def test_admissibility_flags(pairs):
    assert classify_pair(pairs["super_boolean"]).admissible
    assert classify_pair(pairs["function_sb_sat2"]).admissible


# -- negation maps ----------------------------------------------------------------

def test_identity_negation_on_first_kind(sb):
    nm = validate_negation_map(sb, list(range(sb.n)))
    assert nm.perm == (0, 1, 2)


def test_identity_negation_fails_second_kind(pairs):
    p = pairs["minbp_c2_second"]
    with pytest.raises(QuasiNegationFails) as exc:
        validate_negation_map(p, list(range(p.n)))
    assert exc.value.witness[0] == "1"


def test_identity_negation_accepted_iff_first_kind_on_catalog(pairs):
    for name, p in pairs.items():
        ok = True
        try:
            validate_negation_map(p, list(range(p.n)))
        except QuasiNegationFails:
            ok = False
        # catalog pairs are admissible, so identity works exactly first kind
        assert ok == (classify_pair(p).kind == "first"), name


def test_switch_negation_on_doubled_super_boolean(sb):
    d = double(sb)
    assert d.switch_valid
    nm = validate_negation_map(d.pair, d.switch.perm)
    i01 = d.idx(0, 1)
    assert nm(i01) == d.idx(1, 0)


# -- distributive center ------------------------------------------------------------

def test_center_of_commutative_semiring_is_everything(sb):
    assert distributive_center(sb) == frozenset(range(sb.n))


def test_center_proper_subset_for_layered_pair(pairs):
    p = pairs["supertropical_c2"]
    z = distributive_center(p)
    assert z < frozenset(range(p.n))
    assert p.zero in z and p.one in z
    assert p.property_n.e in z  # the ghost unit stays central


def test_center_contains_zero_one_everywhere(pairs):
    for name, p in pairs.items():
        z = distributive_center(p)
        assert p.zero in z and p.one in z, name


def test_e_central_iff_e_in_center(pairs):
    for name, p in pairs.items():
        c = classify_pair(p)
        if not c.has_property_n or not c.e_distributive:
            continue
        assert c.e_central == (p.property_n.e in distributive_center(p)), name


# -- relabeling invariance -----------------------------------------------------------

_RELABEL_POOL = ("super_boolean", "minbp_c2_second", "supertropical_c2", "field_f5")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_classification_invariant_under_relabeling(pairs, seed):
    rng = np.random.default_rng(seed)
    p = pairs[_RELABEL_POOL[int(rng.integers(len(_RELABEL_POOL)))]]
    perm = rng.permutation(p.n)
    inv = np.argsort(perm)
    add = np.empty_like(p.add)
    mul = np.empty_like(p.mul)
    for i in range(p.n):
        for j in range(p.n):
            add[perm[i], perm[j]] = perm[p.add[i, j]]
            mul[perm[i], perm[j]] = perm[p.mul[i, j]]
    names = [p.names[inv[i]] for i in range(p.n)]
    st_ = validate_structure(names, int(perm[p.zero]), int(perm[p.one]), add, mul)
    q = validate_pair(st_, {int(perm[a]) for a in p.tangible},
                      {int(perm[x]) for x in p.a_zero})
    assert classify_pair(q) == classify_pair(p)
