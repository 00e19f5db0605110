"""Carrier validation, the 1-dagger witness, and pair classification."""

import contextlib
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pairspec import constructions
from pairspec.congruences import enumerate_congruences
from pairspec.constructions import double, minimal_bipotent, quotient_pair
from pairspec.core import (
    FiniteStructure,
    Pair,
    a0_characteristic,
    classify_pair,
    e_type,
    find_property_n,
    heights,
    is_distributively_central,
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
    ValidationError,
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
    ghost_one = p.index["1*"]
    with pytest.raises(TNotClosed):
        # g * 1-ghost is the g-ghost, outside the attempted tangible set
        validate_pair(p, p.tangible | {ghost_one}, {p.zero})
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
    d, _ = double(pairs["field_f5"])
    assert d.property_n is None
    assert "different e" in d.property_n_error
    with pytest.raises(NonUniqueE):
        find_property_n(d, d.tangible, d.a_zero)


# -- classification ------------------------------------------------------------

def test_classify_super_boolean(sb):
    c = classify_pair(sb)
    assert c["kind"] == "first"
    assert c["proper"] and c["shallow"] and c["cancellative"]
    assert c["metatangible"] and c["a0_bipotent"] and c["admissible"]
    assert c["characteristic"] == [1, 2]
    assert c["a0_characteristic"] == 2
    assert c["e_type"] == [1, 1] and c["e_final"]
    assert c["e_distributive"] and c["e_central"] and c["e_idempotent"]


def test_classify_supertropical_c2_matches_reported(pairs):
    c = classify_pair(pairs["supertropical_c2"])
    assert c["proper"]
    assert c["kind"] == "first"
    assert c["shallow"]
    assert c["e_final"]
    assert c["characteristic"] == [1, 2]
    assert c["a0_characteristic"] == 2
    assert c["a0_bipotent"] and c["metatangible"]


def test_classify_signs_power_set_e_final(pairs):
    assert classify_pair(pairs["power_signs"])["e_final"]


def test_classify_massouros_power_has_e_type_two(pairs):
    c = classify_pair(pairs["power_massouros_c2"])
    assert c["e_type"] == [2, 2]
    assert not c["e_final"]


def test_classify_fields(pairs):
    for name in ("field_f3", "field_f5"):
        c = classify_pair(pairs[name])
        assert c["kind"] == "second"
        assert c["proper"] and c["cancellative"]
        assert c["e_type"] is None
        assert c["positive_e_type"] is None
    assert classify_pair(pairs["field_f5"])["characteristic"] == [5, 1]


def test_characteristic_against_bruteforce(pairs):
    for name, p in pairs.items():
        add = [[int(v) for v in row] for row in p.add]
        expect = oracle.characteristic_bruteforce(add, p.one, p.n + 1)
        assert classify_pair(p)["characteristic"] == list(expect), name


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
        two = int(oracle.iterated_sum(p.add, p.one, 2))
        c = classify_pair(p)
        if two in p.a_zero:
            assert c["kind"] == "first", name
        if c["cancellative"]:
            assert (c["kind"] == "second") == (two not in p.a_zero), name


# -- heights --------------------------------------------------------------------

def test_heights_super_boolean(sb):
    h = heights(sb)
    assert h[0] == 0          # zero
    assert h[1] == 1          # tangible
    assert h[2] == 2          # e = 1 + 1


def test_height_inf_minimal_bipotent(pairs):
    p = pairs["minbp_c2_first"]
    inf = p.index["inf"]
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
    assert classify_pair(pairs["super_boolean"])["admissible"]
    assert classify_pair(pairs["function_sb_sat2"])["admissible"]


# -- negation maps ----------------------------------------------------------------

def test_identity_negation_on_first_kind(sb):
    assert validate_negation_map(sb, list(range(sb.n))) == (0, 1, 2)


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
        assert ok == (classify_pair(p)["kind"] == "first"), name


def test_switch_negation_on_doubled_super_boolean(sb):
    d, switch = double(sb)
    assert switch is not None
    nm = validate_negation_map(d, switch)
    n = sb.n                                # (b1, b2) sits at b1 * n + b2
    assert nm == switch and nm[0 * n + 1] == 1 * n + 0


# -- distributive center ------------------------------------------------------------

def test_center_of_commutative_semiring_is_everything(sb):
    assert all(is_distributively_central(sb, z) for z in range(sb.n))


def test_center_proper_subset_for_layered_pair(pairs):
    p = pairs["supertropical_c2"]
    central = [is_distributively_central(p, z) for z in range(p.n)]
    assert not all(central)
    assert central[p.zero] and central[p.one]
    assert central[p.property_n.e]  # the ghost unit stays central


def test_center_contains_zero_one_everywhere(pairs):
    for name, p in pairs.items():
        assert is_distributively_central(p, p.zero), name
        assert is_distributively_central(p, p.one), name


def test_e_central_iff_e_in_center(pairs):
    for name, p in pairs.items():
        c = classify_pair(p)
        if not c["has_property_n"] or not c["e_distributive"]:
            continue
        assert c["e_central"] == is_distributively_central(p, p.property_n.e), name


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


# -- validate_pair against the dense oracle -----------------------------------------

def _verdict(validate, structure, tangible, a_zero):
    """What a pair validator decides: the tangibles, A0 and t_distributive,
    or the error with its witness."""
    try:
        out = validate(structure, tangible, a_zero)
    except (ValidationError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return (out.tangible, out.a_zero, out.t_distributive) if isinstance(out, Pair) else out


def _assert_validate_pair_matches_dense(structure, tangible, a_zero):
    assert _verdict(validate_pair, structure, tangible, a_zero) == \
        _verdict(oracle.validate_pair_dense, structure, tangible, a_zero)


@st.composite
def _small_structures(draw):
    """A structure on 2..5 elements with zero 0 and one 1, whose product is
    associative, commutative, distributive, several of these, or none."""
    n = draw(st.integers(2, 5))
    idx = np.arange(n)
    rank = np.array([0, n - 1, *range(1, n - 1)])      # zero at the bottom, one on top
    by_rank = np.argsort(rank)
    if draw(st.booleans()):
        add = by_rank[np.maximum.outer(rank, rank)]     # max of a chain
    else:
        add = np.add.outer(idx, idx) % n
    kind = draw(st.sampled_from(["random", "symmetric", "min", "left_zero", "mod"]))
    if kind == "min":           # a distributive lattice with the chain's max
        mul = by_rank[np.minimum.outer(rank, rank)]
    elif kind == "mod":         # the ring Z/n with + mod n
        mul = np.multiply.outer(idx, idx) % n
    elif kind == "left_zero":   # associative, not commutative for n >= 4
        mul = np.repeat(idx[:, None], n, axis=1)
    else:
        cells = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
        mul = np.array(cells).reshape(n, n)
        if kind == "symmetric":
            mul = np.triu(mul) + np.triu(mul, 1).T
    mul[0, :] = mul[:, 0] = 0
    mul[1, 1:] = mul[1:, 1] = idx[1:]
    if draw(st.integers(0, 9)) == 0:    # break the unit law
        mul[1, draw(st.integers(1, n - 1))] = draw(st.integers(1, n - 1))
    structure = validate_structure([str(i) for i in idx], 0, 1, add, mul)
    tangible = draw(st.sets(st.integers(0, n - 1), max_size=2))
    a_zero = draw(st.sets(st.integers(0, n - 1), max_size=n))
    if draw(st.integers(0, 9)):
        tangible.add(1)
    if draw(st.integers(0, 9)):
        a_zero.add(0)
    return structure, tangible, a_zero


@settings(max_examples=400, deadline=None)
@given(case=_small_structures())
def test_validate_pair_matches_dense_on_small_structures(case):
    # the law flags let validate_pair skip scans; the verdict must not move
    _assert_validate_pair_matches_dense(*case)


def test_validate_pair_matches_dense_on_catalog_quotients_and_doubles(pairs, monkeypatch):
    seen = []
    real = constructions.validate_pair

    def spy(structure, tangible, a_zero, **kwargs):
        seen.append((structure, tangible, a_zero))
        return real(structure, tangible, a_zero, **kwargs)

    monkeypatch.setattr(constructions, "validate_pair", spy)
    for p in pairs.values():
        seen.append((p, p.tangible, p.a_zero))
        with contextlib.suppress(ValueError):     # tangibles that are not central
            double(p)
        for cong in enumerate_congruences(p, None):
            try:
                quotient_pair(p, cong)
            except ValidationError:
                pass
    assert len(seen) > 2 * len(pairs)
    for case in seen:
        _assert_validate_pair_matches_dense(*case)


# -- tangible centrality against the argwhere loop -------------------------------

def _centrality_verdict(structure, tangible, a_zero):
    """The TNotCentral that validate_pair raises, or None when it passes
    the commute and associate loops."""
    try:
        validate_pair(structure, tangible, a_zero)
    except TNotCentral as exc:
        return exc
    except A0NotSubmodule:      # checked after centrality
        pass
    return None


def _split_tangibles(p):
    """T x {0} and {0} x T, the tangibles of the double, as a * n + b."""
    n, z = p.n, p.zero
    return {a * n + z for a in p.tangible} | {z * n + a for a in p.tangible}


def _same_error(got, want):
    assert (got is None) == (want is None), (got, want)
    if want is not None:
        assert (str(got), got.witness) == (str(want), want.witness)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), cells=st.integers(1, 4), doubled=st.booleans())
def test_tangible_centrality_witness_matches_the_argwhere_loop(pairs, seed, cells, doubled):
    """Cells planted off the zero and one rows and columns, and off T x T,
    break commutativity or associativity with a tangible as often as not;
    validate_pair names the old loop's first witness."""
    rng = np.random.default_rng(seed)
    p = pairs[sorted(pairs)[int(rng.integers(len(pairs)))]]
    s = oracle.doubled_structure(p) if doubled else p
    tangible = _split_tangibles(p) if doubled else p.tangible
    fixed = {s.zero, s.one}
    free = [(x, y) for x in range(s.n) for y in range(s.n)
            if x not in fixed and y not in fixed and not (x in tangible and y in tangible)]
    if not free:
        return
    mul = s.mul.copy()
    for k in rng.integers(len(free), size=cells):
        mul[free[k]] = rng.integers(s.n)
    planted = validate_structure(s.names, s.zero, s.one, s.add, mul)
    want = oracle.tangible_centrality_argwhere(planted, tangible)
    _same_error(_centrality_verdict(planted, tangible, {s.zero}), want)


def test_non_associative_double_matches_the_argwhere_loop(pairs):
    """The double of power_massouros_c3: 225 elements and a product that is
    not associative, so every tangible is scanned for all three laws."""
    from pairspec.catalog import NAMED_HYPERSTRUCTURES
    from pairspec.constructions import power_set_pair
    base = power_set_pair(NAMED_HYPERSTRUCTURES["massouros_c3"]())
    d = oracle.doubled_structure(base)
    assert d.n == 225 and not d.mul_associative
    tangible, diag = _split_tangibles(base), {b * base.n + b for b in range(base.n)}
    want = oracle.tangible_centrality_argwhere(d, tangible)
    _same_error(_centrality_verdict(d, tangible, diag), want)


# -- 1-daggers, negation maps and the classification flags against their loops ----

_FLAGS = ("kind", "cancellative", "metatangible", "a0_bipotent")
_DOUBLES = {}


def _doubled(p):
    """The double of a catalog pair, or None where ``double`` refuses it."""
    if p.name not in _DOUBLES:
        try:
            _DOUBLES[p.name] = double(p)[0]
        except ValueError:
            _DOUBLES[p.name] = None
    return _DOUBLES[p.name]


def _outcome(fn, *args):
    """What ``fn`` returns, or its error class, message and witness."""
    try:
        return fn(*args)
    except (ValidationError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def _switch(m):
    """The switch map (a, b) -> (b, a) of the double of an m-element pair,
    whether or not it passes the negation-map axioms."""
    return np.arange(m * m).reshape(m, m).T.ravel()


def _assert_scans_match_loops(pair, perms):
    assert _outcome(find_property_n, pair, pair.tangible, pair.a_zero) == \
        _outcome(oracle.find_property_n_loop, pair, pair.tangible, pair.a_zero), pair.name
    got = classify_pair(pair)
    assert {f: got[f] for f in _FLAGS} == oracle.classify_flags_loop(pair), pair.name
    for perm in perms:
        assert _outcome(validate_negation_map, pair, perm) == \
            _outcome(oracle.negation_map_loop, pair, perm), (pair.name, perm)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), cells=st.integers(0, 3), doubled=st.booleans())
def test_daggers_negations_and_flags_match_the_loops_on_planted_tables(pairs, seed, cells,
                                                                        doubled):
    """Random T and A0 and up to three planted product cells on a catalog
    pair or its double, with the identity, the switch, a random involution
    and a random permutation as negation maps: each scan names the old
    loop's first witness, or returns what it returned."""
    rng = np.random.default_rng(seed)
    p = pairs[sorted(pairs)[int(rng.integers(len(pairs)))]]
    d = _doubled(p) if doubled else None
    base = p if d is None else d
    n = base.n
    mul = base.mul.copy()
    for _ in range(cells):
        mul[tuple(rng.integers(n, size=2))] = rng.integers(n)
    tangible = set(rng.choice(n, int(rng.integers(1, 4))).tolist()) | {base.one} \
        if rng.integers(4) else set(base.tangible)
    a_zero = set(rng.choice(n, int(rng.integers(0, 4))).tolist()) | set(base.a_zero)
    pair = Pair(**{f.name: getattr(base, f.name) for f in fields(FiniteStructure)} | {"mul": mul},
                tangible=frozenset(tangible), a_zero=frozenset(a_zero), property_n=None,
                name=base.name)
    swaps = np.arange(n)
    for x, y in rng.integers(n, size=(2, 2)):
        if swaps[x] == x and swaps[y] == y:
            swaps[x], swaps[y] = y, x
    perms = [np.arange(n), swaps, rng.permutation(n)]
    if base is d:
        perms.append(_switch(p.n))
    _assert_scans_match_loops(pair, perms)


def test_daggers_negations_and_flags_match_the_loops_on_catalog_doubles_and_quotients(
        pairs, monkeypatch):
    """Every catalog pair, its double and each quotient by a congruence that
    validates, with the identity, the reversal and the double's switch as
    negation maps; the A0-characteristic against the brute force too."""
    seen = []
    real = constructions.validate_pair

    def spy(structure, tangible, a_zero, **kwargs):
        out = real(structure, tangible, a_zero, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(constructions, "validate_pair", spy)
    switches = {}
    for p in pairs.values():
        seen.append(p)
        with contextlib.suppress(ValueError):     # tangibles that are not central
            switches[id(double(p)[0])] = [_switch(p.n)]
        for cong in enumerate_congruences(p, None):
            try:
                quotient_pair(p, cong)
            except ValidationError:
                pass
    assert len(seen) > 2 * len(pairs)
    for pair in seen:
        idx = np.arange(pair.n)
        _assert_scans_match_loops(pair, [idx, idx[::-1], *switches.get(id(pair), [])])
        assert a0_characteristic(pair) == oracle.a0_characteristic_loop(pair.add, pair.a_zero)


# -- the A0-characteristic ------------------------------------------------------------

@st.composite
def _monogenic_products(draw):
    """The sums of a product of up to three monogenic monoids, each {0, x,
    2x, ...} with (i + p)x = ix, and an additively closed A0 generated by
    zero and a few random elements."""
    shape = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1,
                          max_size=3).filter(lambda s: np.prod([i + p for i, p in s]) <= 48))
    sizes = [i + p for i, p in shape]
    n = int(np.prod(sizes))
    digits = np.array(np.unravel_index(np.arange(n), sizes)).T
    total = digits[:, None, :] + digits[None, :, :]
    for k, (i, p) in enumerate(shape):
        t = total[:, :, k]
        total[:, :, k] = np.where(t < i + p, t, i + (t - i) % p)
    add = np.ravel_multi_index(tuple(np.moveaxis(total, 2, 0)), sizes)
    a0 = {0, *draw(st.sets(st.integers(0, n - 1), max_size=3))}
    while True:
        grown = a0 | {int(add[x, y]) for x in a0 for y in a0}
        if grown == a0:
            break
        a0 = grown
    return add, a0


@settings(max_examples=150, deadline=None)
@given(case=_monogenic_products())
def test_a0_characteristic_matches_brute_force_on_monogenic_products(case):
    add, a0 = case
    mask = np.isin(np.arange(len(add)), list(a0))
    pair = SimpleNamespace(n=len(add), add=add, a0_mask=mask)
    assert a0_characteristic(pair) == oracle.a0_characteristic_loop(add, a0)


@pytest.mark.parametrize("one_plus_one, want", [("1", 0), ("inf", 2 * 3 * 5 * 7 * 11 * 13 * 17)])
def test_a0_characteristic_past_every_short_orbit(one_plus_one, want):
    """Cyclic groups of orders 2 to 17 side by side: their k-fold sums all
    return to A0 only at the lcm of the orders, far beyond the carrier."""
    p = oracle.cyclic_parts_pair(one_plus_one)
    assert p.n == 61
    assert a0_characteristic(p) == oracle.a0_characteristic_loop(p.add, p.a_zero) == want
    assert classify_pair(p)["a0_characteristic"] == want


# -- bounded memory ------------------------------------------------------------------

def test_a0_scans_stay_within_a_few_row_blocks(monkeypatch):
    """A chain of 2,000 elements under max and min, with T the upper half
    and A0 the lower: every law the flags leave runs over T or A0 in row
    blocks of ROW_CELLS cells, so with ROW_CELLS lowered the peak stays far
    below the 8 MB of one unblocked int64 gather over A0 x A0."""
    import tracemalloc

    from pairspec import _kernels

    n = 2000
    idx = np.arange(n)
    s = FiniteStructure(tuple(map(str, idx)), 0, n - 1, np.maximum.outer(idx, idx),
                        np.minimum.outer(idx, idx), mul_associative=True, distributive=True,
                        commutative_mul=True)
    monkeypatch.setattr(_kernels, "ROW_CELLS", 1 << 10)
    tracemalloc.start()
    try:
        p = validate_pair(s, range(n // 2, n), range(n // 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.property_n is None and len(p.a_zero) == 1000
    assert peak < 1 << 20, peak
