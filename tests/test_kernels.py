"""The slabbed n^3 axiom scans and the tiled twist kernels against the
dense formulas built whole."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pairspec import _kernels
from pairspec.constructions import twist_table
from pairspec.core import validate_structure


def _family(kind, n, rng):
    """(add, mul) tables of one shape, relabelled by a random permutation.

    random: arbitrary tables; lattice: max and min on a chain, associative
    and distributive; projection: a cyclic group with right projection as
    multiplication, which fails only the right distributive law.
    """
    idx = np.arange(n)
    if kind == "random":
        add = rng.integers(0, n, (n, n))
        mul = rng.integers(0, n, (n, n))
    elif kind == "lattice":
        add = np.maximum(idx[:, None], idx[None, :])
        mul = np.minimum(idx[:, None], idx[None, :])
    else:
        add = (idx[:, None] + idx[None, :]) % n
        mul = np.broadcast_to(idx[None, :], (n, n))
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    return tuple(perm[t[inv][:, inv]] for t in (add, mul))


def _plant(t, rng, cells):
    t = t.copy()
    n = t.shape[0]
    for _ in range(cells):
        t[rng.integers(n), rng.integers(n)] = rng.integers(n)
    return t


def _assert_scans_match(add, mul):
    for op in (add, mul):
        assert _kernels.first_nonassoc(op) == oracle.first_nonassoc_dense(op)
    assert _kernels.first_nondistrib(add, mul) == oracle.first_nondistrib_dense(add, mul)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12),
       kind=st.sampled_from(["random", "lattice", "projection"]),
       planted=st.integers(0, 2))
def test_scans_match_dense_formulas(seed, n, kind, planted):
    rng = np.random.default_rng(seed)
    add, mul = _family(kind, n, rng)
    add, mul = _plant(add, rng, planted), _plant(mul, rng, planted)
    _assert_scans_match(add, mul)
    if kind != "random" and not planted:
        assert _kernels.first_nonassoc(add) == _kernels.first_nonassoc(mul) == (-1, -1, -1)
        side = _kernels.first_nondistrib(add, mul)[0]
        assert side == (1 if kind == "projection" and n > 1 else -1)


def _symmetric(t):
    """The table with its upper triangle mirrored below the diagonal."""
    return np.triu(t) + np.triu(t, 1).T


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12),
       kind=st.sampled_from(["random", "lattice"]), planted=st.integers(0, 2))
def test_nondistrib_on_commutative_products_matches_dense_formula(seed, n, kind, planted):
    """With mul equal to its transpose only side 0 is scanned; the witness
    stays the dense formula's, with and without a planted violation."""
    rng = np.random.default_rng(seed)
    add, mul = _family(kind, n, rng)
    mul = _symmetric(_plant(mul, rng, planted))
    add = _plant(add, rng, planted)
    assert (mul == mul.T).all()
    got = _kernels.first_nondistrib(add, mul)
    assert got == oracle.first_nondistrib_dense(add, mul)
    assert got[0] in (-1, 0)
    if kind == "lattice" and not planted:
        assert got == (-1, -1, -1, -1)


def test_commutative_product_scans_one_side(monkeypatch):
    n = 40
    idx = np.arange(n)
    add = np.maximum(idx[:, None], idx[None, :])
    calls = []
    slabs = _kernels._slabs
    monkeypatch.setattr(_kernels, "_slabs", lambda m: calls.append(m) or slabs(m))
    assert _kernels.first_nondistrib(add, np.minimum(idx[:, None], idx[None, :])) \
        == (-1, -1, -1, -1)
    assert calls == [n]


@pytest.mark.parametrize("n", [3, 5, 17])
def test_side_one_only_violation_is_still_found(n):
    """Right projection on a cyclic group is not commutative and fails only
    (b+c)a = ba + ca; both sides are scanned."""
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = np.broadcast_to(idx[None, :], (n, n)).copy()
    want = oracle.first_nondistrib_dense(add, mul)
    assert want[0] == 1
    assert _kernels.first_nondistrib(add, mul) == want
    # max and min on a chain with the one cell 0 * (n-1) set to n-1: the
    # product is no longer symmetric, and only side 1 breaks
    chain = np.maximum(idx[:, None], idx[None, :])
    mul = np.minimum(idx[:, None], idx[None, :])
    mul[0, n - 1] = n - 1
    want = oracle.first_nondistrib_dense(chain, mul)
    assert want[0] == 1
    assert _kernels.first_nondistrib(chain, mul) == want


def _last_slab_cases(n):
    """Tables whose only violation has first two indices (n-1, n-1), with
    its expected witness.  From 258 elements on, the two compared values
    differ by exactly 256, which a uint8 copy of the tables would miss."""
    top = n - 1
    v = 256 if n > 257 else 1
    # a null semigroup whose last row f fixes n-1 and 1 + v and sends n-2
    # to 1 and 1 to 1 + v: only (top, top, n-2) fails, as f(f(n-2)) != f(n-2)
    op = np.zeros((n, n), dtype=np.int64)
    op[top, top] = top
    op[top, n - 2] = 1
    op[top, 1] = op[top, 1 + v] = 1 + v
    # right projection addition except top + top = 0
    add = np.broadcast_to(np.arange(n), (n, n)).copy()
    add[top, top] = 0
    # products take no value top, so only b = c = top breaks a law
    left = np.zeros((n, n), dtype=np.int64)
    left[top, top] = v
    right = np.zeros((n, n), dtype=np.int64)
    right[top, 1] = v
    return [
        (_kernels.first_nonassoc, (op,), (top, top, n - 2)),
        (_kernels.first_nondistrib, (add, left), (0, top, top, top)),
        (_kernels.first_nondistrib, (add, right), (1, 1, top, top)),
    ]


# 100: slabs of six whole rows, the last holding four; 300: the uint16
# path, one row per slab split into column ranges of 218 and 82.
@pytest.mark.parametrize("n", [100, 300])
def test_violation_in_a_short_last_slab(n):
    *_, (rows, cols) = _kernels._slabs(n)
    first_rows, first_cols = next(_kernels._slabs(n))
    assert (rows.stop - rows.start, cols.stop - cols.start) != \
        (first_rows.stop - first_rows.start, first_cols.stop - first_cols.start)
    assert rows.stop == cols.stop == n
    for scan, args, want in _last_slab_cases(n):
        assert scan(*args) == want


def test_uint16_max_with_one_planted_cell():
    n = 300
    idx = np.arange(n)
    op = np.maximum(idx[:, None], idx[None, :])
    assert _kernels.first_nonassoc(op) == (-1, -1, -1)
    op[n - 1, n - 1] = 0
    # (1 (n-1)) (n-1) = 0 while 1 ((n-1)(n-1)) = max(1, 0) = 1
    assert _kernels.first_nonassoc(op) == (1, n - 1, n - 1)


def _assert_slabs_tile(n, depth=None):
    end = (0, 0)
    for rows, cols in _kernels._slabs(n, depth):
        cells = (rows.stop - rows.start) * (cols.stop - cols.start) * (depth or n)
        assert cells <= _kernels._SCAN_CELLS
        assert rows.stop - rows.start == 1 or (cols.start, cols.stop) == (0, n)
        assert (rows.start, cols.start) == end and cols.start < cols.stop
        end = (rows.start, cols.stop) if cols.stop < n else (rows.stop, 0)
    assert end == (n, 0)


@pytest.mark.parametrize("n", [1, 2, 9, 81, 255, 256, 257, 300, 729, 2000])
def test_slabs_tile_the_square_in_row_major_order(n):
    _assert_slabs_tile(n)


@pytest.mark.parametrize("n", [1, 2, 9, 81, 255, 256, 257, 300, 729, 2000])
@pytest.mark.parametrize("depth", [1, 9, 43])
def test_reduced_slabs_tile_the_square_in_row_major_order(n, depth):
    """The n x n x |G| boxes of the scans reduced to |G| generators."""
    _assert_slabs_tile(n, min(depth, n))


def test_distributivity_scan_memory_does_not_grow_with_n():
    n = 400
    idx = np.arange(n)
    add = np.maximum(idx[:, None], idx[None, :])
    mul = np.minimum(idx[:, None], idx[None, :])
    tracemalloc.start()
    try:
        assert _kernels.first_nondistrib(add, mul) == (-1, -1, -1, -1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole n^3 int64 cube would be 512 MB
    assert peak < 4 * 2**20, peak


# -- scans reduced to generators ---------------------------------------------------

def _bitwise(n):
    """OR and AND on n = 2^k elements: a distributive lattice whose OR is
    generated by 0 and the k single bits."""
    idx = np.arange(n)
    return idx[:, None] | idx[None, :], idx[:, None] & idx[None, :]


def _ring(n):
    """Addition and multiplication of Z_n; 0 and 1 generate the addition."""
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n, (idx[:, None] * idx[None, :]) % n


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 14), values=st.integers(1, 14),
       ops=st.integers(1, 2), cells=st.sampled_from([1, 8, 64, _kernels._SCAN_CELLS]))
def test_generators_are_greedy_and_generate(seed, n, values, ops, cells):
    """Closure under one operation, or two at once, in steps of every size
    down to one product."""
    rng = np.random.default_rng(seed)
    op, *more = rng.integers(0, min(values, n), (ops, n, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCAN_CELLS", cells)
        gens = _kernels.generators(op, *more).tolist()
    assert gens == sorted(gens) and gens[0] == 0
    assert oracle.closure_loop(op, gens, *more) == set(range(n))
    for k, g in enumerate(gens):
        earlier = oracle.closure_loop(op, gens[:k], *more)
        assert g not in earlier
        # g is the least element outside the closure of the earlier ones
        assert all(x in earlier for x in range(g))


def test_generators_of_known_tables():
    assert _kernels.generators(_bitwise(64)[0]).tolist() == [0, 1, 2, 4, 8, 16, 32]
    assert _kernels.generators(_ring(10)[0]).tolist() == [0, 1]
    idx = np.arange(9)
    assert _kernels.generators(np.maximum(idx[:, None], idx[None, :])).tolist() == list(range(9))


def _reduced_family(kind, n, rng):
    if kind == "ring":
        return _ring(n)
    if kind == "bitwise":
        return _bitwise(1 << (n.bit_length() - 1))
    if kind == "random":
        values = int(rng.integers(1, n + 1))
        return rng.integers(0, values, (n, n)), rng.integers(0, values, (n, n))
    return _family(kind, n, rng)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12),
       kind=st.sampled_from(["random", "ring", "bitwise", "lattice", "projection"]),
       planted=st.integers(0, 2), symmetric=st.booleans(), cells=st.sampled_from([8, 64]))
def test_reduced_scans_keep_the_dense_witness(seed, n, kind, planted, symmetric, cells):
    """With one slab shrunk to ``cells`` cells every table of 3 or more
    elements takes the reduced scans first; clean or not, the verdict and
    the witness are the dense formula's.  Planted cells make + non-associative
    as often as not."""
    rng = np.random.default_rng(seed)
    add, mul = _reduced_family(kind, n, rng)
    add, mul = _plant(add, rng, planted), _plant(mul, rng, planted)
    if symmetric:
        mul = _symmetric(mul)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCAN_CELLS", cells)
        _assert_scans_match(add, mul)


def _semilattice(n, rng):
    """Max on a chain, or OR on the largest power of two up to n, relabelled."""
    idx = np.arange(n)
    if rng.integers(2):
        t = np.maximum(idx[:, None], idx[None, :])
    else:
        n = 1 << (n.bit_length() - 1)
        idx = idx[:n]
        t = idx[:, None] | idx[None, :]
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    return perm[t[inv][:, inv]]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 14), values=st.integers(1, 14),
       kind=st.sampled_from(["random", "semilattice", "ring"]), planted=st.integers(0, 2),
       cells=st.sampled_from([8, 64, _kernels._SCAN_CELLS]))
def test_light_test_on_the_left_nucleus_matches_dense_associativity(
        seed, n, values, kind, planted, cells):
    """Over the greedy generators, the left-nucleus test is clean exactly
    when the table is associative, with tiles of whole rows and, at 8
    cells, tiles of one row and a run of columns."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        op = rng.integers(0, min(values, n), (n, n))
    elif kind == "semilattice":
        op = _semilattice(n, rng)
    else:
        op = _ring(n)[1]
    op = _plant(op, rng, planted)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SCAN_CELLS", cells)
        clean = _kernels._light_clean(op, _kernels.compact(op), _kernels.generators(op))
    assert clean == (oracle.first_nonassoc_dense(op) == (-1, -1, -1))


def _xor_bilinear(k, kind, rng):
    """(Z/2)^k with XOR as + and a bilinear product, so both distributive
    laws hold.  and: bitwise AND; poly: GF(2)[x] multiplication truncated
    below x^k; both associative.  poly_planted: poly with the product of
    two basis vectors replaced at random; random: random products of the
    basis vectors.  The last two are, as a rule, not associative."""
    n = 1 << k
    idx = np.arange(n)
    bits = (idx[:, None] >> np.arange(k)) & 1
    basis = (1 << np.add.outer(np.arange(k), np.arange(k))) & (n - 1)
    if kind == "and":
        basis = np.where(np.eye(k, dtype=bool), 1 << np.arange(k)[:, None], 0)
    elif kind == "random":
        basis = rng.integers(0, n, (k, k))
    elif kind == "poly_planted":
        basis[rng.integers(k), rng.integers(k)] = rng.integers(n)
    mul = np.zeros((n, n), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            mul ^= np.outer(bits[:, i], bits[:, j]) * basis[i, j]
    return idx[:, None] ^ idx[None, :], mul


@pytest.mark.parametrize("k", [6, 7])
@pytest.mark.parametrize("kind", ["and", "poly", "poly_planted", "random"])
@pytest.mark.parametrize("seed", range(3))
def test_semiring_generators_decide_associativity_of_distributive_products(k, kind, seed):
    """Once both distributive laws hold, the left nucleus is closed under +
    too, so Light's test may run over generators of (A, *, +): at most
    k + 1 of them here.  Verdict and witness stay the dense formula's."""
    add, mul = _xor_bilinear(k, kind, np.random.default_rng(seed))
    assert _kernels.first_nondistrib(add, mul) == (-1, -1, -1, -1)
    gens = _kernels.generators(mul, add)
    assert len(gens) <= k + 1
    want = oracle.first_nonassoc_dense(mul)
    assert _kernels.first_nonassoc(mul, gens) == want
    if kind in ("and", "poly"):
        assert want == (-1, -1, -1)
    structure = validate_structure([str(i) for i in range(1 << k)], 0, 1, add, mul)
    assert structure.distributive
    assert structure.mul_associative == (want == (-1, -1, -1))


@pytest.mark.parametrize("n", [12, 16])
def test_reduced_scans_with_non_associative_addition(monkeypatch, n):
    """A non-associative + with few generators: the distributivity scan
    may not rest on its generators, and falls through to the full scan."""
    monkeypatch.setattr(_kernels, "_SCAN_CELLS", 8)
    add, mul = _ring(n)
    assert len(_kernels.generators(add)) < n
    add = add.copy()
    add[n - 1, 1] = add[1, n - 1] = 1
    assert _kernels.first_nonassoc(add) == oracle.first_nonassoc_dense(add) != (-1, -1, -1)
    _assert_scans_match(add, mul)
    for scan, args, want in _last_slab_cases(n):
        assert scan(*args) == want


def _counting_slabs(monkeypatch):
    """Depth of every ``_slabs`` call: None for a full n^3 scan."""
    depths = []
    slabs = _kernels._slabs

    def counting(n, depth=None):
        depths.append(depth)
        return slabs(n, depth)

    monkeypatch.setattr(_kernels, "_slabs", counting)
    return depths


@pytest.mark.parametrize("n", [64, 512])
def test_large_clean_tables_never_enter_the_full_scan(monkeypatch, n):
    add, mul = _bitwise(n)
    depths = _counting_slabs(monkeypatch)
    assert _kernels.first_nonassoc(add) == (-1, -1, -1)
    assert _kernels.first_nondistrib(add, mul) == (-1, -1, -1, -1)
    assert depths and None not in depths and max(depths) == n.bit_length()


def test_large_violation_falls_through_to_the_first_witness(monkeypatch):
    n = 64
    add, mul = _bitwise(n)
    add, mul = add.copy(), mul.copy()
    add[5, 9] = add[9, 5] = 0
    mul[63, 62] = 1
    depths = _counting_slabs(monkeypatch)
    for op in (add, mul):
        assert _kernels.first_nonassoc(op) == oracle.first_nonassoc_dense(op) != (-1, -1, -1)
    assert _kernels.first_nondistrib(add, mul) == oracle.first_nondistrib_dense(add, mul)
    assert None in depths


def test_reduced_scan_memory_does_not_grow_with_n(monkeypatch):
    """Z_400: + has the two generators 0 and 1, so both scans end in the
    reduced path, each slab within ``_SCAN_CELLS`` cells."""
    n = 400
    add, mul = _ring(n)
    depths = _counting_slabs(monkeypatch)
    tracemalloc.start()
    try:
        assert _kernels.first_nonassoc(add) == (-1, -1, -1)
        assert _kernels.first_nondistrib(add, mul) == (-1, -1, -1, -1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert set(depths) == {2}
    assert peak < 4 * 2**20, peak


def test_validate_structure_runs_light_over_semiring_generators(pairs, monkeypatch):
    """The 256-element double of function_pair(minbp_c2_first, sat2): its
    product needs 43 generators alone and 4 together with +, and Light's
    test of the product runs over those 4."""
    from pairspec.constructions import double, function_pair
    from pairspec.monoids import saturating_monoid
    s = double(function_pair(pairs["minbp_c2_first"], saturating_monoid(2))).structure
    assert s.n == 256 and s.distributive and s.mul_associative
    assert len(_kernels.generators(s.mul)) == 43
    assert _kernels.generators(s.mul, s.add).tolist() == [0, 1, 2, 4]
    depths = _counting_slabs(monkeypatch)
    again = validate_structure(s.names, s.zero, s.one, s.add, s.mul)
    assert (again.distributive, again.mul_associative) == (True, True)
    assert None not in depths and depths[-1] == 4


# -- congruence kernels ----------------------------------------------------------

def _labels(rng, n, blocks, canonical):
    """Random block labels for n elements in at most ``blocks`` blocks; the
    non-canonical ones are arbitrary distinct integers in any order."""
    labels = rng.integers(0, blocks, n)
    if not canonical:
        labels = rng.permutation(10 * blocks)[labels] - 3 * blocks
    return labels


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 9), blocks=st.integers(1, 9),
       canonical=st.booleans(), values=st.integers(1, 9))
def test_congruence_violation_matches_loop(seed, n, blocks, canonical, values):
    # tables with few distinct values so that some partitions are congruences
    rng = np.random.default_rng(seed)
    add = rng.integers(0, min(values, n), (n, n))
    mul = rng.integers(0, min(values, n), (n, n))
    block_of = _labels(rng, n, blocks, canonical)
    want = oracle.congruence_violation_loop(add, mul, block_of)
    assert _kernels.congruence_violation(add, mul, oracle.roots_of(block_of)) == want


def test_congruence_violation_matches_loop_on_catalog(pairs):
    rng = np.random.default_rng(7)
    seen_ok = seen_bad = 0
    for p in pairs.values():
        for _ in range(200):
            block_of = _labels(rng, p.n, int(rng.integers(1, p.n + 1)), bool(rng.integers(2)))
            want = oracle.congruence_violation_loop(p.add, p.mul, block_of)
            assert _kernels.congruence_violation(p.add, p.mul, oracle.roots_of(block_of)) == want
            seen_ok += want[0] < 0
            seen_bad += want[0] >= 0
    assert seen_ok and seen_bad


def _refinement_by_definition(rows):
    return np.array([[oracle.refines_by_definition(a, b) for b in rows] for a in rows])


def _assert_refinement_order_in_every_chunking(rows, monkeypatch):
    want = _refinement_by_definition(rows)
    # one row per chunk, then three rows with a shorter last chunk
    for cells in (1, 3 * len(rows[0]) * len(rows), _kernels._LEQ_CELLS):
        monkeypatch.setattr(_kernels, "_LEQ_CELLS", cells)
        assert (_kernels.refinement_order(rows) == want).all(), rows
    return want


def test_leq_is_refines_in_every_chunking(pairs, monkeypatch):
    from pairspec.congruences import enumerate_congruences
    for p in pairs.values():
        lat = enumerate_congruences(p)
        want = _assert_refinement_order_in_every_chunking([c.roots for c in lat], monkeypatch)
        assert (lat.leq == want).all(), p.name


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 9), m=st.integers(1, 12))
def test_refinement_order_on_random_partitions(seed, n, m):
    rng = np.random.default_rng(seed)
    rows = [oracle.roots_of(rng.integers(0, int(rng.integers(1, n + 1)), n).tolist())
            for _ in range(m)]
    with pytest.MonkeyPatch.context() as mp:
        _assert_refinement_order_in_every_chunking(rows, mp)


def test_covers_match_definition_in_every_chunking(pairs, monkeypatch):
    from pairspec.congruences import enumerate_congruences
    for p in pairs.values():
        lat = enumerate_congruences(p)
        want = [tuple(c) for c in oracle.covers_by_definition([c.block_of for c in lat])]
        assert list(lat.covers) == want, p.name
        # one row per chunk, then three rows with a shorter last chunk
        for cells in (1, 4 * 3 * len(lat)):
            monkeypatch.setattr(_kernels, "_LEQ_CELLS", cells)
            assert list(_kernels.upper_covers(lat.leq)) == want, p.name


def test_congruence_violation_keeps_labels_past_256():
    # 298 ~ 299 only; x + y = x except 299 + 5 = 42, in a block whose least
    # member differs from 298's by exactly 256
    n = 300
    add = np.broadcast_to(np.arange(n)[:, None], (n, n)).copy()
    mul = np.zeros((n, n), dtype=np.int64)
    block_of = np.arange(n)
    block_of[299] = 298
    assert _kernels.congruence_violation(add, mul, block_of) == (-1, -1, -1, -1)
    add[299, 5] = 42
    want = (298, 299, 5, 0)
    assert oracle.congruence_violation_loop(add, mul, block_of) == want
    assert _kernels.congruence_violation(add, mul, block_of) == want


# -- twist kernels -----------------------------------------------------------------

def _twist_table_dense(add, mul):
    n = add.shape[0]
    b1, b2 = np.divmod(np.arange(n * n), n)
    p, q = oracle.twist_products_dense(add, mul, (b1, b2), (b1, b2))
    return p * n + q


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 6), values=st.integers(1, 6),
       blocks=st.integers(1, 6), extra=st.sampled_from([0.0, 0.2, 1.0]))
def test_twist_kernels_keep_the_dense_witness(seed, n, values, blocks, extra):
    """Every twist kernel, with tiles of one cell, of seven cells and of the
    default size, against the twist products built whole.  The relation is
    an equivalence, widened by a share ``extra`` of random pairs."""
    rng = np.random.default_rng(seed)
    add = rng.integers(0, min(values, n), (n, n))
    mul = rng.integers(0, min(values, n), (n, n))
    labels = rng.integers(0, blocks, n)
    member = (labels[:, None] == labels[None, :]) | (rng.random((n, n)) < extra)
    rel1, rel2 = (np.nonzero(rng.random((n, n)) < 0.5) for _ in range(2))
    nonmembers = np.nonzero(~member)
    squares = member[oracle.twist_squares_dense(add, mul)]
    fill = np.zeros((n, n), dtype=bool)
    fill[oracle.twist_products_dense(add, mul, rel1, rel2)] = True
    want = {
        "subset": oracle.first_true(~member[oracle.twist_products_dense(add, mul, rel1, rel2)]),
        "strongly_prime": oracle.first_true(
            member[oracle.twist_products_dense(add, mul, nonmembers, nonmembers)]),
        "radical": oracle.first_true(squares & ~member),
    }
    base = SimpleNamespace(n=n, add=add, mul=mul)
    for cells in (1, 7, _kernels._SCAN_CELLS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_SCAN_CELLS", cells)
            assert want == {
                "subset": _kernels.twist_subset_violation(add, mul, *rel1, *rel2, member),
                "strongly_prime": _kernels.strongly_prime_violation(add, mul, member, *nonmembers),
                "radical": _kernels.radical_violation(add, mul, member),
            }, cells
            assert (_kernels.sqrt_step(add, mul, member) == squares).all()
            assert (_kernels.twist_fill(add, mul, *rel1, *rel2) == fill).all()
            got = twist_table(base)
            assert got.dtype == np.int64 and (got == _twist_table_dense(add, mul)).all()


def test_strongly_prime_scan_memory_is_bounded():
    """The diagonal of left-projection + and right-projection * on 100
    elements: the twist product of non-diagonal pairs is (x2, y2), never
    diagonal, so the whole 9900 x 9900 grid is scanned."""
    n = 100
    idx = np.arange(n)
    add = np.repeat(idx[:, None], n, axis=1)
    mul = add.T.copy()
    member = np.eye(n, dtype=bool)
    nxs, nys = np.nonzero(~member)
    tracemalloc.start()
    try:
        assert _kernels.strongly_prime_violation(add, mul, member, nxs, nys) == (-1, -1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one int64 product over the whole grid would be 784 MB
    assert peak < 4 * 2**20, peak


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 40), cells=st.integers(1, 30), budget=st.integers(1, 200),
       seed=st.integers(0, 10**6), rate=st.sampled_from([0.0, 0.002, 0.05]))
def test_first_row_finds_the_first_failure_in_row_major_order(rows, cells, budget, seed, rate):
    """Over row blocks of any budget, each test seeing only its own block,
    first_row names the first True of the whole row-major scan."""
    bad = np.random.default_rng(seed).random((rows, cells)) < rate
    seen = []

    def test(block):
        seen.append(len(block))
        return bad[block]

    hit = _kernels.first_row(np.arange(rows), cells, test, budget)
    want = np.argwhere(bad)
    assert hit == (tuple(map(int, want[0])) if len(want) else None)
    assert all(k * cells <= budget or k == 1 for k in seen)
    # the scan stops at the block that holds the first failure
    assert sum(seen) == rows if hit is None else sum(seen) - seen[-1] <= hit[0] < sum(seen)
