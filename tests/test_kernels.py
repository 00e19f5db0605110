"""The slabbed n^3 axiom scans against the dense whole-cube formulas."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from pairspec import _kernels


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


@pytest.mark.parametrize("n", [1, 2, 9, 81, 255, 256, 257, 300, 729, 2000])
def test_slabs_tile_the_square_in_row_major_order(n):
    end = (0, 0)
    for rows, cols in _kernels._slabs(n):
        assert (rows.stop - rows.start) * (cols.stop - cols.start) * n <= _kernels._SCAN_CELLS
        assert rows.stop - rows.start == 1 or (cols.start, cols.stop) == (0, n)
        assert (rows.start, cols.start) == end and cols.start < cols.stop
        end = (rows.start, cols.stop) if cols.stop < n else (rows.stop, 0)
    assert end == (n, 0)


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
    assert _kernels.congruence_violation(add, mul, block_of) == want


def test_congruence_violation_matches_loop_on_catalog(pairs):
    rng = np.random.default_rng(7)
    seen_ok = seen_bad = 0
    for p in pairs.values():
        for _ in range(200):
            block_of = _labels(rng, p.n, int(rng.integers(1, p.n + 1)), bool(rng.integers(2)))
            want = oracle.congruence_violation_loop(p.add, p.mul, block_of)
            assert _kernels.congruence_violation(p.add, p.mul, block_of) == want
            seen_ok += want[0] < 0
            seen_bad += want[0] >= 0
    assert seen_ok and seen_bad


def test_leq_is_refines_in_every_chunking(pairs, monkeypatch):
    from pairspec.congruences import enumerate_congruences
    for p in pairs.values():
        lat = enumerate_congruences(p)
        want = np.array([[a.refines(b) for b in lat] for a in lat])
        assert (lat.leq == want).all(), p.name
        rows = [c.block_of for c in lat]
        # one row per chunk, then three rows with a shorter last chunk
        for cells in (1, 3 * p.n * len(lat)):
            monkeypatch.setattr(_kernels, "_LEQ_CELLS", cells)
            assert (_kernels.refinement_order(rows) == want).all(), p.name


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
