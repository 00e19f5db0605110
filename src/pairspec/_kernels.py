"""Hot inner loops: exhaustive table scans and congruence closure.

Tables are dense ``int64`` Cayley tables whose entries are element indices
in ``0..n-1`` (``core._as_table`` checks this); relations over the doubled
carrier A x A are boolean ``(n, n)`` matrices.

The n^3 axiom scans run over slabs of the index cube in row-major order:
a range of first indices, or for large n one first index and a range of
second indices, so that no temporary holds more than ``_SCAN_CELLS`` cells
whatever n is.  Values are row gathers from a compact copy of each table
(``uint8`` up to 256 elements, ``uint16`` above): (ij)k reads row ij at k,
and i(jk) takes row i at the entries of row j.  Only a sum of two products,
ab + ac, is read through flat ``int64`` offsets.  A scan returns at the
first slab that holds a violation, with the first violation in row-major
order.

Above one slab (n^3 > ``_SCAN_CELLS``, so n >= 41) each scan first runs an
exact test over a generating set, on an n x n x |G| box:

- associativity (Light): (gx)y = g(xy) for all x, y and every generator g.
  The g that pass, the left nucleus, are closed under the operation, so
  they are everything.  When both distributive laws hold, the left nucleus
  is closed under + too, ((g+h)x)y = (gx)y + (hx)y = g(xy) + h(xy) =
  (g+h)(xy), so generators of the semiring, ``generators(mul, add)``, are
  enough.
- distributivity: a(b+c) = ab + ac and (b+c)a = ba + ca for all a, c and
  every generator b of +.  Once Light's test finds + associative, the b that
  pass are closed under +, so they are everything.

A clean reduced test is the verdict.  A failed one, or a generating set of
all n elements, falls through to the full scan, which finds the same first
witness as ever.

The twist product on A x A, (x1, y1)(x2, y2) = (x1x2 + y1y2, x1y2 + y1x2),
is written once, in ``twist``.  The twist kernels take it over tiles of a
grid (pairs of one relation by pairs of another, or the n x n pairs twisted
with themselves) of at most ``_SCAN_CELLS`` cells each, in row-major order,
so a witness is the first in row-major order and no temporary grows with
the relations.  ``twist_counts`` counts instead, over many jobs at once:
each job's grid of pairs by pairs is one run of a flat index range, taken
``_SCAN_CELLS`` cells at a time.
"""

from __future__ import annotations

import numpy as np

# Most cells one temporary of an n^3 scan or a twist kernel may hold.
_SCAN_CELLS = 1 << 16


def compact(t):
    """Copy of a table, or of rows of indices into n elements (n the last
    axis), in the smallest unsigned dtype that holds 0..n-1."""
    return t.astype(np.uint8 if t.shape[-1] <= 256 else np.uint16)


def _tiles(rows, cols, depth=1):
    """(i, j) slice pairs tiling a rows x cols grid in row-major order: runs
    of whole rows, or for long rows one row and a run of columns, so that
    each tile times ``depth`` has at most ``_SCAN_CELLS`` cells."""
    step = _SCAN_CELLS // (max(1, cols) * depth)
    if step:
        for lo in range(0, rows, step):
            yield slice(lo, min(lo + step, rows)), slice(0, cols)
        return
    step = max(1, _SCAN_CELLS // depth)
    for i in range(rows):
        for lo in range(0, cols, step):
            yield slice(i, i + 1), slice(lo, min(lo + step, cols))


def _slabs(n, depth=None):
    """Tiles of the first two indices of an n x n x depth box (depth n by
    default)."""
    return _tiles(n, n, n if depth is None else depth)


def _first(bad, i, j):
    """Indices of the first True in the tile ``bad`` at (i, j), offset by
    the tile's corner, or None."""
    if not bad.any():
        return None
    r, c, *k = np.unravel_index(int(bad.argmax()), bad.shape)
    return (i.start + int(r), j.start + int(c), *map(int, k))


def generators(op, *more):
    """Greedy ascending generating set of the algebra (0..n-1, op, *more):
    each generator is the least element the earlier ones do not generate
    under all the operations together.

    The closure grows in insertion order; each member, in turn, is
    multiplied once by every member found so far, on both sides and by
    every operation, so each product is taken at most twice: O(n^2) cells
    per operation in all, at most ``_SCAN_CELLS`` of them per step."""
    ops = (op, *more)
    n = op.shape[0]
    inside = np.zeros(n, dtype=bool)
    members = np.empty(n, dtype=np.int64)
    gens, size, done = [], 0, 0
    for x in range(n):
        if inside[x]:
            continue
        gens.append(x)
        inside[x] = True
        members[size] = x
        size += 1
        while done < size:
            step = max(1, _SCAN_CELLS // (2 * len(ops) * size))
            new, old = members[done:min(done + step, size)], members[:size]
            done += len(new)
            hit = np.zeros(n, dtype=bool)
            for t in ops:
                hit[t[new[:, None], old]] = True
                hit[t[old[:, None], new]] = True
            hit &= ~inside
            found = np.flatnonzero(hit)
            inside |= hit
            members[size:size + len(found)] = found
            size += len(found)
    return np.array(gens, dtype=np.int64)


def _light_clean(op, t, gens):
    """Light's test on the left nucleus: (gx)y == g(xy) for every x, y and
    every generator g, over tiles (x, y) with every g at once.

    The left nucleus is closed under op: if c and d are in it,
    ((cd)x)y = (c(dx))y = c((dx)y) = c(d(xy)) = (cd)(xy).  Holding the
    generators, it is the whole carrier, so op is associative.  Both sides
    are row gathers of the compact table: (gx)y reads row gx at y, and
    g(xy) reads row g at xy."""
    tg = t[gens]                            # tg[k, x] = g_k x
    for i, j in _slabs(op.shape[0], len(gens)):
        if (t[tg[:, i], j] != np.take(tg, op[i, j], axis=1)).any():
            return False
    return True


def _left_distrib_clean(add, s, mul, m, gens):
    """a(g+c) == ag + ac for every a, c and every additive generator g.

    With + associative, the elements b that pass for all a, c are closed
    under +: a((b+d)+c) = a(b+(d+c)) = ab + (ad + ac) = (ab + ad) + ac =
    a(b+d) + ac.  Holding the generators, they are the whole carrier.
    The left side gathers row a at g+c."""
    n = add.shape[0]
    sflat = s.ravel()
    sums = add[gens].T                      # sums[c, k] = g_k + c
    for a, c in _slabs(n, len(gens)):
        prod = sflat[(mul[a][:, gens] * n)[:, None, :] + mul[a, c][:, :, None]]
        if (np.take(m[a], sums[c], axis=1) != prod).any():
            return False
    return True


def scan_generators(op, *more):
    """``generators(op, *more)`` where the scans of ``op`` reduce to
    generators (above one slab), else None."""
    return generators(op, *more) if op.shape[0] ** 3 > _SCAN_CELLS else None


def first_nonassoc(op, gens=None):
    """First triple (i,j,k) with (ij)k != i(jk), or (-1,-1,-1).

    Above one slab, Light's test over ``generators(op)`` comes first, or
    over ``gens`` when the caller has them: ``generators(op, add)`` when op
    distributes over ``add`` on both sides.  A clean test ends the scan, a
    failed one falls through to the full scan for the first witness."""
    n = op.shape[0]
    t = compact(op)
    if n ** 3 > _SCAN_CELLS:
        gens = generators(op) if gens is None else gens
        if len(gens) < n and _light_clean(op, t, gens):
            return (-1, -1, -1)
    for i, j in _slabs(n):
        hit = _first(t[op[i, j]] != np.take(t[i], op[j], axis=1), i, j)
        if hit:
            return hit
    return (-1, -1, -1)


def first_noncomm(op):
    bad = np.argwhere(op != op.T)
    return tuple(map(int, bad[0])) if len(bad) else (-1, -1)


def first_nondistrib(add, mul, add_gens=None):
    """First distributivity violation as (side, a, b, c); side 0 is a(b+c), side 1 is (b+c)a.

    Side 0 is scanned in [a,b,c] order, then side 1 in [b,c,a] order.  When
    ``mul`` equals its transpose, side 1 at [b,c,a] is side 0 at [a,b,c], so
    a clean side 0 ends the scan.  Above one slab, if Light's test finds +
    associative, both laws are first checked with b over the generators of
    +; a clean check ends the scan, a failed one falls through to the full
    scan for the first witness.  Side 1 is side 0 with ``mul`` transposed.

    A caller that has already found + associative passes its generators as
    ``add_gens``, and neither they nor Light's test are computed again.
    """
    n = add.shape[0]
    s, m = compact(add), compact(mul)
    commutative = np.array_equal(mul, mul.T)
    if n ** 3 > _SCAN_CELLS:
        gens = generators(add) if add_gens is None else add_gens
        if (len(gens) < n
                and (add_gens is not None or _light_clean(add, s, gens))
                and _left_distrib_clean(add, s, mul, m, gens)
                and (commutative or _left_distrib_clean(add, s, mul.T, m.T, gens))):
            return (-1, -1, -1, -1)
    sflat = s.ravel()
    # side 0: a(b+c) against ab + ac, indexed [a,b,c]
    for a, b in _slabs(n):
        prod = sflat[(mul[a, b] * n)[:, :, None] + mul[a][:, None, :]]
        hit = _first(np.take(m[a], add[b], axis=1) != prod, a, b)
        if hit:
            return (0, *hit)
    if commutative:
        return (-1, -1, -1, -1)
    # side 1: (b+c)a against ba + ca, indexed [b,c,a]
    for b, c in _slabs(n):
        prod = sflat[(mul[b] * n)[:, None, :] + mul[c]]
        hit = _first(m[add[b, c]] != prod, b, c)
        if hit:
            b, c, a = hit
            return (1, a, b, c)
    return (-1, -1, -1, -1)


def merge_roots(labels, u, v):
    """The partition ``labels`` (least-member labels: labels[labels] ==
    labels) joined along the edges u[k] - v[k], as least-member labels.

    Each round hooks the larger root of every edge whose ends still differ
    to the smaller one, in one ``np.minimum.at``, then pointer-jumps until
    every label is a root again.  Labels never exceed their elements, and
    each round hooks a root, so the rounds end with each block's least
    member as its label."""
    lab = np.array(labels)
    while True:
        a, b = lab[u], lab[v]
        d = a != b
        if not d.any():
            return lab
        u, v, a, b = u[d], v[d], a[d], b[d]
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        up = lab[lab]
        while (up != lab).any():
            lab, up = up, up[up]


def closure_roots(add, mul, gens):
    """Roots (least block members) of the least congruence relating each
    generator pair: ``closures`` on one row."""
    g = np.array(list(gens), dtype=np.intp).reshape(-1, 2)
    return closures(add, mul, merge_roots(np.arange(add.shape[0]), g[:, 0], g[:, 1])[None])[0]


def closures(add, mul, roots):
    """Row k: the roots of the least congruence above the partition with
    root row ``roots[k]``.

    A partition is a congruence iff the translates x+c, xc, cx of each x
    share blocks with its root's, so pairs (t[x, c], t[root x, c]) are
    merged, for t in (+, *, *^T), until none has two labels.  An x is read
    again only once its root has changed, as labels only coarsen.  Rows go
    in blocks, flattened with an offset of n per row, and the tables are read
    in place, so that an ``int64`` temporary takes ``_SCAN_CELLS`` bytes (or
    one row's worth, if more)."""
    r = np.asarray(roots)
    n = r.shape[1]
    out = np.empty_like(r)
    for s in row_blocks(len(r), n, _SCAN_CELLS // 8):
        off = np.arange(len(r[s]))[:, None] * n
        lab, seen = (r[s] + off).ravel(), (np.arange(n) + off).ravel()
        while (lab != seen).any():
            todo = np.flatnonzero(lab != seen)
            for b in row_blocks(len(todo), 3 * n, _SCAN_CELLS // 8):
                f = todo[b]
                base = (f - f % n)[:, None]
                seen[f] = lab[f]
                u, v = (np.concatenate((add[x], mul[x], mul[:, x].T), axis=1) + base
                        for x in (f % n, lab[f] % n))
                lab = merge_roots(lab, u.ravel(), v.ravel())
        out[s] = lab.reshape(-1, n) - off
    return out


def translate_mismatch(add, mul, roots):
    """mismatch[k, x]: row k of the root matrix ``roots`` puts some x+c, xc
    or cx in another block than the same translate of x's root."""
    r = np.asarray(roots)
    at_root = np.arange(len(r))[:, None], r
    out = np.zeros(r.shape, dtype=bool)
    for t in (add, mul, mul.T):
        blocks = r[:, t]                    # blocks[k, x, c]: the block of x op c in row k
        out |= (blocks != blocks[at_root]).any(axis=2)
    return out


def congruence_violation(add, mul, roots):
    """First (x, y, c, kind) witnessing that the partition with root vector
    ``roots`` (each element's least block-mate) is not a congruence.

    kind 0: x+c / y+c land in different blocks; kind 1: xc / yc; kind 2: cx / cy.
    With blocks in order of least member and pairs in lexicographic order,
    the first violating pair is (least member x of the first block with a
    member whose rows differ from x's, least such member y).  Each element's
    rows are compared with its block's least member's by ``translate_mismatch``.
    """
    n = add.shape[0]
    rep = np.asarray(roots, dtype=np.int64)
    lab = compact(rep)
    ys = np.flatnonzero(translate_mismatch(add, mul, lab[None])[0])
    if not len(ys):
        return (-1, -1, -1, -1)
    y = int(ys[np.argmin(rep[ys] * n + ys)])
    x = int(rep[y])
    for kind, t in enumerate((add, mul, mul.T)):
        d = lab[t[y]] != lab[t[x]]
        if d.any():
            return (x, y, int(d.argmax()), kind)


# Most cells one temporary of the refinement order may hold.
_LEQ_CELLS = 1 << 22

# Most cells (rows times cells per row) one step of a bulk pass over a root
# matrix takes: ``congruences.are_congruences``, ``pushes`` and ``joins``,
# the harness's bulk meets, and every law test of ``first_row``.
ROW_CELLS = 1 << 18

# Most cells (rows times principals times elements) one step of the lattice
# enumeration joins at once.  A small lattice goes in a few steps; a large
# one goes about a row at a time, since a bulk join runs as many merge
# rounds as its slowest row needs.
JOIN_CELLS = 1 << 12


def row_blocks(rows, cells, budget=None):
    """Slices covering range(rows) in order, each of at most ``budget``
    (ROW_CELLS by default) cells at ``cells`` per row (and at least one
    row)."""
    step = max(1, (budget or ROW_CELLS) // max(1, cells))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def first_row(rows, cells, test, budget=None):
    """The first of ``rows`` (elements, or rows of a table or root matrix)
    that fails ``test``, as (row, cell), or None.  ``test`` maps a block of
    rows to a boolean array of failure cells per row, read in row-major
    order; the blocks are ``row_blocks(len(rows), cells, budget)``, so
    ``cells`` is what one row costs the test."""
    for s in row_blocks(len(rows), cells, budget):
        block = rows[s]
        bad = test(block).reshape(len(block), -1)
        if np.count_nonzero(bad):
            r, c = divmod(int(bad.argmax()), bad.shape[1])
            return s.start + r, c
    return None


def refinement_order(roots):
    """leq[i, j] iff every block of partition i lies in a block of partition
    j, each given by its root vector (each element's least block-mate):
    ``r[j][r[i]] == r[j]``.
    No temporary holds more than ``_LEQ_CELLS`` cells."""
    r = np.asarray(roots, dtype=np.int64)
    m, n = r.shape
    c = compact(r)
    out = np.empty((m, m), dtype=bool)
    step = max(1, _LEQ_CELLS // max(1, m * n))
    for lo in range(0, m, step):
        # same[j, i, x]: x and its root in i share a block of j
        same = c[:, r[lo:lo + step]] == c[:, None, :]
        out[lo:lo + step] = same.all(axis=2).T
    return out


def upper_covers(leq):
    """covers[i]: every j with i < j in the order ``leq`` and no k with
    i < k < j, in ascending index order.

    The float32 product ``lt @ lt`` of the strict order counts the members
    strictly between i and j; its terms are 0 or 1, so a sum is zero exactly
    when no member lies between.  Rows and columns are taken in chunks, so no
    float32 temporary takes more than ``_LEQ_CELLS`` bytes.
    """
    m = leq.shape[0]
    lt = leq.copy()
    np.fill_diagonal(lt, False)
    step = max(1, _LEQ_CELLS // (4 * max(1, m)))
    covers = []
    for lo in range(0, m, step):
        cov = lt[lo:lo + step]
        rows = cov.astype(np.float32)
        for c in range(0, m, step):
            cov[:, c:c + step] &= rows @ lt[:, c:c + step].astype(np.float32) == 0
        covers.extend(tuple(np.flatnonzero(r).tolist()) for r in cov)
    return tuple(covers)


def twist(add, mul, x1, y1, x2, y2):
    """The twist product (x1, y1)(x2, y2) = (x1x2 + y1y2, x1y2 + y1x2),
    broadcast over index arrays (or taken on two scalar pairs)."""
    return add[mul[x1, x2], mul[y1, y2]], add[mul[x1, y2], mul[y1, x2]]


def _twist_chunks(add, mul, xs1, ys1, xs2, ys2):
    """(i, j, p, q) over the tiles (i, j) of ``_tiles(len(xs1), len(xs2))``:
    p, q are the twist products of the pairs i of the first relation with
    the pairs j of the second."""
    for i, j in _tiles(len(xs1), len(xs2)):
        yield i, j, *twist(add, mul, xs1[i, None], ys1[i, None], xs2[None, j], ys2[None, j])


def _twist_squares(add, mul):
    """(i, j, p, q) over the tiles (i, j) of the n x n pairs (b1, b2): p, q
    is the twist square of (b1, b2) for b1 in i and b2 in j."""
    n = add.shape[0]
    idx = np.arange(n)
    for i, j in _tiles(n, n):
        b1, b2 = idx[i, None], idx[None, j]
        yield i, j, *twist(add, mul, b1, b2, b1, b2)


def twist_fill(add, mul, xs1, ys1, xs2, ys2):
    """Boolean matrix of all twist products of members1 x members2.

    No package code calls it; ``perfbench/layertrace.py`` wraps it by name,
    so it stays until the benchmark stops tracing it."""
    out = np.zeros(add.shape, dtype=bool)
    for _, _, p, q in _twist_chunks(add, mul, xs1, ys1, xs2, ys2):
        out[p, q] = True
    return out


def twist_subset_violation(add, mul, xs1, ys1, xs2, ys2, target):
    """First (i, j) member indices, in row-major order, whose twist product
    lies outside ``target``, or (-1, -1)."""
    for i, j, p, q in _twist_chunks(add, mul, xs1, ys1, xs2, ys2):
        hit = _first(~target[p, q], i, j)
        if hit:
            return hit
    return (-1, -1)


def _distinct(a):
    """How many distinct values each row (last axis) of ``a`` holds."""
    s = np.sort(a, axis=-1)
    return 1 + (s[..., 1:] != s[..., :-1]).sum(axis=-1)


def radical_cancel_columns(add, mul, t_idx, roots):
    """Whether each partition with a root row of ``roots`` is radical, and
    whether it is cancellative for the elements ``t_idx``, in blocks of at
    most ``ROW_CELLS`` cells.

    Row r is radical iff no pair (x, y) outside it has its twist square
    (xx + yy, xy + yx) inside it.  It is cancellative iff for each t the
    partition x -> r[tx] is finer than r: iff it has as many blocks as its
    meet with r, whose blocks are the distinct (r[tx], r[x])."""
    n = add.shape[0]
    sq = mul.diagonal()
    t1, t2 = add[sq[:, None], sq[None, :]], add[mul, mul.T]
    tx = mul[t_idx]
    radical = np.empty(len(roots), dtype=bool)
    cancel = np.empty(len(roots), dtype=bool)
    for s in row_blocks(len(roots), n * (n + len(tx))):
        b = roots[s].astype(np.int64)
        radical[s] = ~((b[:, t1] == b[:, t2]) & (b[:, :, None] != b[:, None, :])).any(axis=(1, 2))
        labels = b[:, tx]                       # labels[k, t, x] = r_k[tx]
        cancel[s] = (_distinct(labels) == _distinct(labels * n + b[:, None, :])).all(axis=1)
    return radical, cancel


def twist_counts(add, mul, roots, job, relate):
    """For each job k: how many pairs (x, y), x != y, of least block members
    of the root row ``roots[job[k]]`` the root row ``roots[relate[k]]``
    relates (every such pair where ``relate[k]`` is -1), and how many twist
    products of those pairs with each other row ``job[k]`` relates.

    Jobs go in blocks of at most ``ROW_CELLS`` cells of n x n.  A block's
    grids of pairs by pairs are flattened into one index range, each offset
    by the cells of the jobs before it, the way ``closures`` flattens rows,
    and are taken ``_SCAN_CELLS`` cells at a time."""
    n = add.shape[0]
    sizes = np.zeros(len(job), dtype=np.int64)
    hits = np.zeros(len(job), dtype=np.int64)
    for s in row_blocks(len(job), n * n):
        r, c = roots[job[s]], roots[relate[s]]
        c[relate[s] < 0] = 0
        least = r == np.arange(n)
        m = (least[:, :, None] & least[:, None, :] & (c[:, :, None] == c[:, None, :])
             & ~np.eye(n, dtype=bool))
        _, xs, ys = np.nonzero(m)
        size = sizes[s] = m.sum(axis=(1, 2))
        cells = size * size
        end, first = np.cumsum(cells), np.cumsum(size) - size
        total = int(end[-1]) if len(end) else 0
        for lo in range(0, total, _SCAN_CELLS):
            g = np.arange(lo, min(lo + _SCAN_CELLS, total))
            k = np.searchsorted(end, g, side="right")
            i, j = np.divmod(g - end[k] + cells[k], size[k])
            i += first[k]
            j += first[k]
            p, q = twist(add, mul, xs[i], ys[i], xs[j], ys[j])
            hits[s] += np.bincount(k[r[k, p] == r[k, q]], minlength=len(r))
    return hits, sizes


def radical_violation(add, mul, member):
    """First pair b with b twist-squared inside the relation but b outside."""
    for i, j, p, q in _twist_squares(add, mul):
        hit = _first(member[p, q] & ~member[i, j], i, j)
        if hit:
            return hit
    return (-1, -1)


def strongly_prime_violation(add, mul, member, nxs, nys):
    """First non-member pair indices whose twist product lands in the relation."""
    return twist_subset_violation(add, mul, nxs, nys, nxs, nys, ~member)


def t_cancel_violation(mul, member, t_idx):
    """First (a, b1, b2) with a tangible, (a*b1, a*b2) related but (b1, b2) not."""
    for a in t_idx:
        bad = np.argwhere(member[mul[a][:, None], mul[a][None, :]] & ~member)
        if len(bad):
            return (int(a), *map(int, bad[0]))
    return (-1, -1, -1)


def sqrt_step(add, mul, cur):
    """One step of the twist-square preimage iteration: the pairs whose
    twist square lies in ``cur``."""
    out = np.empty(cur.shape, dtype=bool)
    for i, j, p, q in _twist_squares(add, mul):
        out[i, j] = cur[p, q]
    return out
