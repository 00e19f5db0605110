"""Hot inner loops: exhaustive table scans and congruence closure.

Tables are dense ``int64`` Cayley tables whose entries are element indices
in ``0..n-1`` (``core._as_table`` checks this); relations over the doubled
carrier A x A are boolean ``(n, n)`` matrices.

The n^3 axiom scans run over slabs of the index cube in row-major order:
a range of first indices, or for large n one first index and a range of
second indices, so that no temporary holds more than ``_SCAN_CELLS`` cells
whatever n is.  Values are gathered from a compact copy of each table
(``uint8`` up to 256 elements, ``uint16`` above) through flat ``int64``
offsets, which numpy takes without a cast.  A scan returns at the first slab
that holds a violation, with the first violation in row-major order.
"""

from __future__ import annotations

import numpy as np

# Most cells one temporary of an n^3 scan may hold.
_SCAN_CELLS = 1 << 16


def _compact(t):
    """Copy of a table in the smallest unsigned dtype that holds 0..n-1."""
    return t.astype(np.uint8 if t.shape[0] <= 256 else np.uint16)


def _slabs(n):
    """(i, j) slice pairs covering the first two indices in row-major order;
    each slab of the n^3 cube, with every third index, has at most
    ``_SCAN_CELLS`` cells."""
    rows = _SCAN_CELLS // (n * n)
    if rows:
        for lo in range(0, n, rows):
            yield slice(lo, min(lo + rows, n)), slice(0, n)
        return
    step = max(1, _SCAN_CELLS // n)
    for i in range(n):
        for lo in range(0, n, step):
            yield slice(i, i + 1), slice(lo, min(lo + step, n))


def _row_offsets(i, n):
    """Flat offsets of the rows in slice ``i``, shaped to broadcast over a slab."""
    return (np.arange(i.start, i.stop) * n)[:, None, None]


def _first(bad, i, j):
    """Index triple of the first True in the slab ``bad`` at (i, j), or None."""
    if not bad.any():
        return None
    r, c, k = np.unravel_index(int(bad.argmax()), bad.shape)
    return (i.start + int(r), j.start + int(c), int(k))


def first_nonassoc(op):
    """First triple (i,j,k) with (ij)k != i(jk), or (-1,-1,-1)."""
    n = op.shape[0]
    t = _compact(op)
    flat = t.ravel()
    for i, j in _slabs(n):
        hit = _first(t[op[i, j]] != flat[_row_offsets(i, n) + op[j]], i, j)
        if hit:
            return hit
    return (-1, -1, -1)


def first_noncomm(op):
    bad = np.argwhere(op != op.T)
    if len(bad) == 0:
        return (-1, -1)
    i, j = bad[0]
    return (int(i), int(j))


def first_nondistrib(add, mul):
    """First distributivity violation as (side, a, b, c); side 0 is a(b+c), side 1 is (b+c)a.

    Side 0 is scanned in [a,b,c] order, then side 1 in [b,c,a] order.  When
    ``mul`` equals its transpose, side 1 at [b,c,a] is side 0 at [a,b,c], so
    a clean side 0 ends the scan.
    """
    n = add.shape[0]
    s, m = _compact(add), _compact(mul)
    sflat, mflat = s.ravel(), m.ravel()
    # side 0: a(b+c) against ab + ac, indexed [a,b,c]
    for a, b in _slabs(n):
        prod = sflat[(mul[a, b] * n)[:, :, None] + mul[a][:, None, :]]
        hit = _first(mflat[_row_offsets(a, n) + add[b]] != prod, a, b)
        if hit:
            return (0, *hit)
    if np.array_equal(mul, mul.T):
        return (-1, -1, -1, -1)
    # side 1: (b+c)a against ba + ca, indexed [b,c,a]
    for b, c in _slabs(n):
        prod = sflat[(mul[b] * n)[:, None, :] + mul[c]]
        hit = _first(m[add[b, c]] != prod, b, c)
        if hit:
            b, c, a = hit
            return (1, a, b, c)
    return (-1, -1, -1, -1)


def closure_roots(add, mul, gens):
    """Union-find roots of the least congruence relating each generator pair.

    Closes under x ~ y  =>  x+c ~ y+c, xc ~ yc, cx ~ cy for every c.  Each
    successful merge is pushed once; merges are bounded by n-1, so the scan
    is O(n^2).  Each root is the least member of its block.
    """
    n = add.shape[0]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    stack = []

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        stack.append((x, y))

    for x, y in gens:
        union(int(x), int(y))

    rows = (add.tolist(), mul.tolist(), mul.T.tolist())
    while stack:
        x, y = stack.pop()
        for t in rows:
            for u, v in zip(t[x], t[y]):
                if u != v:
                    union(u, v)

    return [find(i) for i in range(n)]


def congruence_violation(add, mul, block_of):
    """First (x, y, c, kind) witnessing that the partition is not a congruence.

    kind 0: x+c / y+c land in different blocks; kind 1: xc / yc; kind 2: cx / cy.
    With blocks in order of least member and pairs in lexicographic order,
    the first violating pair is (least member x of the first block with a
    member whose rows differ from x's, least such member y).  Each element's
    rows are compared with its block's least member's, n^2 cells at a time.
    """
    n = add.shape[0]
    _, first, inv = np.unique(block_of, return_index=True, return_inverse=True)
    rep = first[inv.ravel()]          # least member of each element's block
    lab = _compact(rep)
    tables = (add, mul, mul.T)
    bad = np.zeros(n, dtype=bool)
    for t in tables:
        blocks = lab[t]
        bad |= (blocks != blocks[rep]).any(axis=1)
    ys = np.nonzero(bad)[0]
    if not len(ys):
        return (-1, -1, -1, -1)
    y = int(ys[np.argmin(rep[ys] * n + ys)])
    x = int(rep[y])
    for kind, t in enumerate(tables):
        d = lab[t[y]] != lab[t[x]]
        if d.any():
            return (x, y, int(d.argmax()), kind)


# Most cells one temporary of the refinement order may hold.
_LEQ_CELLS = 1 << 22


def refinement_order(block_ofs):
    """leq[i, j] iff partition row i (block ids in 0..n-1) refines row j:
    ``b[j][rep_i] == b[j]``, with rep_i each element's least block-mate in i.
    No temporary holds more than ``_LEQ_CELLS`` cells."""
    b = np.asarray(block_ofs, dtype=np.int64)
    m, n = b.shape
    rows = np.arange(m)
    first = np.empty((m, n), dtype=np.int64)   # first[i, k]: least member of block k
    for x in range(n - 1, -1, -1):
        first[rows, b[:, x]] = x
    rep = first[rows[:, None], b]
    b = b.astype(np.uint8 if n <= 256 else np.uint16)
    out = np.empty((m, m), dtype=bool)
    step = max(1, _LEQ_CELLS // max(1, m * n))
    for lo in range(0, m, step):
        # same[j, i, x]: x and rep_i(x) share a block of j
        same = b[:, rep[lo:lo + step]] == b[:, None, :]
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


_CHUNK = 1 << 14


def twist_fill(add, mul, xs1, ys1, xs2, ys2):
    """Boolean matrix of all twist products of members1 x members2.

    No package code calls it; ``perfbench/layertrace.py`` wraps it by name,
    so it stays until the benchmark stops tracing it."""
    out = np.zeros(add.shape, dtype=bool)
    for lo in range(0, len(xs1), _CHUNK):
        x1 = xs1[lo:lo + _CHUNK, None]
        y1 = ys1[lo:lo + _CHUNK, None]
        p = add[mul[x1, xs2[None, :]], mul[y1, ys2[None, :]]]
        q = add[mul[x1, ys2[None, :]], mul[y1, xs2[None, :]]]
        out[p.ravel(), q.ravel()] = True
    return out


def twist_subset_violation(add, mul, xs1, ys1, xs2, ys2, target):
    """First (i, j) member indices whose twist product escapes ``target``."""
    for lo in range(0, len(xs1), _CHUNK):
        x1 = xs1[lo:lo + _CHUNK, None]
        y1 = ys1[lo:lo + _CHUNK, None]
        p = add[mul[x1, xs2[None, :]], mul[y1, ys2[None, :]]]
        q = add[mul[x1, ys2[None, :]], mul[y1, xs2[None, :]]]
        bad = np.argwhere(~target[p, q])
        if len(bad):
            i, j = bad[0]
            return (int(i) + lo, int(j))
    return (-1, -1)


def radical_violation(add, mul, member):
    """First pair b with b twist-squared inside the relation but b outside."""
    n = add.shape[0]
    b1, b2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    sq1 = add[mul[b1, b1], mul[b2, b2]]
    sq2 = add[mul[b1, b2], mul[b2, b1]]
    bad = np.argwhere(member[sq1, sq2] & ~member)
    if len(bad):
        i, j = bad[0]
        return (int(i), int(j))
    return (-1, -1)


def strongly_prime_violation(add, mul, member, nxs, nys):
    """First non-member pair indices whose twist product lands in the relation."""
    for lo in range(0, len(nxs), _CHUNK):
        x1 = nxs[lo:lo + _CHUNK, None]
        y1 = nys[lo:lo + _CHUNK, None]
        p = add[mul[x1, nxs[None, :]], mul[y1, nys[None, :]]]
        q = add[mul[x1, nys[None, :]], mul[y1, nxs[None, :]]]
        bad = np.argwhere(member[p, q])
        if len(bad):
            i, j = bad[0]
            return (int(i) + lo, int(j))
    return (-1, -1)


def t_cancel_violation(mul, member, t_idx):
    """First (a, b1, b2) with a tangible, (a*b1, a*b2) related but (b1, b2) not."""
    for a in t_idx:
        img = member[mul[a][:, None], mul[a][None, :]]
        bad = np.argwhere(img & ~member)
        if len(bad):
            b1, b2 = bad[0]
            return (int(a), int(b1), int(b2))
    return (-1, -1, -1)


def sqrt_step(add, mul, cur):
    """One step of the twist-square preimage iteration."""
    n = add.shape[0]
    b1, b2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    sq1 = add[mul[b1, b1], mul[b2, b2]]
    sq2 = add[mul[b1, b2], mul[b2, b1]]
    return cur[sq1, sq2]
