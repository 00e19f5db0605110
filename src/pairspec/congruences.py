"""Congruences as root vectors, generated closure, and the lattice.

A congruence is stored as its root vector ``roots``: element index -> the
least member of its block.  The root vector is canonical as it stands, so
nothing is renumbered: two congruences are equal iff their root vectors are,
and root vectors sort as the first-occurrence block numberings ``block_of``
do (at the first element where two vectors differ, they agree on every
earlier block).  ``block_of`` and the pair-set view (a boolean matrix over
the doubled carrier) are derived on demand.  Closure and the bulk ``joins``
merge root rows with one array primitive, ``_kernels.merge_roots``, and the
lattice is every join of the principal congruences, found by bulk joins.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from . import _kernels
from .core import Pair
from .errors import CapExceeded

DEFAULT_CAP = 100_000
CAP_ENV = "PAIRSPEC_MAX_CONGRUENCES"


def _cap_from_env(cap: Optional[int]) -> int:
    return cap if cap is not None else int(os.environ.get(CAP_ENV) or DEFAULT_CAP)


@dataclass(frozen=True)
class Congruence:
    pair: Pair = field(compare=False, repr=False)
    roots: tuple[int, ...] = ()

    @classmethod
    def from_labels(cls, pair: Pair, labels) -> "Congruence":
        """The partition into elements sharing a (hashable) label."""
        least: dict = {}
        return cls(pair=pair, roots=tuple(least.setdefault(b, x) for x, b in enumerate(labels)))

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        """Block ids, increasing with each block's least member."""
        ids: dict[int, int] = {}
        return tuple(ids.setdefault(r, len(ids)) for r in self.roots)

    def blocks(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for x, r in enumerate(self.roots):
            out.setdefault(r, []).append(x)
        return list(out.values())

    def block_labels(self) -> list[list[str]]:
        return [[self.pair.names[x] for x in blk] for blk in self.blocks()]

    @cached_property
    def matrix(self) -> np.ndarray:
        r = np.asarray(self.roots)
        m = r[:, None] == r[None, :]
        m.setflags(write=False)
        return m

    @cached_property
    def members(self) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = np.nonzero(self.matrix)
        xs.setflags(write=False)
        ys.setflags(write=False)
        return xs, ys

    def related(self, x: int, y: int) -> bool:
        return self.roots[x] == self.roots[y]

    def quotient_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The least member of each block, and the addition and
        multiplication tables of A/cong over block ids."""
        reps = np.unique(self.roots)
        bo = np.asarray(self.block_of, dtype=np.int64)
        pair = self.pair
        return reps, bo[pair.add[np.ix_(reps, reps)]], bo[pair.mul[np.ix_(reps, reps)]]


def diagonal(pair: Pair) -> Congruence:
    return Congruence(pair=pair, roots=tuple(range(pair.n)))


def all_relation(pair: Pair) -> Congruence:
    return Congruence(pair=pair, roots=(0,) * pair.n)


def is_congruence(pair: Pair, partition) -> tuple[bool, Optional[dict]]:
    """Closure of a partition under translation by +, *, and the tangible
    action; returns a witnessing violation otherwise."""
    if not isinstance(partition, Congruence):
        partition = Congruence.from_labels(pair, partition)
    x, y, c, kind = _kernels.congruence_violation(pair.add, pair.mul, partition.roots)
    if x < 0:
        return True, None
    op = ["add", "mul-right", "mul-left"][kind]
    return False, {
        "related": (pair.names[x], pair.names[y]),
        "translate_by": pair.names[c],
        "operation": op,
    }


def are_congruences(pair: Pair, roots) -> np.ndarray:
    """``is_congruence`` of each row of a root matrix, in blocks of at most
    ``_kernels.ROW_CELLS`` cells."""
    r = np.asarray(roots)
    ok = np.ones(len(r), dtype=bool)
    for s in _kernels.row_blocks(len(r), pair.n ** 2):
        ok[s] = ~_kernels.translate_mismatch(pair.add, pair.mul, r[s]).any(axis=1)
    return ok


def pushes(roots, proj: np.ndarray, target: Pair) -> tuple[np.ndarray, np.ndarray]:
    """Bulk image along a surjection ``proj`` onto ``target``'s carrier: for
    each root row, the root vector of its image {(proj x, proj y) : x ~ y},
    and whether that is a congruence of ``target`` (False, with roots that
    mean nothing, when it is not transitive).  With the elements sorted by
    image, each fibre is a run, and the image is an ``or`` over the runs on
    both axes; rows go in blocks of at most ``_kernels.ROW_CELLS`` cells of
    n x n.  ``push_congruence`` is the one-row case."""
    r = np.asarray(roots)
    order = np.argsort(proj, kind="stable")
    starts = np.searchsorted(proj[order], np.arange(target.n))
    out = np.empty((len(r), target.n), dtype=r.dtype)
    ok = np.zeros(len(r), dtype=bool)
    for s in _kernels.row_blocks(len(r), r.shape[1] ** 2):
        b = r[s][:, order]
        rel = np.logical_or.reduceat(b[:, :, None] == b[:, None, :], starts, axis=1)
        out[s], ok[s] = _closed(np.logical_or.reduceat(rel, starts, axis=2))
    ok[ok] = are_congruences(target, out[ok])
    return out, ok


def generated_congruence(pair: Pair, generators: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the generator pairs."""
    roots = _kernels.closure_roots(pair.add, pair.mul, generators)
    return Congruence(pair=pair, roots=tuple(roots.tolist()))


def diag_e(pair: Pair) -> Congruence:
    """Least congruence relating one and e; requires a Property-N witness."""
    w = pair.require_property_n()
    return generated_congruence(pair, [(pair.one, w.e)])


def join(c1: Congruence, c2: Congruence) -> Congruence:
    """Join of two congruences of one pair: ``joins`` on one row."""
    return Congruence(pair=c1.pair, roots=tuple(joins(c1.roots, c2.roots)[0].tolist()))


def joins(r1, r2) -> np.ndarray:
    """Bulk join: row k is the root vector of the join of rows k of the root
    matrices ``r1`` and ``r2`` (broadcast; ``join`` is the one-row case).

    The rows must be congruences of one pair: their join is then their join
    as equivalence relations, so no table is read.  Rows go in blocks of at
    most ``_kernels.ROW_CELLS`` cells, flattened with an offset of n per row,
    and ``_kernels.merge_roots`` merges each x with its root in ``r2``."""
    a, b = np.broadcast_arrays(np.atleast_2d(r1), np.atleast_2d(r2))
    n = a.shape[1]
    out = np.empty(a.shape, dtype=np.result_type(a, b))
    for s in _kernels.row_blocks(len(a), n):
        off = np.arange(len(a[s]))[:, None] * n
        lab = _kernels.merge_roots(*((t + off).ravel() for t in (a[s], np.arange(n), b[s])))
        out[s] = lab.reshape(-1, n) - off
    return out


def meet(c1: Congruence, c2: Congruence) -> Congruence:
    """Common refinement: x and y share a block of both."""
    return Congruence(pair=c1.pair, roots=tuple(meets(c1.roots, c2.roots).tolist()))


def meets(r1, r2) -> np.ndarray:
    """Bulk meet: row k is the root vector of the common refinement of rows
    k of the root matrices ``r1`` and ``r2`` (broadcast; ``meet`` is the
    one-row case).  x's root is the least y with x's key (r1[y], r2[y]): a
    stable sort of the keys, taken in ``int64`` so that compact rows do not
    overflow, puts each block in one run, least member first."""
    a, b = np.broadcast_arrays(np.asarray(r1), np.asarray(r2))
    n = a.shape[-1]
    key = a.astype(np.int64) * n + b
    order = np.argsort(key, axis=-1, kind="stable")
    run = np.take_along_axis(key, order, axis=-1)
    start = np.ones(run.shape, dtype=bool)
    start[..., 1:] = run[..., 1:] != run[..., :-1]
    first = np.maximum.accumulate(np.where(start, np.arange(n), 0), axis=-1)
    out = np.empty_like(order)
    np.put_along_axis(out, order, np.take_along_axis(order, first, axis=-1), axis=-1)
    return out


def cong_b(pair: Pair, b: tuple[int, int]) -> tuple[np.ndarray, bool]:
    """Relation of pairs whose difference is absorbed by a diagonal multiple
    of b (-) b, and whether it is a congruence; nothing is assumed.

    Every two-sided twist multiple of (s, s), s = b1+b2, is diagonal, so the
    defining sums reduce to a set Z of absorbing values: x ~ y iff
    x + z = y + z for some z in Z.  Z is the additive closure of
    (c1 s + c2 s) c1' + (c1 s + c2 s) c2' over all c1, c2, c1', c2'.
    """
    add, mul = pair.add, pair.mul
    n = pair.n
    b1, b2 = int(b[0]), int(b[1])
    s = int(add[b1, b2])

    cs = mul[:, s]
    w_vals = np.unique(add[cs[:, None], cs[None, :]])
    z = np.zeros(n, dtype=bool)
    for row in mul[w_vals]:
        z[add[row[:, None], row[None, :]]] = True
    m_vals = np.flatnonzero(z)
    while not z[add[np.ix_(z, m_vals)]].all():       # the additive closure
        z[add[np.ix_(z, m_vals)]] = True
    zs = np.flatnonzero(z)

    rel = np.zeros((n, n), dtype=bool)
    for col in add[:, zs].T:
        rel |= col[:, None] == col[None, :]

    return rel, relation_to_congruence(pair, rel) is not None


def cong_bs(pair: Pair, sums) -> tuple[np.ndarray, np.ndarray]:
    """``cong_b`` over the sums s = b1 + b2 of ``sums`` at once: rel[k] is
    the relation of sums[k], and ok[k] whether it is a congruence.

    Z is a boolean (sums, n) matrix, the values (c1 s + c2 s) c1' +
    (c1 s + c2 s) c2' of each s, closed under + in bulk: z + z' joins a row
    for each z, z' in it, until no row grows (+ is associative, so this is
    the additive closure).  x ~ y iff x + z = y + z for some z of the row.
    Sums go in blocks of at most ``_kernels.ROW_CELLS`` cells of n x n."""
    add, mul, n = pair.add, pair.mul, pair.n
    sums = np.asarray(sums, dtype=np.intp)
    # gen[w, v]: v = w c1' + w c2' for some c1', c2'
    gen = np.zeros((n, n), dtype=bool)
    for s in _kernels.row_blocks(n, n * n):
        w = np.arange(n)[s]
        gen[np.repeat(w, n * n), add[mul[w][:, :, None], mul[w][:, None, :]].ravel()] = True
    rel = np.zeros((len(sums), n, n), dtype=bool)
    ok = np.zeros(len(sums), dtype=bool)
    for s in _kernels.row_blocks(len(sums), n * n):
        cs = mul[:, sums[s]].T                          # cs[k, c] = c s_k
        w = np.zeros((len(cs), n), dtype=bool)
        w[np.repeat(np.arange(len(cs)), n * n),
          add[cs[:, :, None], cs[:, None, :]].ravel()] = True
        z = w @ gen
        while True:
            k, x, y = np.nonzero(z[:, :, None] & z[:, None, :])
            grown = z.copy()
            grown[k, add[x, y]] = True
            if (grown == z).all():
                break
            z = grown
        flat = rel[s].reshape(len(z), n * n)
        for v in _kernels.row_blocks(n, n * n):
            col = add.T[v]                              # x + v = y + v
            flat |= z[:, v] @ (col[:, :, None] == col[:, None, :]).reshape(len(col), n * n)
        roots, ok[s] = _closed(rel[s])
        ok[s][ok[s]] = are_congruences(pair, roots[ok[s]])
    return rel, ok


def _closed(rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each element's least block-mate, and whether the symmetric pair-sets
    ``rel`` (stacked on the leading axes) are transitive.  An element
    related to nothing forms a block of its own."""
    roots = (rel | np.eye(rel.shape[-1], dtype=bool)).argmax(axis=-1)
    # transitive iff each row with a member is its element's "same root" row
    same = (roots[..., :, None] == roots[..., None, :]) & rel.any(axis=-1)[..., :, None]
    return roots, (rel == same).all(axis=(-2, -1))


def relation_to_congruence(pair: Pair, rel: np.ndarray) -> Optional[Congruence]:
    """The congruence a symmetric pair-set is, or None when it is not
    transitive or its blocks are not a congruence."""
    roots, closed = _closed(rel)
    if not closed:
        return None
    cong = Congruence(pair=pair, roots=tuple(roots.tolist()))
    return cong if is_congruence(pair, cong)[0] else None


def relates_t_a0(pair: Pair, roots) -> np.ndarray:
    """Which pairs of T x A0 (row-major over sorted T and sorted A0) each
    root row relates."""
    r = np.asarray(roots)
    a0 = np.flatnonzero(pair.a0_mask)
    return r[:, np.repeat(pair.t_sorted, len(a0))] == r[:, np.tile(a0, len(pair.t_sorted))]


def relation_flags(pair: Pair, roots) -> dict[str, np.ndarray]:
    """The member columns that read only which pairs each root row relates:
    proper (it relates no pair of T x A0), weakly proper (no very improper
    one, ``Pair.very_improper``), whether it relates 1 and e, and its e-type,
    the least k > 0 relating 1 + k*e and k*e, or 0 for none.  Without a
    Property-N witness the last two are false and 0 throughout."""
    r = np.asarray(roots)
    vt, vz = pair.very_improper
    contains_1e, e_type = np.zeros(len(r), dtype=bool), np.zeros(len(r), dtype=np.intp)
    if pair.property_n is not None:
        contains_1e = r[:, pair.one] == r[:, pair.property_n.e]
        ke = pair.e_multiples
        by_k = r[:, pair.add[pair.one, ke]] == r[:, ke]
        e_type = np.where(by_k.any(axis=1), by_k.argmax(axis=1) + 1, 0)
    return {"proper": ~relates_t_a0(pair, r).any(axis=1),
            "weakly_proper": ~(r[:, vt] == r[:, vz]).any(axis=1),
            "contains_1e": contains_1e, "e_type": e_type}


@dataclass(frozen=True, eq=False)
class CongruenceLattice:
    """Every congruence of a pair, finest first.

    ``roots`` holds one root vector per row, read-only and compact, sorted by
    decreasing block count, then as root vectors, which orders as ``block_of``
    does; the rows are closed under meet and join, and ``lattice[i]`` is a
    ``Congruence`` view of row i.  ``leq`` is the refinement order as a
    boolean matrix over the rows, and ``covers`` its covering relation.
    """

    pair: Pair = field(repr=False)
    roots: np.ndarray

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self._views)

    def __getitem__(self, i: int) -> Congruence:
        return self._views[i]

    @cached_property
    def _views(self) -> tuple[Congruence, ...]:
        return tuple(Congruence(pair=self.pair, roots=tuple(r)) for r in self.roots.tolist())

    @cached_property
    def _index(self) -> dict[bytes, int]:
        return {r.tobytes(): i for i, r in enumerate(self.roots)}

    def find(self, cong: Congruence) -> int:
        return int(self.find_rows([cong.roots])[0])

    def find_rows(self, rows, missing: Optional[int] = None) -> np.ndarray:
        """The index of each root vector of ``rows``; one that is not a
        member gets ``missing``, or raises KeyError when that is None."""
        out = [self._index.get(r.tobytes(), missing)
               for r in np.asarray(rows, dtype=self.roots.dtype)]
        if None in out:
            raise KeyError("congruence not present in the lattice")
        return np.array(out, dtype=np.intp)

    @cached_property
    def leq(self) -> np.ndarray:
        """leq[i, j] iff congruence i is contained in congruence j."""
        out = _kernels.refinement_order(self.roots)
        out.setflags(write=False)
        return out

    @cached_property
    def covers(self) -> tuple[tuple[int, ...], ...]:
        """covers[i]: the upper covers of congruence i, the members strictly
        above it with no member in between, in lattice order."""
        return _kernels.upper_covers(self.leq)


def enumerate_congruences(pair: Pair, cap: Optional[int] = None) -> CongruenceLattice:
    """All congruences of a pair, as a ``CongruenceLattice``.

    Every congruence is a join of principal congruences Cg(x, y), so the
    distinct principals are found first, as one root matrix, and the newly
    found congruences r are then joined, a block of at most
    ``_kernels.JOIN_CELLS`` cells at a time in one ``joins`` call, with
    every principal p not below r (r[p] != r); one below r would give r
    back.
    Each congruence is kept once, as the bytes of its compact root row.
    Raises CapExceeded, with the partial count, as soon as more than ``cap``
    congruences are known.
    """
    cap = _cap_from_env(cap)
    n = pair.n
    known: set[bytes] = set()

    def fresh(rows) -> list[int]:
        """The indices of the rows not known before; they become known."""
        new = []
        for i, r in enumerate(rows):
            b = r.tobytes()
            if b not in known:
                known.add(b)
                new.append(i)
                if len(known) > cap:
                    raise CapExceeded("congruence lattice exceeds cap", partial_count=len(known))
        return new

    ident = _kernels.compact(np.arange(n))
    fresh([ident])
    # the distinct Cg(x, y), closed from the seeds {x, y}
    xs, ys = np.triu_indices(n, 1)
    p = [np.empty((0, n), ident.dtype)]
    for s in _kernels.row_blocks(len(xs), n):
        seeds = np.where(ident == ys[s, None], ident[xs[s], None], ident)
        rows = _kernels.closures(pair.add, pair.mul, seeds)
        p.append(rows[fresh(rows)])
    p = np.concatenate(p)
    todo, step = p, max(1, _kernels.JOIN_CELLS // max(1, len(p) * n))
    while len(todo):                # a block of rows from the top of the stack
        r, todo = todo[-step:], todo[:-step]
        k, q = np.nonzero((r[:, p] != r[:, None, :]).any(axis=2))
        j = joins(r[k], p[q])
        todo = np.concatenate([todo, j[fresh(j)]])

    rows = np.frombuffer(b"".join(known), dtype=ident.dtype).reshape(-1, n)
    roots = rows[np.lexsort((*rows.T[::-1], -(rows == ident).sum(axis=1)))]
    roots.setflags(write=False)
    return CongruenceLattice(pair=pair, roots=roots)
