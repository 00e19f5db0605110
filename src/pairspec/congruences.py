"""Congruences as canonical partitions, generated closure, and the lattice.

A congruence is stored as ``block_of``: element index -> block id, with block
ids increasing with each block's least member.  The pair-set view (a boolean
matrix over the doubled carrier) is derived on demand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from . import _kernels
from .core import Pair, is_distributively_central
from .errors import CapExceeded

DEFAULT_CAP = 100_000
CAP_ENV = "PAIRSPEC_MAX_CONGRUENCES"


def _cap_from_env(cap: Optional[int]) -> int:
    if cap is not None:
        return cap
    raw = os.environ.get(CAP_ENV, "")
    return int(raw) if raw else DEFAULT_CAP


def canonical_block_of(labels) -> tuple[int, ...]:
    """Renumber arbitrary hashable block labels so ids appear in
    first-occurrence order."""
    seen: dict = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


@dataclass(frozen=True)
class Congruence:
    pair: Pair = field(compare=False, repr=False)
    block_of: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "block_of", canonical_block_of(self.block_of))

    @property
    def n_blocks(self) -> int:
        return max(self.block_of) + 1

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for x, b in enumerate(self.block_of):
            out[b].append(x)
        return out

    def block_labels(self) -> list[list[str]]:
        return [[self.pair.names[x] for x in blk] for blk in self.blocks()]

    @cached_property
    def matrix(self) -> np.ndarray:
        bo = np.asarray(self.block_of)
        m = bo[:, None] == bo[None, :]
        m.setflags(write=False)
        return m

    @cached_property
    def members(self) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = np.nonzero(self.matrix)
        xs.setflags(write=False)
        ys.setflags(write=False)
        return xs, ys

    def related(self, x: int, y: int) -> bool:
        return self.block_of[x] == self.block_of[y]

    def is_diagonal(self) -> bool:
        return self.n_blocks == len(self.block_of)

    def is_all(self) -> bool:
        return self.n_blocks == 1

    def refines(self, other: "Congruence") -> bool:
        """True when every block of self sits inside a block of other."""
        image: dict[int, int] = {}
        for x, b in enumerate(self.block_of):
            ob = other.block_of[x]
            if image.setdefault(b, ob) != ob:
                return False
        return True


def diagonal(pair: Pair) -> Congruence:
    return Congruence(pair=pair, block_of=tuple(range(pair.n)))


def all_relation(pair: Pair) -> Congruence:
    return Congruence(pair=pair, block_of=(0,) * pair.n)


def is_congruence(pair: Pair, partition) -> tuple[bool, Optional[dict]]:
    """Closure of a partition under translation by +, *, and the tangible
    action; returns a witnessing violation otherwise."""
    if isinstance(partition, Congruence):
        block_of = partition.block_of
    else:
        block_of = canonical_block_of(partition)
    arr = np.asarray(block_of, dtype=np.int64)
    x, y, c, kind = _kernels.congruence_violation(pair.add, pair.mul, arr)
    if x < 0:
        return True, None
    op = ["add", "mul-right", "mul-left"][kind]
    return False, {
        "related": (pair.names[x], pair.names[y]),
        "translate_by": pair.names[c],
        "operation": op,
    }


def generated_congruence(pair: Pair, generators: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the generator pairs.

    Worklist closure: every merge of x and y queues the translates
    (x+c, y+c), (xc, yc), (cx, cy) for all c; merges strictly reduce the
    block count, so the loop is bounded.
    """
    return Congruence(pair=pair, block_of=_kernels.closure_roots(pair.add, pair.mul, generators))


def diag_e(pair: Pair) -> Congruence:
    """Least congruence relating one and e; requires a Property-N witness."""
    w = pair.require_property_n()
    return generated_congruence(pair, [(pair.one, w.e)])


def join(c1: Congruence, c2: Congruence) -> Congruence:
    """Join of two congruences of one pair.

    Both arguments must be congruences of the same pair: the join of two
    congruences is then their join as equivalence relations, so a union-find
    over the blocks of ``c1``, merged along the blocks of ``c2``, gives it
    without reading the operation tables.
    """
    parent = list(range(c1.n_blocks))

    def find(b: int) -> int:
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        return b

    first: dict[int, int] = {}   # block of c2 -> block of c1 holding its first member
    for b1, b2 in zip(c1.block_of, c2.block_of):
        a = first.setdefault(b2, b1)
        if a != b1:
            r1, r2 = find(a), find(b1)
            if r1 != r2:
                parent[max(r1, r2)] = min(r1, r2)
    roots = [find(b) for b in range(len(parent))]
    return Congruence(pair=c1.pair, block_of=tuple(map(roots.__getitem__, c1.block_of)))


def meet(c1: Congruence, c2: Congruence) -> Congruence:
    """Common refinement: x and y share a block of both."""
    return Congruence(pair=c1.pair, block_of=tuple(zip(c1.block_of, c2.block_of)))


@dataclass(frozen=True)
class CongBResult:
    """Explicit principal-candidate relation for a doubled element b.

    The relation {(x, y) : (x, y) + d in Diag for some d in the additive
    closure of the two-sided twist multiples of (b1+b2, b1+b2)}.  Everything
    is reported; nothing is assumed to be a congruence.
    """

    b: tuple[int, int]
    relation: np.ndarray
    is_equivalence: bool
    is_congruence: bool
    contains_b: bool
    congruence: Optional[Congruence]
    hypothesis_semiring: bool
    hypothesis_s_central: bool
    z_set: frozenset[int]


def cong_b(pair: Pair, b: tuple[int, int]) -> CongBResult:
    """Relation of pairs whose difference is absorbed by a diagonal multiple
    of b (-) b.

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
    m_vals: set[int] = set()
    for w in w_vals.tolist():
        row = mul[w]
        m_vals.update(np.unique(add[row[:, None], row[None, :]]).tolist())

    z = set(m_vals)
    frontier = list(z)
    while frontier:
        cur = frontier.pop()
        for m in m_vals:
            nxt = int(add[cur, m])
            if nxt not in z:
                z.add(nxt)
                frontier.append(nxt)

    rel = np.zeros((n, n), dtype=bool)
    for zv in z:
        col = add[:, zv]
        rel |= col[:, None] == col[None, :]

    closed, cong = relation_to_congruence(pair, rel)
    return CongBResult(
        b=(b1, b2),
        relation=rel,
        is_equivalence=closed,
        is_congruence=cong is not None,
        contains_b=bool(rel[b1, b2]),
        congruence=cong,
        hypothesis_semiring=pair.structure.is_semiring(),
        hypothesis_s_central=is_distributively_central(pair, s),
        z_set=frozenset(z),
    )


def relation_to_congruence(pair: Pair, rel: np.ndarray) -> tuple[bool, Optional[Congruence]]:
    """Whether a symmetric pair-set is transitive, and if so the congruence
    it is (None when its blocks are not a congruence).  An element related
    to nothing forms a block of its own."""
    if ((rel[:, :, None] & rel[None, :, :]).any(axis=1) & ~rel).any():
        return False, None
    block_of = canonical_block_of((rel | np.eye(pair.n, dtype=bool)).argmax(axis=1))
    ok, _ = is_congruence(pair, block_of)
    return True, Congruence(pair=pair, block_of=block_of) if ok else None


@dataclass(frozen=True)
class CongruenceLattice:
    """Every congruence of a pair, finest first.

    ``congruences`` is sorted by decreasing block count, then by
    ``block_of``; the list is closed under meet and join.  ``leq`` is the
    refinement order as a boolean matrix over those indices, and ``covers``
    its covering relation.
    """

    pair: Pair = field(compare=False, repr=False)
    congruences: tuple[Congruence, ...] = ()

    def __len__(self) -> int:
        return len(self.congruences)

    def __iter__(self):
        return iter(self.congruences)

    def __getitem__(self, i: int) -> Congruence:
        return self.congruences[i]

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {c.block_of: i for i, c in enumerate(self.congruences)}

    def find(self, cong: Congruence) -> int:
        try:
            return self._index[cong.block_of]
        except KeyError:
            raise KeyError("congruence not present in the lattice") from None

    @cached_property
    def leq(self) -> np.ndarray:
        """leq[i, j] iff congruence i refines (is contained in) congruence j."""
        out = _kernels.refinement_order([c.block_of for c in self.congruences])
        out.setflags(write=False)
        return out

    @cached_property
    def covers(self) -> tuple[tuple[int, ...], ...]:
        """covers[i]: the upper covers of congruence i, the members strictly
        above it with no member in between, in lattice order."""
        return _kernels.upper_covers(self.leq)

    @property
    def bottom(self) -> int:
        return self.find(diagonal(self.pair))

    @property
    def top(self) -> int:
        return self.find(all_relation(self.pair))

    def join_index(self, i: int, j: int) -> int:
        return self.find(join(self.congruences[i], self.congruences[j]))

    def meet_index(self, i: int, j: int) -> int:
        return self.find(meet(self.congruences[i], self.congruences[j]))


def enumerate_congruences(pair: Pair, cap: Optional[int] = None) -> CongruenceLattice:
    """All congruences of a pair, as a ``CongruenceLattice``.

    Every congruence is a join of principal congruences Cg(x, y), so the
    distinct principals are found first and each newly found congruence is
    then joined with each principal only.  A principal Cg(x, y) already
    below a congruence is skipped, since the join would give that
    congruence back.  Raises CapExceeded, with the partial count, as soon
    as more than ``cap`` congruences are known.
    """
    cap = _cap_from_env(cap)
    known: dict[tuple[int, ...], Congruence] = {}

    def add_cong(c: Congruence) -> bool:
        if c.block_of in known:
            return False
        known[c.block_of] = c
        if len(known) > cap:
            raise CapExceeded("congruence lattice exceeds cap", partial_count=len(known))
        return True

    add_cong(diagonal(pair))
    principals = []   # (x, y, Cg(x, y)) for each distinct principal
    for x in range(pair.n):
        for y in range(x + 1, pair.n):
            c = generated_congruence(pair, [(x, y)])
            if add_cong(c):
                principals.append((x, y, c))

    fresh = [c for _, _, c in principals]
    while fresh:
        c = fresh.pop()
        b = c.block_of
        for x, y, p in principals:
            if b[x] != b[y]:
                j = join(c, p)
                if add_cong(j):
                    fresh.append(j)

    ordered = sorted(known.values(), key=lambda c: (-c.n_blocks, c.block_of))
    return CongruenceLattice(pair=pair, congruences=tuple(ordered))


def lattice_meet_join(lattice: CongruenceLattice, c1: Congruence, c2: Congruence):
    """(meet, join) of two lattice members; meet is the common refinement,
    join the congruence generated by the union."""
    i, j = lattice.find(c1), lattice.find(c2)
    return (
        lattice.congruences[lattice.meet_index(i, j)],
        lattice.congruences[lattice.join_index(i, j)],
    )

