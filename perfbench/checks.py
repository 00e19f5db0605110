"""Output checks that do not trust the program under test.

Every check reads the input files with its own JSON code, rebuilds what it
needs from the raw operation tables, and compares that with what a CLI
command printed.  Nothing here imports ``pairspec``, and no output is
compared with a stored copy.

Each checker raises ``CheckFailed`` with a one-line reason, or returns a
small summary that the workload uses for cross-checks between commands.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Cells per chunk in the n^3 scans: 2^20 int64 cells is 8 MB per array,
# well below what the program itself allocates on the same carriers.
CHUNK_CELLS = 1 << 20

CHECK_IDS = frozenset({
    "BF", "CHAINS", "CONGB", "CP", "EFINAL_IDEM", "EMUL", "ESQ", "EST",
    "ETYPE_SHALLOW", "GEN", "HYPROP", "ID1", "KIND", "PRO3", "PRO3C", "PRS1",
    "PRS2", "RD1", "RD2", "SHALLOW1K", "SP2", "TR1", "TWASS",
})

# verify prints each check's runtime, which differs from run to run
RUNTIME_FIELD = re.compile(r'"runtime": [0-9.e+-]+')

VERDICTS = (
    "verdict_radical_contains_1e",
    "verdict_spec_iso_ae",
    "verdict_spec_e_iso_quotient",
)


class CheckFailed(Exception):
    """An output disagrees with what the raw tables say."""


def require(cond, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# raw tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tables:
    name: str
    names: tuple[str, ...]
    index: dict
    add: np.ndarray
    mul: np.ndarray
    zero: int
    one: int
    tangible: frozenset
    a0: frozenset
    negation: Optional[dict]

    @property
    def n(self) -> int:
        return len(self.names)


def tables_from_json(obj: dict) -> Tables:
    names = tuple(obj["elements"])
    index = {x: i for i, x in enumerate(names)}
    require(len(index) == len(names), "duplicate element labels")

    def table(key):
        t = np.array([[index[x] for x in row] for row in obj[key]], dtype=np.int64)
        require(t.shape == (len(names), len(names)), f"'{key}' is not square")
        return t

    return Tables(
        name=obj.get("name", ""), names=names, index=index,
        add=table("add"), mul=table("mul"),
        zero=index[obj["zero"]], one=index[obj["one"]],
        tangible=frozenset(index[x] for x in obj["tangible"]),
        a0=frozenset(index[x] for x in obj["a0"]),
        negation=obj.get("negation"),
    )


def load_tables(path: str) -> Tables:
    with open(path, encoding="utf-8") as fh:
        return tables_from_json(json.load(fh))


def e_of(t: Tables) -> Optional[int]:
    """e = 1 + a for a tangible a with 1 + a and every b + ab in A0."""
    a0 = np.zeros(t.n, dtype=bool)
    a0[list(t.a0)] = True
    es = set()
    for a in sorted(t.tangible):
        e = int(t.add[t.one, a])
        if a0[e] and a0[t.add[np.arange(t.n), t.mul[a]]].all():
            es.add(e)
    return es.pop() if len(es) == 1 else None


# ---------------------------------------------------------------------------
# partitions and congruences
# ---------------------------------------------------------------------------

def canonical(labels) -> tuple[int, ...]:
    """Block ids renumbered in order of first occurrence."""
    seen: dict = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def partition_from_labels(t: Tables, blocks) -> tuple[int, ...]:
    """block_of from a list of label blocks; every label exactly once."""
    block_of = [-1] * t.n
    for bid, blk in enumerate(blocks):
        require(len(blk) > 0, "empty block")
        for label in blk:
            require(label in t.index, f"unknown label {label!r}")
            i = t.index[label]
            require(block_of[i] < 0, f"label {label!r} in two blocks")
            block_of[i] = bid
    require(min(block_of) >= 0, "blocks do not cover the carrier")
    return canonical(block_of)


def congruence_violation(t: Tables, block_of) -> Optional[str]:
    """Why the partition is not closed under translation by + and *, or None.

    For every x and c, the block of x op c must equal the block of r op c,
    where r is the first member of x's block; this is tested for + and * on
    both sides.  Multiplication by tangibles, the tangible action, is part
    of the * test.
    """
    b = np.asarray(block_of, dtype=np.int64)
    _, first = np.unique(b, return_index=True)
    rep = first[b]
    for op, table in (("+", t.add), ("+", t.add.T), ("*", t.mul), ("*", t.mul.T)):
        img = b[table]
        bad = np.argwhere(img != img[rep])
        if len(bad):
            x, c = (int(v) for v in bad[0])
            return (f"{t.names[x]} ~ {t.names[int(rep[x])]} but translating by "
                    f"{t.names[c]} under {op} leaves the block")
    return None


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True

    def block_of(self) -> tuple[int, ...]:
        return canonical(self.find(i) for i in range(len(self.parent)))


def principal_congruences(t: Tables) -> set[tuple[int, ...]]:
    """Cg(x, y) for every x < y, by union-find closure under translations."""
    rows = [t.add.tolist(), t.add.T.tolist(), t.mul.tolist(), t.mul.T.tolist()]
    out = set()
    for x in range(t.n):
        for y in range(x + 1, t.n):
            uf = _UnionFind(t.n)
            work = [(x, y)]
            while work:
                a, b = work.pop()
                if uf.union(a, b):
                    for r in rows:
                        work.extend(zip(r[a], r[b]))
            out.add(uf.block_of())
    return out


def partition_join(p, q) -> tuple[int, ...]:
    """Join as equivalence relations: the transitive closure of the union."""
    uf = _UnionFind(len(p))
    first: dict = {}
    for part in (p, q):
        first.clear()
        for i, blk in enumerate(part):
            uf.union(i, first.setdefault(blk, i))
    return uf.block_of()


def partition_meet(p, q) -> tuple[int, ...]:
    return canonical(zip(p, q))


def check_lattice(t: Tables, block_sets, principals: set) -> list[tuple[int, ...]]:
    """The listed partitions are exactly the congruence lattice.

    Every listed partition is a congruence; the diagonal and every principal
    congruence are listed; the list is closed under meet and join.  Since
    every congruence is a join of principal congruences, that makes the list
    the whole lattice.
    """
    parts = [partition_from_labels(t, blocks) for blocks in block_sets]
    present = set(parts)
    require(len(present) == len(parts), "a congruence is listed twice")
    for p in parts:
        why = congruence_violation(t, p)
        require(why is None, f"listed partition is not a congruence: {why}")
    require(tuple(range(t.n)) in present, "the diagonal is missing")
    missing = principals - present
    require(not missing, f"{len(missing)} principal congruence(s) missing")
    for i, p in enumerate(parts):
        for q in parts[i + 1:]:
            require(partition_meet(p, q) in present, "list is not closed under meet")
            require(partition_join(p, q) in present, "list is not closed under join")
    return parts


# ---------------------------------------------------------------------------
# command outputs
# ---------------------------------------------------------------------------

def check_congruences(t: Tables, out: dict, principals: set) -> frozenset:
    require(out["name"] == t.name, "name differs from the input file")
    require(out["count"] == len(out["congruences"]), "count differs from the list")
    require([c["index"] for c in out["congruences"]] == list(range(out["count"])),
            "indices are not 0..count-1")
    return frozenset(check_lattice(t, [c["blocks"] for c in out["congruences"]], principals))


def check_spectrum(t: Tables, out: dict, principals: set) -> frozenset:
    cs = out["congruences"]
    require(out["pair"] == t.name, "pair name differs from the input file")
    require(out["lattice_size"] == len(cs), "lattice_size differs from the list")
    parts = check_lattice(t, [c["blocks"] for c in cs], principals)

    def where(flag):
        return [i for i, c in enumerate(cs) if c[flag]]

    for i, c in enumerate(cs):
        require(c["prime"] == (c["semiprime"] and c["irreducible"]),
                f"congruence #{i}: prime != semiprime and irreducible")
    require(out["hspec"] == where("prime"), "hspec is not the set of primes")
    require(out["radical"] == where("radical"), "radical list disagrees with the flags")
    require(out["strongly_prime"] == where("strongly_prime"),
            "strongly_prime list disagrees with the flags")
    require(out["spec_e"] == [i for i in out["hspec"] if cs[i]["e_type"] is not None],
            "spec_e is not the primes of positive e-type")
    for key in VERDICTS:
        v = out[key]
        require(not v["applicable"] or v["holds"] is True, f"{key} does not hold: {v['detail']}")
    if out["verdict_radical_contains_1e"]["applicable"]:
        e = e_of(t)
        require(e is not None, "positive e-type claimed without a 1-dagger witness")
        for i in out["radical"]:
            require(parts[i][t.one] == parts[i][e], f"radical #{i} does not relate 1 and e")
    return frozenset(parts)


def check_verify(t: Tables, out: dict, exit_code: int, all_checks: bool,
                 expected_failures=frozenset()) -> None:
    """Every check passes or is skipped, except the expected failures, each
    of whose counterexamples is re-verified from the raw tables."""
    require(out["name"] == t.name, "name differs from the input file")
    ids = [r["check_id"] for r in out["reports"]]
    if all_checks:
        require(ids == sorted(CHECK_IDS), "--all did not report the 23 checks in id order")
    failed = {r["check_id"] for r in out["reports"] if r["passed"] is False}
    require(failed == set(expected_failures),
            f"failing checks {sorted(failed)}, expected {sorted(expected_failures)}")
    require(exit_code == (3 if failed else 0), f"exit code {exit_code}")
    summary = {
        "passed": sum(r["passed"] is True for r in out["reports"]),
        "failed": len(failed),
        "skipped": sum(r["passed"] is None for r in out["reports"]),
    }
    require(out["summary"] == summary, "summary disagrees with the reports")
    for r in out["reports"]:
        if r["passed"] is False:
            require(REVERIFIERS[r["check_id"]](t, r["counterexample"]),
                    f"{r['check_id']} counterexample does not hold on the tables")


def reverify_pro3c(t: Tables, cx: dict) -> bool:
    """A T-cancellative congruence with an improper element that does not
    relate 1 and e, on an e-central, e-idempotent pair."""
    try:
        b = np.asarray(partition_from_labels(t, cx["blocks"]))
    except CheckFailed:
        return False
    e = e_of(t)
    if e is None or congruence_violation(t, b) is not None:
        return False
    if int(t.mul[e, e]) != e or not (t.mul[e] == t.mul[:, e]).all():
        return False
    related = b[:, None] == b[None, :]
    for a in t.tangible:
        img = b[t.mul[a]]
        if ((img[:, None] == img[None, :]) & ~related).any():
            return False
    improper = any(b[a] == b[z] for a in t.tangible for z in t.a0)
    return improper and b[t.one] != b[e]


REVERIFIERS = {"PRO3C": reverify_pro3c}


# ---------------------------------------------------------------------------
# n^3 law scans and the doubled tables
# ---------------------------------------------------------------------------

def _row_chunks(n: int):
    rows = max(1, CHUNK_CELLS // (n * n))
    for i0 in range(0, n, rows):
        yield slice(i0, min(n, i0 + rows))


def is_associative(op: np.ndarray) -> bool:
    for s in _row_chunks(len(op)):
        blk = op[s]
        if (op[blk] != blk[:, op]).any():      # (ij)k against i(jk)
            return False
    return True


def is_distributive(add: np.ndarray, mul: np.ndarray) -> bool:
    """a(b+c) = ab+ac and (b+c)a = ba+ca for all a, b, c."""
    for m in (mul, mul.T):
        for s in _row_chunks(len(mul)):
            blk = m[s]
            if (blk[:, add] != add[blk[:, :, None], blk[:, None, :]]).any():
                return False
    return True


def law_flags(t: Tables) -> dict:
    return {
        "mul_associative": is_associative(t.mul),
        "distributive": is_distributive(t.add, t.mul),
        "commutative_mul": bool((t.mul == t.mul.T).all()),
    }


def check_validate(t: Tables, out: dict) -> dict:
    require(out["valid"] is True, "not reported valid")
    require(out["name"] == t.name and out["n"] == t.n, "name or size differs from the input")
    flags = law_flags(t)
    for key, value in flags.items():
        require(out["flags"][key] == value, f"flag {key} reported {out['flags'][key]}")
    return flags


def check_double(base: Tables, d: Tables) -> None:
    """The doubled tables are the twist formula applied to the base tables:
    (a,b) + (c,d) = (a+c, b+d) and (a,b)(c,d) = (ac+bd, ad+bc)."""
    n, names = base.n, base.names
    require(d.names == tuple(f"({x},{y})" for x in names for y in names),
            "doubled carrier is not the base carrier squared")
    idx = np.arange(n * n)
    x1, y1 = (idx // n)[:, None], (idx % n)[:, None]
    x2, y2 = (idx // n)[None, :], (idx % n)[None, :]
    A, M = base.add, base.mul
    require((d.add == A[x1, x2] * n + A[y1, y2]).all(), "doubled + is not componentwise")
    require((d.mul == A[M[x1, x2], M[y1, y2]] * n + A[M[x1, y2], M[y1, x2]]).all(),
            "doubled * is not the twist product")
    z = base.zero
    require(d.zero == z * n + z and d.one == base.one * n + z, "doubled zero or one")
    require(d.a0 == frozenset(i * n + i for i in range(n)), "doubled A0 is not the diagonal")
    require(d.tangible == frozenset({a * n + z for a in base.tangible}
                                    | {z * n + a for a in base.tangible}),
            "doubled tangibles are not the split tangibles")
    if d.negation is not None:
        require(all(d.negation[f"({x},{y})"] == f"({y},{x})" for x in names for y in names),
                "doubled negation is not the switch map")
