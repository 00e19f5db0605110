"""Structure-definition file format: JSON in, canonical JSON out.

A pair file is a single object with ``name``, ``elements``, ``zero``,
``one``, ``add``, ``mul``, ``tangible``, ``a0`` and an optional ``negation``
(label permutation); hyperstructure files replace nothing but add
``hyperadd`` (a table of label arrays) and optionally ``hypernegation``.
Parsing validates shape and labels only; algebraic axioms are checked when
the structure is built.

The operation tables cross this boundary as index tables: parsing maps each
row of labels straight to a read-only n x n ``int64`` table of element
indices, the form ``core`` validates, and ``serialize`` writes a table back
row by row from its labels, each JSON-encoded once per file.  A table is a
list of labels only in ``to_json_dict``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constructions import HyperStructure, validate_hyperstructure
from .core import Pair, validate_negation_map, validate_pair, validate_structure
from .errors import DimensionMismatch, DslSyntaxError, DuplicateLabel, UnknownLabel


def _label_rows(elements) -> Callable[[np.ndarray], list]:
    """Index table -> its rows as lists of labels."""
    labels = np.array(elements, dtype=object)
    return lambda table: labels[table].tolist()


class _TableFile:
    """A parsed file; files compare by their JSON values, since their
    tables are arrays."""

    __hash__ = None

    def __eq__(self, other):
        return type(other) is type(self) and self.to_json_dict() == other.to_json_dict()


@dataclass(frozen=True, eq=False)
class PairFile(_TableFile):
    """A pair file: labels, and the two operations as read-only n x n
    ``int64`` index tables over ``elements``."""

    name: str
    elements: tuple[str, ...]
    zero: str
    one: str
    add: np.ndarray
    mul: np.ndarray
    tangible: tuple[str, ...]
    a0: tuple[str, ...]
    negation: Optional[dict[str, str]] = None

    def to_json_dict(self, rows=None) -> dict:
        """The file as JSON values; ``rows`` maps an index table to its value,
        by default its rows of labels."""
        rows = rows or _label_rows(self.elements)
        out = {
            "name": self.name,
            "elements": list(self.elements),
            "zero": self.zero,
            "one": self.one,
            "add": rows(self.add),
            "mul": rows(self.mul),
            "tangible": list(self.tangible),
            "a0": list(self.a0),
        }
        if self.negation is not None:
            out["negation"] = dict(sorted(self.negation.items()))
        return out


@dataclass(frozen=True, eq=False)
class HyperFile(_TableFile):
    """A hyperstructure file; ``mul`` is an index table as in ``PairFile``."""

    name: str
    elements: tuple[str, ...]
    zero: str
    one: str
    mul: np.ndarray
    hyperadd: tuple[tuple[tuple[str, ...], ...], ...]
    tangible: tuple[str, ...]
    hypernegation: Optional[dict[str, str]] = None

    def to_json_dict(self, rows=None) -> dict:
        rows = rows or _label_rows(self.elements)
        out = {
            "name": self.name,
            "elements": list(self.elements),
            "zero": self.zero,
            "one": self.one,
            "mul": rows(self.mul),
            "hyperadd": [[sorted(cell) for cell in row] for row in self.hyperadd],
            "tangible": list(self.tangible),
        }
        if self.hypernegation is not None:
            out["hypernegation"] = dict(sorted(self.hypernegation.items()))
        return out


def _load(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DslSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(obj, dict):
        raise DslSyntaxError("top-level value must be an object", 1, 1)
    return obj


def _elements(obj: dict) -> tuple[str, ...]:
    elements = obj.get("elements")
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise DimensionMismatch("'elements' must be a list of labels")
    seen = set()
    for x in elements:
        if x in seen:
            raise DuplicateLabel("duplicate element label", witness=(x,))
        seen.add(x)
    return tuple(elements)


def _label(obj: dict, key: str, known: dict[str, int]) -> str:
    v = obj.get(key)
    if not isinstance(v, str):
        raise DimensionMismatch(f"'{key}' must be a single label")
    if v not in known:
        raise UnknownLabel(f"'{key}' uses an undeclared label", witness=(v,))
    return v


def _label_list(obj: dict, key: str, known: dict[str, int]) -> tuple[str, ...]:
    v = obj.get(key)
    if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
        raise DimensionMismatch(f"'{key}' must be a list of labels")
    for x in v:
        if x not in known:
            raise UnknownLabel(f"'{key}' uses an undeclared label", witness=(x,))
    return tuple(v)


def _table(obj: dict, key: str, n: int, index: dict[str, int]) -> np.ndarray:
    """The n x n table ``key`` as a read-only ``int64`` index table, filled
    in one pass.  Rows are taken in order, each row's length before its
    labels, so an error names the first offender."""
    v = obj.get(key)
    if not isinstance(v, list) or len(v) != n:
        raise DimensionMismatch(f"'{key}' must be a {n}x{n} table")
    out = np.empty((n, n), dtype=np.int64)
    look = index.__getitem__
    for i, row in enumerate(v):
        if not isinstance(row, list) or len(row) != n:
            raise DimensionMismatch(f"'{key}' row has wrong length", witness=(key, len(row) if isinstance(row, list) else None))
        try:
            out[i] = np.fromiter(map(look, row), dtype=np.int64, count=n)
        except (KeyError, TypeError):   # an undeclared label, or an unhashable cell
            for x in row:
                if not isinstance(x, str) or x not in index:
                    raise UnknownLabel(f"'{key}' uses an undeclared label", witness=(x,)) from None
    out.setflags(write=False)
    return out


def _perm(obj: dict, key: str, known: dict[str, int]) -> Optional[dict[str, str]]:
    v = obj.get(key)
    if v is None:
        return None
    if not isinstance(v, dict):
        raise DimensionMismatch(f"'{key}' must be an object mapping labels to labels")
    for a, b in v.items():
        if a not in known:
            raise UnknownLabel(f"'{key}' uses an undeclared label", witness=(a,))
        if b not in known:
            raise UnknownLabel(f"'{key}' uses an undeclared label", witness=(b,))
    return dict(v)


def _pair_file(obj: dict) -> PairFile:
    elements = _elements(obj)
    known = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    return PairFile(
        name=str(obj.get("name", "")),
        elements=elements,
        zero=_label(obj, "zero", known),
        one=_label(obj, "one", known),
        add=_table(obj, "add", n, known),
        mul=_table(obj, "mul", n, known),
        tangible=_label_list(obj, "tangible", known),
        a0=_label_list(obj, "a0", known),
        negation=_perm(obj, "negation", known),
    )


def _hyper_file(obj: dict) -> HyperFile:
    elements = _elements(obj)
    known = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    raw = obj.get("hyperadd")
    if not isinstance(raw, list) or len(raw) != n:
        raise DimensionMismatch(f"'hyperadd' must be a {n}x{n} table of label arrays")
    rows = []
    for row in raw:
        if not isinstance(row, list) or len(row) != n:
            raise DimensionMismatch("'hyperadd' row has wrong length")
        cells = []
        for cell in row:
            if not isinstance(cell, list) or not cell:
                raise DimensionMismatch("'hyperadd' entries must be nonempty label arrays")
            for x in cell:
                if not isinstance(x, str) or x not in known:
                    raise UnknownLabel("'hyperadd' uses an undeclared label", witness=(x,))
            cells.append(tuple(cell))
        rows.append(tuple(cells))
    return HyperFile(
        name=str(obj.get("name", "")),
        elements=elements,
        zero=_label(obj, "zero", known),
        one=_label(obj, "one", known),
        mul=_table(obj, "mul", n, known),
        hyperadd=tuple(rows),
        tangible=_label_list(obj, "tangible", known),
        hypernegation=_perm(obj, "hypernegation", known),
    )


def parse_pair_file(text: str) -> PairFile:
    """Structurally validated pair file; axiom checking happens at build."""
    return _pair_file(_load(text))


def parse_hyper_file(text: str) -> HyperFile:
    return _hyper_file(_load(text))


def parse_file(text: str) -> PairFile | HyperFile:
    """A pair or a hyperstructure file, told apart by a ``hyperadd`` key."""
    obj = _load(text)
    return _hyper_file(obj) if "hyperadd" in obj else _pair_file(obj)


def is_hyper_text(text: str) -> bool:
    try:
        return "hyperadd" in _load(text)
    except DslSyntaxError:
        return False


_encode_str = json.encoder.encode_basestring
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode


class _EncodedRows(list):
    """Rows of labels that are already JSON strings."""


def _encoded_rows(elements) -> Callable[[np.ndarray], _EncodedRows]:
    """Index table -> its rows of labels, each label encoded once here."""
    labels = np.array([_encode_str(x) for x in elements], dtype=object)
    return lambda table: _EncodedRows(labels[table].tolist())


def _dump(o, level: int, out: list) -> None:
    """Append the text of ``o``, as ``json.dumps(o, sort_keys=True, indent=2,
    ensure_ascii=False)`` writes it at nesting ``level``, to ``out`` in
    pieces, so that a large table is copied once, into the final text.  A
    list of strings is joined in one pass of the C string encoder; the rows
    of ``_EncodedRows`` are only joined."""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif type(o) is int:
        out.append(int.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = "\n" + "  " * (level + 1)
        if type(o) is _EncodedRows:
            cell = "," + inner + "  "
            out.append("[" + inner + "[" + inner + "  ")
            out.append((inner + "]," + inner + "[" + inner + "  ").join(map(cell.join, o)))
            out.append(inner + "]\n" + "  " * level + "]")
            return
        out.append("[" + inner)
        try:
            out.append(("," + inner).join(map(_encode_str, o)))
        except TypeError:           # not all strings
            for i, x in enumerate(o):
                if i:
                    out.append("," + inner)
                _dump(x, level + 1, out)
        out.append("\n" + "  " * level + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
        elif not all(isinstance(k, str) for k in o):
            # json's own text, whose only raw newlines are its indentation
            text = json.dumps(o, sort_keys=True, indent=2, ensure_ascii=False)
            out.append(text.replace("\n", "\n" + "  " * level))
        else:
            inner = "\n" + "  " * (level + 1)
            out.append("{" + inner)
            for i, k in enumerate(sorted(o)):
                if i:
                    out.append("," + inner)
                out.append(_encode_str(k) + ": ")
                _dump(o[k], level + 1, out)
            out.append("\n" + "  " * level + "}")
    else:
        out.append(_encode_scalar(o))   # floats and number subclasses


def serialize(obj) -> str:
    """Deterministic JSON with sorted keys; identical bytes across runs.

    The text is exactly ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n"``, written without ``json``'s pure-Python
    indenting encoder.
    """
    if isinstance(obj, _TableFile):
        obj = obj.to_json_dict(_encoded_rows(obj.elements))
    out = []
    _dump(obj, 0, out)
    out.append("\n")
    return "".join(out)


def build_pair(pf: PairFile) -> tuple[Pair, Optional[tuple[int, ...]]]:
    """Semantic validation of a parsed pair file."""
    index = {x: i for i, x in enumerate(pf.elements)}
    st = validate_structure(pf.elements, index[pf.zero], index[pf.one], pf.add, pf.mul)
    pair = validate_pair(st, {index[x] for x in pf.tangible}, {index[x] for x in pf.a0},
                         name=pf.name)
    negation = None
    if pf.negation is not None:
        perm = [index[pf.negation.get(x, x)] for x in pf.elements]
        negation = validate_negation_map(pair, perm)
    return pair, negation


def build_hyper(hf: HyperFile) -> HyperStructure:
    index = {x: i for i, x in enumerate(hf.elements)}
    hyperadd = [[{index[x] for x in cell} for cell in row] for row in hf.hyperadd]
    neg = None
    if hf.hypernegation is not None:
        neg = [index[hf.hypernegation.get(x, x)] for x in hf.elements]
    return validate_hyperstructure(
        hf.elements, index[hf.zero], index[hf.one], hf.mul, hyperadd,
        tangible={index[x] for x in hf.tangible},
        hypernegation=neg, name=hf.name,
    )


def pair_to_file(pair: Pair, negation: Optional[tuple[int, ...]] = None) -> PairFile:
    names = pair.names
    return PairFile(
        name=pair.name,
        elements=names,
        zero=names[pair.zero],
        one=names[pair.one],
        add=pair.add,
        mul=pair.mul,
        tangible=tuple(names[i] for i in sorted(pair.tangible)),
        a0=tuple(names[i] for i in sorted(pair.a_zero)),
        negation={names[i]: names[negation[i]] for i in range(pair.n)}
        if negation is not None else None,
    )


def hyper_to_file(hyper: HyperStructure) -> HyperFile:
    names = hyper.names
    return HyperFile(
        name=hyper.name,
        elements=names,
        zero=names[hyper.zero],
        one=names[hyper.one],
        mul=hyper.mul,
        hyperadd=tuple(
            tuple(tuple(sorted(names[x] for x in hyper.hyperadd_set(i, j)))
                  for j in range(hyper.n))
            for i in range(hyper.n)
        ),
        tangible=tuple(names[i] for i in sorted(hyper.tangible)),
        hypernegation={names[i]: names[hyper.hypernegation[i]] for i in range(hyper.n)}
        if hyper.hypernegation is not None else None,
    )
