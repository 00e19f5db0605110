"""File format: parsing, canonical serialization, and round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairspec import catalog, constructions, dsl, monoids
from pairspec.core import validate_negation_map
from pairspec.errors import (
    DimensionMismatch,
    DslSyntaxError,
    DuplicateLabel,
    TNotCentral,
    UnknownLabel,
)


def _sb_text(sb):
    return dsl.serialize(dsl.pair_to_file(sb))


def test_round_trip_is_identity_on_catalog(pairs):
    for name, p in pairs.items():
        text = dsl.serialize(dsl.pair_to_file(p))
        again = dsl.serialize(dsl.parse_pair_file(text))
        assert again == text, name
        rebuilt, _ = dsl.build_pair(dsl.parse_pair_file(again))
        assert rebuilt.names == p.names, name
        assert (rebuilt.add == p.add).all() and (rebuilt.mul == p.mul).all(), name
        assert rebuilt.tangible == p.tangible and rebuilt.a_zero == p.a_zero, name


def test_hyper_round_trip():
    for name, builder in catalog.NAMED_HYPERSTRUCTURES.items():
        h = builder()
        text = dsl.serialize(dsl.hyper_to_file(h))
        again = dsl.serialize(dsl.parse_hyper_file(text))
        assert again == text, name
        rebuilt = dsl.build_hyper(dsl.parse_hyper_file(text))
        assert rebuilt.names == h.names, name
        assert all(
            rebuilt.hyperadd_set(i, j) == h.hyperadd_set(i, j)
            for i in range(h.n) for j in range(h.n)
        ), name


def test_serialize_deterministic(sb):
    assert _sb_text(sb) == _sb_text(sb)


def test_syntax_error_carries_position():
    with pytest.raises(DslSyntaxError) as exc:
        dsl.parse_pair_file("{\n  \"name\": oops\n}")
    assert exc.value.line == 2


def test_top_level_must_be_object():
    with pytest.raises(DslSyntaxError):
        dsl.parse_pair_file("[1, 2]")


def test_duplicate_label(sb):
    obj = dsl.pair_to_file(sb).to_json_dict()
    obj["elements"] = ["0", "1", "1"]
    with pytest.raises(DuplicateLabel):
        dsl.parse_pair_file(json.dumps(obj))


def test_unknown_label_in_a0(sb):
    obj = dsl.pair_to_file(sb).to_json_dict()
    obj["a0"] = ["0", "ghost"]
    with pytest.raises(UnknownLabel) as exc:
        dsl.parse_pair_file(json.dumps(obj))
    assert exc.value.witness == ("ghost",)


def test_wrong_row_length(sb):
    obj = dsl.pair_to_file(sb).to_json_dict()
    obj["add"] = [row[:-1] for row in obj["add"]]
    with pytest.raises(DimensionMismatch):
        dsl.parse_pair_file(json.dumps(obj))


def test_negation_round_trip(sb):
    nm = validate_negation_map(sb, [0, 1, 2])
    pf = dsl.pair_to_file(sb, nm)
    text = dsl.serialize(pf)
    parsed = dsl.parse_pair_file(text)
    pair, negation = dsl.build_pair(parsed)
    assert negation == (0, 1, 2)


def test_semantic_errors_surface_at_build(sb):
    obj = dsl.pair_to_file(sb).to_json_dict()
    obj["mul"][2][1] = "1"  # e * 1 stops respecting the unit law
    pf = dsl.parse_pair_file(json.dumps(obj))
    with pytest.raises(TNotCentral):
        dsl.build_pair(pf)


def test_is_hyper_text(sb):
    assert not dsl.is_hyper_text(_sb_text(sb))
    h = catalog.krasner_hyperfield()
    assert dsl.is_hyper_text(dsl.serialize(dsl.hyper_to_file(h)))


def _reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


_SPECIAL = st.sampled_from([
    0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e300, -1.5e-7,
    "", '"', "\\", "\n\r\t\b\f", "\x00\x1f\x7f", "\u2028\u2029", "é ∑ 😀", "(a,b)",
])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
            | _SPECIAL)
_JSON = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.lists(st.text() | _SPECIAL.filter(lambda x: isinstance(x, str)))
                  | st.dictionaries(st.text(), kids)
                  | st.dictionaries(st.integers(), kids)),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(obj=_JSON)
def test_serialize_matches_json_dumps(obj):
    assert dsl.serialize(obj) == _reference(obj)


def test_serialize_matches_json_dumps_on_nesting_and_empties():
    obj = {"z": [], "a": {}, "m": [[], {}, [[]], ("x", "y")], "k": {"b": [1, [2, ["c"]]]},
           "n": {2: "two", 1: ["one"]}, "t": (), "s": ["\u00e9", "\"q\""], "f": [-0.0, 0.5]}
    assert dsl.serialize(obj) == _reference(obj)
    for top in ([], {}, "plain", 3, None, True, 2.5, ("a",)):
        assert dsl.serialize(top) == _reference(top)


def _doubled(base):
    return dsl.pair_to_file(*constructions.double(base))


@pytest.mark.parametrize("n", [225, 256])
def test_round_trip_on_large_doubles(pairs, n):
    if n == 225:
        base = constructions.power_set_pair(catalog.massouros_hyperfield(3))
    else:
        base = constructions.function_pair(pairs["minbp_c2_first"],
                                           monoids.saturating_monoid(2))
    pf = _doubled(base)
    assert len(pf.elements) == n
    text = dsl.serialize(pf)
    assert text == _reference(json.loads(text))
    parsed = dsl.parse_pair_file(text)
    assert parsed == pf
    assert dsl.serialize(parsed) == text


def _with_cell(sb, key, cells):
    """A super-Boolean file whose ``key`` table has the given cells replaced."""
    obj = dsl.pair_to_file(sb).to_json_dict()
    for (i, j), value in cells.items():
        obj[key][i][j] = value
    return json.dumps(obj)


@pytest.mark.parametrize("key", ["add", "mul"])
@pytest.mark.parametrize("value", ["ghost", 7, ["0"], None, {"0": "1"}, True, 1.5])
def test_bad_table_cell_names_first_offender(sb, key, value):
    # rows are checked in order, and within a row cells in order
    text = _with_cell(sb, key, {(1, 2): value, (2, 0): "later"})
    with pytest.raises(UnknownLabel) as exc:
        dsl.parse_pair_file(text)
    assert exc.value.witness == (value,)


def test_bad_cell_before_a_short_row(sb):
    obj = dsl.pair_to_file(sb).to_json_dict()
    obj["mul"][0][1] = "ghost"
    obj["mul"][2] = obj["mul"][2][:-1]
    with pytest.raises(UnknownLabel) as exc:
        dsl.parse_pair_file(json.dumps(obj))
    assert exc.value.witness == ("ghost",)


def _short_row(obj, key, i):
    obj[key][i] = obj[key][i][:-1]


def _set_cell(obj, key, i, j, value):
    obj[key][i][j] = value


# malformed tables: each error keeps the class, message and witness that the
# label-tuple parser gave before tables were read into index arrays
MALFORMED_TABLES = {
    "unknown label in row 0 ahead of a short row 1": (
        lambda o: (_set_cell(o, "add", 0, 2, "ghost"), _short_row(o, "add", 1)),
        UnknownLabel, "'add' uses an undeclared label", ("ghost",)),
    "short row 0 ahead of an unknown label in row 1": (
        lambda o: (_short_row(o, "add", 0), _set_cell(o, "add", 1, 0, "ghost")),
        DimensionMismatch, "'add' row has wrong length", ("add", 2)),
    "unhashable cell": (
        lambda o: _set_cell(o, "mul", 1, 1, ["1"]),
        UnknownLabel, "'mul' uses an undeclared label", (["1"],)),
    "non-string label": (
        lambda o: _set_cell(o, "add", 2, 1, 1),
        UnknownLabel, "'add' uses an undeclared label", (1,)),
    "boolean label": (
        lambda o: _set_cell(o, "add", 1, 0, True),
        UnknownLabel, "'add' uses an undeclared label", (True,)),
    "non-list row": (
        lambda o: o["mul"].__setitem__(1, "0 1 e"),
        DimensionMismatch, "'mul' row has wrong length", ("mul", None)),
    "unknown label in mul after a clean add": (
        lambda o: _set_cell(o, "mul", 2, 2, "ghost"),
        UnknownLabel, "'mul' uses an undeclared label", ("ghost",)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_table_keeps_error_and_witness(sb, case):
    edit, kind, message, witness = MALFORMED_TABLES[case]
    obj = dsl.pair_to_file(sb).to_json_dict()
    edit(obj)
    for parse in (dsl.parse_pair_file, dsl.parse_file):
        with pytest.raises(kind) as exc:
            parse(json.dumps(obj))
        assert type(exc.value) is kind
        assert (exc.value.message, exc.value.witness) == (message, witness)


def test_parsed_tables_are_read_only_index_arrays(sb):
    pf = dsl.parse_pair_file(_sb_text(sb))
    for got, want in ((pf.add, sb.add), (pf.mul, sb.mul)):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert (got == want).all()
    # the JSON form still holds plain label lists
    assert dsl.pair_to_file(sb).to_json_dict()["add"] == [["0", "1", "e"], ["1", "e", "e"],
                                                        ["e", "e", "e"]]
