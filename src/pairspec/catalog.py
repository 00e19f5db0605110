"""Named structures used throughout the tests and the CLI.

The catalog is the fixed menagerie every whole-suite property is quantified
over; entries are rebuilt on demand so callers cannot share mutable state.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .constructions import (
    HyperStructure,
    function_pair,
    minimal_bipotent,
    power_set_pair,
    residue_hyperstructure,
    standard_supertropical,
    super_boolean,
    truncated_supertropical,
    validate_hyperstructure,
)
from .core import Pair, validate_pair, validate_structure
from .monoids import cyclic_group, saturating_monoid


def finite_field(p: int) -> Pair:
    """Prime field as a classical pair: A0 = {0}, tangibles the units."""
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise ValueError("finite_field expects a prime")
    names = [str(i) for i in range(p)]
    idx = np.arange(p)
    add = (idx[:, None] + idx[None, :]) % p
    mul = (idx[:, None] * idx[None, :]) % p
    st = validate_structure(names, zero=0, one=1, add=add, mul=mul)
    return validate_pair(st, tangible=set(range(1, p)), a_zero={0}, name=f"F{p}")


def krasner_hyperfield() -> HyperStructure:
    """Two elements with 1 boxplus 1 = {0, 1}."""
    return validate_hyperstructure(
        ["0", "1"], zero=0, one=1,
        mul=[[0, 0], [0, 1]],
        hyperadd_sets=[[{0}, {1}], [{1}, {0, 1}]],
        tangible={1},
        name="krasner",
    )


def signs_hyperfield() -> HyperStructure:
    """Elements 0, 1, -1; opposite signs sum to the whole carrier."""
    return validate_hyperstructure(
        ["0", "1", "-1"], zero=0, one=1,
        mul=[[0, 0, 0], [0, 1, 2], [0, 2, 1]],
        hyperadd_sets=[
            [{0}, {1}, {2}],
            [{1}, {1}, {0, 1, 2}],
            [{2}, {0, 1, 2}, {2}],
        ],
        tangible={1, 2},
        name="signs",
    )


def massouros_hyperfield(k: int) -> HyperStructure:
    """Group hyperfield on a cyclic group: a boxplus a is everything but a,
    distinct nonzero sums are {a, b}.  Here e = 1 boxplus 1 is the complement
    of 1."""
    g = cyclic_group(k)
    n = k + 1
    names = ["0"] + list(g.names)
    mul = np.zeros((n, n), dtype=np.int64)
    mul[1:, 1:] = g.table + 1
    full = frozenset(range(n))
    hyperadd = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if x == 0:
                hyperadd[x][y] = {y}
            elif y == 0:
                hyperadd[x][y] = {x}
            elif x == y:
                hyperadd[x][y] = full - {x}
            else:
                hyperadd[x][y] = {x, y}
    return validate_hyperstructure(
        names, zero=0, one=1, mul=mul, hyperadd_sets=hyperadd,
        tangible=set(range(1, n)), name=f"massouros_c{k}",
    )


NAMED_HYPERSTRUCTURES: dict[str, Callable[[], HyperStructure]] = {
    "krasner": krasner_hyperfield,
    "signs": signs_hyperfield,
    "massouros_c2": lambda: massouros_hyperfield(2),
    "massouros_c3": lambda: massouros_hyperfield(3),
    "residue_f5_mod_squares": lambda: residue_hyperstructure(
        finite_field(5), {1, 4}, name="F5/{1,4}"
    ),
    "residue_f3_mod_units": lambda: residue_hyperstructure(
        finite_field(3), {1, 2}, name="F3/units"
    ),
}


def _power(hyper_name: str, pair_name: str) -> Pair:
    return power_set_pair(NAMED_HYPERSTRUCTURES[hyper_name](), name=pair_name)


CATALOG_BUILDERS: dict[str, Callable[[], Pair]] = {
    "super_boolean": super_boolean,
    "minbp_c2_first": lambda: minimal_bipotent(cyclic_group(2), "first", name="minbp_c2_first"),
    "minbp_c2_second": lambda: minimal_bipotent(cyclic_group(2), "second", name="minbp_c2_second"),
    "supertropical_c2": lambda: standard_supertropical(cyclic_group(2), name="supertropical_c2"),
    "truncated_chain3": lambda: truncated_supertropical([1, 2, 3], 3, name="truncated_chain3"),
    "power_krasner": lambda: _power("krasner", "power_krasner"),
    "power_signs": lambda: _power("signs", "power_signs"),
    "power_residue_f5": lambda: _power("residue_f5_mod_squares", "power_residue_f5"),
    "power_massouros_c2": lambda: _power("massouros_c2", "power_massouros_c2"),
    "function_sb_sat2": lambda: function_pair(
        super_boolean(), saturating_monoid(2), name="function_sb_sat2"
    ),
    "field_f3": lambda: finite_field(3),
    "field_f5": lambda: finite_field(5),
}


def build(name: str) -> Pair:
    try:
        return CATALOG_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown catalog pair {name!r}; have {sorted(CATALOG_BUILDERS)}") from None
