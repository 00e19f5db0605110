"""Input files and the commands of one round of each workload.

Every input is a deterministic construction: catalog pairs are written with
``dsl.pair_to_file``/``dsl.serialize``, the larger pairs with the CLI's own
``construct``.  A round is a fixed list of CLI commands; a run repeats whole
rounds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

WORK_DIR = os.path.join("perfbench", "_work")

# Built with `construct` from catalog files: name -> (builder args, base).
CONSTRUCTED = {
    "power_massouros_c3": (["power_set", "--param", "hyper=massouros_c3"], None),
    "function_sb_c3": (["function_pair", "--param", "monoid=c3"], "super_boolean"),
    "function_minbp_sat2": (["function_pair", "--param", "monoid=sat2"], "minbp_c2_first"),
}

# Pairs whose `verify --all` is expected to exit 3, with the failing checks.
# PRO3C on the signs power set is a true counterexample: A0 is strictly
# larger than A*e there.
EXPECTED_FAILURES = {"power_signs": frozenset({"PRO3C"})}

DOUBLED = ("function_sb_sat2", "power_massouros_c3", "function_minbp_sat2")


def path(name: str) -> str:
    return os.path.join(WORK_DIR, f"{name}.json")


@dataclass(frozen=True)
class Command:
    kind: str          # validate | congruences | spectrum | verify | construct
    pair: str          # input file name, without directory and extension
    args: tuple[str, ...]


def write_inputs(runner) -> list[str]:
    """Write every input file; returns the catalog pair names."""
    from pairspec import catalog, dsl
    from pairspec.cli import main

    os.makedirs(WORK_DIR, exist_ok=True)
    names = list(catalog.CATALOG_BUILDERS)
    for name in names:
        with open(path(name), "w", encoding="utf-8") as fh:
            fh.write(dsl.serialize(dsl.pair_to_file(catalog.build(name))))
    for name, (args, base) in CONSTRUCTED.items():
        argv = ["construct", *args, "-o", path(name)]
        if base is not None:
            argv += ["--base", path(base)]
        result = runner.invoke(main, argv)
        if result.exit_code != 0:
            raise RuntimeError(f"setup: construct {name} exited {result.exit_code}: "
                               f"{result.output.strip()}")
    return names


def rounds(catalog_names: list[str]) -> dict[str, list[Command]]:
    """The commands of one round of each workload."""
    def cmd(kind, pair, *extra):
        return Command(kind, pair, (kind, path(pair), *extra))

    catalog = []
    for pair in [*catalog_names, "power_massouros_c3"]:
        catalog += [cmd("validate", pair), cmd("congruences", pair),
                    cmd("spectrum", pair), cmd("verify", pair, "--all")]

    lattice = [cmd("congruences", "function_sb_c3"), cmd("spectrum", "function_sb_c3"),
               cmd("spectrum", "function_minbp_sat2")]

    scan = []
    for base in DOUBLED:
        doubled = f"double_{base}"
        scan.append(Command("construct", base, ("construct", "double", "--base", path(base),
                                                "-o", path(doubled))))
        scan.append(cmd("validate", doubled))
    scan.append(cmd("verify", "function_minbp_sat2", "--check", "TWASS"))
    return {"catalog": catalog, "lattice": lattice, "scan": scan}
