"""The output checks accept the program's real outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from click.testing import CliRunner  # noqa: E402
from pairspec import catalog, cli, dsl  # noqa: E402
from pairspec.constructions import double  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _pair_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(dsl.serialize(dsl.pair_to_file(catalog.build(name))))
    return path


def _run(*args):
    result = CliRunner().invoke(cli.main, [str(a) for a in args])
    return json.loads(result.stdout), result.exit_code


@pytest.fixture
def sb_sat2(tmp_path):
    path = _pair_file(tmp_path, "function_sb_sat2")
    t = checks.load_tables(str(path))
    return path, t, checks.principal_congruences(t)


def test_lattice_check_accepts_real_outputs(sb_sat2):
    path, t, principals = sb_sat2
    cong, _ = _run("congruences", path)
    spec, _ = _run("spectrum", path)
    found = checks.check_congruences(t, cong, principals)
    assert len(found) == 32
    assert checks.check_spectrum(t, spec, principals) == found


def test_rejects_partition_that_is_not_a_congruence(sb_sat2):
    path, t, principals = sb_sat2
    cong, _ = _run("congruences", path)
    bad = copy.deepcopy(cong)
    names = t.names
    # merge zero and one and nothing else: 1 + 1 must then join them too
    bad["congruences"][1]["blocks"] = [[names[t.zero], names[t.one]]] + [
        [x] for x in names if x not in (names[t.zero], names[t.one])]
    assert checks.congruence_violation(
        t, checks.partition_from_labels(t, bad["congruences"][1]["blocks"])) is not None
    with pytest.raises(CheckFailed, match="not a congruence"):
        checks.check_congruences(t, bad, principals)


def test_rejects_missing_principal_congruence(sb_sat2):
    path, t, principals = sb_sat2
    cong, _ = _run("congruences", path)
    parts = [checks.partition_from_labels(t, c["blocks"]) for c in cong["congruences"]]
    drop = next(i for i, p in enumerate(parts) if p in principals)
    bad = copy.deepcopy(cong)
    del bad["congruences"][drop]
    for i, c in enumerate(bad["congruences"]):
        c["index"] = i
    bad["count"] -= 1
    with pytest.raises(CheckFailed, match="principal"):
        checks.check_congruences(t, bad, principals)


def test_rejects_list_not_closed_under_join():
    # the principal congruences alone of function_sb_sat2 miss some joins
    t = checks.tables_from_json(dsl.pair_to_file(catalog.build("function_sb_sat2")).to_json_dict())
    principals = checks.principal_congruences(t)
    blocks = [[[t.names[i] for i in range(t.n) if p[i] == b] for b in range(max(p) + 1)]
              for p in [tuple(range(t.n)), *principals]]
    with pytest.raises(CheckFailed, match="closed under"):
        checks.check_lattice(t, blocks, principals)


def test_rejects_false_verdict(sb_sat2):
    path, t, principals = sb_sat2
    spec, _ = _run("spectrum", path)
    bad = copy.deepcopy(spec)
    bad["verdict_spec_iso_ae"] = {"applicable": True, "holds": False, "detail": ""}
    with pytest.raises(CheckFailed, match="verdict_spec_iso_ae"):
        checks.check_spectrum(t, bad, principals)


def _doubled(name):
    pair = catalog.build(name)
    d = double(pair)
    base = checks.tables_from_json(dsl.pair_to_file(pair).to_json_dict())
    obj = dsl.pair_to_file(d.pair, d.switch).to_json_dict()
    return base, obj


@pytest.mark.parametrize("table", ["add", "mul"])
def test_rejects_one_wrong_cell_in_doubled_table(table):
    base, obj = _doubled("super_boolean")
    checks.check_double(base, checks.tables_from_json(obj))
    row = obj[table][4]
    row[7] = next(x for x in obj["elements"] if x != row[7])
    with pytest.raises(CheckFailed, match="doubled"):
        checks.check_double(base, checks.tables_from_json(obj))


def test_validate_flags_are_recomputed():
    _, obj = _doubled("function_sb_sat2")
    t = checks.tables_from_json(obj)
    assert checks.law_flags(t) == {"mul_associative": True, "distributive": True,
                                   "commutative_mul": True}
    # swap two entries of one row: no longer associative
    broken = copy.deepcopy(obj)
    row = broken["mul"][5]
    row[6], row[7] = row[7], row[6]
    assert not checks.is_associative(checks.tables_from_json(broken).mul)
    out = {"valid": True, "name": t.name, "n": t.n,
           "flags": {"mul_associative": False, "distributive": True, "commutative_mul": True}}
    with pytest.raises(CheckFailed, match="mul_associative"):
        checks.check_validate(t, out)


def test_small_scans_agree_with_brute_force():
    t = checks.tables_from_json(dsl.pair_to_file(catalog.build("power_signs")).to_json_dict())
    r = range(t.n)
    add, mul = t.add, t.mul
    assoc = all(mul[mul[a, b], c] == mul[a, mul[b, c]] for a in r for b in r for c in r)
    dist = all(mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
               and mul[add[b, c], a] == add[mul[b, a], mul[c, a]]
               for a in r for b in r for c in r)
    assert checks.is_associative(mul) == assoc
    assert checks.is_distributive(add, mul) == dist


@pytest.fixture
def signs(tmp_path):
    path = _pair_file(tmp_path, "power_signs")
    out, code = _run("verify", path, "--all")
    return checks.load_tables(str(path)), out, code


def test_accepts_the_true_pro3c_counterexample(signs):
    t, out, code = signs
    assert code == 3
    checks.check_verify(t, out, code, True, {"PRO3C"})
    with pytest.raises(CheckFailed, match="failing checks"):
        checks.check_verify(t, out, code, True)


def _with_pro3c_blocks(out, blocks):
    bad = copy.deepcopy(out)
    report = next(r for r in bad["reports"] if r["check_id"] == "PRO3C")
    report["counterexample"] = {"blocks": blocks}
    return bad


def test_rejects_fabricated_pro3c_counterexample(signs):
    t, out, code = signs
    one = t.names[t.one]
    fabricated = [
        [[x] for x in t.names],                                   # diagonal: proper
        [list(t.names)],                                          # relates 1 and e
        [[t.names[t.zero], one]]                                  # not a congruence
        + [[x] for x in t.names if x not in (t.names[t.zero], one)],
    ]
    for blocks in fabricated:
        assert not checks.reverify_pro3c(t, {"blocks": blocks})
        with pytest.raises(CheckFailed, match="PRO3C counterexample"):
            checks.check_verify(t, _with_pro3c_blocks(out, blocks), code, True, {"PRO3C"})


def test_rejects_unexpected_exit_code(signs):
    t, out, _ = signs
    with pytest.raises(CheckFailed, match="exit code"):
        checks.check_verify(t, out, 0, True, {"PRO3C"})
