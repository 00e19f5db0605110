"""Command-line surface and exit codes."""

import hashlib
import json
import re

import pytest
from click.testing import CliRunner

from pairspec import dsl
from pairspec.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def sb_file(tmp_path, sb):
    path = tmp_path / "sb.json"
    path.write_text(dsl.serialize(dsl.pair_to_file(sb)))
    return str(path)


def test_validate(runner, sb_file):
    res = runner.invoke(main, ["validate", sb_file])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["valid"] and out["n"] == 3
    assert out["property_n"]["e"] == "e"
    assert out["classification"]["e_final"] is True


def test_validate_rejects_broken_table(runner, tmp_path, sb):
    obj = dsl.pair_to_file(sb).to_json_dict()
    obj["add"][1][1] = "1"
    obj["add"][2][2] = "1"  # breaks associativity/absorption
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    res = runner.invoke(main, ["validate", str(path)])
    assert res.exit_code == 1
    assert "error" in json.loads(res.output)


def test_classify(runner, sb_file):
    res = runner.invoke(main, ["classify", sb_file])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["characteristic"] == [1, 2]
    assert out["kind"] == "first"


def test_congruences(runner, sb_file):
    res = runner.invoke(main, ["congruences", sb_file])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["count"] == 3


def test_congruences_cap_exit(runner, sb_file):
    res = runner.invoke(main, ["congruences", sb_file, "--max", "1"])
    assert res.exit_code == 2


def test_spectrum(runner, sb_file):
    res = runner.invoke(main, ["spectrum", sb_file])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["hspec"] == [1, 2]
    assert out["verdict_spec_iso_ae"]["holds"] is True


def test_spectrum_cap_exit(runner, sb_file):
    res = runner.invoke(main, ["spectrum", sb_file, "--max", "1"])
    assert res.exit_code == 2


def test_verify_all_green(runner, sb_file):
    res = runner.invoke(main, ["verify", sb_file, "--all"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["summary"]["failed"] == 0


def test_verify_single_check(runner, sb_file):
    res = runner.invoke(main, ["verify", sb_file, "--check", "EST"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert [r["check_id"] for r in out["reports"]] == ["EST"]


def test_verify_checks_share_one_lattice(runner, sb_file, monkeypatch):
    import pairspec.spectrum as spectrum
    seen = []
    enumerate_congruences = spectrum.enumerate_congruences

    def recording(pair, cap=None):
        seen.append(pair.name)
        return enumerate_congruences(pair, cap)

    monkeypatch.setattr(spectrum, "enumerate_congruences", recording)
    res = runner.invoke(main, ["verify", sb_file, "--check", "RD1", "--check", "BF"])
    assert res.exit_code == 0
    assert [r["check_id"] for r in json.loads(res.output)["reports"]] == ["RD1", "BF"]
    assert seen == ["super_boolean"]


def test_verify_exit_three_on_finding(runner, tmp_path, pairs):
    path = tmp_path / "signs_power.json"
    path.write_text(dsl.serialize(dsl.pair_to_file(pairs["power_signs"])))
    res = runner.invoke(main, ["verify", str(path), "--all"])
    assert res.exit_code == 3
    out = json.loads(res.output)
    failed = [r["check_id"] for r in out["reports"] if r["passed"] is False]
    assert failed == ["PRO3C"]


def test_construct_builders(runner, tmp_path, sb_file):
    out_path = tmp_path / "out.json"
    cases = [
        (["construct", "super_boolean"], False),
        (["construct", "supertropical", "--param", "t=c2"], False),
        (["construct", "truncated", "--param", "elements=1,2,3", "--param", "m=3"], False),
        (["construct", "minimal_bipotent", "--param", "t=c2", "--param", "kind=second"], False),
        (["construct", "double", "--base", sb_file], False),
        (["construct", "power_set", "--param", "hyper=krasner"], False),
        (["construct", "hyperpair", "--param", "hyper=signs"], False),
        (["construct", "residue", "--param", "field=5", "--param", "subgroup=1,4"], True),
        (["construct", "function_pair", "--base", sb_file, "--param", "monoid=sat2"], False),
    ]
    for args, is_hyper in cases:
        res = runner.invoke(main, args + ["-o", str(out_path)])
        assert res.exit_code == 0, (args, res.output)
        text = out_path.read_text()
        if is_hyper:
            dsl.build_hyper(dsl.parse_hyper_file(text))
        else:
            pair, _ = dsl.build_pair(dsl.parse_pair_file(text))
            assert pair.n >= 1


def test_construct_to_stdout(runner):
    res = runner.invoke(main, ["construct", "super_boolean"])
    assert res.exit_code == 0
    pf = dsl.parse_pair_file(res.output)
    assert pf.elements == ("0", "1", "e")


def test_quotient_command(runner, tmp_path, sb_file):
    out_path = tmp_path / "q.json"
    res = runner.invoke(main, ["quotient", sb_file, "--gen", "1~e", "-o", str(out_path)])
    assert res.exit_code == 0
    pair, _ = dsl.build_pair(dsl.parse_pair_file(out_path.read_text()))
    assert pair.n == 2


def test_quotient_rejects_unknown_label(runner, sb_file):
    res = runner.invoke(main, ["quotient", sb_file, "--gen", "1~zz"])
    assert res.exit_code == 1


def test_validate_hyper_file(runner, tmp_path):
    res = runner.invoke(main, ["construct", "residue", "--param", "field=5",
                               "--param", "subgroup=1,4", "-o", str(tmp_path / "h.json")])
    assert res.exit_code == 0
    res = runner.invoke(main, ["validate", str(tmp_path / "h.json")])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["kind"] == "hyperstructure" and out["hypernegation_unique"]


def test_construct_chain_feeds_spectrum(runner, tmp_path):
    res = runner.invoke(main, ["construct", "residue", "--param", "field=3",
                               "--param", "subgroup=1,2", "-o", str(tmp_path / "h.json")])
    assert res.exit_code == 0
    res = runner.invoke(main, ["construct", "power_set", "--base", str(tmp_path / "h.json"),
                               "-o", str(tmp_path / "p.json")])
    assert res.exit_code == 0
    res = runner.invoke(main, ["spectrum", str(tmp_path / "p.json")])
    assert res.exit_code == 0


def test_validate_decodes_its_input_once(runner, tmp_path, sb_file, monkeypatch):
    res = runner.invoke(main, ["construct", "residue", "--param", "field=5",
                               "--param", "subgroup=1,4", "-o", str(tmp_path / "h.json")])
    assert res.exit_code == 0
    decoded = []
    load = dsl._load
    monkeypatch.setattr(dsl, "_load", lambda text: decoded.append(text) or load(text))
    for path in (sb_file, str(tmp_path / "h.json")):
        decoded.clear()
        res = runner.invoke(main, ["validate", path])
        assert res.exit_code == 0 and len(decoded) == 1, path


def test_in_process_runs_release_their_output(runner, sb_file):
    # click keeps a wrapper per default stdout it has written to, so echoing
    # without an explicit stream would keep every runner's output alive
    import gc

    def live_wrappers():
        gc.collect()
        return sum(type(o).__name__ == "_NamedTextIOWrapper" for o in gc.get_objects())

    before = live_wrappers()
    for _ in range(300):
        assert runner.invoke(main, ["validate", sb_file]).exit_code == 0
    assert live_wrappers() - before < 10


# sha256 of `spectrum` stdout, recorded before classification moved onto the
# quotient A/theta and the upper covers; any change that moves it fails here
SPECTRUM_DIGESTS = {
    "function_sb_c3": "39b7a13062533d5ebc3304c899d804f51dbb109849197d3c4d653c2ccc070f82",
    "power_massouros_c3": "6ded622f3f283eb450e56de443f894d97031b6a0f306d3ab671bc15ec3d16183",
}


def _digest_pair(name):
    from pairspec import catalog, constructions, monoids
    if name == "function_sb_c3":
        return constructions.function_pair(constructions.super_boolean(),
                                           monoids.cyclic_group(3), name=name)
    return constructions.power_set_pair(catalog.massouros_hyperfield(3), name=name)


@pytest.mark.parametrize("name", sorted(SPECTRUM_DIGESTS))
def test_spectrum_stdout_digest(runner, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(dsl.serialize(dsl.pair_to_file(_digest_pair(name))))
    res = runner.invoke(main, ["spectrum", str(path)])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode("utf-8")).hexdigest() == SPECTRUM_DIGESTS[name]


# sha256 of `verify --all` stdout with each check's runtime masked, recorded
# while the library still had its own maximal proper congruence report; the
# CHAINS check now carries that check alone
RUNTIME_FIELD = re.compile(r'"runtime": [0-9.e+-]+')
VERIFY_DIGESTS = {
    "super_boolean": "65ec768be9484f353ce9dd8b8d213c7a06bbd4d1c2170c518aa182841ece57fe",
    "power_massouros_c3": "c83c2efc7011fd40523d5861ab1ba95b0efad8a61f0139e3932812aef0e5e247",
}


@pytest.mark.parametrize("name", sorted(VERIFY_DIGESTS))
def test_verify_all_stdout_digest(runner, tmp_path, name):
    from pairspec import constructions
    pair = constructions.super_boolean() if name == "super_boolean" else _digest_pair(name)
    path = tmp_path / f"{name}.json"
    path.write_text(dsl.serialize(dsl.pair_to_file(pair)))
    res = runner.invoke(main, ["verify", "--all", str(path)])
    assert res.exit_code == 0
    masked = RUNTIME_FIELD.sub('"runtime": 0.000000', res.output)
    assert hashlib.sha256(masked.encode("utf-8")).hexdigest() == VERIFY_DIGESTS[name]


# sha256 of the file `construct double` writes for function_minbp_sat2 (256
# elements), recorded while `serialize` still called json's indenting encoder
# and the distributivity scan always ran both sides
DOUBLE_DIGEST = "b201f6a207b797f91cb39a4e42a8b9f5445a5b00acae61f31a60f6e1b06a6d21"


def test_construct_double_file_digest(runner, tmp_path, pairs):
    base = tmp_path / "minbp_c2_first.json"
    base.write_text(dsl.serialize(dsl.pair_to_file(pairs["minbp_c2_first"])))
    fn = tmp_path / "function_minbp_sat2.json"
    res = runner.invoke(main, ["construct", "function_pair", "--param", "monoid=sat2",
                               "--base", str(base), "-o", str(fn)])
    assert res.exit_code == 0
    out = tmp_path / "double.json"
    res = runner.invoke(main, ["construct", "double", "--base", str(fn), "-o", str(out)])
    assert res.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DOUBLE_DIGEST


def test_doubled_carrier_cap_exits_two(runner, tmp_path):
    # 81 elements double to 6561 > 4096: both commands stop before tabulating
    from pairspec import constructions, monoids
    pair = constructions.function_pair(constructions.super_boolean(), monoids.cyclic_group(4))
    assert pair.n == 81 and pair.structure.is_semiring()
    path = tmp_path / "function_sb_c4.json"
    path.write_text(dsl.serialize(dsl.pair_to_file(pair)))
    for argv in (["verify", str(path), "--check", "TWASS"],
                 ["construct", "double", "--base", str(path)]):
        res = runner.invoke(main, argv)
        assert res.exit_code == 2, argv
        assert json.loads(res.output)["error"]["kind"] == "CarrierTooLarge", argv
