"""Command-line surface and exit codes."""

import hashlib
import json
import re

import pytest
from click.testing import CliRunner

from pairspec import catalog, dsl
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


def test_verify_pins_etype_shallow_on_a_proper_pair(runner, tmp_path):
    """A proper pair with 0 outside T and T, A0 disjoint on which
    ETYPE_SHALLOW alone fails: the least k with 1 + k*e in A0 is 1, but
    the e-type is (2, 2).  The reverifier confirms the counterexample."""
    from pairspec.core import validate_pair, validate_structure
    from pairspec.verify import reverify_counterexample
    structure = validate_structure(
        ["0", "1", "2", "3"], 0, 1,
        [[0, 1, 2, 3], [1, 2, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3]],
        [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 3], [0, 3, 3, 3]])
    pair = validate_pair(structure, {1}, {0, 2, 3}, name="etype_shallow4")
    path = tmp_path / "etype_shallow4.json"
    path.write_text(dsl.serialize(dsl.pair_to_file(pair)))
    res = runner.invoke(main, ["verify", str(path), "--all"])
    assert res.exit_code == 3
    failed = [r for r in json.loads(res.output)["reports"] if r["passed"] is False]
    assert [(r["check_id"], r["counterexample"]) for r in failed] == \
        [("ETYPE_SHALLOW", {"k": 1, "e_type": [2, 2]})]
    assert reverify_counterexample(pair, "ETYPE_SHALLOW", failed[0]["counterexample"])


@pytest.mark.parametrize("field, value, kind, witness", [
    ("negation", {"1": "e"}, "NotOrderTwo", ["1"]),
    ("tangible", [], "TNotClosed", ["1"]),
])
def test_malformed_pair_files_give_json_errors(runner, tmp_path, sb, field, value, kind,
                                               witness):
    """A partial negation map and an empty tangible list: every command
    exits 1 with a JSON error naming the first failing element, and no
    traceback."""
    obj = dsl.pair_to_file(sb).to_json_dict()
    obj[field] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    for command in ("validate", "classify", "congruences", "spectrum", "verify"):
        res = runner.invoke(main, [command, str(path)])
        assert isinstance(res.exception, SystemExit) and res.exit_code == 1, command
        error = json.loads(res.stdout)["error"]
        assert (error["kind"], error["witness"]) == (kind, witness), command
        assert "Traceback" not in res.stderr, command


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


def test_hyper_tensor_cap_exits_two(runner, tmp_path, monkeypatch):
    # the cap read at run time, lowered below the 3-element signs hyperfield
    from pairspec import constructions
    path = tmp_path / "signs.json"
    path.write_text(dsl.serialize(dsl.hyper_to_file(catalog.signs_hyperfield())))
    monkeypatch.setattr(constructions, "HYPER_CAP", 2)
    for argv in (["validate", str(path)], ["construct", "power_set", "--base", str(path)],
                 ["construct", "residue", "--param", "field=5", "--param", "subgroup=1"]):
        res = runner.invoke(main, argv)
        assert res.exit_code == 2, argv
        assert json.loads(res.output)["error"] == {
            "kind": "CarrierTooLarge",
            "message": f"carrier would have {5 if 'residue' in argv else 3} elements, cap is 2"}


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
    if name == "function_minbp_sat2":
        return constructions.function_pair(catalog.build("minbp_c2_first"),
                                           monoids.saturating_monoid(2), name=name)
    if name == "power_massouros_c3":
        return constructions.power_set_pair(catalog.massouros_hyperfield(3), name=name)
    return catalog.build(name)


@pytest.mark.parametrize("name", sorted(SPECTRUM_DIGESTS))
def test_spectrum_stdout_digest(runner, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(dsl.serialize(dsl.pair_to_file(_digest_pair(name))))
    res = runner.invoke(main, ["spectrum", str(path)])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode("utf-8")).hexdigest() == SPECTRUM_DIGESTS[name]


# sha256 of `classify`, `spectrum` and `validate` stdout on every catalog pair
# and three constructed ones, recorded while the spectrum report was still a
# dataclass and the pair classification named its fields again in `to_dict`
STDOUT_DIGESTS = {
    "classify": {
        "field_f3": "641df164fbf5e3897b83afea12b8b7969821fa17314f6d76beffecf230c0414e",
        "field_f5": "fd9f0268324ecf803d54185f2f30b1ab3d64e896ce10425aa81380483e6281de",
        "function_sb_sat2": "0ccf523f3c858d5cae8af32c2e3df69dbe09bfc34ae4e181f75edd20c1633840",
        "minbp_c2_first": "06644beac7c4eb235ce65d84e984905de3cbf67416a3ae09af7ecf600ba4c76d",
        "minbp_c2_second": "0e1be93d3c17f99aa2b65f246e9fc5493422dda0824fc49781ebde033124115d",
        "power_krasner": "06644beac7c4eb235ce65d84e984905de3cbf67416a3ae09af7ecf600ba4c76d",
        "power_massouros_c2": "e8e3f45e6b3db3992a812bd161c174215a792d0befc424985e84b7497ded1436",
        "power_residue_f5": "e8e3f45e6b3db3992a812bd161c174215a792d0befc424985e84b7497ded1436",
        "power_signs": "578b78e29ee3b246dd34d600beb59db19a757c5d03c5064989c296cf6991c1bc",
        "super_boolean": "06644beac7c4eb235ce65d84e984905de3cbf67416a3ae09af7ecf600ba4c76d",
        "supertropical_c2": "06644beac7c4eb235ce65d84e984905de3cbf67416a3ae09af7ecf600ba4c76d",
        "truncated_chain3": "89ec93beb6fb3f579f0e709c813849a8fd3ae6b87b5cdd816314a9cf979e62c5",
        "function_minbp_sat2": "0ccf523f3c858d5cae8af32c2e3df69dbe09bfc34ae4e181f75edd20c1633840",
        "function_sb_c3": "5dd159adc020a87f36a95c9cd32d2fa7d25ca55eede427feffccf625d17c3d60",
        "power_massouros_c3": "d920df9fb7da0c5d2e81d410d1308b4bec0e1bbc29b5db6aaa71827f269c3d42",
    },
    "spectrum": {
        **SPECTRUM_DIGESTS,
        "field_f3": "5a31c63cef9779f1f68b1bf82cb9c18f1bf1f5cc90c5685845821ad3fde5c974",
        "field_f5": "89faccaa4c449d5b15ec744ce0bee894021a0c767410c51ec5385243c89c05e3",
        "function_sb_sat2": "d10fc0b1ff18b7032b92cec1bdf122f01955a47fc38897d6713b6d8af92927e2",
        "minbp_c2_first": "630c26ae5730da2f56e0de67a354da4e10c7f3ab0e5ea1ca99f592185e097adb",
        "minbp_c2_second": "15b32e96e9bfd8cafd1d7ebefd7e01d7b5b258cce28e53a93c84c0ada3cddef7",
        "power_krasner": "ea633a2d2501e7e0bb9cf77d4f29a8e4bb37d43cfe6e605525b9902b94a877fe",
        "power_massouros_c2": "b585606be2a1577d971556bf7c2fce6d151e4256b987ee49916edb0d62bfd24d",
        "power_residue_f5": "9f6e74726cabce45a3e52634cd37b91d4c9cb0fc7d302236b718a42587bf89e2",
        "power_signs": "e12122df3603da3a839c03b33a3f181bcd8e3041e589395938c64c8527a08c1b",
        "super_boolean": "58cf2faf1455f3f42667d40c2c799daae409f74fa30a4c088f2b444c6fe3a1ad",
        "supertropical_c2": "35b0490bd63c17bf3cbd10f1892755524b4b20ae9b13a2df27e9a73ecc0adfc0",
        "truncated_chain3": "f938e274e2b5ac826921d2473ff4d9df8a138ecafa949740ddbbb05ae5200f70",
        "function_minbp_sat2": "4a7f70b436820988f67099e1ca254bfd6c3d27e616bdf85882ecc2034ff1caea",
    },
    "validate": {
        "field_f3": "958d493bb3f64dc11bbc6493171d0bf9ece159ac5159b34f07a65e21aa5f35a1",
        "field_f5": "1b116338f2395d1aa3e451f8d2ab78a8d6e7dd64d2746e21dcc6b45684e97ba1",
        "function_sb_sat2": "be2cb3b3e3cfe944409acba5dc4d049022bef98bc57cb95a67670f77ae8fc817",
        "minbp_c2_first": "335abbc42d45b589a6b78152f7e77a61882fa16857906dc5206281c5e05fcab2",
        "minbp_c2_second": "a4f43af7a99957096800875ce21c83e3e476de0be8d815b762d464fdd5b1bd25",
        "power_krasner": "e75cec03cb8bd30eadfb582ca08f7678fcd0a4caae1f01d5abe2ac33a0160dc4",
        "power_massouros_c2": "6809e0ed4df1b53ec08ea2a56036505ae86efae232c26aa78065f8e1ccdd1cc0",
        "power_residue_f5": "decc179f521bcca0d7412c1239227c199f4fdaf88b9455d5b9a82768cbfa2f7d",
        "power_signs": "b051ac73d99286c2f257561d632f6d7f8cb782ca0dcd4a3f4da75dcb074cd807",
        "super_boolean": "0112a887ae7781a1e0818224fb55a658bc566301bbc6d2ab163db2634a07b953",
        "supertropical_c2": "a25a3fa5cfa8ea84578a5ce264f838fdb9a2abb9d04db8de5c48009fda755595",
        "truncated_chain3": "67407de48a8d7553fb1191be63494997ab76d15d872eadb62338c1e784ed7538",
        "function_minbp_sat2": "416022a66a283e0fcda29892dbdc30fd8afd0b99464641a0a67cf55c22a232b6",
        "function_sb_c3": "989d719fb6217189f626b846f5bf9d0e9d1d1673cc8aeaa4225dd614a01d24ae",
        "power_massouros_c3": "16b5d27cc89902e899bdcff98f1b977c2bce46183bfe97666072986d662a317f",
    },
}


@pytest.mark.parametrize("command, name", [(c, n) for c, d in sorted(STDOUT_DIGESTS.items())
                                           for n in sorted(d)])
def test_stdout_digest(runner, tmp_path, command, name):
    path = tmp_path / f"{name}.json"
    path.write_text(dsl.serialize(dsl.pair_to_file(_digest_pair(name))))
    res = runner.invoke(main, [command, str(path)])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode("utf-8")).hexdigest() == \
        STDOUT_DIGESTS[command][name]


# exit code and sha256 of `verify --all` stdout with each check's runtime
# masked, on every pair of STDOUT_DIGESTS.  super_boolean and
# power_massouros_c3 were recorded while the library still had its own
# maximal proper congruence report (the CHAINS check now carries that check
# alone, and its note counts very improper pairs, not elements); the others
# while the pair classification and each check report were still dataclasses
RUNTIME_FIELD = re.compile(r'"runtime": [0-9.e+-]+')
VERIFY_DIGESTS = {
    "field_f3": (0, "5abec80fa0ca9b8248517d5c90f21d306905109c076101d78984f677b6534d9f"),
    "field_f5": (0, "2c43d49a898cd560731b6fdb2e75fb2f28a3ffd3ba0a357d40b21efca6b8986a"),
    "function_minbp_sat2": (0, "42e9e2746b1a119bc58bdf162c6d9ee041ea760d744141cfba998ca33251a9a9"),
    "function_sb_c3": (0, "6696e7f1bc7e1861bb7d1b602d46263754dc29df3b04ad0691921ecd478bdf09"),
    "function_sb_sat2": (0, "da8b391e3953c313b5f435bdd7867a6346cce7ee59381668601b5ce06b539452"),
    "minbp_c2_first": (0, "84193aa35ef9cf8da5c82b086498f84e9e68fb9a871f5c20a04f343f8b5bc41d"),
    "minbp_c2_second": (0, "8029a861e2d4c9697fc64148f6b2652e2cc4c16861886a072460de50021ac881"),
    "power_krasner": (0, "46d9abbc366d5e9b0a01e03325f635a81e871453c5b50e2b589b4e314e2701a2"),
    "power_massouros_c2": (0, "1eac388cbc3fc1e869399c053b6f5de7cbe58fe2bd5a6e20c0df714f322e026f"),
    "power_massouros_c3": (0, "c83c2efc7011fd40523d5861ab1ba95b0efad8a61f0139e3932812aef0e5e247"),
    "power_residue_f5": (0, "0ab17ebe0ff21d9f5200ec9a7c3dad0dcf33c0010ec514358703fc82713de5db"),
    "power_signs": (3, "6d1901a51039ba0fd905a7add531c5aee714c79e6fe299050c8fd7bccc3482f1"),
    "super_boolean": (0, "23ca193a1be3e3b663573fd38bccb08ffc67689bef8c6b148946a94390460669"),
    "supertropical_c2": (0, "d7e88040132663dc5aa0a1ce7fd5ff7dcf5ce7f26dba9881ecf87549536d6c04"),
    "truncated_chain3": (0, "0628c7a9c1afcbe2519818519b04b8b37e6d927cb9b4883d3cfdf221b6ca1b82"),
}


@pytest.mark.parametrize("name", sorted(VERIFY_DIGESTS))
def test_verify_all_stdout_digest(runner, tmp_path, name):
    from pairspec import constructions
    pair = constructions.super_boolean() if name == "super_boolean" else _digest_pair(name)
    path = tmp_path / f"{name}.json"
    path.write_text(dsl.serialize(dsl.pair_to_file(pair)))
    res = runner.invoke(main, ["verify", "--all", str(path)])
    masked = RUNTIME_FIELD.sub('"runtime": 0.000000', res.output)
    assert (res.exit_code, hashlib.sha256(masked.encode("utf-8")).hexdigest()) == \
        VERIFY_DIGESTS[name]


# sha256 of the file `construct double` writes for each base of the `scan`
# workload.  function_minbp_sat2 (256 elements) was recorded while
# `serialize` still called json's indenting encoder and the distributivity
# scan always ran both sides; function_sb_sat2 (81, associative) and
# power_massouros_c3 (225, a product neither associative nor distributive)
# while files were still read and written as tables of label strings and
# pair validation rescanned the laws the structure's flags establish
DOUBLE_DIGESTS = {
    "function_minbp_sat2": "b201f6a207b797f91cb39a4e42a8b9f5445a5b00acae61f31a60f6e1b06a6d21",
    "function_sb_sat2": "0f1aa9cdcadc65893c0039247ebb8e93541353489b534795297047e572a552e6",
    "power_massouros_c3": "20dc524e6e94695193991b6eb52a672bed9e1e13089749e3d25883ef5d5da953",
}


def test_construct_double_file_digest(runner, tmp_path, pairs):
    for name, digest in DOUBLE_DIGESTS.items():
        doubled = _scan_double(runner, tmp_path, pairs, name)
        assert hashlib.sha256(doubled.read_bytes()).hexdigest() == digest, name


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


def test_construct_double_refuses_non_central_tangibles(runner, tmp_path, pairs):
    # supertropical_c2 is no semiring: the split tangibles of its double do
    # not associate, so no pair is written and the reason goes to stderr
    base, out = tmp_path / "supertropical_c2.json", tmp_path / "double.json"
    base.write_text(dsl.serialize(dsl.pair_to_file(pairs["supertropical_c2"])))
    res = runner.invoke(main, ["construct", "double", "--base", str(base), "-o", str(out)])
    assert isinstance(res.exception, SystemExit) and res.exit_code == 1
    assert res.stdout == "" and not out.exists()
    assert res.stderr == ("doubled tangibles are not central: tangible does not associate; "
                          "witness=('(0,g)', '(1,1)', '(1,g)')\n")


def _run_dev_mode(*argv):
    """The CLI in a fresh ``python -X dev`` process, which reports files
    left open as ResourceWarnings on stderr."""
    import os
    import subprocess
    import sys

    import pairspec
    src = os.path.dirname(os.path.dirname(pairspec.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-X", "dev", "-m", "pairspec.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_cli_closes_the_files_it_reads(tmp_path, sb_file):
    out = tmp_path / "double.json"
    for argv in (["validate", sb_file], ["construct", "double", "--base", sb_file, "-o", str(out)]):
        res = _run_dev_mode(*argv)
        assert res.returncode == 0, (argv, res.stderr)
        assert "ResourceWarning" not in res.stderr, (argv, res.stderr)
    assert out.exists()


def _scan_base(runner, tmp_path, pairs, name):
    """One base of the benchmark's `scan` workload, written as that
    workload writes it."""
    base = tmp_path / f"{name}.json"
    if name == "function_sb_sat2":
        base.write_text(dsl.serialize(dsl.pair_to_file(pairs[name])))
    elif name == "power_massouros_c3":
        res = runner.invoke(main, ["construct", "power_set", "--param", "hyper=massouros_c3",
                                   "-o", str(base)])
        assert res.exit_code == 0
    else:
        inner = tmp_path / "minbp_c2_first.json"
        inner.write_text(dsl.serialize(dsl.pair_to_file(pairs["minbp_c2_first"])))
        res = runner.invoke(main, ["construct", "function_pair", "--param", "monoid=sat2",
                                   "--base", str(inner), "-o", str(base)])
        assert res.exit_code == 0
    return base


def _scan_double(runner, tmp_path, pairs, name):
    """The file `construct double` writes for one base of `scan`."""
    base = _scan_base(runner, tmp_path, pairs, name)
    doubled = tmp_path / f"double_{name}.json"
    res = runner.invoke(main, ["construct", "double", "--base", str(base), "-o", str(doubled)])
    assert res.exit_code == 0
    return doubled


# sha256 of `validate` stdout on the three doubled carriers of the `scan`
# workload (81, 225 and 256 elements), recorded while the axiom scans still
# ran over every triple; their scans are the ones reduced to generators
VALIDATE_DOUBLE_DIGESTS = {
    "function_sb_sat2": "c7f8e0732378913fc388a8dbdc352176fc86d4f590ff5cb7ec62b4cf4deac5c3",
    "power_massouros_c3": "7a94a9dd2f1c2d1479b7a249889d0663245f418216e3021075af6d0f616d6eb3",
    "function_minbp_sat2": "1b1b53788cd4c2d70bb6d4b83f9adb40b58360d0a024b0023bc27d7273d9a255",
}


@pytest.mark.parametrize("name", sorted(VALIDATE_DOUBLE_DIGESTS))
def test_validate_scan_double_stdout_digest(runner, tmp_path, pairs, name):
    doubled = _scan_double(runner, tmp_path, pairs, name)
    res = runner.invoke(main, ["validate", str(doubled)])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode("utf-8")).hexdigest() == \
        VALIDATE_DOUBLE_DIGESTS[name]


# sha256 of `verify --check TWASS` stdout on function_minbp_sat2 with the
# runtime masked, recorded while the associativity scan ran over every triple
TWASS_DIGEST = "4a4d1035dd07192e11ceab2597d85316fb5b5677dd76844c096a8e3dbc6ae63f"


def test_twass_stdout_digest(runner, tmp_path, pairs):
    base = _scan_base(runner, tmp_path, pairs, "function_minbp_sat2")
    res = runner.invoke(main, ["verify", str(base), "--check", "TWASS"])
    assert res.exit_code == 0
    masked = RUNTIME_FIELD.sub('"runtime": 0.000000', res.output)
    assert hashlib.sha256(masked.encode("utf-8")).hexdigest() == TWASS_DIGEST


# -- label lists, unreadable inputs and unwritable outputs ---------------------------

def test_label_lists_take_the_shortest_known_run():
    from pairspec.cli import _indices
    index = {"[0,0]": 0, "[1,g]": 1, "1": 2, "1,7": 3, "7": 4, "a": 5}
    assert _indices("[0,0],a", index) == [0, 5]
    assert _indices("1,7", index) == [2, 4]
    assert _indices("[0,0]~[1,g], a~[0,0]", index, pairs=True) == [(0, 1), (5, 0)]
    for text, pairs, message in [("1,8", False, "unknown label '8'"),
                                 ("[0,0]~[9,9]", True, "unknown label '[9'"),
                                 ("zz~a", True, "unknown label 'zz'"),
                                 ("a~1,[0,0]", True, "generator '[0,0]' must look like a~b")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            _indices(text, index, pairs)


def test_quotient_names_labels_with_commas(runner, tmp_path, pairs):
    from pairspec.constructions import function_pair
    from pairspec.monoids import saturating_monoid
    path = tmp_path / "fm.json"
    path.write_text(dsl.serialize(dsl.pair_to_file(
        function_pair(pairs["minbp_c2_first"], saturating_monoid(2)))))
    res = runner.invoke(main, ["quotient", str(path), "--gen", "[0,0]~[1,g]"])
    assert res.exit_code == 0, res.output
    assert len(dsl.parse_pair_file(res.stdout).elements) == 1
    res = runner.invoke(main, ["quotient", str(path), "--gen", "[0,0]~[0,1],[1,0]~[g,0]"])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["quotient", str(path), "--gen", "[0,0]~[9,9]"])
    assert (res.exit_code, res.stderr) == (1, "unknown label '[9'\n")


@pytest.mark.parametrize("argv, message", [
    (["construct", "residue", "--param", "field=5", "--param", "subgroup=1,7"],
     "unknown label '7'"),
    (["construct", "power_set", "--param", "hyper=signs", "--param", "s0=0,x"],
     "unknown label 'x'"),
    *((["construct", builder, "--param", "hyper=nope"],
       f"unknown hyperstructure 'nope' (named: {sorted(catalog.NAMED_HYPERSTRUCTURES)})")
      for builder in ("power_set", "hyperpair")),
])
def test_unknown_labels_in_builder_params(runner, argv, message):
    res = runner.invoke(main, argv)
    assert isinstance(res.exception, SystemExit)
    assert (res.exit_code, res.stderr) == (1, message + "\n")


def test_directories_give_one_line_errors(runner, tmp_path, sb_file):
    d = str(tmp_path)
    for argv, verb in [(["validate", d], "read"), (["classify", d], "read"),
                       (["construct", "double", "--base", d], "read"),
                       (["construct", "super_boolean", "-o", d], "write"),
                       (["quotient", sb_file, "--gen", "1~e", "-o", d], "write")]:
        res = runner.invoke(main, argv)
        assert isinstance(res.exception, SystemExit), argv
        assert res.exit_code == 1 and res.stdout == "", argv
        assert res.stderr.startswith(f"cannot {verb} {d}: ") and res.stderr.count("\n") == 1


def test_hyperpair_reads_s0(runner, tmp_path, sb_file):
    hyper = str(tmp_path / "h.json")
    res = runner.invoke(main, ["construct", "residue", "--base", sb_file,
                               "--param", "subgroup=1", "-o", hyper])
    assert res.exit_code == 0
    for builder in ("power_set", "hyperpair"):
        argv = ["construct", builder, "--base", hyper]
        plain = runner.invoke(main, argv)
        assert runner.invoke(main, [*argv, "--param", "s0=0"]).stdout == plain.stdout
        wide = runner.invoke(main, [*argv, "--param", "s0=0,e"])
        assert wide.exit_code == 0
        assert "{e}" in dsl.parse_pair_file(wide.stdout).a0
        assert "{e}" not in dsl.parse_pair_file(plain.stdout).a0
        bad = runner.invoke(main, [*argv, "--param", "s0=0,1"])
        assert bad.exit_code == 1
        assert json.loads(bad.stdout)["error"]["kind"] == "S0NotValid"
