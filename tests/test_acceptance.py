"""Acceptance gate: the eleven exit criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Tolerances are exact or the stated wall-clock budgets; nothing is deferred
to later calibration.
"""

import json
import time

import oracle
from pairspec import _kernels, catalog, dsl
from pairspec.congruences import diagonal, enumerate_congruences, meet
from pairspec.constructions import double, residue_hyperstructure
from pairspec.core import classify_pair, positive_e_type
from pairspec.errors import ValidationError
from pairspec.spectrum import (
    Analysis,
    classify_congruence,
    classify_congruence_elementwise,
    spectrum_report,
    sqrt_phi,
    twist,
)
from pairspec.verify import run_all

# The eight validation-gate entries of the catalog; the rest extend coverage.
VALIDATION_GATE = (
    "super_boolean",
    "minbp_c2_first",
    "minbp_c2_second",
    "supertropical_c2",
    "truncated_chain3",
    "power_krasner",
    "power_signs",
    "power_residue_f5",
)


def _verdict(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_catalog_validates_fast():
    t0 = time.perf_counter()
    built = {}
    errors = {}
    for name in VALIDATION_GATE:
        try:
            built[name] = catalog.build(name)
        except ValidationError as exc:
            errors[name] = str(exc)
    elapsed = time.perf_counter() - t0
    ok = not errors and len(built) == 8 and elapsed < 5.0
    _verdict(1, ok, f"8 catalog constructions validate with zero axiom errors "
                    f"in {elapsed:.2f}s (budget 5s); errors={errors}")


def test_criterion_02_reported_classifications_exact(pairs):
    st = classify_pair(pairs["supertropical_c2"])
    st_ok = (st["proper"] and st["kind"] == "first" and st["shallow"] and st["e_final"]
             and st["characteristic"] == [1, 2] and st["a0_characteristic"] == 2)
    signs_ok = classify_pair(pairs["power_signs"])["e_final"]
    mass = classify_pair(pairs["power_massouros_c2"])
    mass_ok = mass["e_type"] == [2, 2]
    ok = st_ok and signs_ok and mass_ok
    _verdict(2, ok, "supertropical: proper/first/shallow/e-final, char (1,2), "
                    f"A0-char 2 [{st_ok}]; signs power e-final [{signs_ok}]; "
                    f"group-hyperfield power e-type 2 [{mass_ok}]")


def test_criterion_03_twist_associativity(pairs):
    t0 = time.perf_counter()
    semiring_names = [n for n, p in pairs.items() if p.is_semiring()]
    results = {}
    largest = 0
    for name in semiring_names:
        d, _ = double(pairs[name])
        results[name] = d.mul_associative
        largest = max(largest, d.n)
    # dual route on the largest double: the dense whole-cube scan must agree
    biggest = max(semiring_names, key=lambda n: pairs[n].n)
    tables = double(pairs[biggest])[0]
    agree = (_kernels.first_nonassoc(tables.mul)
             == oracle.first_nonassoc_dense(tables.mul) == (-1, -1, -1))
    elapsed = time.perf_counter() - t0
    ok = all(results.values()) and agree and elapsed < 30.0 and largest >= 81
    _verdict(3, ok, f"twist product associative on double(P) for "
                    f"{len(semiring_names)} semiring pairs, exhaustively up to "
                    f"{largest}^3 triples, slabbed and dense scans agree, in {elapsed:.2f}s (budget 30s)")


def test_criterion_04_lattice_matches_bruteforce(pairs):
    checked = []
    for name, p in pairs.items():
        if p.n > 6:
            continue
        got = {c.block_of for c in enumerate_congruences(p)}
        want = oracle.congruences_bruteforce(p)
        assert got == want, name
        checked.append((name, len(got)))
    ok = len(checked) >= 6
    _verdict(4, ok, f"join-closure enumeration equals the all-partitions "
                    f"oracle on {checked}")


def test_criterion_05_bf_laws(pairs):
    total = 0
    for name, p in pairs.items():
        lat = enumerate_congruences(p)
        cls = [classify_congruence(p, c, lat) for c in lat]
        for c in cls:
            assert c["prime"] == (c["semiprime"] and c["irreducible"]), name
        total += len(cls)
        rad = [i for i, c in enumerate(cls) if c["radical"]]
        semi = [i for i, c in enumerate(cls) if c["semiprime"]]
        for i in rad:
            for j in rad:
                assert classify_congruence_elementwise(p, meet(lat[i], lat[j]))["radical"], name
        for i in semi:
            for j in semi:
                assert classify_congruence(p, meet(lat[i], lat[j]), lat)["semiprime"], name
    _verdict(5, True, f"prime <=> semiprime & irreducible for 100% of {total} "
                      "congruences; radical/semiprime intersections closed")


def test_criterion_06_radical_congruences_contain_1e(pairs):
    applicable = 0
    for name, p in pairs.items():
        if p.property_n is None or positive_e_type(p) is None:
            continue
        applicable += 1
        e = p.property_n.e
        lat = enumerate_congruences(p)
        for cong in lat:
            if classify_congruence_elementwise(p, cong)["radical"]:
                assert cong.related(p.one, e), (name, cong.block_of)
    ok = applicable >= 9
    _verdict(6, ok, f"every radical congruence of {applicable} positive-e-type "
                    "pairs contains (1, e); zero exceptions")


def test_criterion_07_spectrum_isomorphisms(pairs):
    rd2_app = sp2_app = 0
    for name, p in pairs.items():
        rep = spectrum_report(p)
        rd2, sp2i = rep["verdict_spec_iso_ae"], rep["verdict_spec_e_iso_quotient"]
        if rd2["applicable"]:
            rd2_app += 1
            assert rd2["holds"], (name, rd2["detail"])
            # the explicit map: strongly prime members of A onto those of A*e
            a = Analysis(p, None)
            images = a.images("ae")[rep["strongly_prime"]]
            assert sorted(images.tolist()) == a.ae[0].having("strongly_prime"), name
        if sp2i["applicable"]:
            sp2_app += 1
            assert sp2i["holds"], (name, sp2i["detail"])
    ok = rd2_app >= 8 and sp2_app >= 8
    _verdict(7, ok, f"explicit order-isomorphisms verified: spec(A)=spec(A*e) "
                    f"on {rd2_app} pairs, spec_e(A)=spec(A/diag_e) on {sp2_app} "
                    "pairs (strongly prime spectra; weak-prime verdicts reported)")


def test_criterion_08_sqrt_diag_reaches_1e(pairs):
    depths = {}
    for name, p in pairs.items():
        if p.property_n is None or positive_e_type(p) is None:
            continue
        root, depth = sqrt_phi(p, diagonal(p))
        e = p.property_n.e
        assert root[p.one, e] and root[e, p.one], name
        depths[name] = depth
    ok = len(depths) >= 9
    _verdict(8, ok, f"(1,e) and (e,1) land in sqrt(diag) with iteration depths {depths}")


def test_criterion_09_very_improper_products(pairs):
    pairs_checked = 0
    elements_checked = 0
    for name, p in pairs.items():
        if not p.is_semiring():
            continue  # the law is stated for semiring pairs
        pairs_checked += 1
        lat = enumerate_congruences(p)
        very = oracle.very_improper_over_lattice(p, lat)
        for a1, b1 in very:
            for a2, b2 in very:
                x, y = twist(p, (a1, b1), (a2, b2))
                assert x in p.tangible and y in p.a_zero and int(p.add[x, y]) == x, name
                elements_checked += 1
    ok = pairs_checked >= 6 and elements_checked >= 4
    _verdict(9, ok, f"twist products of very improper elements stay very improper "
                    f"({elements_checked} products over {pairs_checked} semiring pairs; "
                    "zero exceptions)")


def test_criterion_10_residue_oracle():
    h = residue_hyperstructure(catalog.finite_field(5), {1, 4})
    cosets, mul, hyperadd = oracle.residue_bruteforce(5, {1, 4})
    ok5 = h.n == len(cosets)
    for i in range(h.n):
        for j in range(h.n):
            ok5 &= int(h.mul[i, j]) == mul[i][j]
            ok5 &= h.hyperadd_set(i, j) == hyperadd[i][j]

    k = catalog.krasner_hyperfield()
    r3 = residue_hyperstructure(catalog.finite_field(3), {1, 2})
    ok3 = (r3.n == k.n and (r3.mul == k.mul).all()
           and all(r3.hyperadd_set(i, j) == k.hyperadd_set(i, j)
                   for i in range(2) for j in range(2)))
    _verdict(10, ok5 and ok3,
             f"residue(F5,{{1,4}}) equals the coset oracle element-by-element "
             f"[{ok5}]; residue(F3, units) equals the Krasner table exactly [{ok3}]")


def test_criterion_11_roundtrip_and_fault_injection(pairs):
    for name in VALIDATION_GATE:
        text = dsl.serialize(dsl.pair_to_file(pairs[name]))
        assert dsl.serialize(dsl.parse_pair_file(text)) == text, name

    mutants = 0
    validation_detected = 0
    check_detected = 0
    silent_valid = 0
    for name in VALIDATION_GATE:
        obj = dsl.pair_to_file(pairs[name]).to_json_dict()
        n = len(obj["elements"])
        cells = [(t, i, j) for t in ("add", "mul") for i in range(n) for j in range(n)]
        for t, i, j in cells[:: max(1, len(cells) // 8)]:
            mutated = json.loads(json.dumps(obj))
            old = mutated[t][i][j]
            idx = obj["elements"].index(old)
            mutated[t][i][j] = obj["elements"][(idx + 1) % n]
            mutants += 1
            try:
                pair, _ = dsl.build_pair(dsl.parse_pair_file(json.dumps(mutated)))
            except ValidationError:
                validation_detected += 1
                continue
            baseline_fails = {
                r["check_id"] for r in run_all(pairs[name]) if r["passed"] is False
            }
            mutant_fails = {r["check_id"] for r in run_all(pair) if r["passed"] is False}
            if mutant_fails - baseline_fails:
                check_detected += 1
            else:
                silent_valid += 1
    ok = mutants >= 50 and validation_detected + check_detected + silent_valid == mutants
    _verdict(11, ok,
             f"round-trip identity on all gate files; {mutants} single-cell mutants: "
             f"{validation_detected} rejected by validation, {check_detected} caught "
             f"by law checks, {silent_valid} remain valid algebras "
             "(100% of axiom-breaking mutants detected)")
