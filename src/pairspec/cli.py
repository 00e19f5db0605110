"""Command-line surface.

Exit codes: 0 success, 1 validation or parse failure, 2 resource cap
exceeded, 3 at least one verify check failed.
"""

from __future__ import annotations

import sys

import click

from . import catalog, dsl
from .congruences import enumerate_congruences, generated_congruence
from .constructions import (
    double,
    function_pair,
    hyperpair_generated,
    minimal_bipotent,
    power_set_pair,
    quotient_pair,
    residue_hyperstructure,
    standard_supertropical,
    constant_supertropical,
    super_boolean,
    truncated_supertropical,
)
from .core import classify_pair
from .errors import CapExceeded, CarrierTooLarge, PairspecError, ValidationError
from .monoids import named_monoid
from .spectrum import Analysis, spectrum_report
from .verify import CHECKS, run_all, run_check, summarize

EXIT_INVALID = 1
EXIT_CAP = 2
EXIT_CHECK_FAILED = 3


def _echo(text: str, nl: bool = True, err: bool = False) -> None:
    """``click.echo`` to an explicit stream: click's cache of default streams
    would keep every in-process runner's output alive."""
    click.echo(text, nl=nl, file=sys.stderr if err else sys.stdout)


def _fail(exc: PairspecError, code: int):
    payload = exc.to_dict() if isinstance(exc, ValidationError) else {
        "kind": type(exc).__name__, "message": str(exc),
    }
    _echo(dsl.serialize_report({"error": payload}), nl=False)
    sys.exit(code)


def _load_pair(path: str):
    try:
        text = open(path, "r", encoding="utf-8").read()
        pair, negation = dsl.build_pair(dsl.parse_pair_file(text))
        return pair, negation
    except (ValidationError, OSError) as exc:
        if isinstance(exc, OSError):
            _echo(f"cannot read {path}: {exc}", err=True)
            sys.exit(EXIT_INVALID)
        _fail(exc, EXIT_INVALID)


@click.group()
def main():
    """Finite semiring-pair engine: validate, classify, and survey spectra."""


@main.command()
@click.argument("file", type=click.Path(exists=True))
def validate(file):
    """Axioms, the 1-dagger witness, and a classification summary."""
    text = open(file, "r", encoding="utf-8").read()
    try:
        parsed = dsl.parse_file(text)
        if isinstance(parsed, dsl.HyperFile):
            hyper = dsl.build_hyper(parsed)
        else:
            pair, negation = dsl.build_pair(parsed)
    except ValidationError as exc:
        _fail(exc, EXIT_INVALID)
    if isinstance(parsed, dsl.HyperFile):
        _echo(dsl.serialize_report({
            "name": hyper.name,
            "valid": True,
            "kind": "hyperstructure",
            "n": hyper.n,
            "tangible": sorted(hyper.names[i] for i in hyper.tangible),
            "hypernegation_unique": hyper.negation_unique,
            "e_set": sorted(hyper.names[i] for i in hyper.e_set)
            if hyper.e_set is not None else None,
        }), nl=False)
        return
    cls = classify_pair(pair)
    w = pair.property_n
    report = {
        "name": pair.name,
        "valid": True,
        "n": pair.n,
        "flags": {
            "mul_associative": pair.structure.mul_associative,
            "distributive": pair.structure.distributive,
            "commutative_mul": pair.structure.commutative_mul,
            "tangibles_distribute": pair.t_distributive,
        },
        "property_n": {
            "one_dagger": pair.names[w.one_dagger],
            "e": pair.names[w.e],
            "all_daggers": sorted(pair.names[d] for d in w.all_daggers),
        } if w is not None else None,
        "property_n_error": pair.property_n_error,
        "has_valid_negation": negation is not None,
        "classification": cls.to_dict(),
    }
    _echo(dsl.serialize_report(report), nl=False)


@main.command()
@click.argument("file", type=click.Path(exists=True))
def classify(file):
    """Full pair classification as JSON."""
    pair, _ = _load_pair(file)
    _echo(dsl.serialize_report(classify_pair(pair).to_dict()), nl=False)


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--max", "cap", type=int, default=None, help="congruence cap")
def congruences(file, cap):
    """List every congruence as canonical blocks."""
    pair, _ = _load_pair(file)
    try:
        lattice = enumerate_congruences(pair, cap)
    except CapExceeded as exc:
        _fail(exc, EXIT_CAP)
    report = {
        "name": pair.name,
        "count": len(lattice),
        "congruences": [{"index": i, "blocks": c.block_labels()} for i, c in enumerate(lattice)],
    }
    _echo(dsl.serialize_report(report), nl=False)


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--max", "cap", type=int, default=None, help="congruence cap")
def spectrum(file, cap):
    """Prime spectrum report with the isomorphism verdicts."""
    pair, _ = _load_pair(file)
    try:
        report = spectrum_report(pair, cap)
    except CapExceeded as exc:
        _fail(exc, EXIT_CAP)
    _echo(dsl.serialize_report(report.to_dict()), nl=False)


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--check", "check_ids", multiple=True,
              type=click.Choice(sorted(CHECKS)), help="run one named check")
@click.option("--all", "run_every", is_flag=True, help="run every check")
def verify(file, check_ids, run_every):
    """Law checks; exits 3 when any check finds a counterexample."""
    pair, _ = _load_pair(file)
    if not check_ids and not run_every:
        run_every = True
    try:
        if run_every:
            reports = run_all(pair)
        else:
            analysis = Analysis(pair, None)
            reports = [run_check(pair, cid, analysis=analysis) for cid in check_ids]
    except (CapExceeded, CarrierTooLarge) as exc:
        _fail(exc, EXIT_CAP)
    payload = {
        "name": pair.name,
        "reports": [r.to_dict() for r in reports],
        "summary": summarize(reports),
    }
    _echo(dsl.serialize_report(payload), nl=False)
    if any(r.passed is False for r in reports):
        sys.exit(EXIT_CHECK_FAILED)


def _params(param_list) -> dict[str, str]:
    out = {}
    for p in param_list:
        if "=" not in p:
            raise click.BadParameter(f"--param expects k=v, got {p!r}")
        k, v = p.split("=", 1)
        out[k.strip()] = v.strip()
    return out


BUILDER_NAMES = (
    "super_boolean", "supertropical", "truncated", "minimal_bipotent",
    "double", "power_set", "hyperpair", "residue", "function_pair",
)


@main.command()
@click.argument("builder", type=click.Choice(BUILDER_NAMES))
@click.option("--param", "param_list", multiple=True, help="builder parameter k=v")
@click.option("--base", "base_file", type=click.Path(exists=True), default=None,
              help="input structure file for transforming builders")
@click.option("-o", "out_file", type=click.Path(), default=None, help="output file")
def construct(builder, param_list, base_file, out_file):
    """Build a named construction and write its structure file."""
    params = _params(param_list)
    try:
        payload = _construct(builder, params, base_file)
    except (ValidationError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            _fail(exc, EXIT_INVALID)
        _echo(str(exc), err=True)
        sys.exit(EXIT_INVALID)
    except (CarrierTooLarge, CapExceeded) as exc:
        _fail(exc, EXIT_CAP)
    text = dsl.serialize(payload)
    if out_file:
        with open(out_file, "w", encoding="utf-8") as fh:
            fh.write(text)
        _echo(out_file)
    else:
        _echo(text, nl=False)


def _load_hyper_arg(params, base_file):
    if base_file is not None:
        return dsl.build_hyper(dsl.parse_hyper_file(open(base_file, encoding="utf-8").read()))
    name = params.get("hyper")
    if name is None:
        raise ValueError("power_set/hyperpair need --base FILE or --param hyper=NAME "
                         f"(named: {sorted(catalog.NAMED_HYPERSTRUCTURES)})")
    return catalog.NAMED_HYPERSTRUCTURES[name]()


def _construct(builder, params, base_file):
    if builder == "super_boolean":
        return dsl.pair_to_file(super_boolean())
    if builder == "supertropical":
        t = named_monoid(params.get("t", "c2"))
        nu = params.get("nu", "id")
        if nu == "id":
            return dsl.pair_to_file(standard_supertropical(t, name=f"supertropical_{params.get('t', 'c2')}"))
        if nu == "const":
            return dsl.pair_to_file(constant_supertropical(t))
        raise ValueError("supertropical accepts nu=id or nu=const")
    if builder == "truncated":
        values = [int(x) for x in params.get("elements", "1,2,3").split(",")]
        m = int(params.get("m", max(values)))
        return dsl.pair_to_file(truncated_supertropical(values, m))
    if builder == "minimal_bipotent":
        t = named_monoid(params.get("t", "c2"))
        return dsl.pair_to_file(minimal_bipotent(t, params.get("kind", "first")))
    if builder == "double":
        if base_file is None:
            raise ValueError("double needs --base FILE")
        pair, _ = dsl.build_pair(dsl.parse_pair_file(open(base_file, encoding="utf-8").read()))
        d = double(pair)
        if d.pair is None:
            raise ValueError(f"doubled tangibles are not central: {d.pair_error}")
        negation = d.switch if d.switch_valid else None
        return dsl.pair_to_file(d.pair, negation)
    if builder == "power_set":
        hyper = _load_hyper_arg(params, base_file)
        s0 = None
        if "s0" in params:
            s0 = {hyper.names.index(x) for x in params["s0"].split(",")}
        return dsl.pair_to_file(power_set_pair(hyper, s0=s0))
    if builder == "hyperpair":
        hyper = _load_hyper_arg(params, base_file)
        return dsl.pair_to_file(hyperpair_generated(hyper))
    if builder == "residue":
        if base_file is not None:
            pair, _ = dsl.build_pair(dsl.parse_pair_file(open(base_file, encoding="utf-8").read()))
        elif "field" in params:
            pair = catalog.finite_field(int(params["field"].lstrip("fF")))
        else:
            raise ValueError("residue needs --base FILE or --param field=P")
        if "subgroup" not in params:
            raise ValueError("residue needs --param subgroup=a,b,...")
        sub = {pair.structure.index[x] for x in params["subgroup"].split(",")}
        return dsl.hyper_to_file(residue_hyperstructure(pair, sub))
    if builder == "function_pair":
        if base_file is None:
            raise ValueError("function_pair needs --base FILE")
        pair, _ = dsl.build_pair(dsl.parse_pair_file(open(base_file, encoding="utf-8").read()))
        s = named_monoid(params.get("monoid", "sat2"))
        return dsl.pair_to_file(function_pair(pair, s))
    raise ValueError(f"unhandled builder {builder}")  # pragma: no cover


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--gen", "gen_spec", required=True,
              help="generator pairs, e.g. \"a~b,c~d\"")
@click.option("-o", "out_file", type=click.Path(), default=None, help="output file")
def quotient(file, gen_spec, out_file):
    """Quotient by the congruence generated by the given element pairs."""
    pair, _ = _load_pair(file)
    gens = []
    for item in gen_spec.split(","):
        if "~" not in item:
            _echo(f"generator {item!r} must look like a~b", err=True)
            sys.exit(EXIT_INVALID)
        a, b = (x.strip() for x in item.split("~", 1))
        try:
            gens.append((pair.structure.index[a], pair.structure.index[b]))
        except KeyError as exc:
            _echo(f"unknown label {exc}", err=True)
            sys.exit(EXIT_INVALID)
    cong = generated_congruence(pair, gens)
    try:
        q = quotient_pair(pair, cong, name=f"{pair.name}_quotient")
    except ValidationError as exc:
        _fail(exc, EXIT_INVALID)
    text = dsl.serialize(dsl.pair_to_file(q))
    if out_file:
        with open(out_file, "w", encoding="utf-8") as fh:
            fh.write(text)
        _echo(out_file)
    else:
        _echo(text, nl=False)


if __name__ == "__main__":
    main()
