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
    _echo(dsl.serialize({"error": payload}), nl=False)
    sys.exit(code)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _echo(f"cannot read {path}: {exc}", err=True)
        sys.exit(EXIT_INVALID)


def _write_text(text: str, path) -> None:
    """Write ``text`` to ``path`` and echo the path, or echo ``text`` when no
    path is given."""
    if not path:
        _echo(text, nl=False)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _echo(f"cannot write {path}: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    _echo(path)


def _load_pair(path: str):
    try:
        return dsl.build_pair(dsl.parse_pair_file(_read_text(path)))[0]
    except ValidationError as exc:
        _fail(exc, EXIT_INVALID)


def _indices(text: str, index, pairs: bool = False) -> list:
    """Indices of the labels in a comma-separated list, or of the a~b label
    pairs with ``pairs``.  Labels may contain commas: each item is the
    shortest run of pieces, from the left, that names known labels."""
    pieces = text.split(",")
    out, start = [], 0
    while start < len(pieces):
        for end in range(start + 1, len(pieces) + 1):
            run = ",".join(pieces[start:end])
            sides = [s.strip() for s in (run.split("~", 1) if pairs else [run])]
            if len(sides) == 1 + pairs and all(s in index for s in sides):
                break
        else:
            rest = ",".join(pieces[start:])
            if pairs:
                lhs, sep, rest = rest.partition("~")
                if not sep:
                    raise ValueError(f"generator {lhs!r} must look like a~b")
                if lhs.strip() not in index:
                    raise ValueError(f"unknown label {lhs.strip()!r}")
            raise ValueError(f"unknown label {rest.split(',')[0].strip()!r}")
        out.append(tuple(index[s] for s in sides) if pairs else index[sides[0]])
        start = end
    return out


@click.group()
def main():
    """Finite semiring-pair engine: validate, classify, and survey spectra."""


@main.command()
@click.argument("file", type=click.Path(exists=True))
def validate(file):
    """Axioms, the 1-dagger witness, and a classification summary."""
    text = _read_text(file)
    try:
        parsed = dsl.parse_file(text)
        if isinstance(parsed, dsl.HyperFile):
            hyper = dsl.build_hyper(parsed)
        else:
            pair, negation = dsl.build_pair(parsed)
    except ValidationError as exc:
        _fail(exc, EXIT_INVALID)
    except CarrierTooLarge as exc:
        _fail(exc, EXIT_CAP)
    if isinstance(parsed, dsl.HyperFile):
        _echo(dsl.serialize({
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
        "classification": classify_pair(pair),
    }
    _echo(dsl.serialize(report), nl=False)


@main.command()
@click.argument("file", type=click.Path(exists=True))
def classify(file):
    """Full pair classification as JSON."""
    pair = _load_pair(file)
    _echo(dsl.serialize(classify_pair(pair)), nl=False)


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--max", "cap", type=int, default=None, help="congruence cap")
def congruences(file, cap):
    """List every congruence as canonical blocks."""
    pair = _load_pair(file)
    try:
        lattice = enumerate_congruences(pair, cap)
    except CapExceeded as exc:
        _fail(exc, EXIT_CAP)
    report = {
        "name": pair.name,
        "count": len(lattice),
        "congruences": [{"index": i, "blocks": c.block_labels()} for i, c in enumerate(lattice)],
    }
    _echo(dsl.serialize(report), nl=False)


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--max", "cap", type=int, default=None, help="congruence cap")
def spectrum(file, cap):
    """Prime spectrum report with the isomorphism verdicts."""
    pair = _load_pair(file)
    try:
        report = spectrum_report(pair, cap)
    except CapExceeded as exc:
        _fail(exc, EXIT_CAP)
    _echo(dsl.serialize(report), nl=False)


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--check", "check_ids", multiple=True,
              type=click.Choice(sorted(CHECKS)), help="run one named check")
@click.option("--all", "run_every", is_flag=True, help="run every check")
def verify(file, check_ids, run_every):
    """Law checks; exits 3 when any check finds a counterexample."""
    pair = _load_pair(file)
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
        "reports": reports,
        "summary": summarize(reports),
    }
    _echo(dsl.serialize(payload), nl=False)
    if any(r["passed"] is False for r in reports):
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
    _write_text(dsl.serialize(payload), out_file)


def _load_hyper_arg(params, base_file):
    if base_file is not None:
        return dsl.build_hyper(dsl.parse_hyper_file(_read_text(base_file)))
    name = params.get("hyper")
    if name not in catalog.NAMED_HYPERSTRUCTURES:
        what = ("power_set/hyperpair need --base FILE or --param hyper=NAME" if name is None
                else f"unknown hyperstructure {name!r}")
        raise ValueError(f"{what} (named: {sorted(catalog.NAMED_HYPERSTRUCTURES)})")
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
        pair = _load_pair(base_file)
        d = double(pair)
        if d.pair is None:
            raise ValueError(f"doubled tangibles are not central: {d.pair_error}")
        return dsl.pair_to_file(d.pair, d.switch)
    if builder in ("power_set", "hyperpair"):
        hyper = _load_hyper_arg(params, base_file)
        s0 = None
        if "s0" in params:
            s0 = set(_indices(params["s0"], {x: i for i, x in enumerate(hyper.names)}))
        build = power_set_pair if builder == "power_set" else hyperpair_generated
        return dsl.pair_to_file(build(hyper, s0=s0))
    if builder == "residue":
        if base_file is not None:
            pair = _load_pair(base_file)
        elif "field" in params:
            pair = catalog.finite_field(int(params["field"].lstrip("fF")))
        else:
            raise ValueError("residue needs --base FILE or --param field=P")
        if "subgroup" not in params:
            raise ValueError("residue needs --param subgroup=a,b,...")
        sub = set(_indices(params["subgroup"], pair.structure.index))
        return dsl.hyper_to_file(residue_hyperstructure(pair, sub))
    if builder == "function_pair":
        if base_file is None:
            raise ValueError("function_pair needs --base FILE")
        pair = _load_pair(base_file)
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
    pair = _load_pair(file)
    try:
        gens = _indices(gen_spec, pair.structure.index, pairs=True)
    except ValueError as exc:
        _echo(str(exc), err=True)
        sys.exit(EXIT_INVALID)
    cong = generated_congruence(pair, gens)
    try:
        q = quotient_pair(pair, cong, name=f"{pair.name}_quotient")
    except ValidationError as exc:
        _fail(exc, EXIT_INVALID)
    _write_text(dsl.serialize(dsl.pair_to_file(q)), out_file)


if __name__ == "__main__":
    main()
