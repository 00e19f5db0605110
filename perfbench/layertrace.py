"""Per-layer spans and counts, recorded from outside the program.

``install`` wraps the public functions of each ``pairspec`` module in a
span.  The wrapper replaces the function wherever a ``pairspec`` module holds
it, so the names other modules bound with ``from .x import y`` are caught as
well.  A span's self time is its duration minus the time of its child spans.
Spans are aggregated in memory by call path and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

from checks import CHECK_IDS, RUNTIME_FIELD

# layer span -> functions of that layer's module that open it
SPANS = {
    "dsl": {
        "parse": ["parse_pair_file", "parse_hyper_file", "is_hyper_text",
                  "build_pair", "build_hyper"],
        "serialize": ["serialize", "pair_to_file", "hyper_to_file"],
    },
    "core": {
        "validate": ["validate_structure", "validate_pair", "validate_negation_map"],
        "classify": ["classify_pair"],
    },
    "constructions": {
        "double": ["double"],
        "quotient": ["quotient_pair"],
        "build": ["super_boolean", "supertropical", "standard_supertropical",
                  "constant_supertropical", "truncated_supertropical", "minimal_bipotent",
                  "power_set_pair", "hyperpair_generated", "residue_hyperstructure",
                  "function_pair", "validate_hyperstructure"],
    },
    "congruences": {
        "enumerate": ["enumerate_congruences"],
        "generated": ["generated_congruence"],
        "join": ["join"],
        "meet": ["meet"],
        "is_congruence": ["is_congruence"],
        "cong_b": ["cong_b"],
    },
    "spectrum": {
        "report": ["spectrum_report"],
        "classify": ["classify_congruence"],
        "elementwise": ["classify_congruence_elementwise"],
        "twist_subset": ["twist_subset"],
        "sqrt_phi": ["sqrt_phi"],
        "ae_pair": ["ae_pair"],
        "push": ["push_congruence"],
    },
    "verify": {"run_all": ["run_all"]},
    "_kernels": {k: [k] for k in (
        "closure_roots", "congruence_violation", "twist_fill", "twist_subset_violation",
        "radical_violation", "strongly_prime_violation", "t_cancel_violation", "sqrt_step",
        "first_nonassoc", "first_noncomm", "first_nondistrib")},
}

CLI_COMMANDS = ("construct", "validate", "congruences", "spectrum", "verify")


def _text_bytes(args, kwargs, out):
    return len(args[0].encode("utf-8"))


def _out_bytes(args, kwargs, out):
    # verify prints each check's runtime; counting it at a fixed width makes
    # the byte count repeat exactly from run to run
    return len(RUNTIME_FIELD.sub('"runtime": 0.000000', out).encode("utf-8"))


def _scan_bytes(args, kwargs, out):
    # n^3 cells compared per side: two int64 operands and one bool result
    n = args[0].shape[0]
    sides = 2 if len(out) == 4 and out[0] != 0 else 1
    return 17 * n ** 3 * sides


# extra counts: module.function -> (counter name, function of (args, kwargs, result))
COUNTERS = {
    "dsl.parse_pair_file": ("dsl.parse_bytes", _text_bytes),
    "dsl.parse_hyper_file": ("dsl.parse_bytes", _text_bytes),
    "dsl.is_hyper_text": ("dsl.parse_bytes", _text_bytes),
    "dsl.serialize": ("dsl.serialize_bytes", _out_bytes),
    "congruences.enumerate_congruences": ("congruences.enumerated_total",
                                          lambda a, k, out: len(out)),
    "_kernels.first_nonassoc": ("kernels.scan_bytes", _scan_bytes),
    "_kernels.first_nondistrib": ("kernels.scan_bytes", _scan_bytes),
}


class Tracer:
    """Self time and calls per span name, counts, and call-path aggregates."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.paths = defaultdict(lambda: [0, 0.0, 0.0])   # calls, total, self
        self._stack = [[(), 0.0]]                          # [path, child time]
        self._undo = []

    def span(self, name: str, fn, counter=None):
        """``fn`` wrapped so that each call records a span called ``name``."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0] + (name,), 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                self_t = dt - frame[1]
                self.self_s[name] += self_t
                self.calls[name] += 1
                agg = self.paths[frame[0]]
                agg[0] += 1
                agg[1] += dt
                agg[2] += self_t
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, out)
            return out
        return wrapper

    def reset(self) -> None:
        """Start a new round of self times, calls and counts; the call-path
        totals and the installed wrappers stay."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"pairspec.{layer}") for layer in SPANS}
        modules = [m for k, m in sys.modules.items()
                   if k == "pairspec" or k.startswith("pairspec.")]
        for layer, spans in SPANS.items():
            mod = layers[layer]
            for span, fnames in spans.items():
                for fname in fnames:
                    orig = getattr(mod, fname)
                    key = f"{layer}.{fname}"
                    wrapped = self.span(f"{_prefix(layer)}.{span}", orig, COUNTERS.get(key))
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                self._patch(m, attr, wrapped)

        # leq is a cached_property: time the function it caches.
        lat = layers["congruences"].CongruenceLattice
        cached = lat.__dict__["leq"]
        leq = functools.cached_property(self.span("congruences.leq", cached.func))
        leq.__set_name__(lat, "leq")
        self._patch(lat, "leq", leq)

        checks = layers["verify"].CHECKS
        for cid, fn in list(checks.items()):
            self._undo.append(functools.partial(checks.__setitem__, cid, fn))
            checks[cid] = self.span(f"verify.{cid}", fn)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append(functools.partial(setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back every function that ``install`` replaced."""
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded since the last reset."""
        out = {name: 0 for name in PER_LAYER}
        for name, t in self.self_s.items():
            out[f"{name}_s"] = t
        for name, k in self.calls.items():
            out[f"{name}_calls"] = k
        out.update(self.counts)
        out["cli.commands"] = sum(self.calls[f"cli.{c}"] for c in CLI_COMMANDS)
        return {name: out[name] for name in PER_LAYER if name != "trace.wall_s"}


def _prefix(module: str) -> str:
    """Metric prefix of a module's layer; names may not start with '_'."""
    return module.lstrip("_")


def _names(prefix: str, spans, suffixes=("_s", "_calls")) -> list[str]:
    return [f"{prefix}.{s}{suffix}" for s in spans for suffix in suffixes]


# The per-layer metrics a traced run reports, in the order it reports them.
PER_LAYER = (
    [f"cli.{c}_s" for c in CLI_COMMANDS] + ["cli.commands"]
    + ["dsl.parse_s", "dsl.parse_bytes", "dsl.serialize_s", "dsl.serialize_bytes"]
    + _names("core", ["validate", "classify"])
    + _names("constructions", ["double", "quotient"]) + ["constructions.build_s"]
    + ["congruences.enumerate_s", "congruences.enumerate_calls",
       "congruences.enumerated_total"]
    + _names("congruences", ["generated", "join"])
    + ["congruences.meet_calls", "congruences.leq_s", "congruences.is_congruence_calls"]
    + _names("congruences", ["cong_b"])
    + ["spectrum.report_s"] + _names("spectrum", ["classify"]) + ["spectrum.elementwise_s"]
    + _names("spectrum", ["twist_subset"])
    + ["spectrum.sqrt_phi_s", "spectrum.ae_pair_s", "spectrum.push_calls"]
    + ["verify.run_all_s"] + [f"verify.{cid}_s" for cid in sorted(CHECK_IDS)]
    + _names("kernels", SPANS["_kernels"], ("_calls", "_s")) + ["kernels.scan_bytes"]
    + ["trace.wall_s"]
)
