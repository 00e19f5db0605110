"""The names the traced benchmark wraps resolve in the package.

``perfbench/layertrace.py`` wraps package functions by name, and CI runs
its traced rounds, so a rename that leaves one of those names behind breaks
the benchmark.  The tracer is only loaded here, never installed, and nothing
under ``perfbench/`` is written.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layertrace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))        # for its ``from checks import``
    spec = importlib.util.spec_from_file_location("layertrace", PERFBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    lt = _layertrace(monkeypatch)
    missing = [f"{layer}.{name}" for layer, spans in lt.SPANS.items()
               for names in spans.values() for name in names
               if not callable(getattr(importlib.import_module(f"pairspec.{layer}"), name, None))]
    assert not missing
    lattice = importlib.import_module("pairspec.congruences").CongruenceLattice
    assert isinstance(lattice.__dict__.get("leq"), functools.cached_property)
    checks = importlib.import_module("pairspec.verify").CHECKS
    assert lt.CHECK_IDS <= set(checks) and len(lt.CHECK_IDS) == 23
