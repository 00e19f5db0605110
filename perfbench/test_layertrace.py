"""The tracer catches calls through every name a function is bound to.

    python3 -m pytest perfbench/test_layertrace.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pairspec import _kernels, catalog, constructions, verify  # noqa: E402
from pairspec.congruences import enumerate_congruences  # noqa: E402

from layertrace import PER_LAYER, Tracer  # noqa: E402


def test_install_patches_from_imports_and_uninstall_restores():
    orig = _kernels.first_nonassoc
    tracer = Tracer()
    tracer.install()
    try:
        # constructions bound the kernel with `from ._kernels import first_nonassoc`
        assert constructions.first_nonassoc is _kernels.first_nonassoc
        assert constructions.first_nonassoc is not orig
        pair = catalog.build("function_sb_sat2")
        constructions.double(pair)
        lattice = enumerate_congruences(pair)
        lattice.leq
        verify.run_check(pair, "BF")
        m = tracer.metrics()
    finally:
        tracer.uninstall()
    assert _kernels.first_nonassoc is orig and constructions.first_nonassoc is orig
    assert set(m) == set(PER_LAYER) - {"trace.wall_s"}
    assert m["constructions.double_calls"] == 1
    assert m["kernels.first_nonassoc_calls"] >= 2          # inside double()
    assert m["kernels.scan_bytes"] >= 17 * 81 ** 3
    assert m["congruences.enumerate_calls"] >= 1
    assert m["congruences.enumerated_total"] >= 32
    assert m["congruences.leq_s"] > 0 and m["verify.BF_s"] > 0
    assert all(m[k] >= 0 for k in m if k.endswith("_s"))
