"""Finite semiring-pair engine.

Operation-table carriers with a central tangible monoid and a distinguished
submodule standing in for zero; exhaustive validation, pair constructions,
congruence lattices, twist-product prime spectra, and a law-checking
harness that reports concrete counterexamples.
"""

from .core import (
    FiniteStructure,
    Pair,
    PropertyNWitness,
    classify_pair,
    find_property_n,
    heights,
    is_distributively_central,
    validate_negation_map,
    validate_pair,
    validate_structure,
)
from .congruences import (
    Congruence,
    CongruenceLattice,
    cong_b,
    diag_e,
    diagonal,
    enumerate_congruences,
    generated_congruence,
    is_congruence,
)
from .constructions import (
    DoubledPair,
    HyperStructure,
    double,
    function_pair,
    hyperpair_generated,
    minimal_bipotent,
    power_set_pair,
    quotient_pair,
    residue_hyperstructure,
    standard_supertropical,
    super_boolean,
    supertropical,
    truncated_supertropical,
    validate_hyperstructure,
)
from .spectrum import classify_congruence, spectrum_report, sqrt_phi
from .verify import reverify_counterexample, run_all, run_check

__version__ = "0.1.0"
