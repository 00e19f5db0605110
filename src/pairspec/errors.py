"""Exception hierarchy.

Validation errors carry a ``witness``: a tuple of element labels (or label
pairs) pinpointing the first violation found, so failures are reproducible
by hand from the operation tables.
"""

from __future__ import annotations


class PairspecError(Exception):
    """Base class for all package errors."""


class ValidationError(PairspecError):
    def __init__(self, message: str, witness=None):
        super().__init__(message if witness is None else f"{message}; witness={witness!r}")
        self.message = message
        self.witness = witness

    def to_dict(self) -> dict:
        return {"kind": type(self).__name__, "message": self.message, "witness": self.witness}


# -- structure axioms --------------------------------------------------------

class NonCommutativeAdd(ValidationError):
    pass


class NonAssociativeAdd(ValidationError):
    pass


class ZeroNotNeutral(ValidationError):
    pass


class ZeroNotAbsorbing(ValidationError):
    pass


# -- pair axioms --------------------------------------------------------------

class TNotClosed(ValidationError):
    pass


class TNotCentral(ValidationError):
    pass


class A0NotSubmodule(ValidationError):
    pass


class NonUniqueE(ValidationError):
    pass


class NoPropertyN(PairspecError):
    pass


# -- negation maps ------------------------------------------------------------

class NotOrderTwo(ValidationError):
    pass


class NotAdditive(ValidationError):
    pass


class QuasiNegationFails(ValidationError):
    pass


class TNotPreserved(ValidationError):
    pass


# -- constructions ------------------------------------------------------------

class NuNotHomomorphism(ValidationError):
    pass


class BadBound(ValidationError):
    pass


class NotACongruence(ValidationError):
    pass


class HyperAddNotAssociative(ValidationError):
    pass


class ZeroLaw(ValidationError):
    pass


class NotNormal(ValidationError):
    pass


class NotAGroup(ValidationError):
    pass


class S0NotValid(ValidationError):
    pass


class CarrierTooLarge(PairspecError):
    def __init__(self, size: int, cap: int):
        super().__init__(f"carrier would have {size} elements, cap is {cap}")
        self.size = size
        self.cap = cap


# -- congruence machinery ------------------------------------------------------

class CapExceeded(PairspecError):
    def __init__(self, message: str, partial_count: int):
        super().__init__(f"{message} (partial count: {partial_count})")
        self.partial_count = partial_count


class HypothesisFails(PairspecError):
    def __init__(self, message: str, witness=None):
        super().__init__(message if witness is None else f"{message}; witness={witness!r}")
        self.witness = witness


# -- verify harness ------------------------------------------------------------

class UnknownCheckId(PairspecError):
    pass


# -- file format ----------------------------------------------------------------

class DslSyntaxError(ValidationError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownLabel(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class DuplicateLabel(ValidationError):
    pass
