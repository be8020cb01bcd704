"""Exception types shared across the calculator."""

from __future__ import annotations


class CyclojonesError(Exception):
    """Base class for all calculator-specific errors."""


class RemainderNonzero(CyclojonesError, ArithmeticError):
    """Exact polynomial division left a nonzero remainder.

    Signals either a formula transcription error or a genuine
    non-integrality; ``remainder`` carries the offending residue.
    """

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class DivisionByZeroDenominator(CyclojonesError, ZeroDivisionError):
    """A q-symbol reciprocal would divide by zero: its window of factors
    1 - q^j holds 1 - q^0."""


class NotExpressible(CyclojonesError, ValueError):
    """A polynomial has exponents not divisible by the requested display
    variable's step (a half-integer power in that variable)."""


class NotAdmissible(CyclojonesError, ValueError):
    """A color triple violates the admissibility conditions."""


class IndexOutOfRange(CyclojonesError, ValueError):
    """An index fell outside the triangular/valid range of a coefficient."""


class IntegralityFailure(CyclojonesError, ArithmeticError):
    """A cyclotomic coefficient failed to collapse into Z[q^{+-1}].

    Must never fire on valid inputs; firing is a release-blocking
    diagnostic.  ``residual`` carries the uncollapsed fraction.
    """

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class CacheMismatch(CyclojonesError):
    """A cache entry disagrees with recomputation or fails its digest."""


class CacheUnusable(CyclojonesError):
    """The cache directory cannot be created, read or written."""
