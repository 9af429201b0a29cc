"""Exception types shared across the package.

The CLI maps these onto process exit codes (precondition -> 1,
unsupported regime -> 3), so they are kept in one place.
"""


class RellichError(Exception):
    """Base class for all package errors."""


class PreconditionViolated(RellichError):
    """A stated hypothesis of the underlying result is not met."""


class OutOfRange(RellichError):
    """A quantity is outside the domain where the formula is defined."""


class UnsupportedRegime(RellichError):
    """The requested computation has no closed form in this regime."""


class NonFiniteIntegrand(RellichError):
    """Quadrature sampled a NaN or infinity; rows names the rows of the
    integrand's stack that did (0 for an integrand of one row)."""

    def __init__(self, message: str, rows: tuple[int, ...] = (0,)):
        super().__init__(message)
        self.rows = rows


class CorpusOutsideSubspace(RellichError):
    """A test-function corpus contains a harmonic degree not in J."""


class DegenerateWeight(RellichError):
    """The Hardy weight exponent N - 2 + beta vanishes."""


class BetaZero(RellichError):
    """The Green representation needs a nonzero drift coefficient."""


class DZero(RellichError):
    """Evaluator needs D >= 0."""
