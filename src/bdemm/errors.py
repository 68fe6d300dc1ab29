"""Exception types shared across the package.

Every error raised on purpose by the library derives from :class:`BdemmError`,
so callers can catch one base class at the boundary (the CLI maps them to
exit codes); a bad caller value raises :class:`InvalidInputError` unless a
class below names its failure more closely.  Names track the failure they
signal, not the module that raises them: several are shared (e.g.
``DimensionMismatchError`` comes out of weight arithmetic, Kalman steps and
mixture collapses alike).
"""


class BdemmError(Exception):
    """Base class for all deliberate library errors."""


class InvalidInputError(BdemmError, ValueError, TypeError):
    """A caller's value is out of range, of the wrong type or not numbers;
    ``except ValueError`` and ``except TypeError`` both catch it."""


class AllZeroError(BdemmError):
    """Every entry of a weight or evidence vector is zero (or underflowed)."""


class NegativeEntryError(BdemmError):
    """A quantity that must be nonnegative has a negative entry."""


class DimensionMismatchError(BdemmError, ValueError):
    """Array shapes disagree, or an array that must hold data is empty."""


class ConfigMismatchError(BdemmError, ValueError):
    """A weight-transition config lacks, or disagrees with, a required parameter."""


class NonFiniteWeightError(BdemmError, ValueError):
    """An importance weight came out NaN or +inf: a target/proposal mismatch,
    or a particle log likelihood that is NaN or +inf."""


class SingularInnovationCovError(BdemmError):
    """The innovation covariance of a Kalman update is not invertible."""


class FactorizationFailureError(BdemmError):
    """Cholesky failed even at the maximum jitter level."""


class NonFiniteForecastError(BdemmError, ValueError):
    """A forecast overflowed to a non-finite mean or variance."""


class NonFiniteBeliefError(BdemmError, ValueError):
    """A Gaussian belief overflowed, or its covariance was lost to roundoff."""


class ZeroPrecisionError(BdemmError):
    """A product-of-experts fusion collapsed to zero total precision."""


class LengthMismatchError(BdemmError):
    """Two sequences that must be aligned have different lengths."""


class ParseError(BdemmError):
    """A config or CSV file failed to parse; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class ConfigError(BdemmError):
    """A config file is syntactically fine but names a bad or missing key."""
