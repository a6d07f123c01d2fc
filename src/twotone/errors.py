"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: configuration problems and inputs
outside the physical domain exit with 2, physics instabilities with 3, and
numerical and fit failures with 4.
"""


class DomainError(ValueError):
    """An input lies outside the physical domain of an operation."""


class ConfigError(ValueError):
    """A configuration file failed to parse or violates the schema."""


class InstabilityError(RuntimeError):
    """The drive configuration is anti-damped and has no steady state."""


class NumericalError(RuntimeError):
    """A linear-algebra step failed or missed its residual target."""


class TruncationError(NumericalError):
    """The Fock-space truncation is too small to hold the steady state."""


class FitError(RuntimeError):
    """A least-squares fit did not converge."""
