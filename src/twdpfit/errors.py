"""Exception taxonomy shared across the package.

Each class carries the exit code the CLI returns for it: 2 for parse errors,
3 for domain and estimation errors, 4 for numerical and other package errors.
"""


class TwdpfitError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 4


class DomainError(TwdpfitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""
    exit_code = 3


class ParseError(TwdpfitError, ValueError):
    """An input file could not be parsed."""
    exit_code = 2


class EstimationError(TwdpfitError, RuntimeError):
    """An estimator cannot produce a meaningful result for the given data."""
    exit_code = 3


class NumericalError(TwdpfitError, ArithmeticError):
    """A numerical routine failed to reach its accuracy target."""
