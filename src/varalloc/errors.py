"""Exception hierarchy shared across the package."""


class VarallocError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(VarallocError):
    """Invalid specification, parameters, or experiment configuration."""


class ContractViolation(VarallocError):
    """Caller broke an operation precondition (e.g. a dimension mismatch, or n < 2 samples)."""


class SingularSystemError(VarallocError):
    """A linear solve hit a (numerically) singular system."""


class DegenerateInputError(VarallocError):
    """Inputs are degenerate for the requested operation (e.g. all-zero weights)."""
