"""Exception hierarchy shared across the package."""


class VarallocError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(VarallocError):
    """Invalid specification, parameters, or experiment configuration."""


class ContractViolation(VarallocError):
    """Caller broke an operation precondition (e.g. dimension mismatch)."""


class InsufficientDataError(VarallocError):
    """An estimator or radius was queried with too few observations."""


class SingularSystemError(VarallocError):
    """A linear solve hit a (numerically) singular system."""


class DegenerateInputError(VarallocError):
    """Inputs are degenerate for the requested operation (e.g. all-zero weights)."""


class InstanceTooLargeError(VarallocError):
    """Exhaustive oracle was asked for an instance beyond its enumeration limit."""
