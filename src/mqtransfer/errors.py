"""Exception types shared across the package."""

__all__ = ["ConfigurationError", "ValidationError", "SingularInputError", "ResourceError"]


class ConfigurationError(ValueError):
    """Invalid chain or run configuration (bad sizes, windows, ranges)."""


class ValidationError(ValueError):
    """A matrix argument fails a structural requirement (Hermiticity, trace)."""


class SingularInputError(ValueError):
    """An input puts a solver on a singular point (zero denominator, spectrum hit)."""


class ResourceError(RuntimeError):
    """Request exceeds a memory guard (a CLI grid estimate, the dense Hamiltonian)."""
