"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid chain or run configuration (bad sizes, windows, ranges)."""


class ValidationError(ValueError):
    """A matrix argument fails a structural requirement (Hermiticity, trace)."""


class SingularInputError(ValueError):
    """An input puts a solver on a singular point (zero denominator, spectrum hit)."""


class DomainError(ValueError):
    """A precondition on the physical domain is violated (non-physical base state)."""


class ResourceError(RuntimeError):
    """Request exceeds the brute-force simulation resource guard."""
