"""Exception types shared across the package."""


class BracketError(ValueError):
    """A bisection bracket does not straddle the sought transition."""


class ConfigurationError(ValueError):
    """Scheme parameters are inconsistent or outside the scheme's domain."""


class BudgetError(RuntimeError):
    """A memory or enumeration budget would be exceeded."""


class NumericalError(RuntimeError):
    """A numerical routine produced a non-finite value or failed a self-check."""
