"""Exception types shared across the package."""


class ConemvError(Exception):
    """Base class for all package-specific errors."""


class InvalidMarket(ConemvError):
    """Market specification fails a validity requirement."""


class DimensionMismatch(ConemvError):
    """Vector or matrix arguments have inconsistent shapes."""


class InvalidCone(ConemvError, ValueError):
    """Cone specification is malformed, or does not fit the market."""


class NoConvergence(ConemvError):
    """Iterative routine exhausted its iteration budget.

    Carries the best iterate found so far in ``best`` when available.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ConsistencyError(ConemvError):
    """Internal cross-check failed (quadratic vs linear cost evaluation)."""


class TargetUnattainable(ConemvError):
    """No admissible policy reaches the requested expected terminal wealth."""


class InvalidTarget(ConemvError):
    """Target outside the domain of the requested frontier branch."""


class BackendMismatch(ConemvError):
    """Operation requires a different expectation backend (e.g. exact only)."""


class InsufficientMemory(ConemvError):
    """A requested computation would not fit in the available memory."""


class ConfigError(ConemvError):
    """Run configuration is malformed or inconsistent."""
