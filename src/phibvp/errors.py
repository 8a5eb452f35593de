"""Exception hierarchy shared across the package."""


class PhiBVPError(Exception):
    """Base class for all package-specific errors."""


class GridMismatchError(PhiBVPError, ValueError):
    """Two grid functions live on different grids."""


class ZeroWeightError(PhiBVPError, ValueError):
    """A weight that must carry positive mass is (numerically) zero."""


class UnboundedInputError(PhiBVPError, ValueError):
    """A numeric inversion target lies beyond every representable bracket,
    or a map is finite over too few octaves for a computation on it."""


class ConstructionError(PhiBVPError, ValueError):
    """A sub- or supersolution recipe is not applicable to the given data."""


class ProblemFileError(PhiBVPError, ValueError):
    """A problem description file is malformed or violates a constraint."""


class ConvergenceError(PhiBVPError, RuntimeError):
    """An iterative method stopped before reaching its target accuracy.

    Carries enough state for the caller to inspect the last iterate.
    """

    def __init__(self, message, *, gap=None, iterations=None, profile=None):
        super().__init__(message)
        self.gap = gap
        self.iterations = iterations
        self.profile = profile
