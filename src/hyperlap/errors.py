"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """An eigenvalue backend failed to factor or to converge."""


class CertificationError(RuntimeError):
    """Two independent resolutions (or methods) disagree about an eigenvalue.

    ``index`` is the first disagreeing position (0-based), or -1 when the
    disagreement is a count mismatch rather than a value mismatch.
    """

    def __init__(self, message, index=-1):
        super().__init__(message)
        self.index = index


class IncompleteTableError(ValueError):
    """An eigenvalue table was queried beyond the cutoff it is complete for."""


class QuadratureError(RuntimeError):
    """Node doubling failed to stabilize an integral to the requested tolerance."""
