"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """An eigenvalue backend failed to factor or to converge."""


class CertificationError(RuntimeError):
    """Two independent resolutions (or methods) disagree about an eigenvalue."""


class IncompleteTableError(ValueError):
    """An eigenvalue table was queried beyond the cutoff it is complete for."""


class QuadratureError(RuntimeError):
    """Node doubling failed to stabilize an integral to the requested tolerance."""
