"""The separated eigenvalue family and its certified sweep.

Separating variables on a strip of width w (x direction) times an
interval in t = log y turns the hyperbolic Dirichlet problem into the
family -psi'' + kappa exp(2t) psi = nu psi with Dirichlet ends, one
problem per transverse mode ell >= 1 with coupling kappa = (ell pi / w)^2.
The modes differ only in that scalar, so the banded Legendre-Galerkin
matrices K, B and M are built once, at order 2n - 1, and the order n - 1
family is their first n - 1 columns.  One loop, _certified_modes, sizes
every certified solve and states the per-mode rules: each mode solves the
symmetric pencil K + kappa M against B once, at order 2n - 1, for only
the few lowest eigenpairs, by banded Lanczos.  The values at resolution n
are the Rayleigh-Ritz values of the order n - 1 pencil on the leading rows
of those Ritz vectors, from the Cholesky factors of K + kappa M and B that
the solve at 2n already holds: the factor of a leading block is the
leading block of the factor.  Interlacing brackets each true value at n
between the value at 2n and that Rayleigh-Ritz value.  A retained
eigenvalue is certified when the bracket is narrower than the tolerance,
and every mode's count is cross-checked against the finite-difference
Sturm oracle in one batched pass.  The sweep runs the loop over the modes
ell = 1, 2, ... until a certified ground state clears the cutoff: that
mode is the table's ell_max, so the mode search costs no solve of its own.  A
single-mode solve (solve_certified) runs it on one coupling and returns a
plain ascending float64 array.  No route returns an uncertified value.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._lapack import dsygv
from .discretize import _MAX_N, Interval, _check_coupling, assemble_fd, assemble_galerkin
from .eigen import _cholesky, _sturm_counts, lowest_pencil_eigenpairs
from .errors import CertificationError, IncompleteTableError

# relative padding of a table above its cutoff
_MARGIN = 0.05
# modes are searched only below this one: up to it neighbouring couplings
# differ by far more than the rounding of the eigensolvers
_MODE_LIMIT = 1 << 22
# the FD error estimate h^2 nu^2 / 12 may take this share of the gap to the probe
_FD_SHARE = 0.125


def _grams(factor, root, y):
    """The Gram matrices y^T A y and y^T B y, as ||L^T y||^2 and ||R^T y||^2.

    L and R are the leading blocks, of the order of y's rows, of the lower
    band Cholesky factors ``factor`` of a mode's A = K + kappa M and
    ``root`` of the family's B.  Row j of L^T y
    is column j of the band (row d holds L[j + d, j]) times rows j .. j + kd
    of y, zero past its end: one batched product with a sliding-window view
    of the zero-padded y, in O(order k) memory.  R is narrow, so R^T y
    sums one product per row of its band, as the Lanczos applies it.
    """
    order, k = y.shape
    rows = factor.shape[0]
    padded = np.zeros((order + rows - 1, k))
    padded[:order] = y
    step, item = padded.strides
    window = as_strided(padded, (order, rows, k), (step, step, item), writeable=False)
    stiff_root = np.matmul(factor[:, :order].T[:, None, :], window)[:, 0]
    mass_root = root[0, :order, None] * y
    for d in range(1, root.shape[0]):
        mass_root[:-d] += root[d, : order - d, None] * y[d:]
    return stiff_root.T @ stiff_root, mass_root.T @ mass_root


def _rayleigh_ritz(n, factor, root, x):
    """Rayleigh-Ritz values of the mode's pencil at resolution n on the leading
    n - 1 rows y of the Ritz vectors ``x`` at resolution 2n, ascending.

    ``factor`` and ``root`` are the banded Cholesky factors (lower) at 2n of
    the mode's operator K + kappa M and of B.  The n pencil is the leading
    block of the 2n one, and the Cholesky factor of a leading block is the
    leading block of the factor, so the two k x k Gram matrices are
    ||L_n^T y||^2 and ||R_n^T y||^2, L_n and R_n the leading blocks of order
    n - 1 of the 2n factors.  Then two small generalized eigensolves, no
    eigenvectors.  Gram matrices that are not positive definite (the
    truncated vectors are numerically dependent: the resolution is far too
    small) raise CertificationError.
    """
    stiff, mass = _grams(factor, root, x[: n - 1])
    # a dense eigensolve is accurate to eps times its largest eigenvalue
    # only (8.8e-13 relative at the second of 150 free values): solving for
    # theta is accurate to eps relative at the high end, solving the
    # reversed pencil for 1 / theta at the low end, and values below the
    # geometric mean of the extremes come from the second
    high, _, info = dsygv(stiff, mass, jobz="N")
    if info == 0:
        inverse, _, info = dsygv(mass, stiff, jobz="N")
    if info != 0:
        raise CertificationError(
            f"resolution {n} cannot hold the Ritz vectors of {2 * n}: "
            f"their Gram matrices are not positive definite; raise n"
        )
    low = 1.0 / inverse[::-1]
    return np.where(low < math.sqrt(low[0] * high[-1]), low, high)


def _mode_coupling(ell, width=math.pi):
    """The coupling (ell pi / width)^2 of mode ell of a strip of this width."""
    try:
        return float(ell) ** 2 * (math.pi / width) ** 2
    except OverflowError:
        raise ValueError(f"the coupling of mode {ell} at width {width!r} overflows") from None


def _count_bound(interval, cutoff):
    """At most this many Galerkin eigenvalues of any mode are <= cutoff.

    Galerkin values lie above the exact ones, and the exact values of a
    mode with coupling kappa >= 0 above the free ones: nu_j >= (j pi / length)^2.
    The relative slack of 1e-9 covers the rounding of values on that line.
    """
    return math.floor(
        interval.length * math.sqrt(max(cutoff, 0.0)) / math.pi * (1.0 + 1e-9)
    )


def _mode_values(n, factor, root, cutoff, retain, tol, w2, x):
    """Eigenvalues <= retain of one mode, the gap probe, and the first value above it.

    ``factor`` and ``root`` are the Cholesky factors at 2n of the mode's
    operator band and of B (see _rayleigh_ritz); ``w2`` are the lowest
    eigenvalues at 2n, at least one more than lie at or below ``retain``,
    and ``x`` their Ritz vectors.  The values at n are the Rayleigh-Ritz
    values theta of the n pencil on the leading rows of x: the n family is
    the leading block of the 2n one, so Cauchy interlacing and the Poincare
    bound (Parlett, The Symmetric Eigenvalue Problem, 10.1 and 11.5) give
    w2_j <= nu_j(n) <= theta_j, and theta_j - w2_j within ``tol`` (relative)
    brackets nu_j(n) as tightly.  The first value discarded, theta_k* >
    ``retain``, must have w2_k* > ``cutoff`` (the table's, at most retain)
    too, or nu_k*(n) could lie at or below the cutoff; the caller has
    checked w2_0 <= cutoff, so k* >= 1.  The counts of theta and w2 below
    the gap probe must agree too, and then so does the count of nu(n), by
    interlacing; the finite-difference count at the probe is the caller's to
    check (see _check_oracle).  The probe lies halfway between the last value
    kept and the first one discarded, far (relative to discretization error)
    from both, so counts by independent methods agree at it.
    """
    theta = _rayleigh_ritz(n, factor, root, x)
    k_star = int(np.searchsorted(theta, retain, side="right"))
    if k_star == theta.size:
        raise CertificationError(
            f"cutoff {retain} lies beyond the highest resolved eigenvalue "
            f"{theta[-1]}; raise n"
        )
    if w2[k_star] <= cutoff:
        raise CertificationError(
            f"eigenvalue {k_star} lies in [{w2[k_star]:.17g}, {theta[k_star]:.17g}] "
            f"(resolutions {2 * n} and {n}), across the cutoff {cutoff}; raise n"
        )
    lam_star = 0.5 * (theta[k_star - 1] + theta[k_star])
    k2 = int(np.searchsorted(w2, lam_star, side="left"))
    if k2 != k_star:
        raise CertificationError(
            f"resolutions {n} and {2 * n} disagree on the count below "
            f"{lam_star}: {k_star} vs {k2}"
        )
    # absolute: theta - w2 reaches -1e-12 from rounding where exp(2t) spans e^12
    err = np.abs(theta[:k_star] - w2[:k_star])
    bad = err > tol * np.maximum(1.0, np.abs(theta[:k_star]))
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise CertificationError(
            f"eigenvalue {i} differs between resolutions {n} and {2 * n}: "
            f"{theta[i]:.17g} vs {w2[i]:.17g} (tol {tol})"
        )
    return theta[:k_star], lam_star, theta[k_star]


def _check_oracle(interval, modes):
    """Finite-difference Sturm counts at every mode's gap probe, in one pass.

    ``modes`` are (name, coupling, probe, count, above) tuples; the counts
    must equal the FD counts strictly below the probes, on the fewest grid
    points m >= 3 (no parameter) where every h^2 above^2 / 12 is at most
    _FD_SHARE of above - probe.  assemble_fd builds the FD operators of all
    the modes at once, one diagonal column per coupling.
    """
    if not modes:
        return
    names, couplings, probes, counts, aboves = zip(*modes)
    above = np.array(aboves)
    points = interval.length * above / np.sqrt(12.0 * _FD_SHARE * (above - probes))
    fd = assemble_fd(interval, np.array(couplings), max(3, math.ceil(points.max()) - 1))
    fd_counts = _sturm_counts(fd.diag, fd.offdiag ** 2, probes)
    for name, probe, count, fd_count in zip(names, probes, counts, fd_counts):
        if fd_count != count:
            raise CertificationError(
                f"{name}: finite-difference count below {probe} is "
                f"{fd_count}, Galerkin says {count}"
            )


def _certified_modes(interval, couplings, cutoff, retain, tol, n):
    """Certified eigenvalues <= ``retain`` of each mode, one array per mode.

    ``couplings`` are (name, kappa) pairs with kappa non-decreasing, read
    lazily.  The Galerkin family at 2n and B's Cholesky factor are built
    once.  Each mode is solved once, at 2n, by banded Lanczos for its k
    lowest eigenpairs: k is the count bound of the interval + 1 for the
    first mode, then the last mode's count + 1, since a count cannot grow
    with the coupling, capped at n - 3 so that a resolution too small for
    the cutoff shows as every computed value lying below it.  The first
    mode's Lanczos starts from the fixed vector, each later one from the
    previous mode's Ritz vectors, which are close: a repeated call is
    bitwise equal.  The first mode whose ground state at 2n lies above
    ``cutoff`` ends the loop and is not returned; by interlacing its ground
    state at n lies above it too.  That stop is certified: either the
    solve-free floor (pi / length)^2 + kappa exp(2 alpha) of the true ground
    state clears the cutoff, or the ground state's bracket between 2n and n
    is within ``tol``, as a kept value's must be; otherwise the true ground
    state may lie below the cutoff, and CertificationError says so.  Each
    mode's values are certified by the bracket between resolutions 2n and
    n (see _mode_values), and every mode's count by one FD Sturm pass (see
    _check_oracle).  The loop checks the cutoff, tolerance and resolution
    it uses before anything is built: the solve at 2n takes
    4 <= n <= _MAX_N // 2.
    """
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite, got {cutoff!r}")
    if not (math.isfinite(tol) and tol >= 1e-13):
        raise ValueError(
            f"tol must be finite and at least the certifiable floor 1e-13, got {tol!r}"
        )
    if not 4 <= n <= _MAX_N // 2:
        raise ValueError(f"need 4 <= n <= {_MAX_N // 2}, got {n}: certification solves at 2n")
    family = assemble_galerkin(interval, 2 * n)
    root = _cholesky(family.mass_band, "B")
    k = _count_bound(interval, retain) + 1
    modes, checks, x = [], [], None
    for name, coupling in couplings:
        factor = _cholesky(family.operator_band(coupling), "a")
        w2, x = lowest_pencil_eigenpairs(factor, root, min(k, n - 3), x)
        if w2[0] > cutoff:
            floor = (math.pi / interval.length) ** 2 + coupling * math.exp(2.0 * interval.alpha)
            if floor <= cutoff:
                theta = _rayleigh_ritz(n, factor, root, x[:, :1])[0]
                if theta - w2[0] > tol * max(1.0, theta):
                    raise CertificationError(
                        f"{name}: the ground state lies in [{w2[0]:.17g}, {theta:.17g}] "
                        f"(resolutions {2 * n} and {n}), wider than tol {tol}: the "
                        f"true one may lie below the cutoff {cutoff}; raise n"
                    )
            break
        values, probe, above = _mode_values(n, factor, root, cutoff, retain, tol, w2, x)
        modes.append(values)
        checks.append((name, coupling, probe, values.size, above))
        k = values.size + 1
    _check_oracle(interval, checks)
    return modes


def solve_certified(interval, coupling, cutoff, tol=1e-10, n=400):
    """Eigenvalues <= cutoff of the mode with ``coupling`` kappa, certified as
    _certified_modes certifies one mode.  A certified ground state above the
    cutoff gives an empty answer, with no FD grid."""
    coupling = _check_coupling(coupling)
    cutoff = float(cutoff)
    name = f"coupling {coupling!r}"
    modes = _certified_modes(interval, [(name, coupling)], cutoff, cutoff, tol, n)
    return modes[0] if modes else np.empty(0)


@dataclass(frozen=True)
class EigenTable:
    """Certified eigenvalue table of the sweep.

    ``entries`` are (ell, k, nu) triples sorted by (ell, k), complete for
    nu <= cutoff and padded up to cutoff * (1 + margin) so that boundary
    queries at the cutoff itself are interior to the data.  ``ell_max`` is
    the first excluded mode: the entries hold each of the modes 1 .. ell_max - 1
    and no other.  The sweep records its ``interval`` and ``width``.
    """

    # not a field: every table is padded by the same margin
    margin = _MARGIN

    entries: tuple
    cutoff: float
    ell_max: int
    resolution: int
    tolerance: float
    interval: Interval | None = None
    width: float | None = None

    def __post_init__(self):
        if math.isnan(self.cutoff):
            raise ValueError("cutoff must not be NaN")
        limit = self.cutoff * (1.0 + self.margin)
        by_mode = {}
        last = None
        for ell, k, nu in self.entries:
            if last is not None and (ell, k) <= last:
                raise ValueError("entries must be sorted by (ell, k)")
            last = (ell, k)
            if not (math.isfinite(nu) and nu <= limit):
                raise ValueError(f"entry ({ell},{k}) is not finite or past retention limit: {nu}")
            by_mode.setdefault(ell, []).append((k, nu))
        for ell, rows in by_mode.items():
            ks = [k for k, _ in rows]
            if ks != list(range(1, len(ks) + 1)):
                raise ValueError(f"mode {ell} has non-consecutive branch indices")
            nus = [nu for _, nu in rows]
            if any(b <= a for a, b in zip(nus, nus[1:])):
                raise ValueError(f"mode {ell} eigenvalues not strictly increasing")
        ells = sorted(by_mode)
        for a, b in zip(ells, ells[1:]):
            shared = min(len(by_mode[a]), len(by_mode[b]))
            for i in range(shared):
                if by_mode[b][i][1] <= by_mode[a][i][1]:
                    raise ValueError(
                        f"branch {i + 1} not increasing between modes {a} and {b}"
                    )
        # a missing mode would undercount every query with no error; past
        # len(ells) + 1 some mode is missing already, so the range stops there
        want = range(1, min(self.ell_max, len(ells) + 2))
        odd = sorted(set(ells).symmetric_difference(want))
        if odd:
            raise ValueError(f"a table with ell_max {self.ell_max} holds modes "
                             f"1 .. {self.ell_max - 1} exactly; modes {odd} are missing or extra")

    def modes(self):
        return sorted({ell for ell, _, _ in self.entries})

    def mode_values(self, ell):
        return np.array([nu for e, _, nu in self.entries if e == ell])

    def nus(self, through=None):
        """All eigenvalues sorted ascending, optionally truncated at ``through``.

        ``through`` may not exceed the cutoff: the rows above it are padding.
        """
        vals = np.sort(np.array([nu for _, _, nu in self.entries]))
        if through is None:
            return vals
        through = float(through)
        if not math.isfinite(through):
            raise ValueError(f"through must be finite, got {through!r}")
        if through > self.cutoff:
            raise IncompleteTableError(
                f"table complete only through {self.cutoff}, asked for {through}"
            )
        return vals[: np.searchsorted(vals, through, side="right")]

    def to_csv(self):
        lines = ["ell,k,nu"]
        for ell, k, nu in self.entries:
            lines.append(f"{ell},{k},{nu:.17g}")
        return "\n".join(lines) + "\n"


def table_rows_from_csv(text):
    """Parse the to_csv format back into (ell, k, nu) triples."""
    lines = [ln for ln in text.strip().splitlines() if ln] or [""]
    if lines[0] != "ell,k,nu":
        raise ValueError(f"unexpected header {lines[0]!r}")
    out = []
    for ln in lines[1:]:
        try:
            ell, k, nu = ln.split(",")
            out.append((int(ell), int(k), float(nu)))
        except ValueError as exc:
            raise ValueError(f"bad row {ln!r}: {exc}") from None
    return out


def sweep(interval, cutoff, tol=1e-10, n=400, width=math.pi):
    """Certified eigenvalue table of every family with ground state <= cutoff.

    Modes ell = 1, 2, ... go through _certified_modes in order, which states
    the per-mode rules (k, warm start, stop) and the certification; the
    first mode it does not return is the table's ``ell_max``.  The warm
    start makes a row agree with solve_certified of its mode to rounding;
    mode 1 starts cold, as a single-mode solve does, and is bitwise equal
    to it.  ``width`` is the strip width: mode ell has the coupling
    (ell pi / width)^2, so the default pi gives ell^2.  Every mode keeps
    its values through cutoff * (1 + margin), and the first value it
    discards must lie above the cutoff at 2n too, or the sweep raises
    CertificationError (see _mode_values).
    """
    cutoff = float(cutoff)
    if not (math.isfinite(cutoff) and cutoff > 0.0):
        raise ValueError(f"cutoff must be positive and finite, got {cutoff!r}")
    if not (math.isfinite(width) and width > 0.0):
        raise ValueError(f"strip width must be positive and finite, got {width!r}")
    # nu_1(kappa) >= kappa exp(2 alpha) is all that is known without a solve
    try:
        floor = _mode_coupling(_MODE_LIMIT, width) * math.exp(2.0 * interval.alpha)
    except OverflowError:  # no mode reaches the cutoff; assemble_galerkin refuses the interval
        floor = math.inf
    if floor <= cutoff:
        raise ValueError(f"cutoff {cutoff} may need modes past {_MODE_LIMIT}")
    couplings = ((f"mode {ell}", _mode_coupling(ell, width)) for ell in itertools.count(1))
    modes = _certified_modes(interval, couplings, cutoff, cutoff * (1.0 + _MARGIN), tol, n)
    entries = [(ell, k, float(nu)) for ell, values in enumerate(modes, start=1)
               for k, nu in enumerate(values, start=1)]
    return EigenTable(
        entries=tuple(entries),
        cutoff=cutoff,
        ell_max=len(modes) + 1,
        resolution=n,
        tolerance=tol,
        interval=interval,
        width=width,
    )
