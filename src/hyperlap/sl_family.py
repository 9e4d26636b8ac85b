"""The separated eigenvalue family and its certified sweep.

Separating variables on a strip of width w (x direction) times an
interval in t = log y turns the hyperbolic Dirichlet problem into the
family -psi'' + kappa exp(2t) psi = nu psi with Dirichlet ends, one
problem per transverse mode ell >= 1 with coupling kappa = (ell pi / w)^2.
The modes differ only in that scalar, so the sweep builds the banded
Legendre-Galerkin matrices K, B and M once, at order 2n - 1, and reads
the order n - 1 family from their first n - 1 columns.  Mode by mode it
solves the symmetric pencil K + kappa M against B once, at order 2n - 1,
for only the few lowest eigenpairs, by banded Lanczos, until a ground state
clears the cutoff: that mode is the table's ell_max, so the mode search
costs no solve of its own.  The values at resolution n are the
Rayleigh-Ritz values of the order n - 1 pencil on the leading rows of
those Ritz vectors, and interlacing brackets each true value at n
between the value at 2n and that Rayleigh-Ritz value.  A retained
eigenvalue is certified when the bracket is narrower than the tolerance,
and every mode's count is cross-checked against the finite-difference
Sturm oracle in one batched pass.  A single-mode solve
(solve_certified) runs the same certification for one mode: it takes the
interval, the coupling kappa of the mode and a cutoff, and returns a plain
ascending float64 array.  No route returns an uncertified value.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dsygv

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


def _check_tol(tol):
    if not (math.isfinite(tol) and tol >= 1e-13):
        raise ValueError(
            f"tol must be finite and at least the certifiable floor 1e-13, got {tol!r}"
        )


def _lowest(family, coupling, k, start=None, root=None):
    """The k lowest Galerkin eigenvalues of one mode at ``family``'s resolution 2n
    and their B-orthonormal Ritz vectors, by banded Lanczos, plus the mode's
    operator band K + kappa M.

    k is capped at the order of resolution n less 2, so a resolution too
    small for the cutoff shows as every computed value lying below it.
    ``start`` and ``root`` go to lowest_pencil_eigenpairs: a nearby mode's
    Ritz vectors to start from, and the Cholesky factor of B.
    """
    band = family.operator_band(coupling)
    k = min(k, family.n // 2 - 3)
    return (*lowest_pencil_eigenpairs(band, family.mass_band, k, start, root), band)


def _rayleigh_ritz(family, band, x):
    """Rayleigh-Ritz values of the mode's pencil at resolution n on the leading
    n - 1 rows of the Ritz vectors ``x`` at ``family``'s resolution 2n, ascending.

    ``band`` is the mode's operator band at 2n.  Two k x k Gram matrices,
    from one banded product (dsbmv) per vector, and two small generalized
    eigensolves, no eigenvectors.  The products run on the first n - 1
    columns of the 2n bands: at order n - 1 they read only the leading
    block, which is the n pencil.  Gram matrices that are not positive
    definite (the truncated vectors are numerically dependent: the
    resolution is far too small) raise CertificationError.
    """
    order = family.n // 2 - 1
    y = x[:order]
    stiff, mass = (
        y.T @ np.column_stack([dsbmv(b.shape[0] - 1, 1.0, b[:, :order], v, lower=1) for v in y.T])
        for b in (band, family.mass_band)
    )
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
            f"resolution {order + 1} cannot hold the Ritz vectors of {family.n}: "
            f"their Gram matrices are not positive definite; raise n",
            index=0,
        )
    low = 1.0 / inverse[::-1]
    return np.where(low < math.sqrt(low[0] * high[-1]), low, high)


def _count_bound(interval, cutoff):
    """At most this many Galerkin eigenvalues of any mode are <= cutoff.

    Galerkin values lie above the exact ones, and the exact values of a
    mode with coupling kappa >= 0 above the free ones: nu_j >= (j pi / length)^2.
    The relative slack of 1e-9 covers the rounding of values on that line.
    """
    return math.floor(
        interval.length * math.sqrt(max(cutoff, 0.0)) / math.pi * (1.0 + 1e-9)
    )


def _family(interval, n):
    """The Galerkin family at resolution 2n, for certification at n.

    The n family is its leading block (see _rayleigh_ritz).
    """
    if not 4 <= n <= _MAX_N // 2:
        raise ValueError(
            f"need 4 <= n <= {_MAX_N // 2}, got {n}: certification solves at 2n"
        )
    return assemble_galerkin(interval, 2 * n)


def _mode_values(family, band, cutoff, tol, w2, x):
    """Eigenvalues <= cutoff of one mode, the gap probe, and the first value above it.

    ``family`` is the Galerkin family of the interval at resolution 2n and
    ``band`` the mode's operator band in it; ``w2`` are the lowest
    eigenvalues at 2n, at least one more than lie at or below the cutoff,
    and ``x`` their Ritz vectors.  The values at n are the Rayleigh-Ritz
    values theta of the n pencil on the leading rows of x: the n family is
    the leading block of the 2n one, so Cauchy interlacing and the Poincare
    bound (Parlett, The Symmetric Eigenvalue Problem, 10.1 and 11.5) give
    w2_j <= nu_j(n) <= theta_j, and theta_j - w2_j within ``tol`` (relative)
    brackets nu_j(n) as tightly.  The counts of theta and w2 below the gap
    probe must agree too, and then so does the count of nu(n), by
    interlacing; the finite-difference count at the probe is the caller's to
    check (see _check_oracle).  The probe lies halfway between the last value
    kept (or a point below the first) and the first value above the cutoff,
    far (relative to discretization error) from both, so counts by
    independent methods agree at it.
    """
    n = family.n // 2
    theta = _rayleigh_ritz(family, band, x)
    k_star = int(np.searchsorted(theta, cutoff, side="right"))
    if k_star == theta.size:
        raise CertificationError(
            f"cutoff {cutoff} lies beyond the highest resolved eigenvalue "
            f"{theta[-1]}; raise n",
            index=k_star,
        )
    lower = theta[k_star - 1] if k_star else theta[0] - max(1.0, abs(theta[0]))
    lam_star = 0.5 * (lower + theta[k_star])
    k2 = int(np.searchsorted(w2, lam_star, side="left"))
    if k2 != k_star:
        raise CertificationError(
            f"resolutions {n} and {2 * n} disagree on the count below "
            f"{lam_star}: {k_star} vs {k2}",
            index=min(k_star, k2),
        )
    if k_star:
        # absolute: theta - w2 reaches -1e-12 from rounding where exp(2t) spans e^12
        err = np.abs(theta[:k_star] - w2[:k_star])
        bad = err > tol * np.maximum(1.0, np.abs(theta[:k_star]))
        if np.any(bad):
            i = int(np.nonzero(bad)[0][0])
            raise CertificationError(
                f"eigenvalue {i} differs between resolutions {n} and {2 * n}: "
                f"{theta[i]:.17g} vs {w2[i]:.17g} (tol {tol})",
                index=i,
            )
    return theta[:k_star], lam_star, theta[k_star]


def _check_oracle(interval, modes):
    """Finite-difference Sturm counts at every mode's gap probe, in one pass.

    ``modes`` are (name, coupling, probe, count, above) tuples; the counts
    must equal the FD counts strictly below the probes, on the fewest grid
    points m >= 3 (no parameter) where every h^2 above^2 / 12 is at most
    _FD_SHARE of above - probe.  The FD diagonal of mode kappa is
    2/h^2 + kappa exp(2t), bitwise the one assemble_fd builds.
    """
    if not modes:
        return
    names, couplings, probes, counts, aboves = zip(*modes)
    above = np.array(aboves)
    points = interval.length * above / np.sqrt(12.0 * _FD_SHARE * (above - probes))
    fd = assemble_fd(interval, 0.0, max(3, math.ceil(points.max()) - 1))
    diag = fd.diag[:, None] + np.outer(np.exp(2.0 * fd.nodes), couplings)
    fd_counts = _sturm_counts(diag, fd.offdiag ** 2, probes)
    for name, probe, count, fd_count in zip(names, probes, counts, fd_counts):
        if fd_count != count:
            raise CertificationError(
                f"{name}: finite-difference count below {probe} is "
                f"{fd_count}, Galerkin says {count}",
                index=-1,
            )


def solve_certified(interval, coupling, cutoff, tol=1e-10, n=400):
    """Eigenvalues <= cutoff of the mode with ``coupling`` kappa, certified by the
    bracket between resolutions 2n and n (see _mode_values) and a count on the
    FD grid that _check_oracle sizes from the gap."""
    coupling = _check_coupling(coupling)
    _check_tol(tol)
    cutoff = float(cutoff)
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite, got {cutoff!r}")
    family = _family(interval, n)
    w2, x, band = _lowest(family, coupling, _count_bound(interval, cutoff) + 1)
    values, probe, above = _mode_values(family, band, cutoff, tol, w2, x)
    name = f"coupling {coupling!r}"
    _check_oracle(interval, [(name, coupling, probe, values.size, above)])
    return values


@dataclass(frozen=True)
class EigenTable:
    """Certified eigenvalue table of the sweep.

    ``entries`` are (ell, k, nu) triples sorted by (ell, k), complete for
    nu <= cutoff and padded up to cutoff * (1 + margin) so that boundary
    queries at the cutoff itself are interior to the data.  ``ell_max`` is
    the first excluded mode.  The sweep records its ``interval`` and ``width``.
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
            if nu > limit:
                raise ValueError(f"entry ({ell},{k}) exceeds retention limit: {nu}")
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
    lines = [ln for ln in text.strip().split("\n") if ln] or [""]
    if lines[0] != "ell,k,nu":
        raise ValueError(f"unexpected header {lines[0]!r}")
    out = []
    for ln in lines[1:]:
        ell, k, nu = ln.split(",")
        out.append((int(ell), int(k), float(nu)))
    return out


def sweep(interval, cutoff, tol=1e-10, n=400, width=math.pi):
    """Certified eigenvalue table of every family with ground state <= cutoff.

    Modes are solved in order, each once at resolution 2n and for one
    more eigenvalue than it can hold below the retention limit: mode 1 by
    the count bound of the interval, later modes by the previous mode's
    count, since a count cannot grow with the coupling.  Mode 1's Lanczos
    starts from the fixed vector, each later one from the previous mode's
    Ritz vectors, which are close: a repeated sweep is bitwise equal, and
    a row agrees with solve_certified of its mode to rounding.  The first mode
    whose ground state at resolution 2n clears the cutoff ends the sweep
    and is the table's ``ell_max``; by interlacing its ground state at n
    clears the cutoff too.  A stop on the values at n would differ only if
    nu_1(2n) <= cutoff < nu_1(n), a window below 1e-14 relative wherever
    the table certifies.  ``width`` is the strip width: mode ell has the coupling
    (ell pi / width)^2, so the default pi gives ell^2.  Every mode keeps
    its values through cutoff * (1 + margin), so the first value it
    discards lies above the cutoff by construction.  One FD Sturm count
    checks every mode, on a grid sized from the gaps (see _check_oracle).
    """
    cutoff = float(cutoff)
    if not (math.isfinite(cutoff) and cutoff > 0.0):
        raise ValueError(f"cutoff must be positive and finite, got {cutoff!r}")
    _check_tol(tol)
    if not (math.isfinite(width) and width > 0.0):
        raise ValueError(f"strip width must be positive and finite, got {width!r}")

    def coupling(ell):
        return float(ell) ** 2 * (math.pi / width) ** 2

    if coupling(_MODE_LIMIT) * math.exp(2.0 * interval.alpha) <= cutoff:
        # nu_1(kappa) >= kappa exp(2 alpha) is all that is known without a solve
        raise ValueError(f"cutoff {cutoff} may need modes past {_MODE_LIMIT}")
    family = _family(interval, n)
    root = _cholesky(family.mass_band, "B")
    retain = cutoff * (1.0 + _MARGIN)
    count = _count_bound(interval, retain)
    entries = []
    modes = []
    ell = 1
    x = None
    while True:
        kappa = coupling(ell)
        w2, x, band = _lowest(family, kappa, count + 1, x, root)
        if w2[0] > cutoff:
            break
        values, probe, above = _mode_values(family, band, retain, tol, w2, x)
        modes.append((f"mode {ell}", kappa, probe, values.size, above))
        for k, nu in enumerate(values, start=1):
            entries.append((ell, k, float(nu)))
        count = values.size
        ell += 1
    _check_oracle(interval, modes)
    return EigenTable(
        entries=tuple(entries),
        cutoff=cutoff,
        ell_max=ell,
        resolution=n,
        tolerance=tol,
        interval=interval,
        width=width,
    )
