"""The separated eigenvalue family and its certified sweep.

Separating variables on a strip of width w (x direction) times an
interval in t = log y turns the hyperbolic Dirichlet problem into the
family -psi'' + kappa exp(2t) psi = nu psi with Dirichlet ends, one
problem per transverse mode ell >= 1 with coupling kappa = (ell pi / w)^2.
The modes differ only in that scalar, so the sweep builds the banded
Legendre-Galerkin matrices K, B and M once, at order 2n - 1, and takes
the order n - 1 family as their leading block.  Mode by mode it solves
the symmetric pencil K + kappa M against B for only the few lowest
eigenvalues, by banded Lanczos, until a ground state clears the cutoff:
that mode is the table's ell_max, so the mode search costs no solve of
its own.  It certifies each retained eigenvalue against the doubled
resolution and cross-checks every mode's count against the
finite-difference Sturm oracle in one batched pass.  A single-mode solve
(solve_certified) runs the same certification for one mode: it takes the
interval, the coupling kappa of the mode and a cutoff, and returns a plain
ascending float64 array.  No route returns an uncertified value.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretize import _MAX_N, Interval, _check_coupling, assemble_fd, assemble_galerkin
from .eigen import _sturm_counts, lowest_pencil_eigenvalues
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


def _lowest(family, coupling, k):
    """The k lowest Galerkin eigenvalues nu of one mode, by banded Lanczos.

    k is capped at order - 2, so a resolution too small for the cutoff
    shows as every computed value lying below it.
    """
    k = min(k, family.order - 2)
    return lowest_pencil_eigenvalues(family.operator_band(coupling), family.mass_band, k)


def _count_bound(interval, cutoff):
    """At most this many Galerkin eigenvalues of any mode are <= cutoff.

    Galerkin values lie above the exact ones, and the exact values of a
    mode with coupling kappa >= 0 above the free ones: nu_j >= (j pi / length)^2.
    The relative slack of 1e-9 covers the rounding of values on that line.
    """
    return math.floor(
        interval.length * math.sqrt(max(cutoff, 0.0)) / math.pi * (1.0 + 1e-9)
    )


def _families(interval, n):
    """Galerkin families at resolutions n and 2n, for certification.

    Only the 2n family is assembled: the n family is its leading block.
    """
    if not 4 <= n <= _MAX_N // 2:
        raise ValueError(
            f"need 4 <= n <= {_MAX_N // 2}, got {n}: certification also solves at 2n"
        )
    fine = assemble_galerkin(interval, 2 * n)
    return [fine.leading(n), fine]


def _mode_values(families, coupling, cutoff, tol, w):
    """Eigenvalues <= cutoff of one mode, the gap probe, and the first value above it.

    ``families`` are the Galerkin families of the interval at resolutions
    n and 2n, and ``w`` are the lowest eigenvalues at resolution n, at
    least one more than lie at or below the cutoff.  The 2n values must
    agree entrywise to ``tol`` (relative) and on the count below the gap
    probe; the finite-difference count at the probe is the caller's to
    check (see _check_oracle).  The probe lies halfway between the last
    value kept (or a point below the first) and the first value above the
    cutoff, far (relative to discretization error) from both, so counts by
    independent methods agree at it.
    """
    n = families[0].n
    k_star = int(np.searchsorted(w, cutoff, side="right"))
    if k_star == w.size:
        raise CertificationError(
            f"cutoff {cutoff} lies beyond the highest resolved eigenvalue "
            f"{w[-1]}; raise n",
            index=k_star,
        )
    lower = w[k_star - 1] if k_star else w[0] - max(1.0, abs(w[0]))
    lam_star = 0.5 * (lower + w[k_star])
    w2 = _lowest(families[1], coupling, k_star + 1)
    k2 = int(np.searchsorted(w2, lam_star, side="left"))
    if k2 != k_star:
        raise CertificationError(
            f"resolutions {n} and {2 * n} disagree on the count below "
            f"{lam_star}: {k_star} vs {k2}",
            index=min(k_star, k2),
        )
    if k_star:
        err = np.abs(w[:k_star] - w2[:k_star])
        bad = err > tol * np.maximum(1.0, np.abs(w[:k_star]))
        if np.any(bad):
            i = int(np.nonzero(bad)[0][0])
            raise CertificationError(
                f"eigenvalue {i} differs between resolutions {n} and {2 * n}: "
                f"{w[i]:.17g} vs {w2[i]:.17g} (tol {tol})",
                index=i,
            )
    return w[:k_star].copy(), lam_star, w[k_star]


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
    """Eigenvalues <= cutoff of the mode with ``coupling`` kappa, certified by two
    resolutions and a count on the FD grid that _check_oracle sizes from the gap."""
    coupling = _check_coupling(coupling)
    _check_tol(tol)
    cutoff = float(cutoff)
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite, got {cutoff!r}")
    families = _families(interval, n)
    w = _lowest(families[0], coupling, _count_bound(interval, cutoff) + 1)
    values, probe, above = _mode_values(families, coupling, cutoff, tol, w)
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
    lines = [ln for ln in text.strip().split("\n") if ln]
    if lines[0] != "ell,k,nu":
        raise ValueError(f"unexpected header {lines[0]!r}")
    out = []
    for ln in lines[1:]:
        ell, k, nu = ln.split(",")
        out.append((int(ell), int(k), float(nu)))
    return out


def sweep(interval, cutoff, tol=1e-10, n=400, width=math.pi):
    """Certified eigenvalue table of every family with ground state <= cutoff.

    Modes are solved in order, each for one more eigenvalue than it can
    hold below the retention limit: mode 1 by the count bound of the
    interval, later modes by the previous mode's count, since a count
    cannot grow with the coupling.  The first mode whose ground state at
    resolution n clears the cutoff ends the sweep and is the table's
    ``ell_max``.  ``width`` is the strip width: mode ell has the coupling
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
    families = _families(interval, n)
    retain = cutoff * (1.0 + _MARGIN)
    count = _count_bound(interval, retain)
    entries = []
    modes = []
    ell = 1
    while True:
        kappa = coupling(ell)
        w = _lowest(families[0], kappa, count + 1)
        if w[0] > cutoff:
            break
        values, probe, above = _mode_values(families, kappa, retain, tol, w)
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
