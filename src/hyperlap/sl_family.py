"""The separated eigenvalue family and its certified sweep.

Separating variables on a strip of width w (x direction) times an
interval in t = log y turns the hyperbolic Dirichlet problem into the
family -psi'' + kappa exp(2t) psi = nu psi with Dirichlet ends, one
problem per transverse mode ell >= 1 with coupling kappa = (ell pi / w)^2.
The modes differ only in that scalar, so the sweep assembles the
mode-independent operator once per resolution, solves every family whose
ground state clears the cutoff, certifies each retained eigenvalue
against a doubled resolution, and cross-checks the count against the
finite-difference Sturm oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretize import Interval, PotentialSpec, assemble_cheb, assemble_fd
from .eigen import Spectrum, dense_eigenvalues, sturm_count
from .errors import CertificationError, IncompleteTableError


@dataclass(frozen=True)
class SLProblem:
    """One member of the family: -psi'' + q psi = nu psi on an interval."""

    interval: Interval
    pot: PotentialSpec


def lambda_from_nu(nu, dim=2):
    """Full eigenvalue from the shifted one: lambda = (d-1)^2/4 + nu."""
    return (dim - 1) ** 2 / 4.0 + nu


def nu_from_lambda(lam, dim=2):
    return lam - (dim - 1) ** 2 / 4.0


def solve_problem(problem, n=400, cutoff=None):
    """Plain dense solve at resolution n; optionally truncated at ``cutoff``.

    No certification: use solve_certified when the values feed a bound.
    """
    spec = dense_eigenvalues(assemble_cheb(problem.interval, problem.pot, n).matrix)
    if cutoff is None:
        return spec
    keep = np.searchsorted(spec.values, float(cutoff), side="right")
    return Spectrum(
        values=spec.values[:keep], max_imag=spec.max_imag, iterations=spec.iterations
    )


def _gap_point(w, k_star):
    """A probe value inside the spectral gap around position k_star.

    Far (relative to discretization error) from both neighbours, so
    integer counts computed by independent methods agree at it.
    """
    if k_star > 0:
        lower = w[k_star - 1]
    else:
        lower = w[0] - max(1.0, abs(w[0]))
    if k_star < w.size:
        upper = w[k_star]
    else:
        upper = w[-1] + max(1.0, abs(w[-1]))
    return 0.5 * (lower + upper)


def _base(interval, n):
    """Mode-independent collocation matrix at resolution n and its exp(2t) weight.

    Mode ell's matrix is ``_with_coupling(base, coupling)``, bitwise the
    matrix assemble_cheb builds for that mode's PotentialSpec.
    """
    op = assemble_cheb(interval, PotentialSpec(0), n)
    return op.matrix, np.exp(2.0 * op.nodes)


def _with_coupling(base, coupling):
    a0, w = base
    return a0 + np.diag(coupling * w)


def _ground_state(base, pot):
    return float(dense_eigenvalues(_with_coupling(base, pot.coupling)).values[0])


def _certified(problem, bases, cutoff, tol, oracle_m):
    """Certified eigenvalues <= cutoff: (values, first_above, max_imag).

    ``bases`` are the ``_base`` pairs of the interval at resolutions n and
    2n.  Certification: the two resolutions agree entrywise to ``tol``
    (relative), agree on the count below a gap midpoint, and the
    finite-difference Sturm count at that midpoint matches too.
    """
    cutoff = float(cutoff)
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite, got {cutoff!r}")
    if tol < 1e-13:
        raise ValueError(f"tol below certifiable floor 1e-13: {tol!r}")
    n = bases[0][1].size + 1  # n intervals leave n - 1 interior nodes
    s1, s2 = (
        dense_eigenvalues(_with_coupling(base, problem.pot.coupling)) for base in bases
    )
    w, w2 = s1.values, s2.values
    k_star = int(np.searchsorted(w, cutoff, side="right"))
    if k_star == w.size:
        raise CertificationError(
            f"cutoff {cutoff} lies beyond the largest resolved eigenvalue "
            f"{w[-1]}; raise n",
            index=k_star,
        )
    lam_star = _gap_point(w, k_star)
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
                f"{w[i]!r} vs {w2[i]!r} (tol {tol})",
                index=i,
            )
    fd_op = assemble_fd(problem.interval, problem.pot, oracle_m)
    fd_count = sturm_count(fd_op, lam_star)
    if fd_count != k_star:
        raise CertificationError(
            f"finite-difference count below {lam_star} is {fd_count}, "
            f"collocation says {k_star}",
            index=-1,
        )
    return w[:k_star].copy(), float(w[k_star]), s1.max_imag


def solve_certified(problem, cutoff, tol=1e-10, n=400, oracle_m=4000):
    """Eigenvalues <= cutoff with two-resolution and count certification."""
    bases = [_base(problem.interval, m) for m in (n, 2 * n)]
    values, _first_above, max_imag = _certified(problem, bases, cutoff, tol, oracle_m)
    return Spectrum(values=values, max_imag=max_imag, iterations=0)


def find_ell_max(interval, cutoff, n=400, width=math.pi):
    """First mode ell whose ground state exceeds ``cutoff``.

    The ground state increases with the coupling kappa, so it equals the
    cutoff c at one critical coupling kappa*: the largest eigenvalue of
    (c I - A0) x = kappa W x, with A0 the mode-independent operator and W
    the exp(2t) weight.  The first mode past kappa* is then confirmed by
    the ground states on both sides of it, stepping while they disagree.
    Up to mode 2^22 neighbouring couplings differ by far more than the
    rounding of the eigensolver, so at most a few steps are needed; past it
    the cutoff cannot be resolved and the search is refused.
    """
    cutoff = float(cutoff)
    if not (math.isfinite(cutoff) and cutoff > 0.0):
        raise ValueError(f"cutoff must be positive and finite, got {cutoff!r}")
    kappa1 = PotentialSpec(1, width=width).coupling
    base = _base(interval, n)
    a0, w = base
    kappa = dense_eigenvalues((cutoff * np.eye(w.size) - a0) / w[:, None]).values[-1]
    ell = 1
    if kappa >= kappa1:
        ell = math.floor(width / math.pi * math.sqrt(kappa)) + 1
    if ell > 1 << 22:
        raise ValueError(f"no mode below {1 << 22} clears cutoff {cutoff}")

    def clears(ell):
        return _ground_state(base, PotentialSpec(ell, width=width)) > cutoff

    if clears(ell):
        while ell > 1 and clears(ell - 1):
            ell -= 1
    else:
        ell += 1
        while not clears(ell):
            ell += 1
    return ell


@dataclass(frozen=True)
class EigenTable:
    """Certified eigenvalue table of the sweep.

    ``entries`` are (ell, k, nu) triples sorted by (ell, k), complete for
    nu <= cutoff and padded up to cutoff * (1 + margin) so that boundary
    queries at the cutoff itself are interior to the data.  ``ell_max`` is
    the first excluded mode.
    """

    entries: tuple
    cutoff: float
    ell_max: int
    resolution: int
    tolerance: float
    margin: float = 0.05

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


def sweep(
    interval,
    cutoff,
    tol=1e-10,
    n=400,
    margin=0.05,
    ell_max=None,
    oracle_m=4000,
    width=math.pi,
):
    """Certified eigenvalue table of every family with ground state <= cutoff.

    ``ell_max``, when given, skips the adaptive search but is still verified
    (its ground state must clear the cutoff, else the table would be
    incomplete).  ``width`` is the strip width: mode ell has the coupling
    (ell pi / width)^2, so the default pi gives ell^2.
    """
    cutoff = float(cutoff)
    if not (math.isfinite(cutoff) and cutoff > 0.0):
        raise ValueError(f"cutoff must be positive and finite, got {cutoff!r}")
    if margin < 0.0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    bases = [_base(interval, m) for m in (n, 2 * n)]
    if ell_max is None:
        ell_max = find_ell_max(interval, cutoff, n=n, width=width)
    else:
        ell_max = int(ell_max)
        if ell_max < 1:
            raise ValueError(f"ell_max must be >= 1, got {ell_max}")
        if _ground_state(bases[0], PotentialSpec(ell_max, width=width)) <= cutoff:
            raise IncompleteTableError(
                f"mode {ell_max} still has its ground state below {cutoff}; "
                "table would be incomplete"
            )
    retain = cutoff * (1.0 + margin)
    entries = []
    for ell in range(1, ell_max):
        prob = SLProblem(interval=interval, pot=PotentialSpec(ell, width=width))
        values, first_above, _ = _certified(prob, bases, retain, tol, oracle_m)
        if first_above <= cutoff:
            raise CertificationError(
                f"mode {ell}: first discarded eigenvalue {first_above} "
                f"does not clear the cutoff {cutoff}",
                index=len(values),
            )
        for k, nu in enumerate(values, start=1):
            entries.append((ell, k, float(nu)))
    return EigenTable(
        entries=tuple(entries),
        cutoff=cutoff,
        ell_max=ell_max,
        resolution=n,
        tolerance=tol,
        margin=margin,
    )
