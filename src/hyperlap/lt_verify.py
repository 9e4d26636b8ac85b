"""Desk-scale verification of the trace inequality and its dual form.

Two experiments: (a) the Riesz-mean trace inequality for the box
potential on a product domain, evaluated against the certified eigenvalue
table; (b) the dual kinetic-energy (Sobolev-type) inequality, tested on
explicit product trial functions with tensor Gauss-Legendre quadrature.
"""

import math
import sys
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from ._lapack import dsterf
from .constants import EXCESS, _real, kinetic_constant, lt_best_known
from .counting import CountingFunction
from .discretize import Interval
from .errors import QuadratureError
from . import sl_family


@dataclass(frozen=True)
class ProductDomain:
    """Strip (0, x_length) times (a, b) in upper-half-plane coordinates."""

    x_length: float = math.pi
    a: float = 1.0 / math.e
    b: float = math.e

    def __post_init__(self):
        _real("x_length", self.x_length, positive=True)
        if not _real("a", self.a, positive=True) < _real("b", self.b, positive=True):
            raise ValueError(f"need a < b, got ({self.a!r}, {self.b!r})")

    @property
    def interval(self):
        """The t = log y interval."""
        return Interval(math.log(self.a), math.log(self.b))


def hyperbolic_volume(domain):
    """Hyperbolic area of the product domain: x_length * (1/a - 1/b)."""
    return domain.x_length * (1.0 / domain.a - 1.0 / domain.b)


@dataclass(frozen=True)
class BoxPotential:
    """Constant potential of the given height supported on the domain."""

    domain: ProductDomain
    height: float

    def __post_init__(self):
        _real("height", self.height, positive=True)


def potential_integral(pot, gamma):
    """integral of V^(gamma + 1) over hyperbolic area, for the box shape on H^2:
    ValueError where no normal double holds it, as for lt_classical."""
    gamma = _real("gamma", gamma, low=0.5)
    try:
        value = pot.height ** (gamma + 1.0) * hyperbolic_volume(pot.domain)
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(f"the potential integral at gamma={gamma} is out of floating-point range")
    return value


def family_table(domain, cutoff, tol=1e-10, n=400):
    """Certified eigenvalue table for the domain's separated family.

    Mode ell couples through the transverse eigenvalue (ell pi / x_length)^2.
    """
    return sl_family.sweep(domain.interval, cutoff, tol=tol, n=n, width=domain.x_length)


@dataclass(frozen=True)
class LTReport:
    """One trace-inequality evaluation: sum (H - nu)_+^gamma vs the bound."""

    gamma: float
    lam: float
    lhs: float
    rhs: float
    ratio: float
    passed: bool

    def to_json_dict(self):
        return {
            "gamma": self.gamma,
            "lambda": self.lam,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "passed": self.passed,
        }


def lt_check(pot, gamma, table, excess=EXCESS):
    """Evaluate the trace inequality for the box potential on a certified table.

    The left side sums (height - nu)_+^gamma over the table (from
    ``family_table``; it must belong to the domain and reach the height).
    The nu are Dirichlet eigenvalues of the product domain, so by domain
    monotonicity this is at most the whole-space left side for
    V = height * 1_domain on H^2: the check tests a consequence of the
    paper's Lieb-Thirring inequality, not the inequality itself.
    """
    gamma = _real("gamma", gamma, low=0.5)
    domain, height = pot.domain, pot.height
    constant = lt_best_known(gamma, 2, excess)
    if (table.interval not in (None, domain.interval)
            or table.width not in (None, domain.x_length)):
        raise ValueError(f"table of width {table.width} on {table.interval}, not {domain}")
    cf = CountingFunction.from_table(table, hyperbolic_volume(domain))
    lhs = cf.riesz_mean(height, gamma)
    if not math.isfinite(lhs):
        raise ValueError(f"the left side at gamma={gamma}, height={height} is {lhs}")
    rhs = constant * potential_integral(pot, gamma)
    ratio = lhs / rhs
    return LTReport(
        gamma=gamma,
        lam=height,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        passed=bool(lhs <= rhs * (1.0 + 1e-12)),
    )


@dataclass(frozen=True)
class SobolevTrialFunction:
    """Product trial X(u) T(s) on the reference square, u = x / x_length in
    [0, 1] and s in [-1, 1] the interval's reference coordinate, both
    factors vanishing at the ends, with the exact derivatives X'(u) and
    T'(s).  sobolev_check maps it onto a domain."""

    name: str
    u_profile: Callable
    du_profile: Callable
    s_profile: Callable
    ds_profile: Callable


def _eval_vec(trial, profile, pts):
    out = np.asarray(getattr(trial, profile)(pts), dtype=float)
    if out.shape != pts.shape:
        raise ValueError(f"trial {trial.name!r}: {profile} has shape {out.shape}, not {pts.shape}")
    return out


@dataclass(frozen=True)
class SobolevReport:
    """Dual-inequality evaluation at converged quadrature order."""

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    nodes: int

    def to_json_dict(self):
        return asdict(self)


def _legendre_pair(q, x):
    """L_{q-1}(x) and L_q(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, q):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p0, p1


def _gauss_legendre(q):
    """Gauss-Legendre nodes and weights on [-1, 1], in O(q) memory.

    Golub-Welsch nodes (eigenvalues of the Jacobi matrix, by root-free QL,
    dsterf) polished by one Newton step on L_q; weights
    2 / ((1 - x^2) L_q'(x)^2), with (1 - x^2) L_q' = q (L_{q-1} - x L_q).
    Keeping the tiny L_q term makes the weights exact to rounding (about
    1e-16 on smooth integrands).  A failed QL raises QuadratureError.
    """
    k = np.arange(1.0, q)
    x, info = dsterf(np.zeros(q), k / np.sqrt(4.0 * k * k - 1.0))
    if info != 0:
        raise QuadratureError(f"Gauss-Legendre nodes at q = {q}: tridiagonal QL failed (info {info})")
    p0, p1 = _legendre_pair(q, x)
    x = x - p1 * (1.0 - x * x) / (q * (p0 - x * p1))
    p0, p1 = _legendre_pair(q, x)
    return x, 2.0 * (1.0 - x * x) / (q * (p0 - x * p1)) ** 2


# extreme domains overflow in the quadrature; the sides are checked at the end
@np.errstate(over="ignore", invalid="ignore")
def _sobolev_sides(trial, domain, n_nodes, excess):
    # the one place a domain enters: x = x_length u, t = mid + half s
    interval = domain.interval
    half = 0.5 * interval.length
    nodes, weights = _gauss_legendre(n_nodes)
    us = 0.5 * (nodes + 1.0)
    xw = 0.5 * domain.x_length * weights
    ts = interval.from_reference(nodes)
    tw = half * weights

    xv = _eval_vec(trial, "u_profile", us)
    dxv = _eval_vec(trial, "du_profile", us) / domain.x_length
    tv = _eval_vec(trial, "s_profile", nodes)
    dtv = _eval_vec(trial, "ds_profile", nodes) / half

    # the tensor rule factorizes exactly for product trials
    em, ep, em2 = np.exp(-ts), np.exp(ts), np.exp(-2.0 * ts)
    ix2 = float(np.sum(xv ** 2 * xw))
    ix4 = float(np.sum(xv ** 4 * xw))
    idx2 = float(np.sum(dxv ** 2 * xw))
    it2m = float(np.sum(tv ** 2 * tw * em))
    it2p = float(np.sum(tv ** 2 * tw * ep))
    it4m = float(np.sum(tv ** 4 * tw * em2))
    idt2m = float(np.sum(dtv ** 2 * tw * em))

    norm2 = ix2 * it2m
    grad2 = ix2 * idt2m + idx2 * it2p
    quart = ix4 * it4m

    lhs = grad2 * norm2
    try:
        rhs = kinetic_constant(2, excess) * quart + 0.25 * norm2 ** 2
    except OverflowError:
        rhs = math.inf
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(
            f"trial {trial.name!r}: the sides of the dual inequality are {lhs} and {rhs}"
        )
    return lhs, rhs


_MAX_NODES = 4096


def sobolev_check(trial, domain=None, tol=1e-10, excess=EXCESS):
    """Test (grad term) * (norm term) >= K * quartic term + (1/4) (norm term)^2.

    Tensor Gauss-Legendre with node doubling until both sides settle to
    ``tol`` relative (finite and positive); QuadratureError past
    _MAX_NODES, and ValueError on a side that is not finite (the domain is
    too extreme for doubles).  A margin down to -1e-9 |rhs| still passes:
    that much relative negativity is quadrature rounding, not a violation.
    """
    tol = _real("tol", tol, positive=True)
    if domain is None:
        domain = ProductDomain()
    n_nodes = 16
    prev = None
    while n_nodes <= _MAX_NODES:
        cur = _sobolev_sides(trial, domain, n_nodes, excess)
        if prev is not None:
            ok = all(
                abs(a - b) <= tol * max(1.0, abs(a), abs(b))
                for a, b in zip(cur, prev)
            )
            if ok:
                lhs, rhs = cur
                margin = lhs - rhs
                return SobolevReport(
                    name=trial.name,
                    lhs=lhs,
                    rhs=rhs,
                    margin=margin,
                    passed=bool(margin >= -1e-9 * abs(rhs)),
                    nodes=n_nodes,
                )
        prev = cur
        n_nodes *= 2
    raise QuadratureError(
        f"quadrature for trial {trial.name!r} did not settle by {_MAX_NODES} nodes"
    )


_SINE = (lambda u: np.sin(np.pi * u), lambda u: np.pi * np.cos(np.pi * u))

# name -> ((X, X') on u = x / x_length in [0, 1], (T, T') on s in [-1, 1])
_TRIALS = {
    "sine": (_SINE, (lambda s: np.cos(0.5 * np.pi * s),
                     lambda s: -0.5 * np.pi * np.sin(0.5 * np.pi * s))),
    # on the model interval this is the pair sin(x), cos^2(pi t / 2)
    "cos2": (_SINE, (lambda s: np.cos(0.5 * np.pi * s) ** 2,
                     lambda s: -0.5 * np.pi * np.sin(np.pi * s))),
    "bump": (_SINE, (lambda s: np.exp(-40.0 * s ** 2) * (1.0 - s ** 2),
                     lambda s: np.exp(-40.0 * s ** 2) * (-80.0 * s * (1.0 - s ** 2) - 2.0 * s))),
    "skew": ((lambda u: u * (1.0 - u) ** 2, lambda u: (1.0 - u) * (1.0 - 3.0 * u)),
             (lambda s: (1.0 - s) * (1.0 + s) ** 2, lambda s: (1.0 + s) * (1.0 - 3.0 * s))),
    "highmode": ((lambda u: np.sin(3.0 * np.pi * u),
                  lambda u: 3.0 * np.pi * np.cos(3.0 * np.pi * u)),
                 (lambda s: np.sin(2.0 * np.pi * s),
                  lambda s: 2.0 * np.pi * np.cos(2.0 * np.pi * s))),
}
TRIAL_NAMES = tuple(_TRIALS)


def trial_profile(name):
    """The named trial on the reference square (see SobolevTrialFunction).

    Profiles vanish at both ends of each factor so the product extends by
    zero to the whole space, and carry their derivatives in closed form.
    'bump' is the near-degenerate narrow case.
    """
    if name not in _TRIALS:
        raise ValueError(f"unknown trial profile {name!r}")
    (u_f, du_f), (s_f, ds_f) = _TRIALS[name]
    return SobolevTrialFunction(name, u_f, du_f, s_f, ds_f)
