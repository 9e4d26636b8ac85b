"""Desk-scale verification of the trace inequality and its dual form.

Two experiments: (a) the Riesz-mean trace inequality for the box
potential on a product domain, evaluated against the certified eigenvalue
table; (b) the dual kinetic-energy (Sobolev-type) inequality, tested on
explicit product trial functions with tensor Gauss-Legendre quadrature.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from numpy.polynomial.legendre import leggauss

from .constants import EXCESS, kinetic_constant, lt_best_known
from .discretize import Interval, PotentialSpec
from .errors import IncompleteTableError, QuadratureError
from . import sl_family


@dataclass(frozen=True)
class ProductDomain:
    """Strip (0, x_length) times (a, b) in upper-half-plane coordinates."""

    x_length: float = math.pi
    a: float = 1.0 / math.e
    b: float = math.e

    def __post_init__(self):
        if not (np.isfinite(self.x_length) and self.x_length > 0.0):
            raise ValueError(f"x_length must be positive, got {self.x_length!r}")
        if not (0.0 < self.a < self.b and np.isfinite(self.b)):
            raise ValueError(f"need 0 < a < b finite, got ({self.a!r}, {self.b!r})")

    @property
    def interval(self):
        """The t = log y interval."""
        return Interval(math.log(self.a), math.log(self.b))

    def transverse(self, ell):
        """Transverse Dirichlet eigenvalue (ell pi / x_length)^2."""
        if ell != int(ell) or ell < 1:
            raise ValueError(f"transverse index must be a positive integer: {ell!r}")
        return PotentialSpec(ell, width=self.x_length).coupling


def hyperbolic_volume(domain):
    """Hyperbolic area of the product domain: x_length * (1/a - 1/b)."""
    return domain.x_length * (1.0 / domain.a - 1.0 / domain.b)


@dataclass(frozen=True)
class BoxPotential:
    """Constant potential of the given height supported on the domain."""

    domain: ProductDomain
    height: float

    def __post_init__(self):
        if not (np.isfinite(self.height) and self.height > 0.0):
            raise ValueError(f"height must be positive, got {self.height!r}")


def potential_integral(pot, gamma, dim=2):
    """integral of V^(gamma + d/2) over hyperbolic volume, for the box shape."""
    gamma = float(gamma)
    if gamma < 0.5:
        raise ValueError(f"trace inequality needs gamma >= 1/2, got {gamma!r}")
    return pot.height ** (gamma + dim / 2.0) * hyperbolic_volume(pot.domain)


def family_table(domain, cutoff, tol=1e-10, n=400, margin=0.05):
    """Certified eigenvalue table for the domain's separated family.

    Mode ell couples through the transverse eigenvalue (ell pi / x_length)^2.
    """
    return sl_family.sweep(
        domain.interval, cutoff, tol=tol, n=n, margin=margin, width=domain.x_length
    )


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


def lt_check(pot, gamma, table=None, tol=1e-10, n=400, excess=EXCESS):
    """Evaluate the trace inequality for the box potential.

    The left side sums (height - nu)_+^gamma over the certified table
    (computed on demand when ``table`` is None; a supplied table must
    belong to the same domain and reach the potential height).
    """
    gamma = float(gamma)
    if gamma < 0.5:
        raise ValueError(f"trace inequality needs gamma >= 1/2, got {gamma!r}")
    height = pot.height
    if table is None:
        table = family_table(pot.domain, height, tol=tol, n=n)
    elif table.cutoff < height:
        raise IncompleteTableError(
            f"table complete through {table.cutoff}, potential height {height}"
        )
    nus = table.nus(through=height)
    lhs = float(np.sum((height - nus[nus < height]) ** gamma))
    rhs = lt_best_known(gamma, 2, excess) * potential_integral(pot, gamma, dim=2)
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
    """Product trial u(x, t) = X(x) T(t), both factors vanishing at the ends.

    Derivative callables are optional; missing ones are rebuilt from
    Chebyshev interpolants whose degree tracks the quadrature order.
    """

    name: str
    x_profile: Callable
    t_profile: Callable
    dx_profile: Optional[Callable] = None
    dt_profile: Optional[Callable] = None


def _eval_vec(f, pts):
    out = np.asarray(f(pts), dtype=float)
    if out.shape != pts.shape:
        out = np.array([float(f(p)) for p in pts])
    return out


def _derivative_values(profile, d_profile, pts, lo, hi, deg):
    if d_profile is not None:
        return _eval_vec(d_profile, pts)
    interp = Chebyshev.interpolate(
        lambda s: _eval_vec(profile, np.asarray(s)), deg, domain=[lo, hi]
    )
    return interp.deriv()(pts)


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
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "passed": self.passed,
            "nodes": self.nodes,
        }


def _sobolev_sides(trial, domain, n_nodes, excess):
    interval = domain.interval
    alpha, beta = interval.alpha, interval.beta
    xg, xw = leggauss(n_nodes)
    xs = 0.5 * domain.x_length * (xg + 1.0)
    xw = 0.5 * domain.x_length * xw
    tg, tw = leggauss(n_nodes)
    ts = interval.from_reference(tg)
    tw = 0.5 * interval.length * tw

    xv = _eval_vec(trial.x_profile, xs)
    tv = _eval_vec(trial.t_profile, ts)
    dxv = _derivative_values(
        trial.x_profile, trial.dx_profile, xs, 0.0, domain.x_length, n_nodes
    )
    dtv = _derivative_values(trial.t_profile, trial.dt_profile, ts, alpha, beta, n_nodes)

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
    rhs = kinetic_constant(2, excess) * quart + 0.25 * norm2 ** 2
    return lhs, rhs


def sobolev_check(trial, domain=None, tol=1e-10, excess=EXCESS, max_nodes=4096,
                  slack=1e-9):
    """Test (grad term) * (norm term) >= K * quartic term + (1/4) (norm term)^2.

    Tensor Gauss-Legendre with node doubling until both sides settle to
    ``tol`` relative; QuadratureError past ``max_nodes``.  ``slack`` is the
    relative negativity allowed before declaring a violation.
    """
    if domain is None:
        domain = ProductDomain()
    n_nodes = 16
    prev = None
    while n_nodes <= max_nodes:
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
                    passed=bool(margin >= -slack * abs(rhs)),
                    nodes=n_nodes,
                )
        prev = cur
        n_nodes *= 2
    raise QuadratureError(
        f"quadrature for trial {trial.name!r} did not settle by {max_nodes} nodes"
    )


def trial_profile(name, domain=None):
    """Named trial functions on the given domain (default: the model strip).

    Profiles vanish at both ends of each factor so the product extends by
    zero to the whole space.  'sine' and 'bump' carry analytic derivatives;
    the rest exercise the interpolation route.  'bump' is the
    near-degenerate narrow case.
    """
    if domain is None:
        domain = ProductDomain()
    xl = domain.x_length
    interval = domain.interval
    mid = 0.5 * (interval.alpha + interval.beta)
    half = 0.5 * interval.length

    def tau(t):
        return (np.asarray(t, dtype=float) - mid) / half

    if name == "sine":
        return SobolevTrialFunction(
            name=name,
            x_profile=lambda x: np.sin(np.pi * x / xl),
            t_profile=lambda t: np.cos(0.5 * np.pi * tau(t)),
            dx_profile=lambda x: (np.pi / xl) * np.cos(np.pi * x / xl),
            dt_profile=lambda t: -(0.5 * np.pi / half) * np.sin(0.5 * np.pi * tau(t)),
        )
    if name == "cos2":
        # on the model interval this is the pair sin(x), cos^2(pi t / 2)
        return SobolevTrialFunction(
            name=name,
            x_profile=lambda x: np.sin(np.pi * x / xl),
            t_profile=lambda t: np.cos(0.5 * np.pi * tau(t)) ** 2,
        )
    if name == "bump":
        def t_bump(t):
            s = tau(t)
            return np.exp(-40.0 * s ** 2) * (1.0 - s ** 2)

        def dt_bump(t):
            s = tau(t)
            return (np.exp(-40.0 * s ** 2) * (-80.0 * s * (1.0 - s ** 2) - 2.0 * s)) / half

        return SobolevTrialFunction(
            name=name,
            x_profile=lambda x: np.sin(np.pi * x / xl),
            t_profile=t_bump,
            dx_profile=lambda x: (np.pi / xl) * np.cos(np.pi * x / xl),
            dt_profile=dt_bump,
        )
    if name == "skew":
        return SobolevTrialFunction(
            name=name,
            x_profile=lambda x: x * (xl - x) ** 2 / xl ** 3,
            t_profile=lambda t: (1.0 - tau(t)) * (1.0 + tau(t)) ** 2,
        )
    if name == "highmode":
        return SobolevTrialFunction(
            name=name,
            x_profile=lambda x: np.sin(3.0 * np.pi * x / xl),
            t_profile=lambda t: np.sin(2.0 * np.pi * tau(t)),
        )
    raise ValueError(f"unknown trial profile {name!r}")


TRIAL_NAMES = ("sine", "cos2", "bump", "skew", "highmode")
