"""Counting functions, Riesz means, and bound verification.

The counting function is built on the shifted eigenvalues nu of the
separated family and is complete only up to the table cutoff; every
query past that raises instead of silently undercounting.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    EXCESS,
    constant_ratio,
    counting_constant,
    lt_classical,
    product_counting_constant,
)
from .errors import IncompleteTableError

# lambdas per block of a Riesz-mean array query
_BLOCK = 256


def _distinct(values):
    """The distinct entries of an ascending array, the first of each run kept.

    np.unique and np.union1d do the same, but in numpy 2 they import numpy.ma.
    """
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _unwrap(values):
    """A 0-d result as a Python scalar; arrays pass through."""
    return values.item() if np.ndim(values) == 0 else values


@dataclass(frozen=True)
class CountingFunction:
    """Eigenvalue staircase N(lam) = #{nu < lam} with a completeness cutoff."""

    sorted_nus: np.ndarray
    domain_volume: float
    dim: int = 2
    cutoff: float = math.inf

    def __post_init__(self):
        vals = np.sort(np.asarray(self.sorted_nus, dtype=float))
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("eigenvalues must be finite")
        object.__setattr__(self, "sorted_nus", vals)
        if math.isnan(self.cutoff):
            raise ValueError("cutoff must not be NaN")
        if not (np.isfinite(self.domain_volume) and self.domain_volume > 0.0):
            raise ValueError(f"volume must be positive, got {self.domain_volume!r}")

    @classmethod
    def from_table(cls, table, volume, dim=2):
        return cls(
            sorted_nus=table.nus(), domain_volume=volume, dim=dim, cutoff=table.cutoff
        )

    def _check_range(self, lam):
        """``lam`` as a float array; raises if any element is past the cutoff."""
        lam = np.asarray(lam, dtype=float)
        if not np.all(np.isfinite(lam)):
            raise ValueError(f"lam must be finite, got {lam[~np.isfinite(lam)][0]}")
        if np.any(lam > self.cutoff):
            raise IncompleteTableError(
                f"counting data complete only through {self.cutoff}, asked {lam.max()}"
            )
        return lam

    def count(self, lam):
        """Strict count #{nu < lam} (the left-continuous staircase), elementwise."""
        lam = self._check_range(lam)
        return _unwrap(np.searchsorted(self.sorted_nus, lam, side="left"))

    def count_through(self, lam):
        """Inclusive count #{nu <= lam} (just after a jump), elementwise."""
        lam = self._check_range(lam)
        return _unwrap(np.searchsorted(self.sorted_nus, lam, side="right"))

    def jumps(self, lam_max):
        """Distinct eigenvalues <= lam_max, ascending."""
        return _distinct(self.sorted_nus[: self.count_through(lam_max)])

    def riesz_mean(self, lam, gamma):
        """sum (lam - nu)_+^gamma, elementwise; gamma = 0 reduces to the strict count.

        Summed directly, ``_BLOCK`` lambdas at a time: prefix sums of nu^j
        would cancel catastrophically at large lam.
        """
        lam = self._check_range(lam)
        gamma = float(gamma)
        if not math.isfinite(gamma) or gamma < 0.0:
            raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
        if gamma == 0.0:
            return 1.0 * self.count(lam)
        flat = lam.ravel()
        sums = np.empty(flat.size)
        for start in range(0, flat.size, _BLOCK):
            block = flat[start:start + _BLOCK]
            hi = np.searchsorted(self.sorted_nus, block.max(), side="left")
            gap = block[:, None] - self.sorted_nus[:hi]
            np.maximum(gap, 0.0, out=gap)
            sums[start:start + _BLOCK] = np.sum(gap ** gamma, axis=1)
        return _unwrap(sums.reshape(lam.shape))


def _semiclassical(coef, lam, power, volume):
    """coef * lam^power * volume, elementwise over lam >= 0."""
    lam = np.asarray(lam, dtype=float)
    bad = ~(np.isfinite(lam) & (lam >= 0.0))
    if np.any(bad):
        raise ValueError(f"lam must be finite and >= 0, got {lam[bad][0]}")
    return _unwrap(coef * lam ** power * volume)


def polya_rhs(lam, dim, volume):
    """Semiclassical counting line L^cl_{0,d} lam^(d/2) vol."""
    return _semiclassical(lt_classical(0.0, dim), lam, dim / 2.0, volume)


def counting_rhs(lam, dim, volume, excess=EXCESS):
    """Direct counting bound coefficient times lam^(d/2) vol."""
    return _semiclassical(counting_constant(dim, excess), lam, dim / 2.0, volume)


def product_counting_rhs(lam, dim, volume):
    """Product-structure counting bound times lam^(d/2) vol."""
    return _semiclassical(product_counting_constant(dim), lam, dim / 2.0, volume)


def product_riesz_rhs(lam, gamma, dim, volume):
    """Riesz-mean bound 2 L^cl_{g,d} lam^(g + d/2) vol, valid for gamma >= 1/2."""
    gamma = float(gamma)
    if gamma < 0.5:
        raise ValueError(f"riesz bound needs gamma >= 1/2, got {gamma!r}")
    coef = 2.0 * lt_classical(gamma, dim)
    return _semiclassical(coef, lam, gamma + dim / 2.0, volume)


_COUNT_RHS = dict(polya=polya_rhs, counting=counting_rhs, product=product_counting_rhs)
_BOUND_KINDS = (*_COUNT_RHS, "riesz")


@dataclass(frozen=True)
class BoundReport:
    """Result of sweeping one bound over a lambda grid."""

    bound_kind: str
    lam_max: float
    lambda_grid: np.ndarray
    n_values: np.ndarray
    bound_values: np.ndarray
    min_margin: float
    argmin_lambda: float
    violated: bool

    def to_json_dict(self):
        return {
            "bound_kind": self.bound_kind,
            "lam_max": self.lam_max,
            "min_margin": self.min_margin,
            "violated": self.violated,
            "argmin_lambda": self.argmin_lambda,
        }


def check_bound_args(kind, lam_max, grid, gamma=None):
    """verify_bound's arguments checked, as (lam_max, gamma) floats; ValueError
    on a bad one, so a caller can refuse them before it builds a table."""
    lam_max = float(lam_max)
    if not (math.isfinite(lam_max) and lam_max > 0.0):
        raise ValueError(f"lam_max must be positive and finite, got {lam_max!r}")
    if grid < 1:
        raise ValueError(f"grid must have at least one point, got {grid}")
    if kind not in _BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}, expected one of {_BOUND_KINDS}")
    if kind == "riesz":
        if gamma is None:
            raise ValueError("riesz bound needs an explicit gamma")
        gamma = float(gamma)
    elif gamma is not None:
        raise ValueError(f"bound kind {kind!r} does not take a gamma")
    return lam_max, gamma


def verify_bound(cf, kind, lam_max, grid=1000, gamma=None):
    """Check one bound against the counting data on (0, lam_max].

    The evaluation set is a uniform grid joined with every jump of the
    staircase; counts are taken inclusively at each point, which is the
    worst case for an upper bound.  A bound or left side that is not finite
    (both Riesz sides overflow at gamma 110 near 1000) is a ValueError.
    """
    lam_max, gamma = check_bound_args(kind, lam_max, grid, gamma)
    pts = lam_max * np.arange(1, grid + 1) / grid
    lambdas = _distinct(np.sort(np.concatenate((pts, cf.jumps(lam_max)))))

    if kind == "riesz":
        bounds = product_riesz_rhs(lambdas, gamma, cf.dim, cf.domain_volume)
        values = cf.riesz_mean(lambdas, gamma)
        label = f"riesz-{gamma:g}"
    else:
        values = cf.count_through(lambdas).astype(float)
        bounds = _COUNT_RHS[kind](lambdas, cf.dim, cf.domain_volume)
        label = kind

    if not (np.all(np.isfinite(bounds)) and np.all(np.isfinite(values))):
        raise ValueError(f"{label}: a bound or left side on (0, {lam_max}] is not finite")
    margins = bounds - values
    i = int(np.argmin(margins))
    return BoundReport(
        bound_kind=label,
        lam_max=lam_max,
        lambda_grid=lambdas,
        n_values=values,
        bound_values=bounds,
        min_margin=float(margins[i]),
        argmin_lambda=float(lambdas[i]),
        violated=bool(margins[i] < 0.0),
    )


def ratio_rows(d_min=2, d_max=20, excess=EXCESS):
    """(d, product/direct constant ratio) rows for the dimension figure."""
    if d_min < 2 or d_max < d_min:
        raise ValueError(f"need 2 <= d_min <= d_max, got ({d_min}, {d_max})")
    return [(d, constant_ratio(d, excess)) for d in range(d_min, d_max + 1)]


def polya_rows(cf, lam_max):
    """(lambda, count, bound) rows tracing the staircase against the line.

    Each jump contributes two rows (value before, value after) so the
    staircase renders correctly; endpoints at 0 and lam_max close it off.
    """
    jumps = cf.jumps(lam_max)
    lam = np.concatenate(([0.0], np.repeat(jumps, 2)))
    counts = np.zeros(lam.size, dtype=int)
    counts[1::2] = cf.count(jumps)
    counts[2::2] = cf.count_through(jumps)
    if lam_max > lam[-1]:
        lam = np.append(lam, lam_max)
        counts = np.append(counts, cf.count_through(lam_max))
    bounds = polya_rhs(lam, cf.dim, cf.domain_volume)
    return list(zip(lam.tolist(), counts.tolist(), bounds.tolist()))
