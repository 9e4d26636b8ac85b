"""The one rule for scalar real arguments (constants._real), at every site."""

import argparse
import math

import numpy as np
import pytest

from hyperlap.cli import cmd_constants
from hyperlap.constants import _real, lt_best_known, lt_classical
from hyperlap.counting import CountingFunction, check_bound_args, product_riesz_rhs
from hyperlap.discretize import Interval, assemble_fd
from hyperlap.lt_verify import (
    BoxPotential,
    ProductDomain,
    lt_check,
    potential_integral,
    sobolev_check,
    trial_profile,
)
from hyperlap.sl_family import EigenTable, solve_certified, sweep

UNIT = Interval(-1.0, 1.0)
POT = BoxPotential(ProductDomain(), 10.0)
TABLE = EigenTable(entries=((1, 1, 3.0),), cutoff=100.0, ell_max=2, resolution=64, tolerance=1e-10)

# (site, the name its message gives, a finite value below its bound or None
# where any finite value is taken, the call)
SITES = [
    ("lt_best_known excess", "excess", 0.0, lambda v: lt_best_known(1.0, 2, v)),
    ("lt_classical gamma", "gamma", -0.5, lambda v: lt_classical(v, 2)),
    ("lt_best_known gamma", "gamma", 0.25, lambda v: lt_best_known(v, 2)),
    ("CountingFunction volume", "volume", 0.0, lambda v: CountingFunction([1.0], v)),
    ("riesz_mean gamma", "gamma", -0.5, lambda v: CountingFunction([1.0], 1.0).riesz_mean(2.0, v)),
    ("product_riesz_rhs gamma", "gamma", 0.25, lambda v: product_riesz_rhs(1.0, v, 2, 1.0)),
    ("check_bound_args lam_max", "lam_max", 0.0, lambda v: check_bound_args("polya", v, 10)),
    ("check_bound_args gamma", "gamma", 0.25, lambda v: check_bound_args("riesz", 10.0, 10, v)),
    ("Interval alpha", "alpha", None, lambda v: Interval(v, 2.0)),
    ("Interval beta", "beta", None, lambda v: Interval(-1.0, v)),
    ("assemble_fd coupling", "coupling", -1.0, lambda v: assemble_fd(UNIT, v, m=8)),
    ("solve_certified coupling", "coupling", -1.0, lambda v: solve_certified(UNIT, v, 10.0, n=16)),
    ("ProductDomain x_length", "x_length", 0.0, lambda v: ProductDomain(x_length=v)),
    ("ProductDomain a", "a", 0.0, lambda v: ProductDomain(a=v)),
    ("ProductDomain b", "b", 0.0, lambda v: ProductDomain(b=v)),
    ("BoxPotential height", "height", 0.0, lambda v: BoxPotential(ProductDomain(), v)),
    ("potential_integral gamma", "gamma", 0.25, lambda v: potential_integral(POT, v)),
    ("lt_check gamma", "gamma", 0.25, lambda v: lt_check(POT, v, TABLE)),
    ("sobolev_check tol", "tol", 0.0, lambda v: sobolev_check(trial_profile("sine"), tol=v)),
    ("sweep tol", "tol", 1e-14, lambda v: sweep(UNIT, 10.0, tol=v, n=16)),
    ("solve_certified cutoff", "cutoff", None, lambda v: solve_certified(UNIT, 1.0, v, n=16)),
    ("nus through", "through", None, lambda v: TABLE.nus(through=v)),
    ("sweep cutoff", "cutoff", 0.0, lambda v: sweep(UNIT, v, n=16)),
    ("sweep width", "strip width", 0.0, lambda v: sweep(UNIT, 10.0, n=16, width=v)),
    ("EigenTable tolerance", "tolerance", 1e-14, lambda v: EigenTable((), 1.0, 1, 16, v)),
    ("cmd_constants excess", "excess", 0.0,
     lambda v: cmd_constants(argparse.Namespace(gamma=1.0, dim=2, excess=v, json=None))),
]


CASES = [
    pytest.param(name, call, bad, id=f"{site}-{bad!r}")
    for site, name, below, call in SITES
    for bad in ("1", True, math.nan, math.inf, *([] if below is None else [below]))
]


@pytest.mark.parametrize("name, call, bad", CASES)
def test_every_site_refuses_a_bad_real_argument_by_name(name, call, bad):
    """A string or a bool is no real number (a string once reached float()
    or a comparison, a bool passed as 1); NaN, inf and a value below the
    site's bound are refused too, each as a ValueError naming the argument,
    before any solve."""
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call(bad)


def test_real_rule_messages():
    assert _real("x", np.float32(0.5)) == 0.5 and type(_real("x", np.int64(3))) is float
    for value in (np.bool_(True), 1j, np.array(1.0), None):
        with pytest.raises(ValueError, match="x must be a real number"):
            _real("x", value)
    with pytest.raises(ValueError, match=r"^x must be positive and finite, got 0.0$"):
        _real("x", 0, positive=True)
    with pytest.raises(ValueError, match=r"^x must be finite and >= 0.5, got 0.25$"):
        _real("x", 0.25, low=0.5)
    with pytest.raises(ValueError, match=r"^x must be finite, got -inf$"):
        _real("x", -(10 ** 400))


@pytest.mark.parametrize("kind", [np.float64, np.float32, np.int64])
def test_numpy_scalars_give_the_bits_of_python_numbers(kind):
    """_real converts what it accepts to a float, so a numpy scalar holding
    the same value gives bitwise the same constant and table."""
    assert lt_classical(kind(1), 2).hex() == lt_classical(1, 2).hex()
    assert lt_best_known(kind(2), 3, kind(2)).hex() == lt_best_known(2.0, 3, 2.0).hex()
    want = sweep(UNIT, 50.0, n=64)
    got = sweep(UNIT, kind(50), n=np.int64(64))
    assert np.array(got.entries).tobytes() == np.array(want.entries).tobytes()
    assert got.cutoff == 50.0 and type(got.cutoff) is float
