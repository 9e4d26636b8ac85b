"""Tests for the closed-form constants."""

import math

import numpy as np
import pytest

from hyperlap import (
    EXCESS,
    constant_ratio,
    counting_constant,
    kinetic_constant,
    lt_best_known,
    lt_classical,
    product_counting_constant,
)


def test_classical_constant_closed_forms():
    # gamma = 1, d = 2: 1/(8 pi)
    assert abs(lt_classical(1.0, 2) - 1.0 / (8.0 * math.pi)) <= 1e-16
    # gamma = 0, d = 2: 1/(4 pi)
    assert abs(lt_classical(0.0, 2) - 1.0 / (4.0 * math.pi)) <= 1e-16
    # gamma = 3/2, d = 1: Gamma(5/2) = 3 sqrt(pi)/4, so 3/16
    expected = math.gamma(2.5) / (math.sqrt(4.0 * math.pi) * math.gamma(3.0))
    assert abs(lt_classical(1.5, 1) - expected) <= 1e-15


def test_classical_constant_via_gamma_oracle():
    for gamma in (0.0, 0.5, 1.0, 1.5, 2.0, 3.7):
        for d in range(1, 9):
            expected = math.gamma(gamma + 1.0) / (
                (4.0 * math.pi) ** (d / 2.0) * math.gamma(gamma + d / 2.0 + 1.0)
            )
            assert abs(lt_classical(gamma, d) - expected) <= 1e-13 * expected


@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("d", range(2, 9))
def test_product_identity(gamma, d):
    lhs = lt_classical(gamma, 1) * lt_classical(gamma + 0.5, d - 1)
    rhs = lt_classical(gamma, d)
    assert abs(lhs - rhs) <= 1e-12 * rhs


@pytest.mark.parametrize("d", range(1, 9))
def test_moment_identity(d):
    lhs = (1.0 + d / 2.0) * lt_classical(1.0, d)
    rhs = lt_classical(0.0, d)
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_best_known_branches():
    # gamma >= 3/2: sharp, factor one
    assert lt_best_known(1.5, 3) == lt_classical(1.5, 3)
    assert lt_best_known(2.0, 2) == lt_classical(2.0, 2)
    # 1 <= gamma < 3/2: single excess factor
    assert abs(lt_best_known(1.0, 2) - EXCESS * lt_classical(1.0, 2)) <= 1e-16
    assert abs(lt_best_known(1.25, 4) - EXCESS * lt_classical(1.25, 4)) <= 1e-16
    # 1/2 <= gamma < 1: doubled excess factor
    assert abs(lt_best_known(0.5, 2) - 2.0 * EXCESS * lt_classical(0.5, 2)) <= 1e-16
    assert abs(lt_best_known(0.99, 2) - 2.0 * EXCESS * lt_classical(0.99, 2)) <= 1e-16


def test_best_known_rejects_small_gamma():
    with pytest.raises(ValueError):
        lt_best_known(0.49, 2)
    with pytest.raises(ValueError):
        lt_best_known(0.0, 2)


def test_best_known_excess_override():
    base = lt_best_known(1.0, 2, excess=1.0)
    assert base == lt_classical(1.0, 2)
    assert abs(lt_best_known(1.0, 2) / base - EXCESS) <= 1e-15


@pytest.mark.parametrize("excess", [float("nan"), float("inf"), 0.0, -5.0])
def test_excess_must_be_positive_and_finite(excess):
    # every branch refuses it, and so does every constant built on lt_best_known
    for gamma in (0.5, 1.0, 2.0):
        with pytest.raises(ValueError, match="excess must be positive and finite"):
            lt_best_known(gamma, 2, excess)
    for fn in (kinetic_constant, counting_constant, constant_ratio):
        with pytest.raises(ValueError, match="excess must be positive and finite"):
            fn(2, excess)


def test_best_known_dominates_classical():
    for gamma in (0.5, 0.75, 1.0, 1.3, 1.5, 2.5):
        for d in range(1, 7):
            assert lt_best_known(gamma, d) >= lt_classical(gamma, d)


def test_frozen_digits():
    # values pinned from the closed forms, double checked with math.gamma
    assert abs(lt_best_known(1.0, 2) - 0.0579323992854499) <= 1e-16
    assert abs(lt_best_known(0.5, 2) - 0.15448639809453307) <= 1e-15
    assert abs(kinetic_constant(2) - 0.2317295971417996) <= 1e-15
    assert abs(counting_constant(2) - 0.2317295971417996) <= 1e-15
    assert abs(product_counting_constant(2) - 0.27566444771089605) <= 1e-15


def test_kinetic_constant_formula():
    for d in range(2, 7):
        l1 = lt_best_known(1.0, d)
        expected = (2.0 / d) * (1.0 + d / 2.0) ** (1.0 + 2.0 / d) * l1 ** (2.0 / d)
        assert abs(kinetic_constant(d) - expected) <= 1e-13 * expected


def test_counting_constant_formula():
    for d in range(2, 7):
        expected = (1.0 + 2.0 / d) ** (d / 2.0) * (1.0 + d / 2.0) * lt_best_known(1.0, d)
        assert abs(counting_constant(d) - expected) <= 1e-13 * expected


def test_product_counting_constant_formula():
    for d in range(2, 7):
        expected = (
            ((d + 1.0) / d) ** ((d + 1.0) / 2.0)
            * math.sqrt(d)
            * 2.0
            * lt_classical(0.5, d)
        )
        assert abs(product_counting_constant(d) - expected) <= 1e-13 * expected


def test_constant_ratio_value_and_range():
    assert abs(constant_ratio(2) - 1.1895953348687343) <= 1e-12
    for d in range(2, 21):
        assert constant_ratio(d) > 1.0


def test_constant_ratio_excess_scaling():
    # the excess sits in the denominator, so dropping it rescales by EXCESS
    for d in (2, 5, 11):
        expected = EXCESS * constant_ratio(d)
        assert abs(constant_ratio(d, excess=1.0) - expected) <= 1e-14 * expected


def test_constants_decrease_in_dimension():
    for d in range(1, 8):
        assert lt_classical(1.0, d + 1) < lt_classical(1.0, d)


@pytest.mark.parametrize("fn", [kinetic_constant, counting_constant, product_counting_constant])
def test_dimension_validation(fn):
    with pytest.raises(ValueError):
        fn(1)
    with pytest.raises(ValueError):
        fn(0)


def test_dimension_takes_a_numpy_integer_and_refuses_a_bool_or_float():
    """The dimension follows the same whole-number rule as a bound's grid."""
    assert lt_classical(0.5, np.int64(2)) == lt_classical(0.5, 2)
    assert kinetic_constant(np.int32(3)) == kinetic_constant(3)
    for dim in (True, 2.0, 2.5):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            lt_classical(0.5, dim)


def test_classical_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lt_classical(-0.1, 2)
    with pytest.raises(ValueError):
        lt_classical(1.0, 0)
    # Gamma(201) overflows a double, and at d = 300 the denominator does:
    # a ValueError, never an OverflowError or a silent 0
    for gamma, dim in ((200.0, 2), (1e6, 1), (0.0, 300), (0.5, 400)):
        with pytest.raises(ValueError, match="out of floating-point range"):
            lt_classical(gamma, dim)
    with pytest.raises(ValueError, match="out of floating-point range"):
        constant_ratio(400)
    assert 0.0 < lt_classical(169.0, 2) < math.inf
    assert constant_ratio(200) > 1.0
