"""BetaSeries truncation and multiplication against naive convolution."""

import random
from fractions import Fraction

import pytest

from hurwitz.algebra import GPoly
from hurwitz.series import BetaSeries, TruncationError, g_series, g_product, series_mul

g = GPoly.var


def test_product_example_g1_g2beta():
    # beta^3 of G(beta) * G(2 beta): hand convolution of the four cross terms
    prod = series_mul(g_series(1, 3), g_series(2, 3))
    assert prod.coeff(3) == g(1) * g(2) * 6 + g(3) * 9


def test_unit_identity():
    s = g_series(3, 5)
    assert series_mul(s, BetaSeries.unit(5)) == s


def test_opposite_arguments_cancel_linear_term():
    prod = series_mul(g_series(1, 1), g_series(-1, 1))
    assert prod.coeff(1).is_zero()


def test_insufficient_truncation():
    with pytest.raises(TruncationError, match="insufficient truncation"):
        series_mul(g_series(1, 2), g_series(2, 5), 4)
    with pytest.raises(TruncationError):
        g_series(1, 3).coeff(4)


def test_coefficients_stable_under_truncation_order():
    low = g_product((1, 2, 3), 3)
    high = g_product((1, 2, 3), 8)
    for d in range(4):
        assert low.coeff(d) == high.coeff(d)


def _naive_convolution(a: BetaSeries, b: BetaSeries, order: int) -> BetaSeries:
    out = [GPoly.zero() for _ in range(order + 1)]
    for d in range(order + 1):
        for i in range(d + 1):
            out[d] = out[d] + a.coeff(i) * b.coeff(d - i)
    return BetaSeries(out)


def test_mul_matches_naive_double_loop():
    rng = random.Random(42)
    order = 8
    for _ in range(6):
        a_coeffs = [GPoly.one()] + [
            g(k, Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for k in range(1, order + 1)
        ]
        b_coeffs = [GPoly.one()] + [
            g(k, Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for k in range(1, order + 1)
        ]
        a, b = BetaSeries(a_coeffs), BetaSeries(b_coeffs)
        assert series_mul(a, b) == _naive_convolution(a, b, order)


def test_graded_products_of_weight_factors():
    rng = random.Random(7)
    for _ in range(10):
        multipliers = tuple(sorted(rng.randint(-4, 4) for _ in range(rng.randint(1, 5))))
        prod = g_product(multipliers, 6)
        assert prod.is_graded()
        assert prod.coeff(0) == GPoly.one()
