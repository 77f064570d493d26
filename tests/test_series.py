"""Taylor coefficients of weight-factor products against hand and naive sums."""

import math
import random

from hurwitz.algebra import GPoly
from hurwitz.series import g_coeff

g = GPoly.var


def test_product_example_g1_g2beta():
    # beta^3 of G(beta) * G(2 beta): hand convolution of the four cross terms
    assert g_coeff((1, 2), 3) == g(1) * g(2) * 6 + g(3) * 9


def test_unit_identity():
    # G(0 * beta) = 1: a zero multiplier changes nothing
    for k in range(6):
        assert g_coeff((0, 3), k) == g_coeff((3,), k)
        assert g_coeff((-2, 0, 1), k) == g_coeff((-2, 1), k)


def test_opposite_arguments_cancel_linear_term():
    assert g_coeff((-1, 1), 1).is_zero()


def _compositions(k: int, parts: int):
    """Tuples of `parts` nonnegative integers summing to k."""
    if parts == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, parts - 1):
            yield (first,) + rest


def _naive_coeff(multipliers: tuple[int, ...], k: int) -> GPoly:
    # sum over j_1 + ... + j_n = k of prod_i m_i^{j_i} g_{j_i}, with g_0 = 1
    acc = GPoly.zero()
    for js in _compositions(k, len(multipliers)):
        term = GPoly.one().scale(math.prod(m ** j for m, j in zip(multipliers, js)))
        for j in js:
            if j:
                term = term * g(j)
        acc = acc + term
    return acc


def test_coeff_matches_naive_composition_sum():
    rng = random.Random(42)
    for _ in range(12):
        multipliers = tuple(sorted(rng.randint(-4, 4) for _ in range(rng.randint(1, 4))))
        for k in range(7):
            assert g_coeff(multipliers, k) == _naive_coeff(multipliers, k), (multipliers, k)


def test_graded_products_of_weight_factors():
    rng = random.Random(7)
    for _ in range(10):
        multipliers = tuple(sorted(rng.randint(-4, 4) for _ in range(rng.randint(1, 5))))
        assert g_coeff(multipliers, 0) == GPoly.one()
        for k in range(7):
            assert g_coeff(multipliers, k).is_homogeneous(k)
