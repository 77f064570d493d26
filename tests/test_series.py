"""Power-sum coordinates of weight-factor products against hand and naive sums."""

import math
import random
from fractions import Fraction

from hurwitz.algebra import GPoly
from hurwitz.partitions import partitions_of
from hurwitz.series import b_power, b_terms, power_products, rhos, to_gpoly

g = GPoly.var


def _coeff(multipliers: tuple[int, ...], k: int) -> GPoly:
    """[beta^k] prod_i G(m_i beta) through the power-sum identity."""
    p = [sum(m ** j for m in multipliers) for j in range(1, k + 1)]
    return to_gpoly(power_products(p, k), k)


def test_product_example_g1_g2beta():
    # beta^3 of G(beta) * G(2 beta): hand convolution of the four cross terms
    assert _coeff((1, 2), 3) == g(1) * g(2) * 6 + g(3) * 9


def test_unit_identity():
    # G(0 * beta) = 1: a zero multiplier changes nothing
    for k in range(6):
        assert _coeff((0, 3), k) == _coeff((3,), k)
        assert _coeff((-2, 0, 1), k) == _coeff((-2, 1), k)


def test_opposite_arguments_cancel_linear_term():
    assert _coeff((-1, 1), 1).is_zero()


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
    # [beta^d] prod G(m_i beta) = sum over rho |- d of b^rho p_rho(m) / z_rho
    rng = random.Random(42)
    for _ in range(12):
        multipliers = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
        for k in range(9):
            assert _coeff(multipliers, k) == _naive_coeff(multipliers, k), (multipliers, k)


def test_graded_products_of_weight_factors():
    rng = random.Random(7)
    for _ in range(10):
        multipliers = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 5)))
        assert _coeff(multipliers, 0) == GPoly.one()
        for k in range(7):
            assert _coeff(multipliers, k).is_homogeneous(k)


def _naive_log_coeffs(order: int) -> list[GPoly]:
    """[z^k] log G(z) for k = 0..order, from log(1 + X) = sum_j (-1)^(j+1) X^j / j."""
    x = [GPoly.zero()] + [g(k) for k in range(1, order + 1)]
    power = [GPoly.one()] + [GPoly.zero()] * order
    out = [GPoly.zero()] * (order + 1)
    for j in range(1, order + 1):
        power = [sum((power[i] * x[k - i] for i in range(k + 1)), GPoly.zero())
                 for k in range(order + 1)]
        out = [o + c.scale(Fraction((-1) ** (j + 1), j)) for o, c in zip(out, power)]
    return out


def _in_g(pairs) -> GPoly:
    """sum of c * g_nu over (nu, c) pairs."""
    return sum((math.prod((g(k) for k in nu), start=GPoly.const(c)) for nu, c in pairs),
               GPoly.zero())


def test_newton_b_matches_log_coefficients():
    logs = _naive_log_coeffs(7)
    for k in range(1, 8):
        assert _in_g(b_terms(k).items()) == logs[k].scale(k), k


def test_power_products_and_b_power_follow_rho():
    for d in range(9):
        assert rhos(d) == tuple(partitions_of(d))
        rng = random.Random(d)
        p = [rng.randint(-9, 9) for _ in range(d)]
        assert power_products(p, d) == [math.prod(p[k - 1] for k in rho) for rho in rhos(d)]
        for rho in rhos(d):
            want = math.prod((_in_g(b_terms(k).items()) for k in rho), start=GPoly.one())
            assert _in_g((rhos(d)[j], c) for j, c in b_power(rho)) == want, rho
