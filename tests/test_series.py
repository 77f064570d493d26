"""Power-sum coordinates of weight-factor products against hand and naive sums."""

import math
import random
from fractions import Fraction

import pytest

from hurwitz import correlator, series, tau
from hurwitz.algebra import GPoly
from hurwitz.partitions import PARTITION_CAP, CapExceeded, partitions_of, z_of
from hurwitz.series import b_terms, exponent, power_sum_total

g = GPoly.var


def _power_sums(multipliers: tuple[int, ...], k: int) -> list[int]:
    return [sum(m ** j for m in multipliers) for j in range(1, k + 1)]


def _coeff(multipliers: tuple[int, ...], k: int) -> GPoly:
    """[beta^k] prod_i G(m_i beta) through the power-sum identity."""
    return power_sum_total([(1, _power_sums(multipliers, k))], k)


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


def _b(k: int) -> GPoly:
    """b_k in g, decoded from its monomial codes."""
    return GPoly({exponent(code): c for code, c in b_terms(k).items()})


def test_newton_b_matches_log_coefficients():
    logs = _naive_log_coeffs(7)
    for k in range(1, 8):
        assert _b(k) == logs[k].scale(k), k


def _naive_total(pairs, d: int, den: int = 1) -> GPoly:
    """sum over (w, s) and rho |- d of w p_rho(s) b^rho / z_rho, divided by den."""
    b = [GPoly.one()] + [_b(k) for k in range(1, d + 1)]
    acc = GPoly.zero()
    for w, s in pairs:
        for rho in partitions_of(d):
            x = Fraction(w * math.prod(s[k - 1] for k in rho), z_of(rho) * den)
            acc = acc + math.prod((b[k] for k in rho), start=GPoly.const(x))
    return acc


def test_power_sum_total_matches_the_sum_over_rho():
    # dense, mostly zero and zero power-sum vectors, one walk each
    for d in range(10):
        rng = random.Random(d)
        for s in ([rng.randint(-9, 9) for _ in range(d)],
                  [rng.randint(-9, 9) if rng.random() < 0.2 else 0 for _ in range(d)],
                  [0] * d):
            w = rng.randint(-5, 5) or 1
            assert power_sum_total([(w, s)], d, 3) == _naive_total([(w, s)], d, 3), (d, s)


def test_power_sum_total_sums_its_terms():
    # repeated vectors, zero weights and weights that cancel to 0, against
    # the sum over rho of every pair
    rng = random.Random(17)
    for d in range(9):
        vectors = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(4)]
        pairs = [(rng.choice((0, rng.randint(-5, 5))), rng.choice(vectors)) for _ in range(10)]
        pairs += [(7, vectors[0]), (-7, vectors[0])]
        assert power_sum_total(pairs, d, 5) == _naive_total(pairs, d, 5), (d, pairs)
        assert power_sum_total([(3, vectors[1]), (-3, vectors[1])], d).is_zero()


def test_power_sum_total_edge_cases_match_composition_sum():
    # (weight, multipliers) lists against sum of w [beta^d] prod G(m_i beta) / den
    # through the composition sum
    def check(pairs, d, den):
        want = sum((_naive_coeff(m, d).scale(w) for w, m in pairs), GPoly.zero())
        got = power_sum_total([(w, _power_sums(m, d)) for w, m in pairs], d, den)
        assert got == want.scale(Fraction(1, den)), (pairs, d, den)

    # d = 0 is the constant sum of the weights over den
    check([(3, (1, 2)), (-5, (4,)), (4, (-3, -3))], 0, 7)
    assert power_sum_total([(3, ()), (4, ())], 0, 2) == GPoly.const(Fraction(7, 2))
    for d in range(11):
        check([], d, 1)
        check([(2, (1, -3)), (-2, (-3, 1)), (5, (2,)), (-5, (2,))], d, 3)
        # odd power sums of symmetric multipliers vanish
        check([(1, (-2, -1, 0, 1, 2))], d, 1)
        check([(3, (-1, -4)), (-2, (-2, -2, -3)), (1, (-5,))], d, 2)


def test_series_state_stays_bounded():
    # the walk keeps no table per rho and forms d!/z_rho on the way down:
    # series holds one cache, b_terms, with at most one entry per part
    caches = {name: f for name, f in vars(series).items()
              if hasattr(f, "cache_info") and f.__module__ == series.__name__}
    assert len(caches) == 1, sorted(caches)
    for cache in caches.values():
        cache.cache_clear()
    d = 20
    rng = random.Random(d)
    pairs = [(rng.randint(-9, 9) or 1, [rng.randint(-9, 9) for _ in range(d)]) for _ in range(3)]
    assert power_sum_total(pairs, d).is_homogeneous(d)
    assert all(f.cache_info().currsize <= d + 1 for f in caches.values()), \
        {name: f.cache_info().currsize for name, f in caches.items()}


def test_power_sum_total_guards_the_ceiling():
    # a monomial code keeps each multiplicity in one byte, so the walk
    # refuses d above PARTITION_CAP itself, whichever pipeline calls it
    d = PARTITION_CAP + 1
    with pytest.raises(CapExceeded):
        power_sum_total([(1, (1,) * d)], d)
    with pytest.raises(CapExceeded):
        tau.hurwitz_any((2,), d)
    with pytest.raises(CapExceeded):
        correlator.rho_coeff(0, 0, d)
    with pytest.raises(ValueError):
        power_sum_total([], -1)
    assert power_sum_total([(1, (0,) * PARTITION_CAP)], PARTITION_CAP).is_zero()


def test_pipelines_keep_no_vector_over_rho():
    # tau keeps only its two value caches, and a correlator factor keeps d
    # power sums, not one product per rho |- d
    d = 20
    tau.hurwitz_any((4, 3, 3), d)
    correlator.connected_closed_form((5, 4, 4), d)
    caches = {name for name, f in vars(tau).items()
              if hasattr(f, "cache_info") and f.__module__ == tau.__name__}
    assert caches == {"hurwitz_any", "connected_any"}, caches
    for a in range(13):
        for b in range(13 - a):
            den, s = correlator._factor(a, b, d)
            assert len(s) == d and all(type(x) is int for x in (den, *s)), (a, b)
