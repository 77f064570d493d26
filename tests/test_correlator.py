"""Rho grid, closed forms, the direct expansion, and cumulant assembly."""

import itertools
import random
from fractions import Fraction

import pytest

from hurwitz import series
from hurwitz.algebra import GPoly
from hurwitz.correlator import (
    _cycle_sum,
    _factor,
    connected_closed_form,
    connected_via_wtilde,
    nonconnected_assemble,
    rho_coeff,
    wtilde_coeff,
)
from hurwitz.partitions import partitions_of
from hurwitz.series import b_terms
from hurwitz.tau import connected_any, hurwitz_any

g = GPoly.var
half = Fraction(1, 2)


def test_rho_published_values():
    assert rho_coeff(0, 1, 1) == g(1).scale(half)
    assert rho_coeff(0, 1, 2) == g(2).scale(-half)
    assert rho_coeff(0, 0, 0) == GPoly.one()
    for d in range(1, 6):
        assert rho_coeff(0, 0, d).is_zero()


def test_rho_0_2_symmetry_forced_value():
    # the published grid shows the opposite sign on the g3 term; the value
    # is forced by the transpose symmetry and by direct convolution
    want = -g(1) * g(2) - g(3).scale(Fraction(3, 2))
    assert rho_coeff(0, 2, 3) == want
    assert rho_coeff(2, 0, 3) == g(1) * g(2) + g(3).scale(Fraction(3, 2))


def test_rho_symmetry_and_homogeneity_grid():
    for a in range(6):
        for b in range(6):
            for d in range(7):
                coeff = rho_coeff(a, b, d)
                assert coeff.is_homogeneous(d)
                assert coeff == rho_coeff(b, a, d).scale((-1) ** (a + b + d))


def _naive_convolution(left, right, d):
    # [beta^d] of the product of two series given by their coefficients
    acc = GPoly.zero()
    for k in range(d + 1):
        acc = acc + left(k) * right(d - k)
    return acc


def _product(*factors, d):
    """[beta^d] prod_i rho_{a_i b_i} through the cycle-sum accumulator."""
    return _cycle_sum(sum(a + b + 1 for a, b in factors), d, [(1, factors)])


def test_rho_pair_matches_naive_convolution():
    indices = list(itertools.product(range(5), repeat=2))
    for (a1, b1), (a2, b2) in itertools.product(indices, repeat=2):
        for d in range(9):
            want = _naive_convolution(lambda k: rho_coeff(a1, b1, k),
                                      lambda k: rho_coeff(a2, b2, k), d)
            assert _product((a1, b1), (a2, b2), d=d) == want, (a1, b1, a2, b2, d)


def test_rho_triple_matches_naive_convolution():
    rng = random.Random(9)
    for _ in range(120):
        a1, b1, a2, b2, a3, b3 = (rng.randint(0, 4) for _ in range(6))
        for d in range(9):
            want = _naive_convolution(
                lambda k: _naive_convolution(lambda j: rho_coeff(a1, b1, j),
                                             lambda j: rho_coeff(a2, b2, j), k),
                lambda k: rho_coeff(a3, b3, k), d)
            assert _product((a1, b1), (a2, b2), (a3, b3), d=d) == want, \
                (a1, b1, a2, b2, a3, b3, d)


def test_connected_len1():
    assert connected_closed_form((2,), 1) == g(1).scale(half)
    assert connected_closed_form((2,), 3) == g(3).scale(half)
    assert connected_closed_form((1,), 0) == GPoly.one()


def test_connected_len2():
    assert connected_closed_form((2, 1), 3) == g(1) * g(2) + g(3)
    want_22 = (g(1) * g(1) * g(2)).scale(half) + (g(2) * g(2)).scale(Fraction(1, 4)) \
        + g(1) * g(3) + g(4).scale(half)
    assert connected_closed_form((2, 2), 4) == want_22
    assert connected_closed_form((1, 1), 0).is_zero()


def test_connected_len3():
    want = (g(2) ** 2 + g(1) * g(3) + g(4).scale(2)).scale(Fraction(1, 3))
    assert connected_closed_form((1, 1, 1), 4) == want
    want_211 = (g(1) ** 2 * g(3) * 2 + g(2) * g(3) * 7
                + g(1) * (g(2) ** 2 * 3 + g(4) * 7) + g(5) * 5).scale(half)
    assert connected_closed_form((2, 1, 1), 5) == want_211
    assert connected_closed_form((1, 1, 1), 3).is_zero()  # parity


def test_nonconnected_assemble():
    assert nonconnected_assemble((2, 1), 3) == g(1) * g(2) + g(3).scale(Fraction(3, 2))
    # single part: nonconnected equals connected
    assert nonconnected_assemble((2,), 3) == connected_closed_form((2,), 3)
    # two equal parts at low order: only the split contributes
    assert nonconnected_assemble((2, 2), 2) == (g(1) ** 2).scale(Fraction(1, 8))
    # the closed forms cover lengths 1..3 only, and parts >= 1
    for mu in [(), (1, 1, 1, 1), (2, 0)]:
        for value in (connected_closed_form, nonconnected_assemble):
            with pytest.raises(ValueError):
                value(mu, 3)


def test_nonconnected_matches_character_pipeline():
    # every profile of length <= 3 and weight <= 7, equal-part blocks such
    # as (3, 3, 1) and (2, 2, 2) included
    for n in range(1, 8):
        for mu in partitions_of(n):
            if len(mu) <= 3:
                for d in range(11):
                    assert nonconnected_assemble(mu, d) == hurwitz_any(mu, d), (mu, d)


def test_wtilde_n1_matches_len1():
    for mu1 in (1, 2, 3, 4):
        for d in range(5):
            assert wtilde_coeff((mu1 - 1,), d) == connected_closed_form((mu1,), d).scale(mu1)


def test_wtilde_n2_example():
    assert wtilde_coeff((1, 0), 3) == (g(1) * g(2) + g(3)).scale(2)
    # no constant term: the kernel cancellation is exact
    assert wtilde_coeff((0, 0), 0).is_zero()


def test_wtilde_agrees_with_moebius_inversion():
    long_profiles = [mu for n in range(4, 8) for mu in partitions_of(n) if len(mu) in (4, 5)]
    for mu in [(2, 1), (2, 2), (3, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1)]:
        for d in range(6):
            assert connected_via_wtilde(mu, d) == connected_any(mu, d)
    for mu in long_profiles:
        for d in range(9):
            assert connected_via_wtilde(mu, d) == connected_any(mu, d), (mu, d)


def test_wtilde_rejects_negative_exponent():
    with pytest.raises(ValueError):
        wtilde_coeff((1, -1), 3)
    with pytest.raises(ValueError):
        wtilde_coeff((), 3)


def test_value_caches_key_on_the_sorted_profile():
    for value in (connected_closed_form, nonconnected_assemble):
        want = value((3, 1), 6)
        entries = value.cache_info().currsize
        assert value([3, 1], 6) == value((1, 3), 6) == want
        assert value.cache_info().currsize == entries


def test_sweep_orders_agree_with_tau_in_any_question_order():
    # the orders the sweep benchmark reaches, asked high-to-low on cold
    # coefficient caches and then low-to-high: cached lower coefficients
    # must be the same whichever order filled them; the value caches are
    # emptied before each pass, so every value is computed again
    for cache in (b_terms, rho_coeff, _factor):
        cache.cache_clear()
    for orders in (range(12, 7, -1), range(8, 13)):
        connected_closed_form.cache_clear()
        nonconnected_assemble.cache_clear()
        for mu in [(9,), (4, 4), (5, 1, 1)]:
            for d in orders:
                assert connected_closed_form(mu, d) == connected_any(mu, d), (mu, d)
                assert nonconnected_assemble(mu, d) == hurwitz_any(mu, d), (mu, d)


def test_cycle_sum_expands_each_power_sum_vector_once(monkeypatch):
    # factor tuples that permute one multiset share their power sums, so
    # the cycle sum walks that vector once; weights that cancel walk none
    terms = [(1, ((0, 1), (1, 0), (2, 2))), (2, ((1, 0), (2, 2), (0, 1))),
             (1, ((2, 2), (0, 1), (1, 0))), (3, ((4, 4),)), (-3, ((4, 4),))]
    want = sum(((rho_coeff(0, 1, k) * rho_coeff(1, 0, j) * rho_coeff(2, 2, 6 - k - j)).scale(4)
                for k in range(7) for j in range(7 - k)), GPoly.zero())
    walk = series._trie_walk
    calls = []

    def counted(n, top, prods, cols, *rest):
        if n == len(cols):              # the entry of a walk over rho |- n
            calls.append(list(zip(*cols)))
        return walk(n, top, prods, cols, *rest)

    monkeypatch.setattr(series, "_trie_walk", counted)
    assert _cycle_sum(9, 6, terms) == want
    assert [len(vectors) for vectors in calls] == [1]
    calls.clear()
    assert connected_closed_form((3, 3, 3), 10)
    vectors = [s for entry in calls for s in entry]
    assert calls and len(vectors) == len(set(vectors)), len(vectors) - len(set(vectors))
