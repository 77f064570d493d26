"""Partition combinatorics, characters, symmetric-function evaluators."""

import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from hurwitz import partitions
from hurwitz.partitions import (
    PARTITION_CAP,
    CapExceeded,
    as_partition,
    aut_of,
    character,
    colength,
    conjugate,
    contents,
    format_partition,
    hook_product,
    parse_partition,
    partitions_of,
    sym_eval,
    z_of,
)


def test_partitions_of_small():
    assert partitions_of(0) == [()]
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(6)) == 11


def test_partitions_cap():
    assert len(partitions_of(PARTITION_CAP)) == 5604
    message = rf"partitions_of\({PARTITION_CAP + 1}\) exceeds cap {PARTITION_CAP}"
    with pytest.raises(CapExceeded, match=message):
        partitions_of(PARTITION_CAP + 1)


def test_partition_strings():
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("") == ()
    assert format_partition((3, 2, 1)) == "3,2,1"
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("2,x")


def test_z_of():
    assert z_of((2,)) == 2
    assert z_of((2, 1)) == 2
    assert z_of((1, 1, 1)) == 6
    # prod_i i^{m_i} m_i!, counted from the multiplicities
    for n in range(PARTITION_CAP + 1):
        for mu in partitions_of(n):
            want = math.prod(i ** mu.count(i) * math.factorial(mu.count(i)) for i in set(mu))
            assert z_of(mu) == want


def test_aut_of():
    assert aut_of((2, 1)) == 1
    assert aut_of((2, 2)) == 2
    assert aut_of((1, 1, 1)) == 6
    assert aut_of((1, 2, 1)) == 2  # compositions are sorted first


def test_hook_product():
    assert hook_product((2,)) == 2
    assert hook_product((2, 1)) == 3
    assert hook_product((3,)) == 6


def test_hook_product_transpose_invariant():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert hook_product(lam) == hook_product(conjugate(lam))


def test_contents():
    assert contents((2,)) == [0, 1]
    assert contents((1, 1)) == [0, -1]
    assert contents((2, 1)) == [0, 1, -1]


def test_contents_conjugate_negated():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert len(contents(lam)) == n
            assert sorted(contents(lam)) == sorted(-c for c in contents(conjugate(lam)))


def test_character_small():
    assert character((2,), (2,)) == 1
    assert character((1, 1), (2,)) == -1
    assert character((2, 1), (2, 1)) == 0


def test_character_weight_mismatch():
    with pytest.raises(ValueError, match="weight mismatch"):
        character((2,), (3,))


def test_character_column_orthogonality():
    # sum over lambda of chi_lambda(mu)^2 = z_mu
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert sum(character(lam, mu) ** 2 for lam in partitions_of(n)) == z_of(mu)
    # a repeated character is one hit on the Murnaghan-Nakayama cache
    hits = partitions._mn.cache_info().hits
    assert character((3, 2, 1), (2, 2, 1, 1)) == 0
    assert partitions._mn.cache_info().hits == hits + 1


def test_character_dimension_from_hooks():
    import math

    for n in range(1, 8):
        for lam in partitions_of(n):
            assert character(lam, (1,) * n) == math.factorial(n) // hook_product(lam)


def test_sym_eval_examples():
    pts = (Fraction(1), Fraction(2))
    assert sym_eval("m", (2, 1), pts) == 6  # c1^2 c2 + c2^2 c1 at (1, 2)
    assert sym_eval("m", (1, 1, 1), pts) == 0  # needs three points
    with pytest.raises(ValueError):
        sym_eval("x", 2, pts)


def test_forgotten_small():
    # f at one point d1: f_(2)((x,)) = -x^2, f_(1,1)((x,)) = x^2
    x = Fraction(2, 3)
    assert sym_eval("f", (2,), (x,)) == -(x ** 2)
    assert sym_eval("f", (1, 1), (x,)) == x ** 2


def naive_e(i, points):
    """e_i at the points, summed over i-subsets: the brute-force reference
    for the rational weight models."""
    return sum((math.prod(combo) for combo in combinations(points, i)), Fraction(0))


def naive_h(i, points):
    """h_i at the points, summed over i-multisets."""
    return sum((math.prod(combo) for combo in combinations_with_replacement(points, i)),
               Fraction(0))


def _series_elementary(points, order):
    # coefficients of prod (1 + c z), truncated
    out = [Fraction(1)] + [Fraction(0)] * order
    for c in points:
        for i in range(order, 0, -1):
            out[i] += c * out[i - 1]
    return out


def _series_complete(points, order):
    # coefficients of prod 1/(1 - c z), truncated geometric expansion
    out = [Fraction(1)] + [Fraction(0)] * order
    for c in points:
        new = [Fraction(0)] * (order + 1)
        for i in range(order + 1):
            new[i] = out[i] + (new[i - 1] * c if i else Fraction(0))
        out = new
    return out


def test_e_h_against_generating_products():
    pts = (Fraction(1), Fraction(2))
    assert naive_e(2, pts) == 2
    assert naive_h(2, (Fraction(3),)) == 9
    assert naive_e(3, pts) == 0
    assert naive_e(0, ()) == naive_h(0, ()) == 1
    assert naive_h(1, ()) == 0
    rng = random.Random(11)
    for _ in range(4):
        pts = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5))
        es = _series_elementary(pts, 6)
        hs = _series_complete(pts, 6)
        for i in range(7):
            assert naive_e(i, pts) == es[i]
            assert naive_h(i, pts) == hs[i]


def test_as_partition_sorts_and_validates():
    assert as_partition([1, 3, 2]) == (3, 2, 1)
    assert colength((3, 2, 1)) == 3
    with pytest.raises(ValueError):
        as_partition([0, 1])
