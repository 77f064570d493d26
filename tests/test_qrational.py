"""QPoly / QRat exact field arithmetic."""

import random
from fractions import Fraction

import pytest

from hurwitz.qrational import QPoly, QRat, q_multinomial, qpoly_gcd, qq_pochhammer

one_minus_q = QPoly([1, -1])
one_minus_q2 = QPoly([1, 0, -1])


def test_degree_sentinel():
    assert QPoly().degree() == -1
    assert QPoly([0, 0]).degree() == -1
    assert QPoly([3]).degree() == 0
    assert one_minus_q2.degree() == 2


def test_divmod_exact():
    q, r = one_minus_q2.divmod(one_minus_q)
    assert r.is_zero()
    assert q == QPoly([1, 1])


def test_gcd_monic():
    # both arguments are multiples of 1 - q^2; the gcd comes back monic
    g = qpoly_gcd(one_minus_q2 * QPoly([2]), one_minus_q * QPoly([3, 3]))
    assert g == QPoly([-1, 0, 1])
    assert g.leading() == 1


def test_reduction_on_construction():
    v = QRat(one_minus_q2, one_minus_q)
    assert v == QRat(QPoly([1, 1]))  # (1-q^2)/(1-q) = 1+q
    assert v.is_polynomial()


def test_denominator_monic_leading_folded():
    v = QRat(QPoly([1]), QPoly([2, -2]))  # 1/(2-2q) = (-1/2)/(q-1)
    assert v.den == QPoly([-1, 1])
    assert v.den.leading() == 1
    assert v.num == QPoly([Fraction(-1, 2)])


def test_field_inverse():
    v = QRat(QPoly([1]), one_minus_q)
    assert v * v.inverse() == QRat.const(1)
    assert v * QRat.from_poly(one_minus_q) == QRat.const(1)


def test_addition():
    v = QRat(QPoly([1]), one_minus_q)
    assert v + v == QRat(QPoly([2]), one_minus_q)


def test_reduction_idempotent():
    v = QRat(QPoly([3, 1, 2]), QPoly([1, 0, 0, 5]))
    again = QRat(v.num, v.den)
    assert again.num == v.num and again.den == v.den


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        QRat.const(0).inverse()
    with pytest.raises(ZeroDivisionError):
        QRat(QPoly([1]), QPoly())


def test_cross_multiplication_equality():
    a = QRat(QPoly([1, 1]), QPoly([1, 0, 0, -1]))
    b = QRat(QPoly([2, 2]), QPoly([2, 0, 0, -2]))
    assert a == b
    assert a.num * b.den == b.num * a.den


def test_evaluate():
    v = QRat(QPoly([1]), one_minus_q)
    assert v.evaluate(Fraction(1, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        v.evaluate(1)


def test_json_round_trip():
    v = QRat(QPoly([1, Fraction(2, 3)]), QPoly([1, 0, -1]))
    assert QRat.from_json(v.to_json()) == v


def test_q_multinomial():
    # [4 choose 2]_q = (q;q)_4 / (q;q)_2^2
    assert q_multinomial(4, (0, 2)) == [1, 1, 2, 1, 1]
    # lighter exponents leave (q;q)_m / (q;q)_w as a factor
    assert QPoly(q_multinomial(3, (1,))) == qq_pochhammer(3).divmod(qq_pochhammer(1))[0]
    assert q_multinomial(0, ()) == [1]
    with pytest.raises(ValueError):
        q_multinomial(2, (1, 1))


def test_over_pochhammer_matches_gcd_reduction():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(0, 9)
        num = QPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(rng.randint(1, 5))])
        # multiples of (q;q)_j factors exercise the cyclotomic cancellation
        num = num * qq_pochhammer(rng.randint(0, m + 2))
        got = QRat.over_pochhammer(num, m)
        want = QRat(num, qq_pochhammer(m))
        assert (got.num, got.den) == (want.num, want.den)
        if not got.is_zero():
            k, poly = got.pochhammer_form(24)
            assert k <= m and QRat.over_pochhammer(poly, k) == got
