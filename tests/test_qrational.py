"""Quantum values P(q)/(q;q)_m in reduced form, stored in integers.

Polynomials on the test side are tuples of Fraction coefficients, ascending
with trailing zeros stripped, multiplied and divided by the few lines below.
"""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from hurwitz.qrational import (QRat, _cyclotomic, _divide_monic, _int_mul, _totient,
                               q_multinomial)


def poly(coeffs):
    """coeffs as a tuple of Fractions without trailing zeros."""
    out = [Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly(out)


one_minus_q = poly([1, -1])
one_minus_q2 = poly([1, 0, -1])


def pochhammer(m):
    """(q;q)_m as the product of its factors 1 - q^k."""
    out = poly([1])
    for k in range(1, m + 1):
        out = pmul(out, [1] + [0] * (k - 1) + [-1])
    return out


def exact_quotient(p, f):
    """p / f by long division over Q, or None when f does not divide p."""
    rem = list(poly(p))
    f = poly(f)
    top = len(f) - 1
    if len(rem) <= top:
        return None if rem else ()
    quo = [Fraction(0)] * (len(rem) - top)
    for j in range(len(quo) - 1, -1, -1):
        quo[j] = c = rem[j + top] / f[-1]
        for i, x in enumerate(f):
            rem[j + i] -= c * x
    return None if any(rem) else poly(quo)


@lru_cache(maxsize=None)
def cyclotomic(k):
    """Phi_k = (q^k - 1) / prod of Phi_j over the proper divisors j of k."""
    out = poly([-1] + [0] * (k - 1) + [1])
    for j in range(1, k):
        if k % j == 0:
            out = exact_quotient(out, cyclotomic(j))
    return out


def mobius(n):
    """The Moebius function mu(n), by trial division."""
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def q_value(coeffs, m, scalar=1):
    """The QRat coeffs / (scalar * (q;q)_m) for rational coeffs and scalar,
    put over the integers by the lcm of the coefficient denominators."""
    coeffs, scalar = poly(coeffs), Fraction(scalar)
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return QRat.over_pochhammer([int(c * lcm * scalar.denominator) for c in coeffs], m,
                                lcm * scalar.numerator)


def assert_reduced_quotient(got, a, b):
    """got is the reduced form of a / b.

    Cross-multiplied equality, a monic denominator made of Phi_k with
    k <= 24, and no Phi_k dividing both parts fix that form uniquely.
    """
    assert pmul(got.num, b) == pmul(a, got.den)
    assert got.den[-1] == 1 and got.pochhammer_form(24) is not None
    for k in range(1, 25):
        phi = cyclotomic(k)
        shared = (exact_quotient(got.den, phi) is not None
                  and exact_quotient(got.num, phi) is not None)
        assert not shared, (k, got)


def test_degree_sentinel():
    # trailing zeros are stripped, so the zero numerator is empty (degree -1)
    assert len(QRat.over_pochhammer([], 0).num) - 1 == -1
    assert len(QRat.over_pochhammer([0, 0], 2).num) - 1 == -1
    assert len(QRat.over_pochhammer([3, 0], 0).num) - 1 == 0
    assert len(QRat.over_pochhammer([1, 0, -1, 0], 0).num) - 1 == 2
    assert QRat.over_pochhammer([0, 0], 2) == QRat.over_pochhammer([], 0)
    assert QRat.over_pochhammer([], 5).den == (1,)


def test_reduction_on_construction():
    v = QRat.over_pochhammer([1, 0, -1], 1)  # (1-q^2)/(1-q) = 1+q
    assert v.num == (1, 1)
    assert v.den == (1,)


def test_denominator_monic_leading_folded():
    v = QRat.over_pochhammer([1], 1, 2)  # 1/(2-2q) = (-1/2)/(q-1)
    assert v.den == (-1, 1)
    assert v.den[-1] == 1
    assert v.num == (Fraction(-1, 2),)


def test_evaluate():
    v = QRat.over_pochhammer([1], 1)  # 1/(1-q)
    assert v.evaluate(Fraction(1, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        v.evaluate(1)


def test_json_round_trip():
    # (1 + 2/3 q) / (1 - q^2)
    v = QRat.over_pochhammer([3, -1, -2], 2, 3)    # (3 + 2q)(1 - q) / 3
    assert v.den == (-1, 0, 1)
    assert QRat.from_json(v.to_json()) == v
    zero = QRat.over_pochhammer([], 3)
    assert QRat.from_json(zero.to_json()) == zero


@pytest.mark.parametrize("data", [
    {"num": ["1"], "den": []},                 # zero denominator
    {"num": ["1"], "den": ["0"]},
    {"num": ["1"], "den": ["1", "2"]},         # 1/(1+2q): not cyclotomic
    {"num": ["2"], "den": ["-2", "2"]},        # 2/(2q-2): not monic
    {"num": ["1", "1"], "den": ["-1", "0", "1"]},  # (1+q)/(q^2-1): unreduced
    {"num": [], "den": ["-1", "1"]},           # zero over q-1
    {"num": [0.1], "den": ["1"]},              # JSON numbers and booleans
    {"num": [1], "den": ["1"]},
    {"num": ["1"], "den": [True]},
    {"num": ["0.1"], "den": ["1"]},            # strings to_json never writes
    {"num": ["1e3"], "den": ["1"]},
    {"num": ["1/0"], "den": ["1"]},
    {"num": ["1"], "den": ["-1/2", "1/2"]},    # a non-integer denominator
])
def test_from_json_rejects_unreduced_pairs(data):
    with pytest.raises(ValueError):
        QRat.from_json(data)


def test_from_json_rejects_a_large_noncyclotomic_denominator_quickly():
    # a Phi_k whose degree phi(k) exceeds what is left of the denominator
    # is skipped unbuilt, so k running to 2 * 60^2 stays cheap
    rng = random.Random(60)
    den = [str(rng.randint(-9, 9)) for _ in range(60)] + ["1"]
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        QRat.from_json({"num": ["1"], "den": den})
    assert time.perf_counter() - t0 < 0.5


def rebuilt_verdict(data):
    """The reference verdict on a pair of rational strings with an integer
    den: factor den into Phi_k multiplicities, rebuild the value through
    pochhammer_form and over_pochhammer, and accept only a value that comes
    back unchanged."""
    num = poly(Fraction(c) for c in data["num"])
    rest = [int(c) for c in poly(Fraction(c) for c in data["den"])]
    bound = 2 * max(len(rest) - 1, 1) ** 2
    mult = []
    for k in range(1, bound + 1):
        if len(rest) <= 1:
            break
        n = 0
        if _totient(k) < len(rest):
            while (quo := _divide_monic(rest, _cyclotomic(k))) is not None:
                rest, n = quo, n + 1
        mult.append(n)
    if rest != [1]:
        return False
    while mult and not mult[-1]:
        mult.pop()
    scale = math.lcm(*(c.denominator for c in num))
    v = QRat(tuple(int(c * scale) for c in num), scale, tuple(mult))
    form = v.pochhammer_form(bound)
    return form is not None and QRat.over_pochhammer(form[1], form[0], form[2]) == v


def _times_phi(coeffs, k):
    """Rational coefficient strings times Phi_k, as strings."""
    p = [Fraction(c) for c in coeffs]
    scale = math.lcm(*(c.denominator for c in p))
    return [str(Fraction(c, scale))
            for c in _int_mul([int(c * scale) for c in p], _cyclotomic(k))]


def _seeded_pairs(rng, count):
    """count pairs of each of four kinds, each with the value it was made
    from when it is that value's to_json pair."""
    pochhammers = [[int(c) for c in pochhammer(j)] for j in range(4)]

    def value():
        num = [rng.randint(-5, 5) for _ in range(rng.randint(0, 6))]
        num = _int_mul(num, rng.choice(pochhammers))
        return QRat.over_pochhammer(num, rng.randint(0, 8), rng.choice([1, 2, 3, -4, 6, 12]))

    for _ in range(count):
        v = value()
        data = v.to_json()
        yield data, v
        k = rng.randint(1, 10)                  # a common factor
        yield {"num": _times_phi(data["num"], k), "den": _times_phi(data["den"], k)}, None
        den = [rng.randint(-2, 2) for _ in range(rng.randint(1, 6))] + [1]
        yield {"num": value().to_json()["num"], "den": [str(c) for c in den]}, None
        num = [str(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
               for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.5:
            num = _times_phi(num, rng.randint(1, 10))
        yield {"num": num, "den": value().to_json()["den"]}, None


def test_from_json_verdict_matches_the_rebuilt_value():
    # from_json reads the stored multiplicities; the reference rebuilds the
    # value over (q;q)_m and compares, on 10,000 seeded pairs
    rejected = 0
    for data, v in _seeded_pairs(random.Random(28), 2500):
        ok = rebuilt_verdict(data)
        try:
            got = QRat.from_json(data)
        except ValueError:
            assert not ok, data
            rejected += 1
        else:
            assert ok, data
            assert v is None or got == v
    assert 2500 < rejected < 7500, rejected


def test_from_json_accepts_a_single_cyclotomic_denominator_quickly():
    # m = k for 1 / Phi_k: rebuilding the numerator over (q;q)_k, of degree
    # about k^2/2, took seconds; reading the multiplicities takes milliseconds
    data = [{"num": ["1"], "den": [str(c) for c in _cyclotomic(k)]} for k in (89, 113)]
    _cyclotomic.cache_clear()
    t0 = time.perf_counter()
    values = [QRat.from_json(x) for x in data]
    assert time.perf_counter() - t0 < 0.25
    assert [v.den for v in values] == [_cyclotomic(89), _cyclotomic(113)]


def test_q_multinomial():
    # [4 choose 2]_q = (q;q)_4 / (q;q)_2^2
    assert q_multinomial(4, (0, 2)) == [1, 1, 2, 1, 1]
    # lighter exponents leave (q;q)_m / (q;q)_w as a factor:
    # (q;q)_3 / (q;q)_1 = (1-q^2)(1-q^3)
    assert q_multinomial(3, (1,)) == [1, 0, -1, -1, 0, 1]
    assert q_multinomial(0, ()) == [1]
    with pytest.raises(ValueError):
        q_multinomial(2, (1, 1))


def test_over_pochhammer_matches_gcd_reduction():
    # the reduced form that a gcd would give, fixed by assert_reduced_quotient
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(0, 9)
        num = poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 5))])
        # multiples of (q;q)_j factors exercise the cyclotomic cancellation
        num = pmul(num, pochhammer(rng.randint(0, m + 2)))
        got = q_value(num, m)
        assert_reduced_quotient(got, num, pochhammer(m))
        if not got.is_zero():
            k, p, scale = got.pochhammer_form(24)
            assert k <= m and QRat.over_pochhammer(p, k, scale) == got
            # and k is the least such index
            assert all(exact_quotient(pochhammer(j), got.den) is None for j in range(k))


def test_fields_are_a_normal_form():
    # the same value from any integer representative has the same fields
    rng = random.Random(18)
    for _ in range(40):
        m = rng.randint(0, 7)
        num = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        num = [int(c) for c in pmul(num, pochhammer(rng.randint(0, m + 1)))]
        scale = rng.choice([1, 2, 3, 4, 6, -5])
        v = QRat.over_pochhammer(num, m, scale)
        for k in (2, 3, -7):
            for w in (QRat.over_pochhammer([k * c for c in num], m, k * scale),
                      QRat.over_pochhammer([-c for c in num], m, -scale)):
                assert (w.num, w.den) == (v.num, v.den) and w == v
                assert hash(w) == hash(v) and w.to_json() == v.to_json()
        assert v.num == tuple(q_value([Fraction(c, scale) for c in num], m).num)
    assert QRat.over_pochhammer([0, 0], 4, -3).to_json() == {"num": [], "den": ["1"]}
    with pytest.raises(ZeroDivisionError):
        QRat.over_pochhammer([1], 1, 0)


def test_cyclotomic_matches_the_mobius_product():
    # Phi_k = -(1 - q) for k = 1 and prod_{d | k} (1 - q^d)^mu(k/d) above,
    # a reference independent of the division recursion that builds Phi_k
    for k in range(1, 61):
        top, bottom = poly([1]), poly([1])
        for d in range(1, k + 1):
            if k % d == 0 and mobius(k // d):
                factor = poly([1] + [0] * (d - 1) + [-1])
                if mobius(k // d) == 1:
                    top = pmul(top, factor)
                else:
                    bottom = pmul(bottom, factor)
        want = exact_quotient(top, bottom)
        if k == 1:
            want = pmul(want, [-1])
        assert _cyclotomic(k) == want, k
        assert len(_cyclotomic(k)) - 1 == _totient(k), k
