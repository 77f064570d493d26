"""GPoly arithmetic, grading, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz.algebra import GPoly, monomial_weight

g1 = GPoly.var(1)
g2 = GPoly.var(2)
g3 = GPoly.var(3)
g5 = GPoly.var(5)
half = Fraction(1, 2)


def test_add_inverse():
    assert g1 + (-g1) == GPoly.zero()
    assert not (g1 - g1)


def test_add_two_terms():
    s = g1 + g2
    assert len(s.terms) == 2
    assert s.terms[(1,)] == 1 and s.terms[(0, 1)] == 1


def test_add_merges_coefficients():
    assert g1.scale(half) + g1.scale(half) == g1


def test_mul_weighted_degree():
    p = g1 * g2
    assert p.weighted_degree() == 3
    assert (g1 + g2).weighted_degree() == 2
    assert ((g1 + g2) * g1) == g1 * g1 + g1 * g2


def test_mul_zero():
    assert GPoly.zero() * g5 == GPoly.zero()
    assert (g5 * GPoly.zero()).is_zero()


def test_weighted_degree_additive_on_products():
    a = g1 * g1 + g3
    b = g2 + g1 * g1
    assert (a * b).weighted_degree() == a.weighted_degree() + b.weighted_degree()


def test_zero_degree_sentinel():
    assert GPoly.zero().weighted_degree() == -1
    assert GPoly.one().weighted_degree() == 0


def test_homogeneity_check():
    assert (g1 * g2 + g3).is_homogeneous(3)
    assert not (g1 + g2).is_homogeneous(1)
    assert GPoly.zero().is_homogeneous(17)


def test_canonical_order():
    # ascending weighted degree, then lex on exponents read from g_1 upward
    p = g3 + g1 * g2 + g1
    exps = [e for e, _ in p.canonical_terms()]
    assert exps == [(1,), (0, 0, 1), (1, 1)]
    assert monomial_weight((1, 1)) == 3


def test_str_canonical():
    assert str(g1 * g2 + g3.scale(Fraction(3, 2))) == "3/2*g3 + g1*g2"
    assert str(GPoly.zero()) == "0"
    assert str(-g1) == "-g1"


def test_json_round_trip():
    p = g1.scale(Fraction(-7, 3)) * g2 + g5.scale(10 ** 40)
    data = p.to_json()
    assert data[0]["exp"] == {"1": 1, "2": 1}
    assert GPoly.from_json(data) == p
    q = g1 * g2 + g3.scale(half)
    assert GPoly.from_json(q.to_json(), degree=3) == q
    assert GPoly.from_json([], degree=7) == GPoly.zero()
    with pytest.raises(ValueError):
        GPoly.from_json(data, degree=3)   # the g5 term has degree 5


def _term(exp, num="1", den="1"):
    return {"exp": exp, "num": num, "den": den}


@pytest.mark.parametrize("data", [
    [_term({"0": 1})],                        # index below 1
    [_term({"-2": 1})],
    [_term({"1": -1})],                       # power below 1
    [_term({"1": 0})],
    [_term({"1": 1, "01": 1})],               # one index written twice
    [_term({"1": 1}), _term({"1": 1}, "2")],  # repeated monomial
    [_term({"1": 2, "2": 1}), _term({"2": 1, "1": 2})],
    [_term({"1": 1}, den="0")],               # zero denominator
    [_term({"1": 1}, num=1.7, den=True)],     # JSON numbers and booleans
    [_term({"1": 1}, num=1)],
    [_term({"1": 1}, den=1)],
    [_term({"1": 1}, num="1.5")],             # strings that are not integers
    [_term({"1": 1}, num=" 1")],
    [_term({"1": 1}, den="1_0")],
    [_term({"1": True})],                     # a boolean power
    [_term({"1": 1.0})],
])
def test_from_json_rejects_malformed_terms(data):
    with pytest.raises(ValueError):
        GPoly.from_json(data)


coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=9
).filter(lambda f: f != 0)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(GPoly)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * GPoly.one() == a
    assert a + GPoly.zero() == a


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_hash_consistent_with_eq(a, b):
    if a == b:
        assert hash(a) == hash(b)
