"""GPoly arithmetic, grading, serialization."""

import math
from fractions import Fraction
from itertools import zip_longest

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


def test_constant_hashes_as_its_number():
    for p, x in ((GPoly.one(), 1), (GPoly.zero(), 0), (GPoly.const(Fraction(-3, 4)), Fraction(-3, 4)),
                 (g1 - g1 + 5, 5)):
        assert p == x and hash(p) == hash(x)
        assert len({p, x}) == 1
    assert len({GPoly.one(), 1, Fraction(1), GPoly.zero(), 0}) == 2


def test_equal_values_built_three_ways_hash_equal():
    e = (0, 1)
    ways = [GPoly({e: Fraction(2, 4)}), GPoly.from_int_terms({e: 3}, 6), GPoly.var(2) / 2]
    assert ways[0] == ways[1] == ways[2]
    assert len({hash(p) for p in ways}) == 1
    assert ways[0].int_terms() == ({e: 1}, 2)


# -- the normal form against a naive dict-of-Fraction reference ---------


def _strip(e):
    e = tuple(e)
    while e and not e[-1]:
        e = e[:-1]
    return e


def _ref(terms):
    """{stripped exponent: nonzero Fraction}, summing repeated keys."""
    out = {}
    for e, c in terms.items():
        out[_strip(e)] = out.get(_strip(e), 0) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _ref(out)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = _strip(x + y for x, y in zip_longest(e1, e2, fillvalue=0))
            out[e] = out.get(e, 0) + c1 * c2
    return _ref(out)


def _ref_pow(a, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def assert_normal(p):
    nums, den = p.int_terms()
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in nums.values())
    assert all(not e or e[-1] for e in nums)
    assert math.gcd(den, *nums.values()) == 1


raw_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)   # zeros too
raw_terms = st.dictionaries(exponents, raw_coeffs, max_size=4)
# integer numerators over a denominator, of either sign, they are not reduced by
int_terms = st.tuples(st.dictionaries(exponents.map(_strip), st.integers(-6, 6), max_size=4),
                      st.integers(-12, 12).filter(bool))


@st.composite
def built(draw):
    """(GPoly, reference) built through the constructor or from_int_terms."""
    if draw(st.booleans()):
        terms = draw(raw_terms)
        return GPoly(terms), _ref(terms)
    nums, den = draw(int_terms)
    return GPoly.from_int_terms(nums, den), _ref({e: Fraction(c, den) for e, c in nums.items()})


@settings(max_examples=80, deadline=None)
@given(built(), built(), raw_coeffs, st.integers(0, 3))
def test_arithmetic_matches_reference_in_normal_form(x, y, s, n):
    (a, ra), (b, rb) = x, y
    cases = [
        (a, ra),
        (a + b, _ref_add(ra, rb)),
        (a - b, _ref_add(ra, rb, -1)),
        (a * b, _ref_mul(ra, rb)),
        (a.scale(s), _ref({e: c * s for e, c in ra.items()})),
        (s * a, _ref({e: c * s for e, c in ra.items()})),
        (a + s, _ref_add(ra, {(): s})),
        (-a, {e: -c for e, c in ra.items()}),
        (a ** n, _ref_pow(ra, n)),
    ]
    if s:
        cases.append((a / s, {e: c / s for e, c in ra.items()}))
    for p, want in cases:
        assert_normal(p)
        assert p.terms == want
        assert p == GPoly(want) and hash(p) == hash(GPoly(want))
        data = p.to_json()
        assert all(math.gcd(int(t["num"]), int(t["den"])) == 1 for t in data)
        assert GPoly.from_json(data) == p
        assert GPoly.from_int_terms(*p.int_terms()) == p
