"""Weight models, Taylor coefficients, specialization, q-display."""

import random
from fractions import Fraction

import pytest

from hurwitz.algebra import GPoly
from hurwitz.cli import main
from hurwitz.partitions import partitions_of
from hurwitz.qrational import QRat, q_multinomial
from hurwitz.tau import connected_any, hurwitz_any
from hurwitz.weights import WeightModel, parse_model, qrat_pretty, specialize, taylor_coeffs
from test_partitions import naive_e, naive_h
from test_qrational import assert_reduced_quotient, pmul, pochhammer, poly, q_value

g = GPoly.var
F = Fraction


def qrat_pretty_parse(text):
    """Read qrat_pretty output back as a value."""
    num_s, _, den_s = text.strip().partition(" / ")
    scalar_s, _, index = den_s.strip().removeprefix("(").removesuffix(")").partition("(q;q)_")
    num = _parse_qpoly(num_s.strip().removeprefix("(").removesuffix(")"))
    return q_value(num, int(index or 0), F(scalar_s or 1))


def _parse_qpoly(text):
    coeffs = {}
    for signed_term in text.replace("- ", "+ -").split("+"):
        term = signed_term.strip()
        if not term:
            continue
        coef, q, power = term.partition("q")
        coef = coef.strip().rstrip("*").strip()
        c = F(coef + "1") if coef in ("", "-") else F(coef)
        k = (int(power[1:]) if power.startswith("^") else 1) if q else 0
        coeffs[k] = coeffs.get(k, F(0)) + c
    return poly([coeffs.get(i, F(0)) for i in range(max(coeffs, default=0) + 1)])


def test_exponential_coeffs():
    assert taylor_coeffs(WeightModel.exponential(), 3) == [F(1), F(1, 2), F(1, 6)]


def test_rational_coeffs_two_c():
    c1, c2 = F(2), F(5, 3)
    model = WeightModel.rational(c=(c1, c2))
    assert taylor_coeffs(model, 3) == [c1 + c2, c1 * c2, F(0)]


def test_dual_coeffs_all_one():
    model = WeightModel.dual(d=(1,))
    assert taylor_coeffs(model, 5) == [F(1)] * 5


def test_quantum_symbolic_coeffs():
    # symbolic models have no rational Taylor coefficients
    for model in (WeightModel.quantum(), WeightModel.generic()):
        with pytest.raises(ValueError):
            taylor_coeffs(model, 2)
    g2 = specialize(g(2), WeightModel.quantum())
    assert g2 == QRat.over_pochhammer([1], 2)
    assert (g2.num, g2.den) == ((1,), (1, -1, -1, 1))  # 1/((1-q)(1-q^2))


def test_quantum_numeric_coeffs():
    gs = taylor_coeffs(WeightModel.quantum(F(1, 3)), 2)
    assert gs[0] == F(3, 2)
    assert gs[1] == F(3, 2) / (1 - F(1, 9))


def test_quantum_pochhammer_inverse_identity():
    # (q;q)_i * g_i = 1 exactly
    for i in range(1, 9):
        gi = specialize(g(i), WeightModel.quantum())
        assert gi == QRat.over_pochhammer([1], i)
        assert pmul(gi.num, pochhammer(i)) == gi.den


def test_taylor_model_and_length_check():
    model = WeightModel.taylor([1, F(1, 2), F(1, 6)])
    assert taylor_coeffs(model, 3) == [F(1), F(1, 2), F(1, 6)]
    with pytest.raises(ValueError, match="taylor"):
        taylor_coeffs(model, 4)


def test_specialize_examples():
    p = g(1) * g(2) + g(3).scale(F(3, 2))
    assert specialize(p, WeightModel.exponential()) == F(3, 4)
    got = specialize(g(1).scale(F(1, 2)), WeightModel.quantum())
    assert got == QRat.over_pochhammer([1], 1, 2)  # 1/(2(q;q)_1)
    assert (got.num, got.den) == ((F(-1, 2),), (-1, 1))
    # an all-zero explicit list keeps only the constant term
    p2 = GPoly.const(F(7)) + g(2)
    assert specialize(p2, WeightModel.taylor([0, 0])) == F(7)
    assert specialize(GPoly.zero(), WeightModel.exponential()) == 0
    assert specialize(p, WeightModel.generic()) == p


def test_specialize_is_ring_homomorphism():
    rng = random.Random(3)
    models = [
        WeightModel.rational(c=tuple(F(rng.randint(1, 7), rng.randint(1, 5)) for _ in range(3))),
        WeightModel.exponential(),
        WeightModel.dual(d=(F(2, 3), F(-1, 4))),
        WeightModel.quantum(F(1, 3)),
        WeightModel.taylor([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(8)]),
    ]
    for model in models:
        for _ in range(5):
            a = g(rng.randint(1, 3)) * rng.randint(-3, 3) + g(rng.randint(1, 4))
            b = (g(rng.randint(1, 4)).scale(F(rng.randint(1, 5), 2))
                 + GPoly.const(rng.randint(0, 2)))
            assert specialize(a * b, model) == specialize(a, model) * specialize(b, model)
            assert specialize(a + b, model) == specialize(a, model) + specialize(b, model)


def naive_rational_coeffs(c, d, upto):
    """g_1 .. g_upto of prod (1 + c z) / prod (1 - d z) as the brute-force
    sums g_i = sum_j e_j(c) h_{i-j}(d)."""
    return [sum((naive_e(j, c) * naive_h(i - j, d) for j in range(i + 1)), F(0))
            for i in range(1, upto + 1)]


def test_rational_coeffs_against_independent_expansion():
    rng = random.Random(9)

    def entries(n):     # negative, fractional and, with few choices, repeated
        return tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))

    models = [WeightModel.rational(c=entries(rng.randint(0, 4)), d=entries(rng.randint(0, 3)))
              for _ in range(12)]
    models += [WeightModel.rational(), WeightModel.rational(c=(F(2), F(2), F(-1, 3))),
               WeightModel.rational(d=(F(-1, 2), F(-1, 2))), parse_model("dual:d="),
               WeightModel.dual(d=entries(3))]
    for model in models:
        for upto in (0, 1, 7):
            assert taylor_coeffs(model, upto) == naive_rational_coeffs(model.c, model.d, upto)


def test_parse_model():
    assert parse_model("generic").kind == "generic"
    assert parse_model("exp").kind == "exp"
    m = parse_model("rational:c=1,2;d=3")
    assert m.c == (F(1), F(2)) and m.d == (F(3),)
    assert parse_model("dual:d=1").d == (F(1),)
    assert parse_model("quantum").symbolic_q
    assert parse_model("quantum:q=1/3").q == F(1, 3)
    assert parse_model("taylor:1,1/2,1/6").coeffs == (F(1), F(1, 2), F(1, 6))
    for bad in ("nope", "rational:x=1", "quantum:z=2", "dual:c=1"):
        with pytest.raises(ValueError):
            parse_model(bad)


@pytest.mark.parametrize("text, key", [("rational:c=1;c=2", "c"), ("rational:d=1;c=2;d=3", "d"),
                                       ("rational:c=;c=1", "c"), ("rational: d=1 ; d=1", "d")])
def test_parse_model_rejects_repeated_rational_parameter(text, key):
    with pytest.raises(ValueError) as exc:
        parse_model(text)
    assert str(exc.value) == f"bad weight model {text!r}: repeated rational parameter {key!r}"


def test_parse_model_empty_parameter_lists():
    assert parse_model("dual:d=") == WeightModel.dual(())
    assert parse_model("rational:") == WeightModel.rational()
    assert parse_model("rational:c=;d=") == WeightModel.rational()


def test_parse_model_round_trip_describe():
    for text in ("generic", "exp", "rational:c=1,2;d=3", "dual:d=1",
                 "quantum", "quantum:q=1/3", "taylor:1,1/2,1/6"):
        model = parse_model(text)
        assert parse_model(model.describe()) == model


def test_qq_pochhammer():
    assert q_multinomial(0, ()) == [1]
    assert q_multinomial(1, ()) == [1, -1]
    expanded = pmul(pmul(poly([1, -1]), poly([1, 0, -1])), poly([1, 0, 0, -1]))
    assert q_multinomial(3, ()) == [1, -1, -1, 0, 1, 1, -1]
    assert poly(q_multinomial(3, ())) == expanded


def test_qrat_pretty_examples():
    v = QRat.over_pochhammer([1], 1, 2)
    assert qrat_pretty(v) == "1 / (2(q;q)_1)"
    w = QRat.over_pochhammer([2, 1], 3, 3)
    assert qrat_pretty(w) == "(2 + q) / (3(q;q)_3)"
    assert qrat_pretty(QRat.over_pochhammer([1, 1], 0)) == "(1 + q)"


def test_qrat_pretty_round_trip():
    rng = random.Random(5)
    samples = [
        QRat.over_pochhammer([1], 1, 2),
        QRat.over_pochhammer([2, 1], 3, 3),
        QRat.over_pochhammer([21, 10, 14, 14, 14, 4, 4], 5, 2),
        QRat.over_pochhammer([1, 0, 6], 0, 2),
        q_value(pmul(poly([1, 1]), pochhammer(3)), 4),  # (1+q)/(1-q^4)
    ]
    for _ in range(5):
        num, scale = [rng.randint(-9, 9) for _ in range(4)], rng.randint(1, 6)
        samples.append(QRat.over_pochhammer(num, rng.randint(0, 4), scale))
    for v in samples:
        if v.is_zero():
            continue
        assert qrat_pretty_parse(qrat_pretty(v)) == v


def _quantum_grid():
    """Generic values for |mu| <= 4, d <= 6, connected and not, plus
    non-homogeneous polynomials and zero."""
    values = [GPoly.zero(), GPoly.const(F(7, 3)),
              g(1) * g(3) + g(2).scale(F(-5, 2)) + GPoly.const(4),
              hurwitz_any((2, 1), 5) + hurwitz_any((2, 1), 3).scale(F(2, 7)) + g(4)]
    for n in range(1, 5):
        for mu in partitions_of(n):
            for d in range(7):
                values.append(hurwitz_any(mu, d))
                values.append(connected_any(mu, d))
    return values


def test_specialize_symbolic_q_matches_qrat_evaluation():
    # reference: the unreduced quotient A / B, B = prod (q;q)_i^E_i with E_i
    # the largest exponent of g_i, so each monomial's numerator is a product
    for p in _quantum_grid():
        n = max(p.variables(), default=0)
        terms = {e + (0,) * (n - len(e)): c for e, c in p.terms.items()}
        top = [max(column) for column in zip(*terms)]
        b = poly([1])
        for i, big in enumerate(top, start=1):
            for _ in range(big):
                b = pmul(b, pochhammer(i))
        acc = []
        for exp, coef in terms.items():
            term = poly([coef])
            for i, (big, e) in enumerate(zip(top, exp), start=1):
                for _ in range(big - e):
                    term = pmul(term, pochhammer(i))
            acc += [F(0)] * (len(term) - len(acc))
            for j, c in enumerate(term):
                acc[j] += c
        assert_reduced_quotient(specialize(p, WeightModel.quantum()), poly(acc), b)


def test_quantum_values_round_trip_through_json():
    for p in _quantum_grid():
        v = specialize(p, WeightModel.quantum())
        assert QRat.from_json(v.to_json()) == v


def test_specialize_symbolic_q_then_evaluate_matches_numeric_q():
    q = F(1, 3)
    for p in _quantum_grid():
        assert specialize(p, WeightModel.quantum()).evaluate(q) == \
            specialize(p, WeightModel.quantum(q))


def test_qrat_pretty_fallbacks():
    # [1]_q [2]_q ... [m]_q / (q;q)_m = 1/(1-q)^m
    q_factorial = [1]
    for k in range(1, 25):
        q_factorial = [int(c) for c in pmul(q_factorial, [1] * k)]
    at_limit = QRat.over_pochhammer(q_factorial, 24)               # m = 24
    assert qrat_pretty(at_limit).endswith("(q;q)_24)")
    assert qrat_pretty_parse(qrat_pretty(at_limit)) == at_limit
    beyond_index = q_value(pochhammer(24), 25)                    # 1/(1-q^25)
    too_many = q_value(pmul(q_factorial, [1] * 25), 25)            # m = 25
    assert beyond_index.den == tuple([-1] + [0] * 24 + [1])
    for v in (beyond_index, too_many):
        assert qrat_pretty(v) == str(v)


def test_compute_quantum_large_profile(capsys):
    code = main(["compute", "--mu", "3,3,2,2", "--d", "12", "--weights", "quantum"])
    out = capsys.readouterr().out
    assert code == 0
    shown = out.strip().split(" = ", 1)[1]
    assert shown.endswith("(q;q)_12)")
    want = specialize(hurwitz_any((3, 3, 2, 2), 12), WeightModel.quantum())
    assert qrat_pretty_parse(shown) == want
