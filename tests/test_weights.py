"""Weight models, Taylor coefficients, specialization, q-display."""

import random
from fractions import Fraction

import pytest

from hurwitz.algebra import GPoly, eval_gpoly
from hurwitz.cli import main
from hurwitz.partitions import partitions_of
from hurwitz.qrational import QPoly, QRat
from hurwitz.tau import connected_any, hurwitz_any
from hurwitz.weights import (
    QRAT_RING,
    WeightModel,
    parse_model,
    qq_pochhammer,
    qrat_pretty,
    qrat_pretty_parse,
    specialize,
    taylor_coeffs,
)

g = GPoly.var
F = Fraction


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
    gs = taylor_coeffs(WeightModel.quantum(), 2)
    assert gs[1] == QRat(QPoly([1]), qq_pochhammer(2))
    # (q;q)_i * g_i = 1 exactly
    for i, gi in enumerate(gs, start=1):
        assert gi * QRat.from_poly(qq_pochhammer(i)) == QRat.const(1)


def test_quantum_numeric_coeffs():
    gs = taylor_coeffs(WeightModel.quantum(F(1, 3)), 2)
    assert gs[0] == F(3, 2)
    assert gs[1] == F(3, 2) / (1 - F(1, 9))


def test_quantum_pochhammer_inverse_identity():
    gs = taylor_coeffs(WeightModel.quantum(), 8)
    for i, gi in enumerate(gs, start=1):
        assert gi * QRat.from_poly(qq_pochhammer(i)) == QRat.const(1)


def test_taylor_model_and_length_check():
    model = WeightModel.taylor([1, F(1, 2), F(1, 6)])
    assert taylor_coeffs(model, 3) == [F(1), F(1, 2), F(1, 6)]
    with pytest.raises(ValueError, match="taylor"):
        taylor_coeffs(model, 4)


def test_specialize_examples():
    p = g(1) * g(2) + g(3).scale(F(3, 2))
    assert specialize(p, WeightModel.exponential()) == F(3, 4)
    got = specialize(g(1).scale(F(1, 2)), WeightModel.quantum())
    assert got == QRat(QPoly([1]), qq_pochhammer(1).scale(2))
    # an all-zero explicit list keeps only the constant term
    p2 = GPoly.const(F(7)) + g(2)
    assert specialize(p2, WeightModel.taylor([0, 0])) == F(7)


def test_specialize_is_ring_homomorphism():
    rng = random.Random(3)
    model = WeightModel.rational(
        c=tuple(F(rng.randint(1, 7), rng.randint(1, 5)) for _ in range(3))
    )
    for _ in range(5):
        a = g(rng.randint(1, 3)) * rng.randint(-3, 3) + g(rng.randint(1, 4))
        b = g(rng.randint(1, 4)).scale(F(rng.randint(1, 5), 2)) + GPoly.const(rng.randint(0, 2))
        assert specialize(a * b, model) == specialize(a, model) * specialize(b, model)
        assert specialize(a + b, model) == specialize(a, model) + specialize(b, model)


def _independent_rational_series(c, d, order):
    # prod (1 + c_k z) * prod 1/(1 - d_j z), truncated directly
    out = [F(1)] + [F(0)] * order
    for ck in c:
        for i in range(order, 0, -1):
            out[i] += ck * out[i - 1]
    for dj in d:
        new = [F(0)] * (order + 1)
        for i in range(order + 1):
            new[i] = out[i] + (new[i - 1] * dj if i else F(0))
        out = new
    return out


def test_rational_coeffs_against_independent_expansion():
    rng = random.Random(9)
    for _ in range(4):
        c = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
        d = tuple(F(rng.randint(-3, 3), rng.randint(2, 5)) for _ in range(2))
        series = _independent_rational_series(c, d, 7)
        got = taylor_coeffs(WeightModel.rational(c=c, d=d), 7)
        assert got == series[1:]


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


def test_parse_model_round_trip_describe():
    for text in ("generic", "exp", "rational:c=1,2;d=3", "dual:d=1",
                 "quantum", "quantum:q=1/3", "taylor:1,1/2,1/6"):
        model = parse_model(text)
        assert parse_model(model.describe()) == model


def test_qq_pochhammer():
    assert qq_pochhammer(0) == QPoly([1])
    assert qq_pochhammer(1) == QPoly([1, -1])
    expanded = QPoly([1, -1]) * QPoly([1, 0, -1]) * QPoly([1, 0, 0, -1])
    assert qq_pochhammer(3) == expanded


def test_qrat_pretty_examples():
    v = QRat(QPoly([1]), QPoly([2, -2]))
    assert qrat_pretty(v) == "1 / (2(q;q)_1)"
    w = QRat(QPoly([2, 1]), qq_pochhammer(3).scale(3))
    assert qrat_pretty(w) == "(2 + q) / (3(q;q)_3)"
    assert qrat_pretty(QRat.from_poly(QPoly([1, 1]))) == "(1 + q)"


def test_qrat_pretty_round_trip():
    rng = random.Random(5)
    samples = [
        QRat(QPoly([1]), QPoly([2, -2])),
        QRat(QPoly([2, 1]), qq_pochhammer(3).scale(3)),
        QRat(QPoly([21, 10, 14, 14, 14, 4, 4]), qq_pochhammer(5).scale(2)),
        QRat.from_poly(QPoly([F(1, 2), 0, 3])),
        QRat(QPoly([1, 1]), QPoly([1, 0, 0, 0, -1])),
    ]
    for _ in range(5):
        samples.append(QRat(
            QPoly([rng.randint(-9, 9) for _ in range(4)]),
            qq_pochhammer(rng.randint(0, 4)).scale(rng.randint(1, 6)),
        ))
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
    model = WeightModel.quantum()
    for p in _quantum_grid():
        gs = taylor_coeffs(model, max(p.variables(), default=0))
        want = eval_gpoly(p, dict(enumerate(gs, start=1)), QRAT_RING)
        got = specialize(p, model)
        assert (got.num, got.den) == (want.num, want.den), p


def test_specialize_symbolic_q_then_evaluate_matches_numeric_q():
    q = F(1, 3)
    for p in _quantum_grid():
        assert specialize(p, WeightModel.quantum()).evaluate(q) == \
            specialize(p, WeightModel.quantum(q))


def test_qrat_pretty_fallbacks():
    one_minus_q_pow = QPoly([1])
    for _ in range(24):
        one_minus_q_pow = one_minus_q_pow * QPoly([1, -1])
    at_limit = QRat(QPoly([1]), one_minus_q_pow)                 # m = 24
    assert qrat_pretty(at_limit).endswith("(q;q)_24)")
    assert qrat_pretty_parse(qrat_pretty(at_limit)) == at_limit
    not_cyclotomic = QRat(QPoly([1]), QPoly([1, 2]))             # 1/(1+2q)
    beyond_index = QRat(QPoly([1]), QPoly([1] + [0] * 24 + [-1]))  # 1/(1-q^25)
    too_many = QRat(QPoly([1]), one_minus_q_pow * QPoly([1, -1]))  # m = 25
    for v in (not_cyclotomic, beyond_index, too_many):
        assert qrat_pretty(v) == str(v)


def test_compute_quantum_large_profile(capsys):
    code = main(["compute", "--mu", "3,3,2,2", "--d", "12", "--weights", "quantum"])
    out = capsys.readouterr().out
    assert code == 0
    shown = out.strip().split(" = ", 1)[1]
    assert shown.endswith("(q;q)_12)")
    want = specialize(hurwitz_any((3, 3, 2, 2), 12), WeightModel.quantum())
    assert qrat_pretty_parse(shown) == want
