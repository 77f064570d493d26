"""Factorization counts and definitional weighted sums."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from hurwitz.oracle import (
    FactorizationQuery,
    class_elements,
    class_size,
    pure_hurwitz_char,
    pure_hurwitz_enum,
    weight_rational,
    weighted_from_definition,
)
from hurwitz.partitions import CapExceeded, aut_of, partitions_of, sym_eval, z_of
from hurwitz.tables import KNOWN_ERRATA, errata_report
from hurwitz.tau import connected_any, hurwitz_any
from hurwitz.weights import WeightModel, specialize

F = Fraction


def test_char_small_values():
    assert pure_hurwitz_char([(2,), (2,)]) == F(1, 2)
    assert pure_hurwitz_char([(1, 1)]) == F(1, 2)
    assert pure_hurwitz_char([(2,), (1, 1)]) == 0


def test_char_validates():
    with pytest.raises(ValueError):
        pure_hurwitz_char([(2,), (3,)])
    with pytest.raises(ValueError):
        FactorizationQuery(())


def test_enum_small_values():
    assert pure_hurwitz_enum(FactorizationQuery(((2,), (2,)))) == F(1, 2)
    assert pure_hurwitz_enum(FactorizationQuery(((2,), (2,)), transitive_only=True)) == F(1, 2)
    # 2 of the 4 free (a, b) pairs of 3-cycles have a 3-cycle product
    got = pure_hurwitz_enum(FactorizationQuery(((3,), (3,), (3,))))
    assert got == F(1, 3)
    assert got == pure_hurwitz_char([(3,), (3,), (3,)])


def test_enum_transitivity_distinguishes():
    # two double-transpositions in S_4 always generate an intransitive group
    # when their product is the identity with disjoint support... check a case
    # where the connected count is strictly smaller
    q_all = pure_hurwitz_enum(FactorizationQuery(((2, 1, 1), (2, 1, 1))))
    q_conn = pure_hurwitz_enum(FactorizationQuery(((2, 1, 1), (2, 1, 1)), True))
    assert q_conn == 0  # a transposition moves only 2 of 4 sheets
    assert q_all > 0


def test_enum_guard():
    with pytest.raises(CapExceeded, match="pure_hurwitz_char"):
        pure_hurwitz_enum(FactorizationQuery(((6,), (6,))))
    with pytest.raises(CapExceeded, match="pure_hurwitz_char"):
        pure_hurwitz_enum(FactorizationQuery(((4, 1),) * 5))  # 30^5 tuples


def test_class_sizes():
    # enumerated classes check z_of, which shares no code with the enumeration
    for n in range(1, 7):
        total = 0
        for mu in partitions_of(n):
            size = len(class_elements(n, mu))
            assert z_of(mu) * size == math.factorial(n)
            assert class_size(mu) == size
            total += size
        assert total == math.factorial(n)


def test_char_equals_enum_exhaustive_small():
    for n in (2, 3):
        classes = partitions_of(n)
        for k in (1, 2, 3):
            for combo in product(classes, repeat=k):
                want = pure_hurwitz_char(list(combo))
                assert pure_hurwitz_enum(FactorizationQuery(tuple(combo))) == want


def test_definitional_rational_single_part():
    rng = random.Random(17)
    c = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4))
    model = WeightModel.rational(c=c)
    # single contributing tuple with first-order branching: value is e_1(c)/2
    got = weighted_from_definition((2,), 1, model)
    assert got == sum(c) / 2
    assert got == specialize(hurwitz_any((2,), 1), model)


def test_definitional_rational_full_row():
    rng = random.Random(23)
    c = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(5))
    model = WeightModel.rational(c=c)
    want = specialize(hurwitz_any((2, 1), 3), model)
    assert weighted_from_definition((2, 1), 3, model) == want


def test_weight_rational_reduces_to_the_product_and_dual_weights():
    # d empty: |aut|/k! * m_lam(c); c empty: |aut|/k! * f_lam(d), on every lam |- n <= 7
    rng = random.Random(7)
    for size in (0, 1, 2, 3):
        pts = tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size))
        for n in range(1, 8):
            for lam in partitions_of(n):
                prefactor = F(aut_of(lam), math.factorial(len(lam)))
                assert weight_rational(lam, pts, ()) == prefactor * sym_eval("m", lam, pts)
                assert weight_rational(lam, (), pts) == prefactor * sym_eval("f", lam, pts)


def test_definitional_mixed_rational():
    model = WeightModel.rational(c=(F(1, 2), F(3)), d=(F(1, 4),))
    for mu, d in [((2,), 1), ((3,), 2), ((2, 1), 3)]:
        want = specialize(hurwitz_any(mu, d), model)
        assert weighted_from_definition(mu, d, model) == want


def test_definitional_quantum():
    model = WeightModel.quantum(F(1, 3))
    assert weighted_from_definition((2,), 1, model) == F(3, 4)
    for mu, d in [((3,), 2), ((2, 1), 3), ((2, 2), 4)]:
        want = specialize(hurwitz_any(mu, d), model)
        assert weighted_from_definition(mu, d, model) == want


def test_definitional_exponential_dirac():
    model = WeightModel.exponential()
    for mu, d in [((2,), 1), ((2, 1), 3), ((1, 1, 1), 4), ((3, 2, 1), 7)]:
        want = specialize(hurwitz_any(mu, d), model)
        assert weighted_from_definition(mu, d, model) == want


def test_definitional_connected_via_transitive_enumeration():
    model = WeightModel.exponential()
    for mu, d in [((2,), 1), ((2,), 3), ((2, 1), 3), ((1, 1, 1), 4)]:
        want = specialize(connected_any(mu, d), model)
        assert weighted_from_definition(mu, d, model, connected=True) == want


def test_definitional_requires_numeric_model():
    with pytest.raises(ValueError, match="numeric"):
        weighted_from_definition((2,), 1, WeightModel.generic())


def test_definitional_caps():
    with pytest.raises(CapExceeded):
        weighted_from_definition((6,), 1, WeightModel.quantum(F(1, 3)))
    with pytest.raises(CapExceeded):
        weighted_from_definition((2,), 7, WeightModel.quantum(F(1, 3)))


def test_errata_report_matches_frozen_list():
    report = errata_report("full")
    found = {(entry["table"], entry["cell"]) for entry in report}
    assert found == KNOWN_ERRATA
    by_key = {(e["table"], e["cell"]): e for e in report}
    flagged = by_key[("A3", "(0,2)")]
    assert flagged["consensus"] == "-3/2*g3 - g1*g2"
    assert "3/2*g3" in flagged["printed"]
    b8 = by_key[("B8", "(2,1) d=3 connected")]
    assert b8["printed"] == "3/4" and b8["consensus"] == "2/3"
    assert "tau" in b8["pipelines"] and "correlator" in b8["pipelines"]
