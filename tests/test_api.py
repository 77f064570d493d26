"""The top-level package exports exactly its documented public API."""

from fractions import Fraction

import hurwitz


def test_all_names_resolve():
    for name in hurwitz.__all__:
        assert getattr(hurwitz, name) is not None, name


def test_readme_quick_tour():
    from hurwitz import (QRat, WeightModel, connected_any, hurwitz_any, specialize,
                         weighted_from_definition)

    h = hurwitz_any((2, 1), 3)
    assert str(h) == "3/2*g3 + g1*g2"
    hc = connected_any((2, 1), 3)
    assert str(hc) == "g3 + g1*g2"
    assert specialize(hc, WeightModel.exponential()) == Fraction(2, 3)
    quantum = specialize(hc, WeightModel.quantum())
    assert isinstance(quantum, QRat)
    third = WeightModel.quantum(Fraction(1, 3))
    assert quantum.evaluate(Fraction(1, 3)) == Fraction(891, 208)
    assert specialize(hc, third) == Fraction(891, 208)
    # the definitional check, nonconnected by default
    assert weighted_from_definition((2, 1), 3, third) == specialize(h, third)
    assert weighted_from_definition((2, 1), 3, third, connected=True) == Fraction(891, 208)
