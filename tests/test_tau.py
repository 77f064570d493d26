"""Character/content-product pipeline and cumulant inversion."""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from hurwitz import HurwitzResult, compute, tau
from hurwitz.algebra import GPoly
from hurwitz.partitions import (
    CapExceeded,
    as_partition,
    aut_of,
    contents,
    partitions_of,
    set_partitions,
)
from hurwitz.series import power_sum_total
from hurwitz.tau import (
    _content_power_sums,
    connected_any,
    genus_slice,
    hurwitz_any,
)
from hurwitz.weights import parse_model

g = GPoly.var
half = Fraction(1, 2)


def _content_sums(lam, d) -> list[int]:
    """The power sums p_1..p_d of the diagram's contents, one power at a time."""
    return [sum(c ** k for c in contents(lam)) for k in range(1, d + 1)]


def _content_value(lam, d) -> GPoly:
    """[beta^d] prod over boxes of G(content * beta) from the diagram's power sums."""
    return power_sum_total([(1, _content_sums(lam, d))], d)


def test_content_product_small():
    assert _content_value((2,), 1) == g(1)
    assert _content_value((2, 1), 2) == g(2) * 2 - g(1) ** 2
    assert _content_value((3,), 3) == g(1) * g(2) * 6 + g(3) * 9
    assert _content_value((), 0) == GPoly.one()
    assert _content_value((), 3).is_zero()


def test_content_power_sums_match_the_sums_of_powers():
    for n in range(9):
        for lam in partitions_of(n):
            for d in (0, 1, 4, 11):
                assert _content_power_sums(lam, d) == _content_sums(lam, d)


def test_content_product_graded():
    for lam in [(3, 1), (2, 2), (4,), (2, 1, 1)]:
        for d in range(6):
            assert _content_value(lam, d).is_homogeneous(d)


def _naive_box_product(lam, d) -> GPoly:
    """[beta^d] prod over boxes of sum_j (c beta)^j g_j, one box at a time."""
    series = [GPoly.one()] + [GPoly.zero()] * d
    for c in contents(lam):
        factor = [GPoly.one()] + [g(j).scale(c ** j) for j in range(1, d + 1)]
        series = [sum((series[i] * factor[k - i] for i in range(k + 1)), GPoly.zero())
                  for k in range(d + 1)]
    return series[d]


def test_content_powers_match_naive_box_product():
    for N in range(7):
        for lam in partitions_of(N):
            for d in range(7):
                assert _content_value(lam, d) == _naive_box_product(lam, d), (lam, d)


@lru_cache(maxsize=None)
def _block_convolution(blocks, d):
    """Sum over compositions d_1 + ... + d_l = d of prod |aut B_i| H(B_i, d_i)."""
    if not blocks:
        return GPoly.one() if d == 0 else GPoly.zero()
    head, rest = blocks[0], blocks[1:]
    acc = GPoly.zero()
    for k in range(d + 1):
        factor = hurwitz_any(head, k)
        tail = _block_convolution(rest, d - k) if factor else None
        if tail:
            acc = acc + factor.scale(aut_of(head)) * tail
    return acc


def _connected_by_set_partitions(mu, d):
    """Moebius inversion over all Bell(l) set partitions of the labels, with
    weight (-1)^(k-1) (k-1)! for k blocks; set partitions with the same
    multiset of block profiles are summed once, with their count."""
    groups = Counter()
    for blocks in set_partitions(range(len(mu))):
        groups[tuple(sorted(as_partition(mu[i] for i in b) for b in blocks))] += 1
    acc = GPoly.zero()
    for blocks, count in groups.items():
        k = len(blocks)
        sign = (-1) ** (k - 1) * math.factorial(k - 1)
        acc = acc + _block_convolution(blocks, d).scale(sign * count)
    return acc / aut_of(mu)


def test_connected_any_matches_set_partition_inversion():
    for N in range(2, 9):
        for mu in partitions_of(N):
            if len(mu) < 2:
                continue
            for d in range(11):
                assert connected_any(mu, d) == _connected_by_set_partitions(mu, d), (mu, d)


def test_connected_value_is_one_walk(monkeypatch):
    # the exponential formula runs on power-sum dicts: no GPoly product, one
    # walk beside the nonconnected value's, and no sub-profile cache entries
    counts = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(GPoly, "__mul__", counted("mul", GPoly.__mul__))
    monkeypatch.setattr(tau, "power_sum_total", counted("walk", tau.power_sum_total))
    hurwitz_any.cache_clear()
    connected_any.cache_clear()
    connected_any((4, 3, 3, 2, 2), 17)
    assert counts["mul"] == 0
    assert counts["walk"] <= 2
    assert hurwitz_any.cache_info().currsize == connected_any.cache_info().currsize == 1


def test_power_sum_dicts_carry_no_zero_weights():
    # a weight that cancels in Psi(B) = Phi(B) - products(B), or among the
    # products, would be multiplied through every later product for nothing
    psis = {}
    products = tau._products((4, 3, 3, 2, 2), 17, {}, psis)
    assert psis and all(all(psi.values()) for psi in psis.values())
    assert products and all(products.values())


def test_hurwitz_any_published_values():
    assert hurwitz_any((2,), 1) == g(1).scale(half)
    assert hurwitz_any((2, 1), 3) == g(1) * g(2) + g(3).scale(Fraction(3, 2))
    assert hurwitz_any((3, 2, 1), 3) == (g(1) ** 3 + g(1) * g(2)).scale(Fraction(1, 6))
    assert hurwitz_any((1,), 0) == GPoly.one()
    for d in range(1, 5):
        assert hurwitz_any((1,), d).is_zero()


def test_connected_any_published_values():
    assert connected_any((2, 1), 3) == g(1) * g(2) + g(3)
    want_222 = (
        g(1) ** 4 * g(3) * 2 + g(2) ** 2 * g(3) * 11 + g(3) * g(4) * 17
        + g(1) ** 3 * (g(2) ** 2 * 5 + g(4) * 13) + g(2) * g(5) * 13
        + g(1) ** 2 * (g(2) * g(3) * 11 + g(5) * 9) * 3
        + g(1) * (g(2) ** 3 * 7 + g(3) ** 2 * 22 + g(2) * g(4) * 36 + g(6) * 23)
        + g(7) * 7
    ).scale(Fraction(1, 6))
    assert connected_any((2, 2, 2), 7) == want_222


def test_single_part_connected_equals_nonconnected():
    for mu1 in (1, 2, 3, 4):
        for d in range(6):
            assert connected_any((mu1,), d) == hurwitz_any((mu1,), d)


def test_base_case_identity_profile():
    for n in range(1, 7):
        assert hurwitz_any((1,) * n, 0) == GPoly.const(Fraction(1, math.factorial(n)))
    assert hurwitz_any((2, 1, 1), 0).is_zero()


def test_genus_slice():
    assert genus_slice(0, (2,)) == g(1).scale(half)
    assert genus_slice(1, (2,)) == g(3).scale(half)
    want = (g(2) ** 2 + g(1) * g(3) + g(4) * 2).scale(Fraction(1, 3))
    assert genus_slice(0, (1, 1, 1)) == want


def test_genus_zero_matches_hurwitz_formula():
    # Hurwitz's formula, no characters: at genus 0 (d = N + l - 2) the
    # connected exp-weighted value is N^(l-3) prod mu_i^mu_i / mu_i! / |aut mu|
    exp, profiles = parse_model("exp"), 0
    for N in range(1, 10):
        for mu in partitions_of(N):
            d = N + len(mu) - 2
            if d > 14:
                continue
            want = Fraction(N) ** (len(mu) - 3) / aut_of(mu)
            for part in mu:
                want *= Fraction(part ** part, math.factorial(part))
            got = compute(mu, d, exp, connected=True, max_weight=30, max_degree=30).value
            assert got == want, mu
            profiles += 1
    assert profiles == 94


def test_caps():
    # tau requests check the caps before the selection rules
    with pytest.raises(CapExceeded):
        compute((11,), 1, pipeline="tau")
    with pytest.raises(CapExceeded):
        compute((2,), 13, pipeline="tau")
    assert compute((2,), 13, pipeline="tau", max_degree=13).value == g(13).scale(half)


def test_values_are_sorted_insensitive():
    assert hurwitz_any((1, 2), 3) == hurwitz_any((2, 1), 3)
    assert connected_any((1, 1, 2), 5) == connected_any((2, 1, 1), 5)


def test_value_caches_key_on_the_sorted_profile():
    # a list and an unsorted tuple read the sorted profile's one entry
    want = hurwitz_any((3, 1), 6)
    hurwitz_any.cache_clear()
    assert hurwitz_any([3, 1], 6) == hurwitz_any((1, 3), 6) == hurwitz_any((3, 1), 6) == want
    assert hurwitz_any.cache_info().currsize == 1
    # the connected recursion adds its blocks' entries, the same for any form
    want = connected_any((3, 1), 6)
    connected_any.cache_clear()
    assert connected_any((3, 1), 6) == want
    entries = connected_any.cache_info().currsize
    for form in ([3, 1], (1, 3)):
        connected_any.cache_clear()
        assert connected_any(form, 6) == want
        assert connected_any.cache_info().currsize == entries
    assert connected_any([3, 1], 6) == connected_any((3, 1), 6) == want
    assert connected_any.cache_info().currsize == entries


def test_one_cache_entry_per_value():
    # values are keyed on (sorted mu, d) alone: the connected recursion,
    # a direct call and a capped request read the same entries
    mu, d = (2, 2, 1), 6
    hurwitz_any.cache_clear()
    connected_any.cache_clear()
    connected_any(mu, d)
    before = hurwitz_any.cache_info()
    hurwitz_any(mu, d)
    after = hurwitz_any.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    hurwitz_any.cache_clear()
    result = compute(mu, d, pipeline="tau")
    assert hurwitz_any(mu, d) is result.value
    assert hurwitz_any.cache_info().currsize == 1
    connected = compute(mu, d, connected=True, pipeline="tau", max_weight=5, max_degree=6)
    assert connected.value is connected_any([1, 2, 2], d)


def test_result_json_round_trip():
    res = HurwitzResult((2, 1), 3, True, "tau", connected_any((2, 1), 3))
    again = HurwitzResult.from_json(res.to_json())
    assert again == res

    numeric = HurwitzResult((2,), 1, False, "oracle", Fraction(3, 4), "quantum:q=1/3")
    assert HurwitzResult.from_json(numeric.to_json()) == numeric
    # generic values pass the homogeneity check, zero values included
    for mu in [(1,), (2, 1), (3, 2, 1), (2, 2, 1, 1)]:
        for d in range(9):
            for connected, fn in ((False, hurwitz_any), (True, connected_any)):
                res = HurwitzResult(mu, d, connected, "tau", fn(mu, d))
                assert HurwitzResult.from_json(res.to_json()) == res


def _result(d, value):
    return {"mu": "2,1", "d": d, "connected": True, "pipeline": "tau",
            "model": "generic", "value": value}


@pytest.mark.parametrize("value", [
    [{"exp": {"1": 1, "2": 1}, "num": "1", "den": "1"},
     {"exp": {"2": 1}, "num": "1", "den": "1"}],      # one term of degree 2
    [{"exp": {"4": 1}, "num": "1", "den": "1"}],       # degree 4
    [{"exp": {}, "num": "1", "den": "1"}],             # a constant
    [{"exp": {"2000000": 1}, "num": "1", "den": "1"}],
    [{"exp": {"2000000": 1, "1": -1999997}, "num": "1", "den": "1"}],
])
def test_result_json_rejects_inhomogeneous_values(value):
    with pytest.raises(ValueError):
        HurwitzResult.from_json(_result(3, value))


_G3 = [{"exp": {"3": 1}, "num": "1", "den": "1"}]
_Q = {"num": ["1"], "den": ["1"]}


@pytest.mark.parametrize("changes", [
    {"value": [{"exp": [1], "num": "1", "den": "1"}]},
    {"value": [{"exp": {"3": 1}, "num": "1"}]},           # a term without "den"
    {"value": None},                                      # no "value" at all
    {"value": 5},
    {"value": _Q},                                        # kinds that do not fit
    {"value": "1/2"},
    {"model": "exp"},
    {"model": "exp", "value": _Q},
    {"model": "exp", "value": "1/0"},
    {"model": "quantum:q=1/3", "value": _Q},
    {"model": "quantum"},
    {"model": "quantum", "value": "1/2"},
    {"model": "quantum", "value": {"num": "11", "den": ["1"]}},
    {"model": "quantum", "value": {"num": ["1"]}},
    {"model": "bogus"},
    {"connected": "false"},
    {"connected": 1},
    {"d": "3"},
    {"mu": [2, 1]},
    {"pipeline": None},
    {"pipeline": "bogus"},                                # not a pipeline name
    {"pipeline": "auto"},
    {"value": [{"exp": {"3": 1}, "num": 1.7, "den": True}]},
    {"model": "quantum", "value": {"num": [0.1], "den": ["1"]}},
    {"mu": ""},                                           # compute never makes either
    {"d": -1, "value": []},
])
def test_result_json_rejects_malformed_shapes(changes):
    data = {**_result(3, _G3), **changes}
    data = {k: v for k, v in data.items() if v is not None}
    with pytest.raises(ValueError):
        HurwitzResult.from_json(data)


def test_result_json_rejects_a_far_index_before_building_it():
    # an exponent tuple as long as the index would take 16 MB here
    import tracemalloc
    tracemalloc.start()
    with pytest.raises(ValueError):
        HurwitzResult.from_json(_result(3, [{"exp": {"2000000": 1}, "num": "1", "den": "1"}]))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 1_000_000


def test_result_json_rejects_a_term_above_the_ceiling_before_building_it():
    # the term's degree matches d, but compute writes only [] above the
    # ceiling; its exponent tuple would take 16 MB here
    import tracemalloc
    tracemalloc.start()
    with pytest.raises(ValueError, match="above the ceiling"):
        HurwitzResult.from_json(_result(2_000_000, [{"exp": {"2000000": 1},
                                                     "num": "1", "den": "1"}]))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 1_000_000
    assert HurwitzResult.from_json(_result(2_000_000, [])).value.is_zero()
