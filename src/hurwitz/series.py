"""Taylor coefficients of products of weight factors G(m*beta).

With G(z) = 1 + sum_k g_k z^k, the coefficient [beta^k] prod_i G(m_i beta)
is homogeneous of weighted degree k, with constant term 1 at k = 0.  Its
coefficients are integers: the coefficient of g_nu is the monomial
symmetric function m_nu of the multipliers.  So the cached kernel is an
integer term map {exponent tuple: int}, computed one index at a time (asking
for a higher k never rebuilds the lower ones); `add_product` multiplies
such maps in integers, and a caller turns a map into a `GPoly` once, with
its one rational scale.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .algebra import Exponent, GPoly, mono_mul

Terms = Mapping[Exponent, int]


def _unit(j: int) -> Exponent:
    """Exponent tuple of the single variable g_j."""
    return (0,) * (j - 1) + (1,)


@lru_cache(maxsize=None)
def g_terms(multipliers: tuple[int, ...], k: int) -> Terms:
    """[beta^k] prod_i G(m_i beta) as a read-only {exponent: int} map with
    no zero coefficients.

    Recurses over prefixes: peeling the last factor G(m beta) gives
    g_terms(head, k) + sum_{j>=1} m^j g_j g_terms(head, k - j).  Callers
    pass sorted multipliers so overlapping products share cached prefixes.
    """
    if k < 0:
        raise ValueError("negative beta power")
    if not multipliers:
        return {(): 1} if k == 0 else {}
    head, m = multipliers[:-1], multipliers[-1]
    out = dict(g_terms(head, k))
    if m:
        for j in range(1, k + 1):
            unit, power = _unit(j), m ** j
            for e, c in g_terms(head, k - j).items():
                e = mono_mul(e, unit)
                out[e] = out.get(e, 0) + c * power
    return {e: c for e, c in out.items() if c}


def add_product(out: dict[Exponent, int], a: Terms, b: Terms) -> None:
    """Add the product a * b of two integer term maps into `out`.

    Entries of `out` may cancel to 0 and stay; `GPoly.from_int_terms` and
    callers that cache a map drop them.
    """
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = mono_mul(e1, e2)
            out[e] = get(e, 0) + c1 * c2


def g_coeff(multipliers: tuple[int, ...], k: int) -> GPoly:
    """[beta^k] prod_i G(m_i beta) as a GPoly."""
    return GPoly.from_int_terms(g_terms(multipliers, k))
