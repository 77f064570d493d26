"""Taylor coefficients of products of weight factors G(m*beta).

With G(z) = 1 + sum_k g_k z^k, the coefficient [beta^k] prod_i G(m_i beta)
is a GPoly homogeneous of weighted degree k with constant term 1 at k = 0.
Coefficients are computed and cached one index at a time, so asking for a
higher k never rebuilds the lower ones.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import GPoly


@lru_cache(maxsize=None)
def g_coeff(multipliers: tuple[int, ...], k: int) -> GPoly:
    """[beta^k] prod_i G(m_i beta).

    Recurses over prefixes: peeling the last factor G(m beta) gives
    g_coeff(head, k) + sum_{j>=1} g_coeff(head, k - j) * m^j g_j.  Callers
    pass sorted multipliers so overlapping products share cached prefixes.
    """
    if k < 0:
        raise ValueError("negative beta power")
    if not multipliers:
        return GPoly.one() if k == 0 else GPoly.zero()
    head, m = multipliers[:-1], multipliers[-1]
    acc = g_coeff(head, k)
    if m:
        for j in range(1, k + 1):
            low = g_coeff(head, k - j)
            if low:
                acc = acc + low * GPoly.var(j, m ** j)
    return acc
