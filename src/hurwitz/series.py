"""Power-sum coordinates for products of weight factors G(m*beta).

With G(z) = 1 + sum_k g_k z^k and b_k = k [z^k] log G(z), a product of
weight factors depends on its integer multipliers m only through their
power sums p_k(m) = sum_i m_i^k (Macdonald, Symmetric Functions and Hall
Polynomials, I.2):

    [beta^d] prod_i G(m_i beta) = sum over rho |- d of b^rho p_rho(m) / z_rho.

Newton's identity n g_n = sum_{k=1}^{n} b_k g_{n-k} makes each b_k an
integer polynomial in the g.  Tau (over Young diagrams) and the correlator
(over the terms of a cycle sum) hand `power_sum_total` integer weights w
with power-sum vectors s = (p_1(m), ..., p_d(m)); it adds up the weights
of equal s and evaluates the sum in one depth-first walk over the trie of
the partitions of d (`_trie_walk`), in Python ints, dividing once.  Going
down an edge k multiplies each distinct s's partial product w * p_rho by
s_k and divides the running d!/z by what the part adds to z; a leaf rho
scales the sum of the products by the d!/z_rho so formed; coming back up
is Horner's rule, one b_k per edge (the p -> h change of basis, Macdonald
I.6).  No vector over rho outlives a step of the walk.  Inside this module
a monomial g_nu is the integer sum_k m_k(nu) 256^(k-1) (`power_sum_total`
keeps d <= PARTITION_CAP < 256), so a product of monomials is one addition.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from .algebra import GPoly
from .partitions import PARTITION_CAP, CapExceeded


def exponent(code: int) -> tuple[int, ...]:
    """The stripped exponent tuple of the monomial g_nu with this code."""
    return tuple(code.to_bytes((code.bit_length() + 7) // 8, "little"))


@lru_cache(maxsize=None)
def b_terms(k: int) -> dict[int, int]:
    """b_k = k g_k - sum_{j<k} b_j g_{k-j} as {code of g_nu: coefficient}."""
    out = {1 << 8 * (k - 1): k}
    for j in range(1, k):
        g = 1 << 8 * (k - j - 1)
        for nu, c in b_terms(j).items():
            out[nu + g] = out.get(nu + g, 0) - c
    return out


def _trie_walk(n: int, top: int, prods: list[int], cols: Sequence[Sequence[int]],
               ones: Sequence[Sequence[int]], u: int, run: int) -> Iterable[tuple[int, int]]:
    """S(n, top) = sum over rho |- n with parts <= top of u_rho x_rho b^rho,
    as (code, coefficient) pairs, where x_rho = sum over the live vectors s
    of prods_s p_rho(s), cols[k - 1] holds their s_k and ones[n] their
    s_1^n: the sum over k <= top of b_k S(n - k, min(k, n - k)).  u is d!/z
    of the parts above, run the number of them equal to top, and u_rho is
    d!/z of those and rho; each division is exact, since the z of a
    sub-multiset of a partition divides its z, which divides d!."""
    if top <= 1:                        # only rho = (1^n), and b_1^n = g_1^n
        x = u // math.perm(run + n, n) * sum(map(mul, prods, ones[n]))
        return ((n, x),) if x else ()
    acc: dict[int, int] = {}
    get = acc.get
    for k in range(top, 0, -1):
        bk = b_terms(k).items()
        child = list(map(mul, prods, cols[k - 1]))
        r = run + 1 if k == top else 1          # the multiplicity of k so far
        below = min(k, n - k)
        for c1, x in _trie_walk(n - k, below, child, cols, ones, u // (k * r),
                                r if below == k else 0):
            for c2, y in bk:
                c = c1 + c2
                acc[c] = get(c, 0) + x * y
    return acc.items()


def power_sum_total(terms: Iterable[tuple[int, Iterable[int]]], d: int, den: int = 1) -> GPoly:
    """sum over (w, s) of w [beta^d] prod_i G(m_i beta), divided by den,
    where s = (p_1(m), ..., p_d(m)) holds the power sums of the integer
    multipliers m; equal vectors are walked once, with their summed weight.
    d is at most PARTITION_CAP, so a multiplicity fits in its code's byte."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if d > PARTITION_CAP:
        raise CapExceeded(f"power_sum_total({d}) exceeds cap {PARTITION_CAP}")
    totals: dict[tuple[int, ...], int] = {}
    for w, s in terms:
        s = tuple(s)
        totals[s] = totals.get(s, 0) + w
    live = {s: w for s, w in totals.items() if w}
    cols = [[s[k] for s in live] for k in range(d)]
    ones = [[1] * len(live)] + [[c ** n for c in cols[0]] for n in range(1, d + 1)]
    walk = _trie_walk(d, d, list(live.values()), cols, ones, math.factorial(d), 0)
    return GPoly.from_int_terms({exponent(c): x for c, x in walk}, den * math.factorial(d))
