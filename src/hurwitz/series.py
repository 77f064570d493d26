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
of equal s, expands each distinct s into its products p_rho(m) over
rho |- d (in `rhos(d)` order) and converts the weighted sum to g once
(`to_gpoly`), in Python ints, dividing once.  The conversion runs Horner's
rule on the trie of the partitions, one b_k per edge (the p -> h change of
basis, Macdonald I.6); no vector over rho outlives the call.  Inside this
module a monomial g_nu is the integer sum_k m_k(nu) 256^(k-1) (a
multiplicity is at most PARTITION_CAP < 256), so a product of monomials
is one addition.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, Sequence

from .algebra import GPoly
from .partitions import Partition, partitions_of, z_of


@lru_cache(maxsize=None)
def rhos(d: int) -> tuple[Partition, ...]:
    """The partitions of d in reverse-lexicographic order: the order of the
    vectors over rho |- d, and the depth-first order of their trie."""
    return tuple(partitions_of(d))


@lru_cache(maxsize=None)
def _degree(d: int) -> tuple[dict[Partition, int], list[int]]:
    """For rhos(d): the position of each partition and the integers d!/z_rho."""
    fact = math.factorial(d)
    return {r: j for j, r in enumerate(rhos(d))}, [fact // z_of(r) for r in rhos(d)]


@lru_cache(maxsize=None)
def _recipe(d: int) -> tuple[tuple[int, int, int], ...]:
    """p_rho = p_{rho minus its last part k} * p_k for rho |- d, as
    (d - k, position of rho minus k in rhos(d - k), k - 1)."""
    return tuple((d - r[-1], _degree(d - r[-1])[0][r[:-1]], r[-1] - 1) for r in rhos(d))


def power_products(p: Sequence[int], d: int) -> list[int]:
    """[p_rho for rho in rhos(d)], where p[k - 1] holds p_k for k = 1..d."""
    out = [[1]]
    for n in range(1, d + 1):
        out.append([out[m][j] * p[k] for m, j, k in _recipe(n)])
    return out[d]


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


def _horner(n: int, top: int, u: Iterator[int]) -> Iterable[tuple[int, int]]:
    """S(n, top) = sum of u_rho b^rho over rho |- n with parts <= top, as
    (code, coefficient) pairs, read from u in `rhos` order: the sum over
    k <= top of b_k S(n - k, min(k, n - k))."""
    if top <= 1:                        # only rho = (1^n), and b_1^n = g_1^n
        x = next(u)
        return ((n, x),) if x else ()
    acc: dict[int, int] = {}
    get = acc.get
    for k in range(top, 0, -1):
        bk = b_terms(k).items()
        for c1, x in _horner(n - k, min(k, n - k), u):
            for c2, y in bk:
                c = c1 + c2
                acc[c] = get(c, 0) + x * y
    return acc.items()


def to_gpoly(v: Sequence[int], d: int, den: int = 1) -> GPoly:
    """sum over rho |- d of v_rho b^rho / z_rho, divided by den, for an
    integer vector v in `rhos(d)` order."""
    s = _horner(d, d, map(mul, v, _degree(d)[1]))     # u_rho = v_rho d!/z_rho
    return GPoly.from_int_terms({exponent(c): x for c, x in s}, den * math.factorial(d))


def power_sum_total(terms: Iterable[tuple[int, Iterable[int]]], d: int, den: int = 1) -> GPoly:
    """sum over (w, s) of w [beta^d] prod_i G(m_i beta), divided by den,
    where s = (p_1(m), ..., p_d(m)) holds the power sums of the integer
    multipliers m: one `power_products` per distinct s."""
    totals: dict[tuple[int, ...], int] = {}
    for w, s in terms:
        s = tuple(s)
        totals[s] = totals.get(s, 0) + w
    acc = [0] * len(rhos(d))
    for s, w in totals.items():
        if w:
            acc = [x + w * y for x, y in zip(acc, power_products(s, d))]
    return to_gpoly(acc, d, den)
