"""Power-sum coordinates for products of weight factors G(m*beta).

With G(z) = 1 + sum_k g_k z^k and b_k = k [z^k] log G(z), a product of
weight factors depends on its integer multipliers m only through their
power sums p_k(m) = sum_i m_i^k (Macdonald, Symmetric Functions and Hall
Polynomials, I.2):

    [beta^d] prod_i G(m_i beta) = sum over rho |- d of b^rho p_rho(m) / z_rho.

Newton's identity n g_n = sum_{k=1}^{n} b_k g_{n-k} makes each b_k, hence
each b^rho = prod over the parts k of rho of b_k, an integer polynomial in
the g.  Tau sums integer vectors over rho |- d (in `rhos(d)` order) over
Young diagrams, the correlator over the terms of a cycle sum; `to_gpoly`
converts such a sum to g once, in Python ints, dividing once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

from .algebra import GPoly
from .partitions import Partition, as_partition, partitions_of, z_of


@lru_cache(maxsize=None)
def rhos(d: int) -> tuple[Partition, ...]:
    """The partitions of d in reverse-lexicographic order: the order of the
    vectors over rho |- d and of the monomials g_nu, nu |- d."""
    return tuple(partitions_of(d))


@lru_cache(maxsize=None)
def _degree(d: int) -> tuple[dict[Partition, int], list[int], list[tuple[int, ...]]]:
    """For rhos(d): the position of each partition, the integers d!/z_rho,
    and the exponent tuple of each monomial g_nu."""
    fact = math.factorial(d)
    return ({r: j for j, r in enumerate(rhos(d))}, [fact // z_of(r) for r in rhos(d)],
            [tuple(r.count(k) for k in range(1, r[0] + 1)) if r else () for r in rhos(d)])


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


@lru_cache(maxsize=None)
def b_terms(k: int) -> dict[Partition, int]:
    """b_k = k g_k - sum_{j<k} b_j g_{k-j} as {nu: coefficient of g_nu}."""
    out = {(k,): k}
    for j in range(1, k):
        for nu, c in b_terms(j).items():
            nu = as_partition(nu + (k - j,))
            out[nu] = out.get(nu, 0) - c
    return out


@lru_cache(maxsize=None)
def b_power(rho: Partition) -> tuple[tuple[int, int], ...]:
    """b^rho as (j, c) pairs, c the coefficient of g_nu for nu =
    rhos(|rho|)[j]; built from the cached b^(rho minus its last part)."""
    if not rho:
        return ((0, 1),)
    k, d = rho[-1], sum(rho)
    lower, index = rhos(d - k), _degree(d)[0]
    acc: dict[int, int] = {}
    for j, c in b_power(rho[:-1]):
        for nu, c2 in b_terms(k).items():
            i = index[as_partition(lower[j] + nu)]
            acc[i] = acc.get(i, 0) + c * c2
    return tuple((i, c) for i, c in acc.items() if c)


def to_gpoly(v: Sequence[int], d: int, den: int = 1) -> GPoly:
    """sum over rho |- d of v_rho b^rho / z_rho, divided by den, for an
    integer vector v in `rhos(d)` order."""
    _, weights, exps = _degree(d)
    acc = [0] * len(v)
    for rho, x, w in zip(rhos(d), v, weights):
        if x:
            x *= w
            for j, c in b_power(rho):
                acc[j] += x * c
    return GPoly.from_int_terms(dict(zip(exps, acc)), den * math.factorial(d))
