"""The character/content-product pipeline, valid for any profile length.

The nonconnected value for a profile mu of weight N and branching order d
is the coefficient extraction

    H^d(mu) = sum over lambda |- N of
              chi_lambda(mu) / (hook_product(lambda) * z_mu)
              * [beta^d] prod over boxes (i,j) of lambda of G((j - i) beta).

The content product depends on the diagram only through the power sums
of its contents, [beta^d] prod G(c beta) = sum over rho |- d of
b^rho p_rho(contents) / z_rho (see `series`); content power sums are the
central characters of completed cycles (Okounkov and Pandharipande, Ann.
Math. 163 (2006)), and the product is the eigenvalue of prod G(beta J_a)
on Jucys-Murphy elements (Guay-Paquet and Harnad, J. Math. Phys. 58
(2017)).  `hurwitz_any` hands `series.power_sum_total` each diagram's
integer weight chi_lambda(mu) * N!/h_lambda with the power sums of its
contents, and the sum is converted to the g once.

Connected values follow from the exponential formula over the labeled
profile entries, with the block holding the first label pinned (Stanley,
EC2 section 5.1).  Write E_s(beta) = exp(sum_k b_k s_k beta^k / k), so that
a diagram's content product is E_s for its content power sums s, and
E_s E_t = E_{s+t} (Macdonald I.2).  The labeled generating function
sum over d of |aut mu| H^d(mu) beta^d is then a finite sum

    sum over s of Phi(mu)[s] E_s(beta) / (N! prod mu),

where the dict Phi(mu) maps s to the sum of chi_lambda(mu) N!/h_lambda
over the lambda with content power sums s.  A product of two such sums
adds the vectors and multiplies the weights, with no convolution over
degrees, and only s_1..s_d matter for [beta^d].  With Psi(mu) the
connected counterpart of Phi(mu), in integer weights over the same
N! prod mu,

    Psi(mu) = Phi(mu) - sum over blocks B, first label in B, B != mu,
              C(N, |B|) Psi(B) Phi(mu minus B),

where equal (block, rest) multiset pairs are summed once with their count.
`connected_any` is `hurwitz_any` minus one walk over the sum of products,
over the denominator N! z_mu; the dicts of the sub-profiles live for that
one call.

Both value functions are kept per process on (sorted mu, d) alone
(`partitions.partition_cache`); the size caps of a request are checked
before it reaches them, by `cli.compute`.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from operator import add

from .algebra import GPoly
from .partitions import (
    Partition,
    as_partition,
    character,
    contents,
    hook_product,
    partition_cache,
    partitions_of,
    z_of,
)
from .series import power_sum_total

PowerSumDict = dict[tuple[int, ...], int]


@partition_cache
def hurwitz_any(mu: Partition, d: int) -> GPoly:
    """Nonconnected generic value for any profile length."""
    if d < 0:
        raise ValueError("d must be >= 0")
    phi = _phi(mu, d)
    return power_sum_total(zip(phi.values(), phi), d, math.factorial(sum(mu)) * z_of(mu))


def _phi(mu: Partition, d: int) -> PowerSumDict:
    """Phi(mu): {p_1 .. p_d of lambda's contents: chi_lambda(mu) N!/h_lambda}
    over lambda |- N, the weights of equal vectors summed."""
    # chi/hook = chi * f_lambda / N! with f_lambda = N!/hook an integer, so
    # the weights are integers over the common denominator N! * z_mu
    N = sum(mu)
    fact = math.factorial(N)
    out: PowerSumDict = {}
    for lam in partitions_of(N):
        chi = character(lam, mu)
        if chi:
            s = tuple(_content_power_sums(lam, d))
            out[s] = out.get(s, 0) + chi * (fact // hook_product(lam))
    return out


def _content_power_sums(lam: Partition, d: int) -> list[int]:
    """p_1 .. p_d of the contents of lam, one running power per content."""
    sums = [0] * d
    for c in contents(lam):
        power = 1
        for k in range(d):
            power *= c
            sums[k] += power
    return sums


@partition_cache
def connected_any(mu: Partition, d: int) -> GPoly:
    """Connected value for any profile length, by the exponential formula
    of the module docstring: Psi(mu) / (N! z_mu), read as the nonconnected
    value minus one walk over the products."""
    if len(mu) < 2:
        return hurwitz_any(mu, d)
    products = _products(mu, d, {}, {})
    return hurwitz_any(mu, d) - power_sum_total(zip(products.values(), products), d,
                                                math.factorial(sum(mu)) * z_of(mu))


def _products(mu: Partition, d: int, phis: dict, psis: dict) -> PowerSumDict:
    """The sum over blocks B of C(N, |B|) Psi(B) Phi(mu minus B) in the
    recursion of the module docstring.  phis and psis keep this request's
    Phi of each rest and Psi of each block; zero weights are dropped from
    each Psi(B) and from the sum, so no later product carries them."""
    n, N = len(mu), sum(mu)
    # blocks holding label 0 other than mu itself, grouped by the multiset
    # pair (block, rest) they split mu into; both keep mu's decreasing order
    pairs: Counter[tuple[Partition, Partition]] = Counter()
    for size in range(n - 1):
        for others in combinations(range(1, n), size):
            block = (mu[0],) + tuple(mu[i] for i in others)
            rest = tuple(mu[i] for i in range(1, n) if i not in others)
            pairs[block, rest] += 1
    out: PowerSumDict = {}
    get = out.get
    for (block, rest), count in pairs.items():
        if block not in psis:
            psi = _phi(block, d)
            for s, w in _products(block, d, phis, psis).items():
                psi[s] = psi.get(s, 0) - w
            psis[block] = {s: w for s, w in psi.items() if w}
        if rest not in phis:
            phis[rest] = _phi(rest, d)
        scale = count * math.comb(N, sum(block))
        phi = phis[rest].items()
        for s, w in psis[block].items():
            w *= scale
            for t, v in phi:
                key = tuple(map(add, s, t))
                out[key] = get(key, 0) + w * v
    return {s: w for s, w in out.items() if w}


def genus_slice(g: int, mu: Partition) -> GPoly:
    """Connected value at branching order d = 2g - 2 + length + weight."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    mu = as_partition(mu)
    d = 2 * g - 2 + len(mu) + sum(mu)
    if d < 0:
        return GPoly.zero()
    return connected_any(mu, d)
