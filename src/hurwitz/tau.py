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
EC2 section 5.1): with phi = |aut| * nonconnected and psi = |aut| *
connected,

    psi(mu, d) = phi(mu, d) - sum over blocks B, first label in B, B != mu,
                 sum over k of psi(B, k) * phi(mu minus B, d - k),

where equal (block, rest) multiset pairs are summed once with their count.

Both value functions are kept per process on (sorted mu, d) alone
(`partitions.partition_cache`); the size caps of a request are checked
before it reaches them, by `cli.compute`.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

from .algebra import GPoly
from .partitions import (
    Partition,
    as_partition,
    aut_of,
    character,
    contents,
    hook_product,
    partition_cache,
    partitions_of,
    z_of,
)
from .series import power_sum_total


@partition_cache
def hurwitz_any(mu: Partition, d: int) -> GPoly:
    """Nonconnected generic value for any profile length."""
    if d < 0:
        raise ValueError("d must be >= 0")
    N = sum(mu)
    # chi/hook = chi * f_lambda / N! with f_lambda = N!/hook an integer, so
    # the sum runs in integers over the common denominator N! * z_mu
    fact = math.factorial(N)
    terms = []
    for lam in partitions_of(N):
        chi = character(lam, mu)
        if chi:
            terms.append((chi * (fact // hook_product(lam)), _content_power_sums(lam, d)))
    return power_sum_total(terms, d, fact * z_of(mu))


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
    """Connected value for any profile length, by the exponential formula.

    Labeled values phi(parts) := |aut(parts)| * H(parts) and psi(parts) :=
    |aut(parts)| * connected(parts) satisfy the recursion of the module
    docstring; the result is psi(mu, d) / |aut(mu)|.
    """
    n = len(mu)
    if n == 0:
        return GPoly.one() if d == 0 else GPoly.zero()
    acc = hurwitz_any(mu, d).scale(aut_of(mu))
    # blocks holding label 0 other than mu itself, grouped by the multiset
    # pair (block, rest) they split mu into; both keep mu's decreasing order
    pairs: Counter[tuple[Partition, Partition]] = Counter()
    for size in range(n - 1):
        for others in combinations(range(1, n), size):
            block = (mu[0],) + tuple(mu[i] for i in others)
            rest = tuple(mu[i] for i in range(1, n) if i not in others)
            pairs[block, rest] += 1
    for (block, rest), count in pairs.items():
        aut_block, aut_rest = aut_of(block), aut_of(rest)
        for k in range(d + 1):
            tail = hurwitz_any(rest, d - k)
            if not tail:
                continue
            head = connected_any(block, k)
            if head:
                acc = acc - (head * tail).scale(count * aut_block * aut_rest)
    return acc / aut_of(mu)


def genus_slice(g: int, mu: Partition) -> GPoly:
    """Connected value at branching order d = 2g - 2 + length + weight."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    mu = as_partition(mu)
    d = 2 * g - 2 + len(mu) + sum(mu)
    if d < 0:
        return GPoly.zero()
    return connected_any(mu, d)
