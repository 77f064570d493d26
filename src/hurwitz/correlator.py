"""The pair-correlator pipeline.

Everything here is built from the two-index coefficient series

    rho_{ab}(beta) = (-1)^b * [ prod_{i=-b}^{a} G(i*beta) ] / (a! b! (a+b+1)),

whose beta^d coefficient rho^d_{ab} is a homogeneous GPoly of weighted
degree d.  The scalar denominator divides the whole product once (reading
it inside the product symbol does not reproduce the small-index reference
values).  The coefficients satisfy rho^d_{ab} = (-1)^{a+b+d} rho^d_{ba}.
Every sum here is a cycle sum of products of rho coefficients whose sizes
a_i + b_i + 1 add up to N = |mu|.  A bracket depends on its multipliers
only through their power sums s_k(a, b) = sum_{i=-b}^{a} i^k, which add
under products, and each term's scalar is an integer over N!, so a cycle
sum is a list of (integer weight, power-sum vector) pairs that
`series.power_sum_total` adds up and converts to g once (`_cycle_sum`);
`rho_coeff` is the one-term case.

Three consumers:

* closed forms for connected values with marked profile of length 1, 2, 3
  (linear / quadratic / cubic cycle sums over the rho grid);
* `wtilde_coeff`, an independent validator for any n that expands the
  connected n-point function directly from the cyclic-order products of
  pair kernels, each pole a geometric series in one region of the x_i
  (`_expansion`);
* nonconnected values from the connected closed forms by the forward
  exponential formula, `partitions.nonconnected_from_connected`, the same
  sum that `verify` uses to recombine tau's connected values.

As in tau, the values are kept per process (`partitions.partition_cache`),
so the exponential formula builds each (block, k) closed form once.

Conventions fixed against the other pipelines (see tests): the length-2
linear cycle sum runs over rho^d_{mu1+mu2-b-1, b}; the length-3 quadratic
pair sum has upper limit min(mu_i, mu_j) - 1, symmetric in the paired
parts.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable

from .algebra import GPoly
from .partitions import (Partition, as_partition, aut_of, nonconnected_from_connected,
                         partition_cache)
from .series import power_sum_total

# A term (c, ((a_1, b_1), ...)) of a cycle sum stands for c * prod_i rho_{a_i b_i}.
Term = tuple[int, tuple[tuple[int, int], ...]]


@lru_cache(maxsize=None)
def _factor(a: int, b: int, d: int) -> tuple[int, tuple[int, ...]]:
    """rho_ab's scalar as 1/den, den = (-1)^b a! b! (a+b+1), and the power
    sums s_k = sum_{i=-b}^{a} i^k of its multipliers, k = 1..d."""
    den = (-1) ** b * math.factorial(a) * math.factorial(b) * (a + b + 1)
    return den, tuple(sum(i ** k for i in range(-b, a + 1)) for k in range(1, d + 1))


def _cycle_sum(N: int, d: int, terms: Iterable[Term], den: int = 1) -> GPoly:
    """[beta^d] sum over terms of c * prod_i rho_{a_i b_i}, divided by den.

    The sizes n_i = a_i + b_i + 1 of every term add up to N, so each term's
    scalar c / prod_i den_i (see `_factor`) is an integer over N! (N! /
    prod_i n_i! and each C(a_i + b_i, a_i) are integers), and its weight
    factors have the summed power sums of its factors.
    """
    fact = math.factorial(N)

    def weighted():
        for c, factors in terms:
            parts = [_factor(a, b, d) for a, b in factors]
            yield (c * fact // math.prod(den_i for den_i, _ in parts),
                   map(sum, zip(*(s for _, s in parts))))

    return power_sum_total(weighted(), d, den * fact)


@lru_cache(maxsize=None)
def rho_coeff(a: int, b: int, d: int) -> GPoly:
    """rho^d_{ab} as a GPoly: the one-term cycle sum."""
    if a < 0 or b < 0:
        raise ValueError("rho indices must be >= 0")
    return _cycle_sum(a + b + 1, d, ((1, ((a, b),)),))


# -- closed forms for length(mu) <= 3 ------------------------------------


def connected_len1(mu1: int, d: int) -> GPoly:
    """Connected value for a single marked part: (1/mu1) sum_a rho^d_{a, mu1-a-1}."""
    if mu1 < 1:
        raise ValueError("part must be >= 1")
    terms = ((1, ((a, mu1 - 1 - a),)) for a in range(mu1))
    return _cycle_sum(mu1, d, terms, mu1)


def connected_len2(mu1: int, mu2: int, d: int) -> GPoly:
    """Connected value for two marked parts: parity-gated linear sum minus
    the quadratic convolution of pair coefficients."""
    if mu1 < 1 or mu2 < 1:
        raise ValueError("parts must be >= 1")
    parity = 1 + (-1) ** (d + mu1 + mu2)
    terms: list[Term] = []
    if parity:
        terms += [(parity, ((mu1 + mu2 - b - 1, b),)) for b in range(mu2)]
    terms += [(-1, ((a, mu2 - b - 1), (b, mu1 - a - 1)))
              for a in range(mu1) for b in range(mu2)]
    return _cycle_sum(mu1 + mu2, d, terms, mu1 * mu2 * aut_of((mu1, mu2)))


def connected_len3(mu1: int, mu2: int, mu3: int, d: int) -> GPoly:
    """Connected value for three marked parts: linear + quadratic + cubic
    cycle sums, all gated by the odd-parity factor 1 - (-1)^(d+|mu|)."""
    if min(mu1, mu2, mu3) < 1:
        raise ValueError("parts must be >= 1")
    if (d + mu1 + mu2 + mu3) % 2 == 0:
        return GPoly.zero()
    terms: list[Term] = []
    # linear part; every term carries the parity factor 2
    for b in range(mu2):
        terms.append((2, ((mu2 - b - 1, mu1 + mu3 + b),)))
        terms.append((-2, ((mu1 + mu2 - b - 1, mu3 + b),)))
    # quadratic part over the three pair splittings; the pair-sum upper
    # limit is min of the paired parts (symmetric in them)
    for m1, m2, m3 in ((mu1, mu2, mu3), (mu1, mu3, mu2), (mu3, mu2, mu1)):
        terms += [(2, ((c, m1 + m2 - a - 1), (a, m3 - c - 1)))
                  for a in range(min(m1, m2)) for c in range(m3)]
    # cubic part
    terms += [(2, ((a, mu2 - b - 1), (b, mu3 - c - 1), (c, mu1 - a - 1)))
              for a in range(mu1) for b in range(mu2) for c in range(mu3)]
    return _cycle_sum(mu1 + mu2 + mu3, d, terms, mu1 * mu2 * mu3 * aut_of((mu1, mu2, mu3)))


@partition_cache
def connected_closed_form(mu: Partition, d: int) -> GPoly:
    """Dispatch the length-1/2/3 closed forms."""
    if len(mu) == 1:
        return connected_len1(mu[0], d)
    if len(mu) == 2:
        return connected_len2(mu[0], mu[1], d)
    if len(mu) == 3:
        return connected_len3(mu[0], mu[1], mu[2], d)
    raise ValueError("closed forms cover marked profiles of length 1..3 only")


# -- nonconnected assembly (exponential formula, length <= 3) ------------

@partition_cache
def nonconnected_assemble(mu: Partition, d: int) -> GPoly:
    """Nonconnected value from the connected closed forms for length(mu) <= 3."""
    if not 1 <= len(mu) <= 3:
        raise ValueError("closed-form assembly covers length 1..3 only")
    return nonconnected_from_connected(mu, d, connected_closed_form)


# -- direct expansion of the connected n-point functions -----------------


@lru_cache(maxsize=None)
def _expansion(exponents: tuple[int, ...]) -> tuple[Term, ...]:
    """Terms of the coefficient of prod_i x_i^(e_i) in the connected n-point
    function W_n = (-1)^(n+1) sum over cyclic orders sigma of
    prod_i K(x_i, x_sigma(i)), where K(x, y) = 1/(x - y) + R(x, y) and
    R(x, y) = sum rho_ab x^a y^b (for n = 1 the loop R(x, x)).

    W_n is a power series (the n = 2 double pole aside), so its coefficient
    is the sum of the coefficients of its products expanded in the region
    |x_0| < |x_1| < ..., where 1/(x_i - x_j) = -sum_k x_i^k x_j^(-k-1) for
    i < j and +sum_k x_j^k x_i^(-k-1) for i > j.  An all-pole product has
    degree -n and never contributes.  Poles are taken in order of their
    larger index, so each k is bounded by what the smaller vertex has left;
    each vertex then splits what it has left between its R edges.  The
    terms do not depend on d, so they are built once per exponent tuple.
    """
    n = len(exponents)
    signs: Counter = Counter()
    for rest in permutations(range(1, n)):
        cycle = (0,) + rest
        edges = [(cycle[t], cycle[(t + 1) % n]) for t in range(n)]
        for mask in range(1, 2 ** n):
            r = [mask >> t & 1 for t in range(n)]
            states = [(list(exponents), (-1) ** (n + 1))]
            for i, j in sorted((e for e, rt in zip(edges, r) if not rt), key=max):
                lo, hi = sorted((i, j))
                nxt = []
                for left, sign in states:
                    for k in range(left[lo] + 1):
                        new = left[:]
                        new[lo] -= k
                        new[hi] += k + 1
                        nxt.append((new, -sign if i < j else sign))
                states = nxt
            for left, sign in states:
                choices = []
                for t, v in enumerate(cycle):   # v leaves by edge t, enters by t - 1
                    spare, out, inn = left[v], r[t], r[t - 1]
                    if not (out or inn) and spare:
                        break
                    a_s = range(spare + 1) if out and inn else (spare if out else 0,)
                    choices.append([(a, spare - a) for a in a_s])
                else:
                    for split in product(*choices):
                        key = tuple(sorted((split[t][0], split[(t + 1) % n][1])
                                           for t in range(n) if r[t]))
                        signs[key] += sign
    return tuple((c, key) for key, c in signs.items() if c)


def wtilde_coeff(exponents: tuple[int, ...], d: int) -> GPoly:
    """[beta^d] of the coefficient of prod_i x_i^(e_i) in W_n, n = len(exponents)."""
    if not exponents:
        raise ValueError("the expansion needs at least one exponent")
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be >= 0")
    # every term has total size sum(a_i + b_i + 1) = sum(exponents) + n
    return _cycle_sum(sum(exponents) + len(exponents), d, _expansion(tuple(exponents)))


def connected_via_wtilde(mu: Partition, d: int) -> GPoly:
    """Connected value for any profile straight from the expansion."""
    mu = as_partition(mu)
    return wtilde_coeff(tuple(m - 1 for m in mu), d) / (math.prod(mu) * aut_of(mu))
