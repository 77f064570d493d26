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
* nonconnected values for length 1, 2, 3 by the exponential formula
  (Stanley, EC2 section 5.1) over the same terms;
* `wtilde_coeff`, an independent validator for any n that expands the
  connected n-point function directly from the cyclic-order products of
  pair kernels, each pole a geometric series in one region of the x_i
  (`_expansion`).

The closed forms do not depend on d.  Each is a pair (G, F) of term lists
(`_closed_terms`), and the connected series of mu is

    sum over d of C(mu, d) beta^d = (G(beta) + eps G(-beta) + F(beta)) / z_mu,

with eps = (-1)^(|mu| + len(mu)).  F(-beta) = eps F(beta), so the series
lives in the degrees d = |mu| + len(mu) mod 2, where it is (2 G + F) / z_mu:
one cycle sum per connected value.  G(-beta) is a list of terms too, by the
transpose symmetry: rho_ab(-beta) = (-1)^(a+b) rho_ba(beta).  So
z_mu H(mu) = sum over set partitions of mu's labels of the product over the
blocks B of z_B C(B) is one cycle sum as well, over the products of the
blocks' terms (factors concatenate, coefficients multiply), with no
connected value and no sum over the splits of d among the blocks.  The
forward sum over connected values, `partitions.nonconnected_from_connected`,
is left to `verify`, which recombines tau's connected values with it.

Both value functions are kept per process (`partitions.partition_cache`).

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
from .partitions import Partition, as_partition, partition_cache, set_partitions, z_of
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


def _closed_terms(mu: Partition) -> tuple[list[Term], list[Term]]:
    """The terms (G, F) of mu's connected series, which is
    (G(beta) + eps G(-beta) + F(beta)) / z_mu with eps = (-1)^(|mu|+len(mu))."""
    if len(mu) == 1:
        (m,) = mu
        return [], [(1, ((a, m - a - 1),)) for a in range(m)]
    if len(mu) == 2:
        # linear sum, minus the quadratic convolution of pair coefficients
        m1, m2 = mu
        return ([(1, ((m1 + m2 - b - 1, b),)) for b in range(m2)],
                [(-1, ((a, m2 - b - 1), (b, m1 - a - 1))) for a in range(m1) for b in range(m2)])
    if len(mu) == 3:
        m1, m2, m3 = mu
        terms: list[Term] = []
        for b in range(m2):                         # linear part
            terms.append((1, ((m2 - b - 1, m1 + m3 + b),)))
            terms.append((-1, ((m1 + m2 - b - 1, m3 + b),)))
        # quadratic part over the three pair splittings; the pair-sum upper
        # limit is min of the paired parts (symmetric in them)
        for p1, p2, p3 in ((m1, m2, m3), (m1, m3, m2), (m3, m2, m1)):
            terms += [(1, ((c, p1 + p2 - a - 1), (a, p3 - c - 1)))
                      for a in range(min(p1, p2)) for c in range(p3)]
        terms += [(1, ((a, m2 - b - 1), (b, m3 - c - 1), (c, m1 - a - 1)))   # cubic part
                  for a in range(m1) for b in range(m2) for c in range(m3)]
        return terms, []
    raise ValueError("closed forms cover marked profiles of length 1..3 only")


@partition_cache
def connected_closed_form(mu: Partition, d: int) -> GPoly:
    """Connected value for length(mu) <= 3: [beta^d] is 0 unless
    d = |mu| + len(mu) mod 2, and (2 G + F) / z_mu otherwise."""
    G, F = _closed_terms(mu)
    if (d + sum(mu) + len(mu)) % 2:
        return GPoly.zero()
    return _cycle_sum(sum(mu), d, [(2 * c, f) for c, f in G] + F, z_of(mu))


# -- nonconnected assembly (exponential formula, length <= 3) ------------


def _block_series(block: Partition) -> list[Term]:
    """The terms of z_B times B's connected series, G(-beta) written with
    rho_ab(-beta) = (-1)^(a+b) rho_ba(beta)."""
    G, F = _closed_terms(block)
    eps = (-1) ** (sum(block) + len(block))
    mirror = [(eps * (-1) ** sum(map(sum, f)) * c, tuple((b, a) for a, b in f)) for c, f in G]
    return G + mirror + F


@partition_cache
def nonconnected_assemble(mu: Partition, d: int) -> GPoly:
    """Nonconnected value for length(mu) <= 3 by the exponential formula:
    z_mu H(mu) is the sum over set partitions of mu's labels of the product
    of the blocks' series z_B C(B), read off in one cycle sum."""
    if not 1 <= len(mu) <= 3:
        raise ValueError("closed-form assembly covers length 1..3 only")
    terms = (
        (math.prod(c for c, _ in choice), sum((f for _, f in choice), ()))
        for blocks in set_partitions(mu)
        for choice in product(*(_block_series(as_partition(b)) for b in blocks))
    )
    return _cycle_sum(sum(mu), d, terms, z_of(mu))


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
    return wtilde_coeff(tuple(m - 1 for m in mu), d) / z_of(mu)
