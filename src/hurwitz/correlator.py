"""The pair-correlator pipeline.

Everything here is built from the two-index coefficient series

    rho_{ab}(beta) = (-1)^b * [ prod_{i=-b}^{a} G(i*beta) ] / (a! b! (a+b+1)),

whose beta^d coefficient rho^d_{ab} is a homogeneous GPoly of weighted
degree d.  The scalar denominator divides the whole product once (reading
it inside the product symbol does not reproduce the small-index reference
values).  The coefficients satisfy rho^d_{ab} = (-1)^{a+b+d} rho^d_{ba}.
Only single coefficients are ever read, so they are computed and cached
per index d, never as truncated series: asking for a higher d reuses every
lower coefficient already held.  The bracketed product has integer
coefficients (`series.g_terms`), so pair and triple products of rho
coefficients are convolved as integer term maps and scaled once, by the
product of their scalar prefactors.

Three consumers:

* closed forms for connected values with marked profile of length 1, 2, 3
  (linear / quadratic / cubic cycle sums over the rho grid);
* `wtilde_coeff`, an independent validator that expands the connected
  n-point functions directly from single-n-cycle products of pair kernels,
  eliminating the 1/(x_i - x_j) poles exactly with telescoping
  divided-difference identities (any residual pole is a hard error);
* nonconnected values from the connected closed forms by the forward
  exponential formula, `partitions.nonconnected_from_connected`, the same
  sum that `verify` uses to recombine tau's connected values.

Conventions fixed against the other pipelines (see tests): the length-2
linear cycle sum runs over rho^d_{mu1+mu2-b-1, b}; the length-3 quadratic
pair sum has upper limit min(mu_i, mu_j) - 1, symmetric in the paired
parts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import GPoly
from .partitions import Partition, as_partition, aut_of, nonconnected_from_connected
from .series import Terms, add_product, g_terms


def _rho_scale(a: int, b: int) -> Fraction:
    if a < 0 or b < 0:
        raise ValueError("rho indices must be >= 0")
    return Fraction((-1) ** b, math.factorial(a) * math.factorial(b) * (a + b + 1))


def _rho_terms(a: int, b: int, d: int) -> Terms:
    """[beta^d] prod_{i=-b}^{a} G(i beta) as an integer term map (G(0) = 1)."""
    return g_terms(tuple(i for i in range(-b, a + 1) if i), d)


@lru_cache(maxsize=None)
def rho_coeff(a: int, b: int, d: int) -> GPoly:
    """rho^d_{ab} as a GPoly."""
    return GPoly.from_int_terms(_rho_terms(a, b, d), _rho_scale(a, b))


@lru_cache(maxsize=None)
def _pair_terms(r1: tuple[int, int], r2: tuple[int, int], d: int) -> Terms:
    """The integer product map under [beta^d] rho_{r1} rho_{r2}, r = (a, b);
    callers pass r1 <= r2, since the product is symmetric."""
    out: dict = {}
    for k in range(d + 1):
        add_product(out, _rho_terms(*r1, k), _rho_terms(*r2, d - k))
    return {e: c for e, c in out.items() if c}


def _rho_pair_coeff(a1: int, b1: int, a2: int, b2: int, d: int) -> GPoly:
    """[beta^d] rho_{a1 b1} rho_{a2 b2}."""
    r1, r2 = sorted(((a1, b1), (a2, b2)))
    return GPoly.from_int_terms(_pair_terms(r1, r2, d),
                                _rho_scale(a1, b1) * _rho_scale(a2, b2))


def _rho_triple_coeff(a1: int, b1: int, a2: int, b2: int, a3: int, b3: int,
                      d: int) -> GPoly:
    """[beta^d] rho_{a1 b1} rho_{a2 b2} rho_{a3 b3}."""
    r1, r2 = sorted(((a1, b1), (a2, b2)))
    out: dict = {}
    for k in range(d + 1):
        add_product(out, _pair_terms(r1, r2, k), _rho_terms(a3, b3, d - k))
    return GPoly.from_int_terms(
        out, _rho_scale(a1, b1) * _rho_scale(a2, b2) * _rho_scale(a3, b3))


# -- closed forms for length(mu) <= 3 ------------------------------------


def connected_len1(mu1: int, d: int) -> GPoly:
    """Connected value for a single marked part: (1/mu1) sum_a rho^d_{a, mu1-a-1}."""
    if mu1 < 1:
        raise ValueError("part must be >= 1")
    acc = GPoly.zero()
    for a in range(mu1):
        acc = acc + rho_coeff(a, mu1 - 1 - a, d)
    return acc / mu1


def connected_len2(mu1: int, mu2: int, d: int) -> GPoly:
    """Connected value for two marked parts: parity-gated linear sum minus
    the quadratic convolution of pair coefficients."""
    if mu1 < 1 or mu2 < 1:
        raise ValueError("parts must be >= 1")
    parity = 1 + (-1) ** (d + mu1 + mu2)
    acc = GPoly.zero()
    if parity:
        for b in range(mu2):
            acc = acc + rho_coeff(mu1 + mu2 - b - 1, b, d).scale(parity)
    for a in range(mu1):
        for b in range(mu2):
            acc = acc - _rho_pair_coeff(a, mu2 - b - 1, b, mu1 - a - 1, d)
    return acc / (mu1 * mu2 * aut_of((mu1, mu2)))


def connected_len3(mu1: int, mu2: int, mu3: int, d: int) -> GPoly:
    """Connected value for three marked parts: linear + quadratic + cubic
    cycle sums, all gated by the odd-parity factor 1 - (-1)^(d+|mu|)."""
    if min(mu1, mu2, mu3) < 1:
        raise ValueError("parts must be >= 1")
    parity = 1 - (-1) ** (d + mu1 + mu2 + mu3)
    if not parity:
        return GPoly.zero()
    acc = GPoly.zero()
    # linear part
    for b in range(mu2):
        acc = acc + rho_coeff(mu2 - b - 1, mu1 + mu3 + b, d)
        acc = acc - rho_coeff(mu1 + mu2 - b - 1, mu3 + b, d)
    # quadratic part over the three pair splittings; the pair-sum upper
    # limit is min of the paired parts (symmetric in them)
    for m1, m2, m3 in ((mu1, mu2, mu3), (mu1, mu3, mu2), (mu3, mu2, mu1)):
        for a in range(min(m1, m2)):
            for c in range(m3):
                acc = acc + _rho_pair_coeff(c, m1 + m2 - a - 1, a, m3 - c - 1, d)
    # cubic part
    for a in range(mu1):
        for b in range(mu2):
            for c in range(mu3):
                acc = acc + _rho_triple_coeff(a, mu2 - b - 1, b, mu3 - c - 1,
                                              c, mu1 - a - 1, d)
    return acc.scale(Fraction(parity, mu1 * mu2 * mu3 * aut_of((mu1, mu2, mu3))))


def connected_closed_form(mu: Partition, d: int) -> GPoly:
    """Dispatch the length-1/2/3 closed forms for a sorted partition."""
    mu = as_partition(mu)
    if len(mu) == 1:
        return connected_len1(mu[0], d)
    if len(mu) == 2:
        return connected_len2(mu[0], mu[1], d)
    if len(mu) == 3:
        return connected_len3(mu[0], mu[1], mu[2], d)
    raise ValueError("closed forms cover marked profiles of length 1..3 only")


# -- nonconnected assembly (exponential formula, length <= 3) ------------

def nonconnected_assemble(mu: Partition, d: int) -> GPoly:
    """Nonconnected value from the connected closed forms for length(mu) <= 3."""
    mu = as_partition(mu)
    if not 1 <= len(mu) <= 3:
        raise ValueError("closed-form assembly covers length 1..3 only")
    return nonconnected_from_connected(mu, d, connected_closed_form)


# -- direct expansion of the connected n-point functions -----------------


def _telescope(u: int, v: int):
    """Monomials of (x^u y^v - x^v y^u)/(x - y) as ((i, j), sign) pairs.

    The expansion is exact: u > v gives +x^t y^(u+v-1-t) for v <= t < u,
    u < v the mirrored negatives, u = v nothing.  This identity is the only
    way poles are ever removed, so no division (hence no residue) occurs.
    """
    if u == v:
        return ()
    if u > v:
        return tuple(((t, u + v - 1 - t), 1) for t in range(v, u))
    return tuple(((t, u + v - 1 - t), -1) for t in range(u, v))


def _w1(p: int, d: int) -> GPoly:
    acc = GPoly.zero()
    for a in range(p + 1):
        acc = acc + rho_coeff(a, p - a, d)
    return acc


def _w2(p: int, q: int, d: int) -> GPoly:
    acc = GPoly.zero()
    # divided difference of the antisymmetrized kernel
    for a in range(p + q + 2):
        b = p + q + 1 - a
        if b < 0:
            continue
        for (i, j), sign in _telescope(a, b):
            if i == p and j == q:
                acc = acc + rho_coeff(a, b, d).scale(sign)
    # minus the product of the two kernels
    for a in range(p + 1):
        for b in range(q + 1):
            acc = acc + _rho_pair_coeff(a, q - b, b, p - a, d).scale(-1)
    return acc


def _w3(p1: int, p2: int, p3: int, d: int) -> GPoly:
    acc = GPoly.zero()
    # single-kernel bracket: double divided differences
    for a in range(p1 + p2 + p3 + 3):
        for b in range(p1 + p2 + p3 + 3 - a):
            sign_total = 0
            if p1 < a:
                for (i, j), sign in _telescope(a - 1 - p1, b):
                    if i == p2 and j == p3:
                        sign_total += sign
            if p1 < b:
                for (i, j), sign in _telescope(b - 1 - p1, a):
                    if i == p2 and j == p3:
                        sign_total += sign
            if sign_total:
                acc = acc + rho_coeff(a, b, d).scale(sign_total)
    # two-kernel brackets, one divided difference each
    for bexp in range(p3 + 1):
        aexp = p3 - bexp
        for a in range(p1 + p2 + 2):
            bp = p1 + p2 + 1 - a
            if bp < 0:
                continue
            for (i, j), sign in _telescope(a, bp):
                if i == p1 and j == p2:
                    acc = acc + _rho_pair_coeff(a, bexp, aexp, bp, d).scale(-sign)
    for a in range(p1 + 1):
        bp = p1 - a
        for b in range(p2 + p3 + 2):
            ap = p2 + p3 + 1 - b
            if ap < 0:
                continue
            for (i, j), sign in _telescope(b, ap):
                if i == p2 and j == p3:
                    acc = acc + _rho_pair_coeff(a, b, ap, bp, d).scale(sign)
    for b in range(p2 + 1):
        ap = p2 - b
        for a in range(p1 + p3 + 2):
            bp = p1 + p3 + 1 - a
            if bp < 0:
                continue
            for (i, j), sign in _telescope(a, bp):
                if i == p1 and j == p3:
                    acc = acc + _rho_pair_coeff(a, b, ap, bp, d).scale(-sign)
    # three-kernel bracket: both cyclic orders, plain convolution
    for a1 in range(p1 + 1):
        b3 = p1 - a1
        for b1 in range(p2 + 1):
            a2 = p2 - b1
            for b2 in range(p3 + 1):
                a3 = p3 - b2
                acc = acc + _rho_triple_coeff(a1, b1, a2, b2, a3, b3, d)
    for a1 in range(p1 + 1):
        b3 = p1 - a1
        for b2 in range(p2 + 1):
            a3 = p2 - b2
            for b1 in range(p3 + 1):
                a2 = p3 - b1
                acc = acc + _rho_triple_coeff(a1, b1, a2, b2, a3, b3, d)
    return acc


def wtilde_coeff(n: int, exponents: tuple[int, ...], d: int) -> GPoly:
    """[beta^d] of one coefficient of the connected n-point expansion."""
    if n not in (1, 2, 3):
        raise ValueError("the expansion is implemented for n = 1, 2, 3")
    if len(exponents) != n:
        raise ValueError("exponent arity mismatch")
    if any(e < 0 for e in exponents):
        raise RuntimeError("internal error: residual pole (negative exponent)")
    kernel = {1: _w1, 2: _w2, 3: _w3}[n]
    return kernel(*exponents, d)


def connected_via_wtilde(mu: Partition, d: int) -> GPoly:
    """Connected value for length(mu) <= 3 straight from the expansion."""
    mu = as_partition(mu)
    exps = tuple(m - 1 for m in mu)
    return wtilde_coeff(len(mu), exps, d) / (math.prod(mu) * aut_of(mu))
