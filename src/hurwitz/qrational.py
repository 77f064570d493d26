"""Quantum values P(q) / (q;q)_m, reduced and stored in integers.

QRat is a quantum value in the published shape P(q) / (q;q)_m, stored as
three fields: `num`, the integer coefficients of the numerator, ascending
with trailing zeros stripped; `scale`, an integer > 0 coprime to the
content of num; and `den`, the integer coefficients of a monic product of
cyclotomic polynomials coprime to num.  The value is num / (scale * den),
and zero is ((), 1, (1,)).  Since (q;q)_m = (-1)^m prod_k Phi_k^floor(m/k),
with Phi_k the monic cyclotomic polynomials, `QRat.over_pochhammer(num, m,
scale)`, the one constructor that computes a value, reduces num / (scale *
(q;q)_m) by exact trial division of num by each Phi_k, as often as Phi_k's
multiplicity in the denominator allows; what is left over is coprime by
construction, and the sign and the common factor of num and scale are then
moved once.  Equal values have equal fields, so equality is plain
componentwise equality.  `QRat.pochhammer_form` goes the other way, reading
the least m off the Phi_k multiplicities of a denominator.  `q_multinomial`
gives the integer polynomials (q;q)_m / prod (q;q)_i^e_i from which the
numerators are built.  All of them compute on integer coefficient lists;
a Fraction is built only at the edges, by the `num` property, `to_json`,
`from_json`, `evaluate` and `str`.

The quantum-weight tables are verified as identities of these exact
values; nothing here is ever evaluated in floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

from .algebra import RationalLike

_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")     # what to_json writes


def q_multinomial(m: int, exps: Sequence[int]) -> list[int]:
    """Integer coefficients, ascending, of (q;q)_m / prod_i (q;q)_i^exps[i-1].

    Requires sum(i * exps[i-1]) <= m.  The quotient is then a q-multinomial
    coefficient times (q;q)_m / (q;q)_w for that weight w, hence an integer
    polynomial, and every division below is exact.
    """
    if m < 0:
        raise ValueError("index must be >= 0")
    if sum(i * e for i, e in enumerate(exps, start=1)) > m:
        raise ValueError(f"exponents {tuple(exps)} weigh more than {m}")
    # power[k]: exponent of (1 - q^k), one from (q;q)_m less one per part >= k
    power = [1] * (m + 1)
    for i, e in enumerate(exps, start=1):
        if e:
            for k in range(1, i + 1):
                power[k] -= e
    p = [1]
    for k in range(1, m + 1):
        if power[k] > 0:
            p = _times_one_minus(p, k)
    for k in range(1, m + 1):
        for _ in range(-power[k]):
            p = _over_one_minus(p, k)
    return p


def _times_one_minus(p: list[int], k: int) -> list[int]:
    out = p + [0] * k
    for j, c in enumerate(p):
        out[j + k] -= c
    return out


def _over_one_minus(p: list[int], k: int) -> list[int]:
    # exact quotient by 1 - q^k: p = (1 - q^k) * quo gives quo_j = p_j + quo_{j-k}
    quo = p[:len(p) - k]
    for j in range(k, len(quo)):
        quo[j] += quo[j - k]
    return quo


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divide_monic(p: list[int], f: list[int]) -> list[int] | None:
    """p / f for a nonzero p and a monic f, or None when f does not divide p."""
    top = len(f) - 1
    n = len(p) - top
    if n <= 0:
        return None
    rem = list(p)
    quo = [0] * n
    for j in range(n - 1, -1, -1):
        c = rem[j + top]
        if c:
            quo[j] = c
            for i in range(top + 1):
                rem[j + i] -= c * f[i]
    return None if any(rem[:top]) else quo


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _totient(n: int) -> int:
    out, p = n, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    return out - out // n if n > 1 else out


def _cyclotomic(k: int) -> list[int]:
    """Coefficients of the monic cyclotomic polynomial Phi_k, ascending."""
    if k == 1:
        return [-1, 1]
    # Phi_k = prod_{d | k} (1 - q^d)^mu(k/d) for k > 1; the signs cancel
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    p = [1]
    for d in divisors:
        if _mobius(k // d) == 1:
            p = _times_one_minus(p, d)
    for d in divisors:
        if _mobius(k // d) == -1:
            p = _over_one_minus(p, d)
    return p




def _trimmed(p: Sequence) -> list:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _poly_str(coeffs: Sequence[RationalLike]) -> str:
    """Coefficients, ascending, as a polynomial in q: "1 - 3/2*q^2"."""
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            body = "q" if k == 1 else f"q^{k}"
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _horner(coeffs: Sequence[int], q: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * q + c
    return out


class QRat:
    """A quantum value num / (scale * den) in the reduced form of the module
    docstring.  `over_pochhammer` computes these fields; the constructor
    only stores fields that are already in this form."""

    __slots__ = ("_num", "_scale", "_den")

    def __init__(self, num: tuple[int, ...], scale: int, den: tuple[int, ...]):
        self._num, self._scale, self._den = num, scale, den

    @staticmethod
    def over_pochhammer(num: Sequence[int], m: int, scale: int = 1) -> QRat:
        """The normalized value num / (scale * (q;q)_m), reduced without a gcd.

        num holds integer coefficients, ascending, and scale is a nonzero
        integer.  (q;q)_m = (-1)^m prod_k Phi_k^floor(m/k).  Each Phi_k is
        divided out of num while it divides exactly and its multiplicity is
        not used up; the remaining Phi_k powers are the monic denominator,
        coprime to what is left of num.  The sign then moves into num, and
        the gcd of num's coefficients and scale is divided out of both.
        """
        if m < 0:
            raise ValueError("index must be >= 0")
        if not scale:
            raise ZeroDivisionError("scale must be nonzero")
        p = _trimmed(num)
        if not p:
            return QRat((), 1, (1,))
        den = [1]
        for k in range(1, m + 1):
            phi = _cyclotomic(k)
            left = m // k
            while left and (quo := _divide_monic(p, phi)) is not None:
                p, left = quo, left - 1
            for _ in range(left):
                den = _int_mul(den, phi)
        signed = -scale if m % 2 else scale
        g = math.gcd(signed, *p)
        if signed < 0:
            g = -g
        return QRat(tuple(c // g for c in p), signed // g, tuple(den))

    def pochhammer_form(self, max_index: int) -> tuple[int, list[int], int] | None:
        """(m, P, scale) with self = P / (scale * (q;q)_m) for the least such
        m, if m <= max_index.

        P has integer coefficients with the content of num, so scale stays
        coprime to it.  The least m is max(k * n_k) over the multiplicities
        n_k of Phi_k in the denominator.  None when the denominator is not a
        product of Phi_k, k <= max_index, or when that m exceeds max_index.
        """
        den = list(self._den)
        rest, m = den, 0
        for k in range(1, max_index + 1):
            if len(rest) == 1:
                break
            if _totient(k) >= len(rest):
                continue    # deg Phi_k = phi(k) exceeds the degree of what is left
            phi, n = _cyclotomic(k), 0
            while (quo := _divide_monic(rest, phi)) is not None:
                rest, n = quo, n + 1
            m = max(m, k * n)
        if rest != [1] or m > max_index:
            return None
        cofactor = _divide_monic(q_multinomial(m, ()), den)
        return m, _int_mul(list(self._num), cofactor), self._scale

    @property
    def num(self) -> tuple[Fraction, ...]:
        """The numerator's coefficients, num / scale, ascending."""
        return tuple(Fraction(c, self._scale) for c in self._num)

    @property
    def den(self) -> tuple[int, ...]:
        return self._den

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QRat):
            return (self._num, self._scale, self._den) == (other._num, other._scale, other._den)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._scale, self._den))

    def evaluate(self, q: RationalLike) -> Fraction:
        q = Fraction(q)
        d = _horner(self._den, q)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={q}")
        return _horner(self._num, q) / (self._scale * d)

    def __str__(self) -> str:
        if len(self._den) == 1:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)}) / ({_poly_str(self._den)})"

    def __repr__(self) -> str:
        return f"QRat({self})"

    def to_json(self) -> dict:
        return {"num": [str(c) for c in self.num], "den": [str(c) for c in self._den]}

    @staticmethod
    def from_json(data: dict) -> QRat:
        """The value of a to_json dict; ValueError unless the pair is reduced.

        Coefficients are "n" or "n/m" strings, as `to_json` writes them, and
        den's must be integers.  num is put over the lcm of its denominators,
        rebuilt through `pochhammer_form` and `over_pochhammer`, and must come
        back unchanged, which rejects a zero, non-monic or non-cyclotomic
        denominator and a pair with a common factor.
        """
        num, den = data["num"], data["den"]
        if not (isinstance(num, list) and isinstance(den, list)
                and all(isinstance(c, str) and _RATIONAL.fullmatch(c) for c in num + den)):
            raise ValueError(f"num and den must be lists of rational strings: {data!r}")
        num = _trimmed(Fraction(c) for c in num)
        den = _trimmed(Fraction(c) for c in den)
        if any(c.denominator != 1 for c in den):
            raise ValueError(f"den must have integer coefficients: {data!r}")
        scale = math.lcm(*(c.denominator for c in num))
        v = QRat(tuple(c.numerator * (scale // c.denominator) for c in num), scale,
                 tuple(c.numerator for c in den))
        # a Phi_k dividing den has phi(k) >= sqrt(k/2), so k and the least
        # index m = max(k * n_k) are both at most 2 * deg(den)^2
        form = v.pochhammer_form(2 * max(len(den) - 1, 1) ** 2)
        if form is None or QRat.over_pochhammer(form[1], form[0], form[2]) != v:
            raise ValueError(f"not a reduced P(q)/(q;q)_m: {data!r}")
        return v
