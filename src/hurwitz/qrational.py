"""Quantum values P(q) / (q;q)_m, reduced and stored in integers.

QRat is a quantum value in the published shape P(q) / (q;q)_m, stored as
three fields: `num`, the integer coefficients of the numerator, ascending
with trailing zeros stripped; `scale`, an integer > 0 coprime to the
content of num; and `mult`, with mult[k-1] = n_k the multiplicity of the
monic cyclotomic polynomial Phi_k in the denominator, trailing zeros
stripped.  The value is num / (scale * prod_k Phi_k^n_k), num is coprime
to that product, and zero is ((), 1, ()).  Since (q;q)_m = (-1)^m prod_k
Phi_k^floor(m/k), `QRat.over_pochhammer(num, m, scale)`, the one
constructor that computes a value, divides num exactly by each Phi_k as
often as floor(m/k) allows and keeps what is left of each multiplicity;
the sign and the common factor of num and scale are then moved once.
Equal values have equal fields, so equality is plain componentwise
equality.  `QRat.pochhammer_form` goes the other way, reading the least m
= max(k * n_k) off mult.  `q_multinomial` gives the integer polynomials
(q;q)_m / prod (q;q)_i^e_i from which the numerators are built.  A
Fraction and the multiplied-out denominator are built only at the edges:
the `num` and `den` properties, `to_json`, `evaluate` and `str`;
`from_json` alone factors a denominator back into multiplicities, and
checks that no Phi_k found there divides the numerator.

The quantum-weight tables are verified as identities of these exact
values; nothing here is ever evaluated in floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
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


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divide_monic(p: Sequence[int], f: Sequence[int]) -> list[int] | None:
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


def _totient(n: int) -> int:
    out, p = n, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    return out - out // n if n > 1 else out


@lru_cache(maxsize=256)
def _cyclotomic(k: int) -> tuple[int, ...]:
    """Coefficients of the monic cyclotomic polynomial Phi_k, ascending:
    q^k - 1 divided exactly by Phi_j for every proper divisor j of k."""
    p = [-1] + [0] * (k - 1) + [1]
    for j in range(1, k):
        if k % j == 0:
            p = _divide_monic(p, _cyclotomic(j))
    return tuple(p)


def _times_cyclotomic(p: Sequence[int], exps: Sequence[int]) -> list[int]:
    """p times prod_k Phi_k^exps[k-1]."""
    p = list(p)
    for k, e in enumerate(exps, start=1):
        for _ in range(e):
            p = _int_mul(p, _cyclotomic(k))
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
    """A quantum value num / (scale * prod_k Phi_k^mult[k-1]) in the reduced
    form of the module docstring.  `over_pochhammer` computes these fields;
    the constructor only stores fields that are already in this form."""

    __slots__ = ("_num", "_scale", "_mult")

    def __init__(self, num: tuple[int, ...], scale: int, mult: tuple[int, ...]):
        self._num, self._scale, self._mult = num, scale, mult

    @staticmethod
    def over_pochhammer(num: Sequence[int], m: int, scale: int = 1) -> QRat:
        """The normalized value num / (scale * (q;q)_m), reduced without a gcd.

        num holds integer coefficients, ascending, and scale is a nonzero
        integer.  (q;q)_m = (-1)^m prod_k Phi_k^floor(m/k).  Each Phi_k is
        divided out of num while it divides exactly and its multiplicity is
        not used up; what is left of each multiplicity is the denominator,
        coprime to what is left of num.  The sign then moves into num, and
        the gcd of num's coefficients and scale is divided out of both.
        """
        if m < 0:
            raise ValueError("index must be >= 0")
        if not scale:
            raise ZeroDivisionError("scale must be nonzero")
        p = _trimmed(num)
        if not p:
            return QRat((), 1, ())
        mult = []
        for k in range(1, m + 1):
            phi = _cyclotomic(k)
            left = m // k
            while left and (quo := _divide_monic(p, phi)) is not None:
                p, left = quo, left - 1
            mult.append(left)
        signed = -scale if m % 2 else scale
        g = math.gcd(signed, *p)
        if signed < 0:
            g = -g
        return QRat(tuple(c // g for c in p), signed // g, tuple(_trimmed(mult)))

    def pochhammer_form(self, max_index: int) -> tuple[int, list[int], int] | None:
        """(m, P, scale) with self = P / (scale * (q;q)_m) for the least such
        m, if m <= max_index, else None.

        The least m is max(k * n_k) over the stored multiplicities n_k of
        Phi_k, and P = (-1)^m num prod_k Phi_k^(floor(m/k) - n_k).  P has
        integer coefficients with the content of num, so scale stays
        coprime to it.
        """
        m = max((k * n for k, n in enumerate(self._mult, start=1)), default=0)
        if m > max_index:
            return None
        mult = self._mult + (0,) * (m - len(self._mult))
        p = _times_cyclotomic(self._num, [m // k - n for k, n in enumerate(mult, start=1)])
        return m, (p if m % 2 == 0 else [-c for c in p]), self._scale

    @property
    def num(self) -> tuple[Fraction, ...]:
        """The numerator's coefficients, num / scale, ascending."""
        return tuple(Fraction(c, self._scale) for c in self._num)

    @property
    def den(self) -> tuple[int, ...]:
        """The monic denominator prod_k Phi_k^n_k, multiplied out, ascending."""
        return tuple(_times_cyclotomic([1], self._mult))

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QRat):
            return (self._num, self._scale, self._mult) == (other._num, other._scale, other._mult)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._scale, self._mult))

    def evaluate(self, q: RationalLike) -> Fraction:
        q = Fraction(q)
        d = _horner(self.den, q)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={q}")
        return _horner(self._num, q) / (self._scale * d)

    def __str__(self) -> str:
        if not self._mult:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)}) / ({_poly_str(self.den)})"

    def __repr__(self) -> str:
        return f"QRat({self})"

    def to_json(self) -> dict:
        return {"num": [str(c) for c in self.num], "den": [str(c) for c in self.den]}

    @staticmethod
    def from_json(data: dict) -> QRat:
        """The value of a to_json dict; ValueError unless the pair is reduced.

        Coefficients are "n" or "n/m" strings, as `to_json` writes them, and
        den's must be integers.  num is put over the lcm of its denominators,
        so scale is positive and coprime to num's content, and den is
        factored into Phi_k multiplicities by trial division.  The pair is
        reduced when that leaves 1 of den and no Phi_k of den divides num
        (zero only over den = 1), which rejects a zero, non-monic or
        non-cyclotomic denominator and a pair with a common factor.
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
        p = [c.numerator * (scale // c.denominator) for c in num]
        # a Phi_k dividing den has phi(k) >= sqrt(k/2), so k is at most
        # 2 * deg(den)^2
        bound = 2 * max(len(den) - 1, 1) ** 2
        rest, mult = [c.numerator for c in den], []
        for k in range(1, bound + 1):
            if len(rest) <= 1:
                break
            n = 0
            if _totient(k) < len(rest):     # else deg Phi_k = phi(k) exceeds what is left
                phi = _cyclotomic(k)
                while (quo := _divide_monic(rest, phi)) is not None:
                    rest, n = quo, n + 1
            mult.append(n)
        mult = _trimmed(mult)
        if rest != [1] or (mult and not p) or any(
                n and _divide_monic(p, _cyclotomic(k)) is not None
                for k, n in enumerate(mult, start=1)):
            raise ValueError(f"not a reduced P(q)/(q;q)_m: {data!r}")
        return QRat(tuple(p), scale, tuple(mult))
