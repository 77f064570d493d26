"""Exact sparse polynomial arithmetic in the weight coefficients g_1, g_2, ...

A GPoly is a polynomial over Q in countably many variables g_1, g_2, ...,
stored sparsely as integer numerators over one common denominator: a map
from exponent vectors to nonzero ints and one int den > 0 with
gcd(den, numerators) = 1.  The exponent vector (e_1, ..., e_k) stands for
g_1^e_1 * ... * g_k^e_k and is kept with trailing zeros stripped, so equal
monomials have equal keys and equal values have equal fields.

The variable g_i carries weight i.  The weighted degree of a monomial is
sum(i * e_i); generic Hurwitz values of total branching order d are
homogeneous of weighted degree exactly d, which the tests rely on.

Arithmetic runs in Python ints and reduces once per result; `terms` and
`canonical_terms` build fractions.Fraction coefficients for display.  No
floating point, no rounding, ever.  GPoly values are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping

Exponent = tuple[int, ...]
_INTEGER = re.compile(r"-?[0-9]+")      # what to_json writes for num and den

RationalLike = int | Fraction


def _strip(exp: Iterable[int]) -> Exponent:
    e = tuple(exp)
    while e and e[-1] == 0:
        e = e[:-1]
    return e


def _mono_mul(a: Exponent, b: Exponent) -> Exponent:
    """Exponent tuple of the product of two monomials."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    return tuple(x + y for x, y in zip(a, b)) + a[len(b):]


def monomial_weight(exp: Exponent) -> int:
    """Weighted degree of a single monomial: g_i contributes i per power."""
    return sum((i + 1) * k for i, k in enumerate(exp))


def _canonical(term: tuple[Exponent, object]) -> tuple[int, Exponent]:
    return monomial_weight(term[0]), term[0]


class GPoly:
    """Sparse multivariate polynomial in g_1, g_2, ... over Q."""

    __slots__ = ("_terms", "_den")     # {exponent: int numerator}, int den

    def __init__(self, terms: Mapping[Exponent, RationalLike] | None = None):
        coefs: dict[Exponent, Fraction] = {}
        for exp, coef in (terms or {}).items():
            e = _strip(exp)
            coefs[e] = coefs.get(e, 0) + Fraction(coef)
        den = math.lcm(*(c.denominator for c in coefs.values()))
        p = _make({e: c.numerator * (den // c.denominator) for e, c in coefs.items()}, den)
        self._terms, self._den = p._terms, p._den

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> GPoly:
        return _ZERO

    @staticmethod
    def one() -> GPoly:
        return _ONE

    @staticmethod
    def const(c: RationalLike) -> GPoly:
        return GPoly({(): c})

    @staticmethod
    def var(i: int, coef: RationalLike = 1) -> GPoly:
        """The monomial coef * g_i (i >= 1)."""
        if i < 1:
            raise ValueError(f"variable index must be >= 1, got {i}")
        return GPoly({(0,) * (i - 1) + (1,): coef})

    @staticmethod
    def from_int_terms(terms: Mapping[Exponent, int], den: int = 1) -> GPoly:
        """sum c/den * g^e (den != 0) over an integer term map whose keys are
        already stripped; zero coefficients are dropped.  Inverse of
        `int_terms`."""
        return _make(dict(terms), den)

    # -- inspection ---------------------------------------------------

    def int_terms(self) -> tuple[dict[Exponent, int], int]:
        """The integer numerators by exponent and their common denominator."""
        return dict(self._terms), self._den

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        return {e: Fraction(c, self._den) for e, c in self._terms.items()}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> set[int]:
        """Indices i of the g_i actually occurring."""
        out: set[int] = set()
        for exp in self._terms:
            out.update(i + 1 for i, k in enumerate(exp) if k)
        return out

    def weighted_degree(self) -> int:
        """Max weighted degree over terms; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(monomial_weight(e) for e in self._terms)

    def is_homogeneous(self, d: int) -> bool:
        """True iff every term has weighted degree d (vacuously for zero)."""
        return all(monomial_weight(e) == d for e in self._terms)

    def canonical_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms sorted by ascending weighted degree, then lex from g_1 up."""
        return sorted(self.terms.items(), key=_canonical)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: GPoly | RationalLike) -> GPoly:
        if not isinstance(other, GPoly):
            other = GPoly.const(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        # bring both to the lcm of the denominators
        g = math.gcd(self._den, other._den)
        m1, m2 = other._den // g, self._den // g
        out = {e: c * m1 for e, c in self._terms.items()}
        get = out.get
        for e, c in other._terms.items():
            out[e] = get(e, 0) + c * m2
        return _make(out, self._den * m1)

    __radd__ = __add__

    def __neg__(self) -> GPoly:
        return _wrap({e: -c for e, c in self._terms.items()}, self._den)

    def __sub__(self, other: GPoly | RationalLike) -> GPoly:
        if not isinstance(other, GPoly):
            other = GPoly.const(other)
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> GPoly:
        return GPoly.const(other) + (-self)

    def __mul__(self, other: GPoly | RationalLike) -> GPoly:
        if not isinstance(other, GPoly):
            return self.scale(other)
        if not self._terms or not other._terms:
            return _ZERO
        out: dict[Exponent, int] = {}
        get = out.get
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = _mono_mul(e1, e2)
                out[e] = get(e, 0) + c1 * c2
        return _make(out, self._den * other._den)

    def __rmul__(self, other: RationalLike) -> GPoly:
        return self.scale(other)

    def scale(self, s: RationalLike) -> GPoly:
        if s == 1:
            return self
        if not s:
            return _ZERO
        n, d = s.numerator, s.denominator
        return _make({e: c * n for e, c in self._terms.items()}, self._den * d)

    def __truediv__(self, s: RationalLike) -> GPoly:
        return self.scale(1 / Fraction(s))

    def __pow__(self, n: int) -> GPoly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GPoly.const(other)
        if isinstance(other, GPoly):
            return self._den == other._den and self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        # a constant hashes as its number, which it equals
        if self._terms.keys() <= {()}:
            return hash(Fraction(self._terms.get((), 0), self._den))
        return hash((self._den, frozenset(self._terms.items())))

    # -- display / serialization --------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coef in self.canonical_terms():
            mono = "*".join(
                f"g{i + 1}^{k}" if k > 1 else f"g{i + 1}"
                for i, k in enumerate(exp) if k
            )
            if not mono:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(mono)
            elif coef == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coef}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"GPoly({self})"

    def to_json(self) -> list[dict]:
        """Canonically ordered list of terms, each reduced, with big integers
        as strings."""
        out = []
        for exp, c in sorted(self._terms.items(), key=_canonical):
            g = math.gcd(c, self._den)
            out.append({"exp": {str(i + 1): k for i, k in enumerate(exp) if k},
                        "num": str(c // g), "den": str(self._den // g)})
        return out

    @staticmethod
    def from_json(data: list[dict], degree: int | None = None) -> GPoly:
        """Inverse of `to_json`.

        Raises ValueError for an index or a power below 1, a power that is
        not a JSON integer, a `num` or `den` that is not a decimal-integer
        string, a repeated monomial, a zero denominator and, when `degree`
        is given, a term of another weighted degree.  Every check reads the
        sparse {index: power} maps, so no exponent tuple is built for a
        term that fails one.
        """
        sparse: list[tuple[dict[int, int], Fraction]] = []
        seen: set[frozenset] = set()
        for item in data:
            idx: dict[int, int] = {}
            for i, k in item["exp"].items():
                i = int(i)
                if type(k) is not int or i < 1 or k < 1 or i in idx:
                    raise ValueError(f"bad monomial {item['exp']!r}: each index "
                                     "and integer power must be >= 1, indices distinct")
                idx[i] = k
            key = frozenset(idx.items())
            if key in seen:
                raise ValueError(f"repeated monomial {item['exp']!r}")
            seen.add(key)
            if degree is not None and sum(i * k for i, k in idx.items()) != degree:
                raise ValueError(f"monomial {item['exp']!r} is not of weighted "
                                 f"degree {degree}")
            num, den = item["num"], item["den"]
            if not all(isinstance(x, str) and _INTEGER.fullmatch(x) for x in (num, den)):
                raise ValueError(f"num and den must be decimal-integer strings: {item!r}")
            if not int(den):
                raise ValueError(f"zero denominator in the term of {item['exp']!r}")
            sparse.append((idx, Fraction(int(num), int(den))))
        return GPoly({tuple(idx.get(i, 0) for i in range(1, max(idx, default=0) + 1)): c
                      for idx, c in sparse})


def _make(nums: dict[Exponent, int], den: int) -> GPoly:
    """The normal form of sum n/den * g^e over stripped keys (den != 0)."""
    if 0 in nums.values():
        nums = {e: c for e, c in nums.items() if c}
    g = math.gcd(den, *nums.values())
    if den < 0:
        g = -g
    if g != 1:
        nums = {e: c // g for e, c in nums.items()}
        den //= g
    return _wrap(nums, den)


def _wrap(nums: dict[Exponent, int], den: int) -> GPoly:
    # internal fast path: fields already in normal form
    p = GPoly.__new__(GPoly)
    p._terms, p._den = nums, den
    return p


_ZERO = _wrap({}, 1)
_ONE = _wrap({(): 1}, 1)
