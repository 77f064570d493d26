"""Exact sparse polynomial arithmetic in the weight coefficients g_1, g_2, ...

A GPoly is a polynomial over Q in countably many variables g_1, g_2, ...,
stored sparsely as a map from exponent vectors to Fraction coefficients.
The exponent vector (e_1, ..., e_k) stands for g_1^e_1 * ... * g_k^e_k and
is kept with trailing zeros stripped, so equal monomials have equal keys.
Zero coefficients are never stored.

The variable g_i carries weight i.  The weighted degree of a monomial is
sum(i * e_i); generic Hurwitz values of total branching order d are
homogeneous of weighted degree exactly d, which the tests rely on.

Coefficients are fractions.Fraction throughout: no floating point, no
rounding, ever.  GPoly values are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

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


class GPoly:
    """Sparse multivariate polynomial in g_1, g_2, ... over Q."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, RationalLike] | None = None):
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coef in terms.items():
                c = Fraction(coef)
                if c:
                    e = _strip(exp)
                    prev = clean.get(e)
                    c = c if prev is None else prev + c
                    if c:
                        clean[e] = c
                    elif prev is not None:
                        del clean[e]
        self._terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> GPoly:
        return _ZERO

    @staticmethod
    def one() -> GPoly:
        return _ONE

    @staticmethod
    def const(c: RationalLike) -> GPoly:
        return GPoly({(): Fraction(c)})

    @staticmethod
    def var(i: int, coef: RationalLike = 1) -> GPoly:
        """The monomial coef * g_i (i >= 1)."""
        if i < 1:
            raise ValueError(f"variable index must be >= 1, got {i}")
        return GPoly({(0,) * (i - 1) + (1,): Fraction(coef)})

    @staticmethod
    def from_int_terms(terms: Mapping[Exponent, int], den: int = 1) -> GPoly:
        """sum c/den * g^e over an integer term map whose keys are already
        stripped; zero coefficients are dropped."""
        return _wrap({e: Fraction(c, den) for e, c in terms.items() if c})

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        return dict(self._terms)

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
        return sorted(self._terms.items(), key=lambda t: (monomial_weight(t[0]), t[0]))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: GPoly | RationalLike) -> GPoly:
        if not isinstance(other, GPoly):
            other = GPoly.const(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, _F0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> GPoly:
        return _wrap({e: -c for e, c in self._terms.items()})

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
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = _mono_mul(e1, e2)
                s = out.get(e, _F0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _wrap(out)

    def __rmul__(self, other: RationalLike) -> GPoly:
        return self.scale(other)

    def scale(self, s: RationalLike) -> GPoly:
        if s == 1:
            return self
        s = Fraction(s)
        if not s:
            return _ZERO
        return _wrap({e: c * s for e, c in self._terms.items()})

    def __truediv__(self, s: RationalLike) -> GPoly:
        return self.scale(Fraction(1, 1) / Fraction(s))

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
        if isinstance(other, GPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == GPoly.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

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
        """Canonically ordered list of terms with big integers as strings."""
        return [
            {
                "exp": {str(i + 1): k for i, k in enumerate(exp) if k},
                "num": str(coef.numerator),
                "den": str(coef.denominator),
            }
            for exp, coef in self.canonical_terms()
        ]

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


_F0 = Fraction(0)


def _wrap(terms: dict[Exponent, Fraction]) -> GPoly:
    # internal fast path: terms already normalized (no zeros, stripped keys)
    p = GPoly.__new__(GPoly)
    p._terms = terms
    return p


_ZERO = GPoly()
_ONE = GPoly({(): Fraction(1)})
