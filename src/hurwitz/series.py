"""Truncated formal power series in beta with GPoly coefficients.

A BetaSeries keeps coefficients for beta^0 .. beta^D where D is the
truncation order.  Truncation only discards higher orders: every stored
coefficient is the exact one, independent of D.  For series assembled from
products of weight factors G(i*beta), the coefficient of beta^d is
homogeneous of weighted degree d in the g_i.

Values are immutable; build new series instead of mutating.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .algebra import GPoly, RationalLike


class TruncationError(ValueError):
    """Requested order exceeds what the operands carry."""


class BetaSeries:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[GPoly], order: int | None = None):
        cs = list(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be >= 0")
            if len(cs) < order + 1:
                cs.extend([GPoly.zero()] * (order + 1 - len(cs)))
            else:
                cs = cs[: order + 1]
        elif not cs:
            cs = [GPoly.zero()]
        self._coeffs = tuple(cs)

    @staticmethod
    def unit(order: int) -> BetaSeries:
        """The constant series 1."""
        return BetaSeries([GPoly.one()], order)

    @staticmethod
    def zero(order: int) -> BetaSeries:
        return BetaSeries([], order)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[GPoly, ...]:
        return self._coeffs

    def coeff(self, d: int) -> GPoly:
        if d < 0:
            raise ValueError("negative beta power")
        if d > self.order:
            raise TruncationError(
                f"coefficient of beta^{d} requested from a series truncated at {self.order}"
            )
        return self._coeffs[d]

    def truncate(self, order: int) -> BetaSeries:
        if order > self.order:
            raise TruncationError("insufficient truncation")
        return BetaSeries(self._coeffs[: order + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BetaSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: BetaSeries) -> BetaSeries:
        D = min(self.order, other.order)
        return BetaSeries([self._coeffs[i] + other._coeffs[i] for i in range(D + 1)])

    def scale(self, s: RationalLike) -> BetaSeries:
        return BetaSeries([c.scale(s) for c in self._coeffs])

    def __str__(self) -> str:
        parts = [f"({c})*b^{i}" for i, c in enumerate(self._coeffs) if c]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"BetaSeries(order={self.order}, {self})"

    def is_graded(self) -> bool:
        """Coefficient of beta^d homogeneous of weighted degree d, all d."""
        return all(c.is_homogeneous(d) for d, c in enumerate(self._coeffs))


def series_mul(a: BetaSeries, b: BetaSeries, order: int | None = None) -> BetaSeries:
    """Cauchy product truncated at `order` (default: the shorter operand)."""
    if order is None:
        order = min(a.order, b.order)
    if order > a.order or order > b.order:
        raise TruncationError("insufficient truncation")
    out = [GPoly.zero()] * (order + 1)
    ac, bc = a.coeffs, b.coeffs
    for i in range(order + 1):
        ai = ac[i]
        if not ai:
            continue
        for j in range(order + 1 - i):
            bj = bc[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return BetaSeries(out)


@lru_cache(maxsize=None)
def g_series(c: int, order: int) -> BetaSeries:
    """G(c*beta) truncated: 1 + sum_k g_k c^k beta^k (the unit series for c=0)."""
    coeffs = [GPoly.one()]
    for k in range(1, order + 1):
        coeffs.append(GPoly.var(k, Fraction(c) ** k) if c else GPoly.zero())
    return BetaSeries(coeffs)


@lru_cache(maxsize=None)
def g_product(multipliers: tuple[int, ...], order: int) -> BetaSeries:
    """prod_i G(m_i * beta) truncated at `order`.

    Cached per prefix; callers pass sorted multipliers so overlapping
    products (the rho kernels) share partial results.
    """
    if not multipliers:
        return BetaSeries.unit(order)
    head = g_product(multipliers[:-1], order)
    return series_mul(head, g_series(multipliers[-1], order), order)
