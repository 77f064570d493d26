"""Weight models: Taylor coefficients of G(z) and specialization of values.

Supported models and their coefficient sequences g_1, g_2, ...:

  generic      keep g_i symbolic (values stay GPoly)
  exp          g_i = 1/i!
  rational     G(z) = prod (1 + c_k z) / prod (1 - d_j z) for finite lists c, d,
               expanded factor by factor: g_i = sum_j e_j(c) h_{i-j}(d)
  dual         g_i = h_i(d)                  (rational with empty c)
  quantum      g_i = 1/(q;q)_i, either as an exact quantum value of a
               symbolic q (QRat) or at an exact rational q
  taylor       explicit list of rational coefficients

Numeric models (every model but generic and symbolic q) specialize by
evaluating the polynomial at their Taylor coefficients over Fraction.
Symbolic q is built in the published form instead: with D the top weighted
degree of the value and s the common denominator of its integer
numerators, every monomial prod g_i^e_i equals the integer q-multinomial
polynomial (q;q)_D / prod (q;q)_i^e_i over (q;q)_D, so the value is
P / (s (q;q)_D) with P summed in integers, reduced once by cyclotomic trial
division (`QRat.over_pochhammer(P, D, s)`, which keeps integers).  The
(q;q)_m display form reads m <= PRETTY_MAX_INDEX off the stored cyclotomic
multiplicities of the denominator and divides the content out of the
integer numerator; it is a formatter only and is never used for equality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, NamedTuple, Sequence

from .algebra import GPoly
from .qrational import QRat, _poly_str, q_multinomial

MODEL_KINDS = ("generic", "exp", "rational", "dual", "quantum", "taylor")
PRETTY_MAX_INDEX = 24       # the largest m that qrat_pretty writes as (q;q)_m


class _ModelFields(NamedTuple):
    kind: str
    c: tuple[Fraction, ...] = ()
    d: tuple[Fraction, ...] = ()
    q: Fraction | None = None
    coeffs: tuple[Fraction, ...] = ()


class WeightModel(_ModelFields):
    """An immutable weight model; ValueError for an unknown kind."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown weight model kind {self.kind!r}")
        return self

    # -- constructors ---------------------------------------------------

    @staticmethod
    def generic() -> "WeightModel":
        return WeightModel("generic")

    @staticmethod
    def exponential() -> "WeightModel":
        return WeightModel("exp")

    @staticmethod
    def rational(c: Sequence[Any] = (), d: Sequence[Any] = ()) -> "WeightModel":
        return WeightModel("rational", c=tuple(Fraction(x) for x in c),
                           d=tuple(Fraction(x) for x in d))

    @staticmethod
    def dual(d: Sequence[Any]) -> "WeightModel":
        return WeightModel("dual", d=tuple(Fraction(x) for x in d))

    @staticmethod
    def quantum(q: Any = None) -> "WeightModel":
        return WeightModel("quantum", q=None if q is None else Fraction(q))

    @staticmethod
    def taylor(coeffs: Sequence[Any]) -> "WeightModel":
        return WeightModel("taylor", coeffs=tuple(Fraction(x) for x in coeffs))

    # -- properties -----------------------------------------------------

    @property
    def symbolic_q(self) -> bool:
        return self.kind == "quantum" and self.q is None

    @property
    def is_numeric(self) -> bool:
        """True iff values specialize to plain rationals."""
        return self.kind in ("exp", "rational", "dual", "taylor") or (
            self.kind == "quantum" and self.q is not None
        )

    def describe(self) -> str:
        if self.kind == "rational":
            cs = ",".join(str(x) for x in self.c)
            ds = ",".join(str(x) for x in self.d)
            return f"rational:c={cs};d={ds}"
        if self.kind == "dual":
            return "dual:d=" + ",".join(str(x) for x in self.d)
        if self.kind == "quantum":
            return "quantum" if self.q is None else f"quantum:q={self.q}"
        if self.kind == "taylor":
            return "taylor:" + ",".join(str(x) for x in self.coeffs)
        return self.kind


def parse_model(text: str) -> WeightModel:
    """Parse the CLI syntax: generic | exp | rational:c=1,2;d=3 | dual:d=1 |
    quantum | quantum:q=1/3 | taylor:1,1/2,1/6."""
    text = text.strip()
    head, _, rest = text.partition(":")
    try:
        if head == "generic" and not rest:
            return WeightModel.generic()
        if head == "exp" and not rest:
            return WeightModel.exponential()
        if head == "quantum":
            return WeightModel.quantum(None if not rest else _parse_q(rest))
        if head == "taylor":
            return WeightModel.taylor(_numbers(rest))
        if head == "rational":
            params: dict[str, list[Fraction]] = {}
            for clause in rest.split(";"):
                clause = clause.strip()
                if not clause:
                    continue
                key, eq, vals = clause.partition("=")
                if key not in ("c", "d"):
                    raise ValueError(f"unknown rational parameter {key!r}")
                if not eq:
                    raise ValueError(f"rational parameter {key!r} takes {key}=...")
                if key in params:
                    raise ValueError(f"repeated rational parameter {key!r}")
                params[key] = _numbers(vals)
            return WeightModel.rational(params.get("c", ()), params.get("d", ()))
        if head == "dual":
            key, eq, vals = rest.partition("=")
            if key != "d" or not eq:
                raise ValueError("dual model takes d=...")
            return WeightModel.dual(_numbers(vals))
    except ValueError as exc:
        raise ValueError(f"bad weight model {text!r}: {exc}") from None
    except ZeroDivisionError:
        raise ValueError(f"bad weight model {text!r}: zero denominator") from None
    raise ValueError(f"bad weight model {text!r}")


def _numbers(text: str) -> list[Fraction]:
    """Comma-separated rationals; "" is the empty list, an empty item an error."""
    items = text.split(",") if text else []
    if "" in items:
        raise ValueError("empty item in a list")
    return [Fraction(x) for x in items]


def _parse_q(rest: str) -> Fraction:
    key, _, val = rest.partition("=")
    if key != "q":
        raise ValueError("quantum model takes q=...")
    return Fraction(val)


def taylor_coeffs(model: WeightModel, upto: int) -> list[Fraction]:
    """g_1 .. g_upto of a numeric model."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    if not model.is_numeric:
        raise ValueError(f"{model.describe()} has no rational Taylor coefficients")
    if model.kind == "exp":
        return [Fraction(1, math.factorial(i)) for i in range(1, upto + 1)]
    if model.kind in ("rational", "dual"):
        g = [Fraction(1)] + [Fraction(0)] * upto
        for c in model.c:       # times (1 + c z), top index first
            for i in range(upto, 0, -1):
                g[i] += c * g[i - 1]
        for d in model.d:       # over (1 - d z): the prefix recursion
            for i in range(1, upto + 1):
                g[i] += d * g[i - 1]
        return g[1:]
    if model.kind == "quantum":
        q = model.q
        out = []
        poch = Fraction(1)
        for i in range(1, upto + 1):
            poch *= 1 - q ** i
            if poch == 0:
                raise ZeroDivisionError(f"(q;q)_{i} vanishes at q={q}")
            out.append(1 / poch)
        return out
    if model.kind == "taylor":
        if len(model.coeffs) < upto:
            raise ValueError(
                f"explicit taylor list has {len(model.coeffs)} coefficients, need {upto}"
            )
        return list(model.coeffs[:upto])
    raise ValueError(f"unknown model kind {model.kind!r}")


def specialize(p: GPoly, model: WeightModel) -> GPoly | QRat | Fraction:
    """The value of a generic p under the model: p itself for generic, a
    QRat for symbolic q, and p at the Taylor coefficients, a Fraction, for
    every numeric model."""
    if model.kind == "generic":
        return p
    if model.symbolic_q:
        return _specialize_symbolic_q(p)
    gs = taylor_coeffs(model, max(p.variables(), default=0))
    nums, den = p.int_terms()
    total = Fraction(0)
    for exp, coef in nums.items():
        for g, k in zip(gs, exp):
            for _ in range(k):
                coef = g * coef     # Fraction on the left: its forward operator
        total += coef
    return total / den


def _specialize_symbolic_q(p: GPoly) -> QRat:
    # P = sum c * (q;q)_D / prod (q;q)_i^e_i over a common denominator
    top = max(p.weighted_degree(), 0)
    nums, den = p.int_terms()
    acc = [0] * (top * (top + 1) // 2 + 1)
    for exp, c in nums.items():
        for j, x in enumerate(q_multinomial(top, exp)):
            acc[j] += c * x
    return QRat.over_pochhammer(acc, top, den)


# -- display-only (q;q)_m formatter --------------------------------------


def display(value) -> str:
    """A value as tables and text output show it: quantum values in the
    (q;q)_m style of the published tables, anything else as str."""
    return qrat_pretty(value) if isinstance(value, QRat) else str(value)


def qrat_pretty(v: QRat) -> str:
    """Try to present v as P(q) / (s(q;q)_m) with primitive integer P and
    the smallest feasible m <= PRETTY_MAX_INDEX; fall back to the plain
    num/den form.

    Output is for human comparison against published tables only; equality
    checks always use the normalized QRat value itself.
    """
    if v.is_zero():
        return "0"
    form = v.pochhammer_form(PRETTY_MAX_INDEX)
    if form is None:
        return str(v)
    m, p, scale = form
    content = math.gcd(*p)
    poly = _poly_str([c // content for c in p])
    scalar = Fraction(scale, content)
    num_s = poly if sum(1 for c in p if c) == 1 else f"({poly})"
    if m == 0:
        return num_s if scalar == 1 else f"{num_s} / {scalar}"
    poch = f"(q;q)_{m}" if scalar == 1 else f"{scalar}(q;q)_{m}"
    return f"{num_s} / ({poch})"
