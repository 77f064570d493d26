"""Independent ground truth for the generating-function pipelines.

Pure (unweighted) factorization counts come from two routes that share no
code with the engine: the character sum

    H(mu^(1), ..., mu^(k)) = sum_lambda h(lambda)^(k-2)
                             prod_i chi_lambda(mu^(i)) / z_{mu^(i)}

and, at small degree, literal enumeration of permutation tuples with
identity product (optionally restricted to tuples generating a transitive
subgroup, the connected-cover count).

Weighted values are then assembled directly from their defining sums over
tuples of non-identity profiles with prescribed total colength.  The weight
of a tuple depends only on the partition lam formed by the colengths:

  product model (parameters c):      |aut(lam)|/k! * m_lam(c)
  dual model (parameters d):         |aut(lam)|/k! * f_lam(d)
  mixed rational model:              |aut(lam)|/k! * sum over multiset
                                     splits alpha + beta = lam of
                                     m_alpha(c) * f_beta(d), which is
                                     the two above when d or c is empty
  quantum model at rational q:       (-1)^(d-k)/k! * sum over orderings of
                                     lam of prod_j 1/(1 - q^(s_j)), s_j the
                                     partial sums.  The overall prefactor
                                     follows the dual-model convention; it
                                     is required for agreement with the
                                     coefficient-substitution engine (g_i =
                                     1/(q;q)_i is h_i of the geometric
                                     alphabet 1, q, q^2, ...), and the
                                     cross-check is part of the test suite.
  exponential model:                 Dirac: H^d = H(d transpositions, mu)/d!
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import NamedTuple

from .partitions import (
    CapExceeded,
    Partition,
    as_partition,
    aut_of,
    character,
    colength,
    hook_product,
    partitions_of,
    sym_eval,
    z_of,
)
from .weights import WeightModel

CHAR_WEIGHT_CAP = 12
ENUM_WEIGHT_CAP = 5
ENUM_TUPLE_GUARD = 10 ** 7
DEF_WEIGHT_CAP = 5
DEF_DEGREE_CAP = 6


class _QueryFields(NamedTuple):
    classes: tuple[Partition, ...]
    transitive_only: bool = False


class FactorizationQuery(_QueryFields):
    """An immutable query; ValueError unless there are classes, all of one weight."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.classes:
            raise ValueError("query needs at least one conjugacy class")
        weights = {sum(c) for c in self.classes}
        if len(weights) != 1:
            raise ValueError(f"conjugacy classes of unequal weight: {self.classes}")
        return self


def pure_hurwitz_char(classes: list[Partition] | tuple[Partition, ...]) -> Fraction:
    """Factorization count of the identity, by the character sum."""
    classes = tuple(as_partition(c) for c in classes)
    FactorizationQuery(classes)  # validates
    N = sum(classes[0])
    if N > CHAR_WEIGHT_CAP:
        raise CapExceeded(f"character sum capped at weight {CHAR_WEIGHT_CAP}, got {N}")
    return _pure_char(tuple(sorted(classes)))


@lru_cache(maxsize=None)
def _pure_char(classes: tuple[Partition, ...]) -> Fraction:
    N = sum(classes[0])
    k = len(classes)
    total = Fraction(0)
    for lam in partitions_of(N):
        term = Fraction(hook_product(lam)) ** (k - 2)
        for c in classes:
            chi = character(lam, c)
            if not chi:
                term = Fraction(0)
                break
            term *= Fraction(chi, z_of(c))
        total += term
    return total


# -- enumeration over S_N -------------------------------------------------


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a after b: x -> a[b[x]]."""
    return tuple(a[x] for x in b)


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycle_type(p: tuple[int, ...]) -> Partition:
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        if seen[i]:
            continue
        n, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            n += 1
        cycles.append(n)
    return as_partition(cycles)


@lru_cache(maxsize=None)
def class_elements(N: int, mu: Partition) -> tuple[tuple[int, ...], ...]:
    return tuple(p for p in permutations(range(N)) if cycle_type(p) == mu)


def class_size(mu: Partition) -> int:
    return math.factorial(sum(mu)) // z_of(mu)


def _is_transitive(gens: list[tuple[int, ...]], N: int) -> bool:
    # orbit of the generated subgroup = connected components of the
    # union of the generators' functional graphs
    parent = list(range(N))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for i, j in enumerate(g):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    return len({find(i) for i in range(N)}) == 1


def pure_hurwitz_enum(query: FactorizationQuery) -> Fraction:
    """Factorization count by brute-force enumeration (small degree only)."""
    classes = tuple(as_partition(c) for c in query.classes)
    N = sum(classes[0])
    if N > ENUM_WEIGHT_CAP:
        raise CapExceeded(
            f"enumeration capped at weight {ENUM_WEIGHT_CAP}, got {N}; use pure_hurwitz_char"
        )
    guard = math.prod(class_size(c) for c in classes)
    if guard > ENUM_TUPLE_GUARD:
        raise CapExceeded(
            f"enumeration would visit ~{guard} tuples; use pure_hurwitz_char"
        )
    identity = tuple(range(N))
    last = classes[-1]
    count = 0
    for head in product(*(class_elements(N, c) for c in classes[:-1])):
        prod_head = identity
        for h in head:
            prod_head = _compose(prod_head, h)
        forced = _inverse(prod_head)
        if cycle_type(forced) != last:
            continue
        if query.transitive_only and not _is_transitive(list(head) + [forced], N):
            continue
        count += 1
    return Fraction(count, math.factorial(N))


# -- weights for the definitional sums ------------------------------------


def _multiset_splits(lam: Partition):
    """All ways to split the multiset lam into (alpha, beta), alpha + beta = lam."""
    items = sorted(Counter(lam).items())

    def rec(i: int, alpha: list[int], beta: list[int]):
        if i == len(items):
            yield as_partition(alpha), as_partition(beta)
            return
        value, mult = items[i]
        for take in range(mult + 1):
            yield from rec(i + 1, alpha + [value] * take, beta + [value] * (mult - take))

    yield from rec(0, [], [])


def weight_rational(lam: Partition, c: tuple[Fraction, ...],
                    d: tuple[Fraction, ...]) -> Fraction:
    """|aut(lam)|/k! * sum over splits alpha + beta = lam of m_alpha(c) f_beta(d);
    with d empty this is the product model, with c empty the dual one."""
    total = Fraction(0)
    for alpha, beta in _multiset_splits(lam):
        if len(alpha) > len(c) or (beta and not d):
            continue    # m_alpha vanishes on fewer points than parts, f_beta on none
        ma = sym_eval("m", alpha, c) if alpha else Fraction(1)
        if not ma:
            continue
        fb = sym_eval("f", beta, d) if beta else Fraction(1)
        total += ma * fb
    return Fraction(aut_of(lam), math.factorial(len(lam))) * total


def weight_quantum(lam: Partition, q: Fraction) -> Fraction:
    """Quantum weight at exact rational q, dual-model normalization."""
    k = len(lam)
    d = sum(lam)
    total = Fraction(0)
    for ordering in set(permutations(lam)):
        term = Fraction(1)
        s = 0
        for part in ordering:
            s += part
            term /= 1 - q ** s
        total += term
    total *= aut_of(lam)  # the full S_k sum counts each ordering |aut| times
    return Fraction((-1) ** (d - k), math.factorial(k)) * total


def tuple_weight(lam: Partition, model: WeightModel) -> Fraction:
    if model.kind in ("rational", "dual"):
        return weight_rational(lam, model.c, model.d)
    if model.kind == "quantum":
        if model.q is None:
            raise ValueError("definitional sums need a numeric q")
        return weight_quantum(lam, model.q)
    raise ValueError(f"no definitional weight for model {model.kind!r}")


# -- the definitional weighted sums ---------------------------------------


def _nonidentity_profiles(N: int) -> list[Partition]:
    return [p for p in partitions_of(N) if colength(p) > 0]


def _profile_tuples(N: int, d: int):
    """Ordered tuples of non-identity profiles of N with total colength d."""
    options = [(p, colength(p)) for p in _nonidentity_profiles(N)]

    def rec(remaining: int):
        if remaining == 0:
            yield ()
            return
        for p, cl in options:
            if cl <= remaining:
                for rest in rec(remaining - cl):
                    yield (p,) + rest

    yield from rec(d)


def weighted_from_definition(mu: Partition, d: int, model: WeightModel,
                             connected: bool = False) -> Fraction:
    """The weighted sum over tuples, straight from the definition.

    Nonconnected uses the character-sum count; connected uses transitive
    enumeration and is therefore limited to enumerable degrees.
    """
    mu = as_partition(mu)
    if not model.is_numeric:
        raise ValueError("definitional sums need a numeric weight model")
    if model.kind == "taylor":
        raise ValueError("explicit taylor coefficients carry no definitional weight")
    N = sum(mu)
    if d == 0:
        # the empty tuple: only the identity cover contributes, and it is
        # connected exactly when N = 1
        if connected:
            return Fraction(1) if mu == (1,) else Fraction(0)
        return Fraction(1, math.factorial(N)) if mu == (1,) * N else Fraction(0)

    if model.kind == "exp":
        # Dirac weighting: only tuples of d transpositions contribute
        if N < 2:
            return Fraction(0)
        transposition = as_partition((2,) + (1,) * (N - 2))
        classes = [transposition] * d + [mu]
        if connected:
            count = pure_hurwitz_enum(FactorizationQuery(tuple(classes), True))
        else:
            count = pure_hurwitz_char(classes)
        return count / math.factorial(d)

    if sum(mu) > DEF_WEIGHT_CAP:
        raise CapExceeded(f"|mu| capped at {DEF_WEIGHT_CAP} for definitional sums")
    if d > DEF_DEGREE_CAP:
        raise CapExceeded(f"d capped at {DEF_DEGREE_CAP} for definitional sums")

    total = Fraction(0)
    # the weight depends on a tuple only through its colength multiset
    weight = lru_cache(maxsize=None)(lambda lam: tuple_weight(lam, model))
    for tup in _profile_tuples(N, d):
        w = weight(as_partition(colength(p) for p in tup))
        if not w:
            continue
        if connected:
            count = pure_hurwitz_enum(FactorizationQuery(tup + (mu,), True))
        else:
            count = pure_hurwitz_char(list(tup) + [mu])
        total += w * count
    return total

