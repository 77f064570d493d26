"""Integer-partition combinatorics and symmetric-group characters.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.  Characters chi_lambda(mu) are computed
by the Murnaghan-Nakayama recursion in its beta-set form (first-column hook
lengths); the recursion `_mn` is an `lru_cache`.
`nonconnected_from_connected` is the exponential formula that the
correlator and `verify` share; `partition_cache` is the per-process value
cache that both generic pipelines put on their value functions.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations, combinations_with_replacement
from typing import Any, Callable, Iterable, Sequence

from .algebra import GPoly

Partition = tuple[int, ...]

PARTITION_CAP = 30


class CapExceeded(ValueError):
    """A configured size cap was exceeded."""


def as_partition(parts: Iterable[int]) -> Partition:
    """Sort a composition into a partition, validating positivity."""
    t = tuple(sorted(parts, reverse=True))
    if t and t[-1] < 1:
        raise ValueError(f"partition parts must be positive: {t}")
    return t


def partition_cache(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Keep fn(mu, ...) per process, looked up on the sorted partition of mu,
    so a list or an unsorted tuple reads the sorted tuple's entry.  Callers
    share the cached objects, which is safe because values are immutable."""
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def lookup(mu: Iterable[int], *args: Any, **kwargs: Any) -> Any:
        return cached(as_partition(mu), *args, **kwargs)

    lookup.cache_info, lookup.cache_clear = cached.cache_info, cached.cache_clear
    return lookup


def check_partition(mu: Sequence[int]) -> Partition:
    t = tuple(mu)
    if any(a < b for a, b in zip(t, t[1:])) or (t and t[-1] < 1):
        raise ValueError(f"not a partition (weakly decreasing, positive): {t}")
    return t


def parse_partition(text: str) -> Partition:
    """Parse the CLI/JSON form "3,2,1"; the empty string is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad partition string: {text!r}") from None
    return check_partition(parts)


def format_partition(mu: Partition) -> str:
    return ",".join(str(p) for p in mu)


def colength(mu: Partition) -> int:
    return sum(mu) - len(mu)


@lru_cache(maxsize=None)
def _partitions_rec(n: int, max_part: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_rec(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > PARTITION_CAP:
        raise CapExceeded(f"partitions_of({n}) exceeds cap {PARTITION_CAP}")
    return list(_partitions_rec(n, n))


def z_of(mu: Iterable[int]) -> int:
    """Order of the centralizer of a permutation of cycle type mu,
    prod_i i^{m_i} m_i!."""
    mu = tuple(mu)
    return aut_of(mu) * math.prod(mu)


def aut_of(parts: Iterable[int]) -> int:
    """prod over part values of (multiplicity)!; compositions are sorted first."""
    parts = tuple(parts)
    a = 1
    for v in set(parts):
        a *= math.factorial(parts.count(v))
    return a


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    out = [0] * lam[0]
    for p in lam:
        for j in range(p):
            out[j] += 1
    return tuple(out)


def hook_product(lam: Partition) -> int:
    """Product of all hook lengths of the Young diagram of lam."""
    conj = conjugate(lam)
    h = 1
    for i, p in enumerate(lam):
        for j in range(p):
            h *= (p - j) + (conj[j] - i) - 1
    return h


def contents(lam: Partition) -> list[int]:
    """Box contents j - i in row-major order (rows and columns 1-based)."""
    return [j - i for i, p in enumerate(lam) for j in range(p)]


# -- characters ---------------------------------------------------------


def character(lam: Partition, mu: Partition) -> int:
    """chi_lambda(mu) for |lam| = |mu|, by Murnaghan-Nakayama."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"weight mismatch: |{lam}| != |{mu}|")
    return _mn(lam, mu)


@lru_cache(maxsize=None)
def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    n = len(lam)
    # beta-set (strictly decreasing first-column hook lengths); removing a
    # border strip of size k means lowering one entry by k into a free slot
    beta = [lam[i] + (n - 1 - i) for i in range(n)]
    occupied = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((nb if x == b else x for x in beta), reverse=True)
        new_lam = tuple(
            v for v in (x - (n - 1 - i) for i, x in enumerate(new_beta)) if v > 0
        )
        total += (-1) ** height * _mn(new_lam, rest)
    return total


# -- numeric symmetric-function evaluators ------------------------------


def _distinct_permutations(parts: Partition):
    """All distinct rearrangements of a multiset of parts."""
    counter = Counter(parts)
    items = sorted(counter)
    k = len(parts)

    def rec(prefix: list[int]):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for v in items:
            if counter[v]:
                counter[v] -= 1
                prefix.append(v)
                yield from rec(prefix)
                prefix.pop()
                counter[v] += 1

    yield from rec([])


def sym_eval(kind: str, lam: Partition, points: Sequence[Fraction]) -> Fraction:
    """Evaluate the monomial ("m") or forgotten ("f") symmetric function of
    the partition lam exactly at the given points."""
    if kind not in ("m", "f"):
        raise ValueError(f"unknown symmetric function kind: {kind!r}")
    lam = as_partition(lam)
    k = len(lam)
    total = Fraction(0)
    if kind == "m":
        for idx in combinations(range(len(points)), k):
            for arrangement in _distinct_permutations(lam):
                total = total + math.prod(points[i] ** e for i, e in zip(idx, arrangement))
        return total
    # forgotten basis at explicit points: sign (-1)^{colength}, indices
    # weakly increasing with repetitions; the 1/|aut| of the defining sum
    # over all of S_k cancels against counting distinct rearrangements
    for arrangement in _distinct_permutations(lam):
        for idx in combinations_with_replacement(range(len(points)), k):
            total = total + math.prod(points[i] ** e for i, e in zip(idx, arrangement))
    return total if colength(lam) % 2 == 0 else -total


def set_partitions(items: Sequence[Any]):
    """All set partitions of `items`, each a list of blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [[first] + p[i]] + p[i + 1:]
        yield [[first]] + p


def compositions_of(d: int, k: int):
    """All ordered k-tuples of nonnegative integers summing to d."""
    if k == 0:
        if d == 0:
            yield ()
        return
    if k == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in compositions_of(d - first, k - 1):
            yield (first,) + rest


def nonconnected_from_connected(mu: Partition, d: int,
                                connected: Callable[[Partition, int], GPoly]) -> GPoly:
    """The exponential formula (Stanley, EC2 5.1): |aut mu| H(mu, d) is the
    sum, over set partitions of mu's labels and splits of d among the blocks
    B, of prod_B |aut B| connected(B, d_B); each factor is computed once."""
    mu = as_partition(mu)
    factors: dict[tuple[Partition, int], GPoly] = {}
    total = GPoly.zero()
    for blocks in set_partitions(range(len(mu))):
        parts = [as_partition(mu[i] for i in block) for block in blocks]
        for ds in compositions_of(d, len(parts)):
            term = None     # stays None only for the empty product of mu = ()
            for part, k in zip(parts, ds):
                factor = factors.get((part, k))
                if factor is None:
                    factor = factors[part, k] = connected(part, k).scale(aut_of(part))
                if not factor:
                    break
                term = factor if term is None else term * factor
            else:
                total = total + (term or GPoly.one())
    return total.scale(Fraction(1, aut_of(mu)))
