"""Request lists for the three workloads, made from a seed.

Every request is the argv of one `hurwitz` command.  The program sees only
these lists; the seed never reaches it, and nothing here imports it.

* ``tables``  `hurwitz table` for A1-A3 and B4-B13, the published-table
  path.  Fixed inputs, so no seed.
* ``sweep``   one profile drawn per (length, |mu|) stratum in
  SWEEP_STRATA; every d in 0..12, nonconnected and connected, generic
  weights, one value per call, no value repeated.
* ``session`` small queries (|mu| <= 7, d <= 8) with Zipf-like popularity
  over five weight models; repeats and shared sub-profiles keep caches warm.

Both seeded draws are stratified: every seed gives the same count per
stratum, so seeds stay comparable in cost.  The seed fixes what is asked
and in which order; every round of a run repeats the same list, so the
same request can be compared across rounds.
"""

from __future__ import annotations

import random

TABLE_IDS = ("A1", "A2", "A3", "B4", "B5", "B6", "B7", "B8", "B9", "B10", "B11",
             "B12", "B13")

DEGREE_CAP = 12          # the tau pipeline's default branching-order cap
# (length, |mu|) strata of the sweep: lengths 1-3 take the correlator closed
# forms, 4-6 the tau pipeline.  Each costs 0.5-2.5 s cold, and the profiles
# inside a stratum cost about the same, so seeds stay comparable.
SWEEP_STRATA = ((1, 9), (2, 8), (3, 7), (4, 6), (4, 7), (5, 6), (6, 6))

SESSION_WEIGHT = 7
SESSION_DEGREE = 8
DEGREE_BANDS = ((0, 1), (2, 3), (4, 5), (6, 7), (8,))
SESSION_MODELS = ("generic", "exp", "rational:c=1,2;d=3", "dual:d=1", "quantum:q=1/3")
SESSION_REQUESTS = 1500  # about; the Zipf counts are rounded
ORACLE_EVERY = 5         # every 5th repeat of an oracle-eligible query


def partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n in decreasing order, parts in decreasing order."""
    if n == 0:
        return [()]
    top = n if max_part is None else min(n, max_part)
    return [(k,) + rest for k in range(top, 0, -1) for rest in partitions(n - k, k)]


def profiles(length: int, weight: int) -> list[tuple[int, ...]]:
    return [p for p in partitions(weight) if len(p) == length]


def fmt(mu: tuple[int, ...]) -> str:
    return ",".join(map(str, mu))


def compute_argv(mu, d: int, connected: bool, model: str = "generic",
                 pipeline: str = "auto") -> list[str]:
    argv = ["compute", "--mu", fmt(mu), "--d", str(d), "--weights", model,
            "--format", "json"]
    if connected:
        argv.append("--connected")
    if pipeline != "auto":
        argv += ["--pipeline", pipeline]
    return argv


def tables_requests(seed: int) -> list[list[str]]:
    return [["table", tid] for tid in TABLE_IDS]


def sweep_profiles(seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(f"sweep-{seed}")
    return [rng.choice(profiles(length, weight)) for length, weight in SWEEP_STRATA]


def sweep_requests(seed: int) -> list[list[str]]:
    drawn = sweep_profiles(seed)
    random.Random(f"sweep-order-{seed}").shuffle(drawn)
    return [compute_argv(mu, d, connected)
            for mu in drawn
            for d in range(DEGREE_CAP + 1)
            for connected in (False, True)]


def session_strata() -> list[tuple[int, int]]:
    return [(length, weight) for weight in range(1, SESSION_WEIGHT + 1)
            for length in range(1, weight + 1)]


def oracle_eligible(mu, d: int, connected: bool, model: str) -> bool:
    """Inside the definitional pipeline's caps, and quick there."""
    if model == "generic":
        return False
    if connected:       # brute-force enumeration over S_N
        return sum(mu) <= 3 and d <= 4
    return sum(mu) <= 4 and d <= 6


def session_keys(seed: int) -> list[tuple]:
    """Distinct (mu, d, connected, model) queries in popularity order.

    Each stratum holds five queries, one per band of d and one per weight
    model.  Rank r belongs to stratum (r - 1) mod S and takes band
    (r - 1) div S, so small profiles and low orders are asked most often.
    Inside its band, d takes the parity of a value that does not vanish.
    A stratum has at most five profiles, each in a fixed slot, and which
    ranks are connected is fixed too: the costly cold queries are the same
    on every seed.  The seed permutes the weight models over the slots,
    which also moves the oracle share.
    """
    rng = random.Random(f"session-{seed}")
    strata = session_strata()
    per_stratum = []
    for s, (length, weight) in enumerate(strata):
        choices = profiles(length, weight)
        models = rng.sample(SESSION_MODELS, len(SESSION_MODELS))
        keys = []
        for slot, model in enumerate(models):
            mu = choices[slot % len(choices)]
            band = DEGREE_BANDS[slot]
            # the d of the band with the parity of a non-vanishing value
            d = next((d for d in band if (d - sum(mu) - len(mu)) % 2 == 0), band[0])
            keys.append((mu, d, (s + slot) % 2 == 1, model))
        per_stratum.append(keys)
    return [per_stratum[s][slot] for slot in range(len(SESSION_MODELS))
            for s in range(len(strata))]


def session_requests(seed: int) -> list[list[str]]:
    """Each query once, in popularity order, then its repeats in seeded order.

    Asking every query cold in a fixed order first means the same request
    pays for each shared sub-result on every seed.
    """
    keys = session_keys(seed)
    harmonic = sum(1 / r for r in range(1, len(keys) + 1))
    first = [compute_argv(*key) for key in keys]
    repeats = []
    for rank, (mu, d, connected, model) in enumerate(keys, start=1):
        count = max(1, round(SESSION_REQUESTS / (harmonic * rank)))
        for j in range(1, count):
            pipeline = "auto"
            if j % ORACLE_EVERY == 0 and oracle_eligible(mu, d, connected, model):
                pipeline = "oracle"
            repeats.append(compute_argv(mu, d, connected, model, pipeline))
    random.Random(f"session-order-{seed}").shuffle(repeats)
    return first + repeats


REQUESTS = {"tables": tables_requests, "sweep": sweep_requests, "session": session_requests}


def sweep_pool() -> list[tuple]:
    """Every (mu, d, connected, model) query any sweep seed can make."""
    return [(mu, d, connected, "generic")
            for length, weight in SWEEP_STRATA for mu in profiles(length, weight)
            for d in range(DEGREE_CAP + 1) for connected in (False, True)]


def session_pool() -> list[tuple]:
    """Every (mu, d, connected, model) query any session seed can make."""
    return [(mu, d, connected, model)
            for length, weight in session_strata() for mu in profiles(length, weight)
            for d in range(SESSION_DEGREE + 1) for connected in (False, True)
            for model in SESSION_MODELS]
