"""Reference values for the sweep and session gates.

    python3 perfbench/reference.py [--check]

regenerates perfbench/reference.json over the whole draw pool of both
workloads, so any seed's requests are covered.  Each entry maps a query
key to a digest of the value's canonical form.  Before an entry is
written, a second pipeline confirms it wherever one applies:

* profiles of length <= 3: the tau pipeline against the correlator
  closed forms the default pipeline uses;
* numeric models inside the oracle's caps: the definitional pipeline;
* generic values, nonconnected: the exponential specialization against
  the oracle's character sums.

With ``--check`` the file is rebuilt in memory and compared instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def key(mu, d: int, connected: bool, model: str) -> str:
    parts = ",".join(map(str, mu))
    return f"{parts}|{d}|{'c' if connected else 'n'}|{model}"


def canonical(value) -> str:
    """A value from `compute --format json`, written one way only.

    Generic values are lists of terms; the terms are sorted here, so two
    outputs that differ only in term order are equal.  Numbers are
    normalized as exact fractions.
    """
    if isinstance(value, list):
        terms = []
        for term in value:
            exp = ".".join(f"{int(i)}^{int(k)}"
                           for i, k in sorted(term["exp"].items(), key=lambda t: int(t[0]))
                           if int(k))
            coef = Fraction(int(term["num"]), int(term["den"]))
            if coef:
                terms.append(f"{exp}={coef}")
        return "P:" + ";".join(sorted(terms))
    if isinstance(value, str):
        return f"Q:{Fraction(value)}"
    raise ValueError(f"unexpected value {value!r}")


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()[:16]


def load(path: Path = REFERENCE) -> dict[str, str]:
    with open(path) as fh:
        return json.load(fh)["entries"]


def _run(argv: list[str]):
    from hurwitz.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {' '.join(argv)}")
    [item] = json.loads(out.getvalue())
    return item["value"]


def build(log=sys.stderr) -> dict[str, str]:
    from hurwitz.algebra import GPoly
    from hurwitz.oracle import weighted_from_definition
    from hurwitz.partitions import CapExceeded
    from hurwitz.weights import WeightModel, specialize

    from workloads import compute_argv, oracle_eligible, session_pool, sweep_pool

    queries = sorted(set(sweep_pool()) | set(session_pool()),
                     key=lambda q: (sum(q[0]), len(q[0]), q[0], q[1], q[2], q[3]))
    entries, confirmed = {}, 0
    for n, (mu, d, connected, model) in enumerate(queries):
        k = key(mu, d, connected, model)
        value = _run(compute_argv(mu, d, connected, model))
        checks = []
        if len(mu) <= 3:
            checks.append(_run(compute_argv(mu, d, connected, model, "tau")))
        if oracle_eligible(mu, d, connected, model):
            checks.append(_run(compute_argv(mu, d, connected, model, "oracle")))
        if any(canonical(other) != canonical(value) for other in checks):
            raise RuntimeError(f"pipelines disagree at {k}")
        if model == "generic" and not connected:
            exp = WeightModel.exponential()
            try:
                want = weighted_from_definition(mu, d, exp)
            except CapExceeded:
                want = None
            if want is not None:
                if specialize(GPoly.from_json(value), exp) != want:
                    raise RuntimeError(f"oracle disagrees at {k}")
                checks.append(want)
        confirmed += bool(checks)
        entries[k] = digest(value)
        if n % 500 == 0:
            print(f"{n}/{len(queries)}", file=log, flush=True)
    print(f"{len(entries)} entries, {confirmed} confirmed by a second pipeline",
          file=log)
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    entries = build()
    if args.check:
        same = entries == load()
        print("reference matches" if same else "reference differs")
        return 0 if same else 1
    with open(REFERENCE, "w") as fh:
        json.dump({"digest": "sha256 of the canonical form, first 16 hex digits",
                   "entries": entries}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
