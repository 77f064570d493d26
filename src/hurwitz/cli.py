"""Command-line front end: compute, table, verify.

Exit codes: 0 success, 1 usage error, 2 computation cap exceeded,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Any, NamedTuple

from .algebra import GPoly
from .correlator import connected_closed_form, nonconnected_assemble
from .oracle import weighted_from_definition
from .partitions import (PARTITION_CAP, CapExceeded, Partition, as_partition,
                         format_partition, parse_partition)
from .qrational import QRat
from .tau import connected_any, hurwitz_any
from .tables import KNOWN_ERRATA, PipelineDisagreement, compare_tables, errata_report, table_ids
from .weights import WeightModel, display, parse_model, specialize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPS = 2
EXIT_VERIFY = 3

PIPELINES = ("auto", "correlator", "tau", "oracle")
WEIGHT_CAP = 10
DEGREE_CAP = 12


class HurwitzResult(NamedTuple):
    """One computed value, with provenance."""

    mu: Partition
    d: int
    connected: bool
    pipeline: str
    value: Any
    model: str = "generic"

    def value_json(self) -> Any:
        v = self.value
        return str(v) if isinstance(v, Fraction) else v.to_json()

    def to_json(self) -> dict:
        return {
            "mu": format_partition(self.mu),
            "d": self.d,
            "connected": self.connected,
            "pipeline": self.pipeline,
            "model": self.model,
            "value": self.value_json(),
        }

    @staticmethod
    def from_json(data: dict) -> "HurwitzResult":
        """Inverse of `to_json`; ValueError for any malformed input.  `mu` is
        a nonempty profile, `d` a JSON integer >= 0, `connected` a boolean,
        `pipeline` the name of the pipeline that ran (never "auto") and the
        value has the kind of its model: a term list (generic), a {"num",
        "den"} object (symbolic q) or a rational string (every numeric
        model)."""
        try:
            raw, d, model = data["value"], data["d"], data.get("model", "generic")
            weights = parse_model(model)
            kind = list if weights.kind == "generic" else dict if weights.symbolic_q else str
            mu = parse_partition(data["mu"])
            if (not mu or type(d) is not int or d < 0 or type(data["connected"]) is not bool
                    or data["pipeline"] not in PIPELINES[1:]
                    or not isinstance(raw, kind)):
                raise ValueError(f"bad field types or values, or a {type(raw).__name__} "
                                 f"value under the model {model!r}")
            # a generic value is homogeneous of weighted degree d
            value = (GPoly.from_json(raw, degree=d) if kind is list else
                     QRat.from_json(raw) if kind is dict else Fraction(raw))
            return HurwitzResult(mu, d, data["connected"], data["pipeline"], value, model)
        except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed result: {exc!r}") from None


def check_caps(mu: Partition, d: int, max_weight: int = WEIGHT_CAP,
               max_degree: int = DEGREE_CAP) -> None:
    """Raise CapExceeded if (mu, d) lies outside the request's caps."""
    if sum(mu) > max_weight:
        raise CapExceeded(f"|mu| = {sum(mu)} exceeds cap {max_weight}")
    if d > max_degree:
        raise CapExceeded(f"d = {d} exceeds cap {max_degree}")


def _vanishes(mu: Partition, d: int, connected: bool) -> bool:
    """Selection rules: the value is 0 when d - N - l is odd (parity), below
    the genus-0 bound d < N + l - 2 for connected values, and below the
    colength bound d < N - l for nonconnected ones."""
    N, ell = sum(mu), len(mu)
    if (d - N - ell) % 2:
        return True
    return d < (N + ell - 2 if connected else N - ell)


def compute(mu: Partition, d: int, model: WeightModel = WeightModel.generic(), *,
            connected: bool = False, pipeline: str = "auto", max_weight: int = WEIGHT_CAP,
            max_degree: int = DEGREE_CAP) -> HurwitzResult:
    """H^d(mu) under `model`, as `hurwitz compute` computes it.

    `auto` is the correlator for profiles of length <= 3, else tau.  Both
    caps must lie in 0..PARTITION_CAP.  Tau and the oracle check the caps
    and then, tau only, the selection rules; the correlator checks the
    selection rules first, so a vanishing value of any size is 0 at once.
    ValueError for a bad request, CapExceeded past a cap.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    mu = as_partition(mu)
    if not mu:
        raise ValueError("the profile must be nonempty")
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}; expected one of {', '.join(PIPELINES)}")
    if pipeline == "oracle" and not model.is_numeric:
        raise ValueError("the oracle pipeline needs a numeric weight model")
    if pipeline == "correlator" and len(mu) > 3:
        raise ValueError("correlator closed forms cover profile lengths 1..3; use tau")
    for name, cap in (("weight", max_weight), ("degree", max_degree)):
        if cap < 0:
            raise ValueError(f"{name} cap must be >= 0")
        if cap > PARTITION_CAP:
            raise CapExceeded(f"{name} cap {cap} exceeds the ceiling {PARTITION_CAP}")
    if pipeline == "auto":
        pipeline = "correlator" if len(mu) <= 3 else "tau"
    if pipeline != "correlator":
        check_caps(mu, d, max_weight, max_degree)
    if pipeline == "oracle":
        value = weighted_from_definition(mu, d, model, connected=connected)
        return HurwitzResult(mu, d, connected, "oracle", value, model.describe())
    if _vanishes(mu, d, connected):
        generic = GPoly.zero()
    elif pipeline == "correlator":
        check_caps(mu, d, max_weight, max_degree)
        generic = connected_closed_form(mu, d) if connected else nonconnected_assemble(mu, d)
    else:
        generic = connected_any(mu, d) if connected else hurwitz_any(mu, d)
    return HurwitzResult(mu, d, connected, pipeline, specialize(generic, model),
                         model.describe())


def default_cache_dir() -> str:
    env = os.environ.get("HURWITZ_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "hurwitz")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=1)
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    # built on the first call to main, once per process: parsing keeps no
    # state between calls
    parser = _Parser(prog="hurwitz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute weighted Hurwitz numbers")
    p_compute.add_argument("--mu", required=True, help='profile, e.g. "2,1"')
    group = p_compute.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int, help="single branching order")
    group.add_argument("--d-range", help='inclusive range "lo:hi"')
    p_compute.add_argument("--weights", default="generic", help="weight model string")
    p_compute.add_argument("--connected", action="store_true")
    p_compute.add_argument("--pipeline", choices=PIPELINES, default="auto")
    p_compute.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_compute.add_argument("--max-weight", type=int, default=WEIGHT_CAP,
                           help=f"profile weight cap for every pipeline, at most {PARTITION_CAP}")
    p_compute.add_argument("--max-degree", type=int, default=DEGREE_CAP,
                           help=f"branching order cap for every pipeline, at most {PARTITION_CAP}")

    p_table = sub.add_parser("table", help="regenerate a published table")
    p_table.add_argument("which", help="one of " + ", ".join(table_ids()))
    p_table.add_argument("--format", choices=("text", "csv"), default="text")

    p_verify = sub.add_parser("verify", help="run the cross-validation suites")
    p_verify.add_argument("--scope", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--errata-out",
                          help="path for the errata report JSON "
                               "(default $HURWITZ_CACHE/errata.json)")
    return parser, sub.choices


def _d_values(args) -> range:
    # lazy and ascending: a wide range costs nothing until the caps stop it
    if args.d is not None:
        return range(args.d, args.d + 1)
    try:
        lo, hi = map(int, args.d_range.split(":"))
        if lo < 0 or hi < lo:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad d range {args.d_range!r}; expected lo:hi") from None
    return range(lo, hi + 1)


def cmd_compute(args) -> int:
    mu, d_values, model = parse_partition(args.mu), _d_values(args), parse_model(args.weights)
    results = [compute(mu, d, model, connected=args.connected, pipeline=args.pipeline,
                       max_weight=args.max_weight, max_degree=args.max_degree)
               for d in d_values]

    if args.format == "json":
        print(json.dumps([r.to_json() for r in results], indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["mu", "d", "connected", "model", "pipeline", "value"])
        for r in results:
            writer.writerow([args.mu, r.d, str(r.connected).lower(), r.model,
                             r.pipeline, str(r.value)])
    else:
        for r in results:
            tag = "connected" if r.connected else "nonconnected"
            print(f"H^{r.d}({args.mu}) {tag} [{r.model}, {r.pipeline}] = "
                  f"{display(r.value)}")
    return EXIT_OK


def cmd_table(args) -> int:
    which = args.which.upper()
    if which not in table_ids():
        raise ValueError(f"unknown table {args.which!r}; expected one of {', '.join(table_ids())}")
    rows = compare_tables(which)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["cell", "value", "status", "published"])
        for row in rows:
            status = "ok" if row["match"] else "ERRATUM"
            writer.writerow([row["cell"], row["computed"], status,
                             "" if row["match"] else row["printed"]])
    else:
        width = max(len(row["cell"]) for row in rows)
        print(f"table {which}")
        for row in rows:
            line = f"  {row['cell']:<{width}}  {row['computed']}"
            if not row["match"]:
                line += f"   << ERRATUM: published as {row['printed']}"
            print(line)
    mismatched = [r for r in rows if not r["match"]]
    unexpected = [r for r in mismatched if (which, r["cell"]) not in KNOWN_ERRATA]
    if unexpected:
        print(f"warning: {len(unexpected)} discrepancies outside the known errata",
              file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    out_path = args.errata_out or os.path.join(default_cache_dir(), "errata.json")
    # open the report before the suite runs, so an unwritable path fails at once
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as fh:
        results = run_suite(args.scope)
        for res in results:
            print(res.line())
        report = errata_report("full" if args.scope == "full" else "quick")
        json.dump(report, fh, indent=2)
    print(f"errata report ({len(report)} entries) written to {out_path}")
    if all(res.passed for res in results):
        print("all checks passed")
        return EXIT_OK
    return EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, subparsers = _build_parser()
    if argv and argv[0] in subparsers:
        # one pass in the subcommand's parser, which is all parse_args would
        # run after the name; leftovers get parse_args's top-level error
        args, extras = subparsers[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error("unrecognized arguments: " + " ".join(extras))
    else:  # top-level help and errors
        args = parser.parse_args(argv)
    handlers = {"compute": cmd_compute, "table": cmd_table, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except CapExceeded as exc:
        print(f"hurwitz: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except PipelineDisagreement as exc:
        print(f"hurwitz: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"hurwitz: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
