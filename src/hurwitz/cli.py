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
from dataclasses import dataclass
from functools import lru_cache

from .algebra import GPoly
from .correlator import connected_closed_form, nonconnected_assemble
from .oracle import weighted_from_definition
from .partitions import CapExceeded, parse_partition
from .tau import DEGREE_CAP, WEIGHT_CAP, HurwitzResult, check_caps, connected_any, hurwitz_any
from .tables import KNOWN_ERRATA, PipelineDisagreement, compare_tables, errata_report, table_ids
from .weights import WeightModel, display, parse_model, specialize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPS = 2
EXIT_VERIFY = 3

PIPELINES = ("auto", "correlator", "tau", "oracle")


@dataclass(frozen=True)
class RunConfig:
    """A validated compute request."""

    mu: tuple[int, ...]
    d_values: range
    model: WeightModel
    connected: bool
    pipeline: str
    output: str
    weight_cap: int
    degree_cap: int

    def __post_init__(self):
        if not self.mu:
            raise ValueError("the profile must be nonempty")
        if self.pipeline == "oracle" and not self.model.is_numeric:
            raise ValueError("the oracle pipeline needs a numeric weight model")
        if self.pipeline == "correlator" and len(self.mu) > 3:
            raise ValueError("correlator closed forms cover profile lengths 1..3; use tau")


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
def _build_parser() -> _Parser:
    # built on the first call to main, once per process: parse_args keeps
    # no state between calls
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
                           help="profile weight cap for every pipeline")
    p_compute.add_argument("--max-degree", type=int, default=DEGREE_CAP,
                           help="branching order cap for every pipeline")

    p_table = sub.add_parser("table", help="regenerate a published table")
    p_table.add_argument("which", help="one of " + ", ".join(table_ids()))
    p_table.add_argument("--format", choices=("text", "csv"), default="text")

    p_verify = sub.add_parser("verify", help="run the cross-validation suites")
    p_verify.add_argument("--scope", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--errata-out", help="path for the errata report JSON")
    p_verify.add_argument("--cache-dir", default=None,
                          help="directory of the default errata report "
                               "(default $HURWITZ_CACHE)")
    return parser


def _d_values(args) -> range:
    # lazy and ascending: a wide range costs nothing until the caps stop it
    if args.d is not None:
        if args.d < 0:
            raise ValueError("d must be >= 0")
        return range(args.d, args.d + 1)
    try:
        lo, hi = map(int, args.d_range.split(":"))
        if lo < 0 or hi < lo:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad d range {args.d_range!r}; expected lo:hi") from None
    return range(lo, hi + 1)


def _vanishes(mu: tuple[int, ...], d: int, connected: bool) -> bool:
    """Selection rules: the value is 0 when d - N - l is odd (parity), below
    the genus-0 bound d < N + l - 2 for connected values, and below the
    colength bound d < N - l for nonconnected ones."""
    N, ell = sum(mu), len(mu)
    if (d - N - ell) % 2:
        return True
    return d < (N + ell - 2 if connected else N - ell)


def _compute_one(config: RunConfig, d: int) -> HurwitzResult:
    mu, model = config.mu, config.model
    pipeline = config.pipeline
    if pipeline == "auto":
        pipeline = "correlator" if len(mu) <= 3 else "tau"
    if pipeline in ("tau", "oracle"):   # caps come before the selection rules
        check_caps(mu, d, config.weight_cap, config.degree_cap)
    if pipeline == "oracle":
        value = weighted_from_definition(mu, d, model, connected=config.connected)
        return HurwitzResult(mu, d, config.connected, "oracle", value, model.describe())
    if _vanishes(mu, d, config.connected):
        generic = GPoly.zero()
    elif pipeline == "correlator":   # after them: a vanishing value of any size prints 0
        check_caps(mu, d, config.weight_cap, config.degree_cap)
        generic = (connected_closed_form(mu, d) if config.connected
                   else nonconnected_assemble(mu, d))
    elif config.connected:
        generic = connected_any(mu, d, config.weight_cap, config.degree_cap)
    else:
        generic = hurwitz_any(mu, d, config.weight_cap, config.degree_cap)
    return HurwitzResult(mu, d, config.connected, pipeline, specialize(generic, model),
                         model.describe())


def cmd_compute(args) -> int:
    config = RunConfig(
        mu=parse_partition(args.mu),
        d_values=_d_values(args),
        model=parse_model(args.weights),
        connected=args.connected,
        pipeline=args.pipeline,
        output=args.format,
        weight_cap=args.max_weight,
        degree_cap=args.max_degree,
    )
    results = [_compute_one(config, d) for d in config.d_values]

    if config.output == "json":
        print(json.dumps([r.to_json() for r in results], indent=2))
    elif config.output == "csv":
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

    out_path = args.errata_out or os.path.join(
        args.cache_dir or default_cache_dir(), "errata.json")
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
    parser = _build_parser()
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
