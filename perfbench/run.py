"""Benchmark of the hurwitz command line, end to end and layer by layer.

    python3 perfbench/run.py --workload tables|sweep|session --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
One client sends requests to `hurwitz.cli.main(argv)` one at a time (a
closed loop, no threads, no ``--jobs``).  A round is one fresh interpreter
with ``HURWITZ_CACHE`` set to an empty directory, so every round starts
with cold caches; rounds repeat the seed's request list, in the same
order, until S seconds have been measured.  Outputs are checked after each
round, outside the timed region; a wrong value, a non-zero exit or an
exception fails the run.

Every round does the same deterministic work, so a request that takes
longer in one round than in another was slowed by something outside the
program: on a shared host, other tenants make the same loop run up to one
and a half times as slow, for a fraction of a second or for minutes.  The
time of a request is therefore its median time over the run's rounds;
``wall_s`` is the sum of these times and the percentiles are taken over
the requests of the list.  The median wall time of the rounds as they ran
is in the report.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced rounds and reports the per-layer metrics of the traced
ones (see layertrace.py) and the tracing overhead.  The last line of
standard output is the result; the line before it is the full report,
with sample counts, hit-ratio bases, the environment and the fail rate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3        # up front; each plain round adds two more
ROUND_TIMEOUT_S = 150
TINY_REQUESTS = {"tables": 3, "sweep": 8, "session": 40}

# per-layer metric -> (trace group, field, unit)
GROUP_METRICS = {
    "qrational.divmod.calls": ("qrational.divmod", "calls", "count"),
    "qrational.qrat_ops": ("qrational.qrat_ops", "calls", "count"),
    "weights.specialize.calls": ("weights.specialize", "calls", "count"),
    "weights.specialize.self_s": ("weights.specialize", "self_s", "s"),
    "weights.qrat_pretty.calls": ("weights.qrat_pretty", "calls", "count"),
    "weights.qrat_pretty.self_s": ("weights.qrat_pretty", "self_s", "s"),
    "algebra.gpoly_mul.calls": ("algebra.gpoly_mul", "calls", "count"),
    "algebra.gpoly_mul.term_products": ("algebra.gpoly_mul", "extra", "count"),
    "algebra.gpoly_add.calls": ("algebra.gpoly_add", "calls", "count"),
    "series.g_product.hit_ratio": ("series.g_product", "hit_ratio", "ratio"),
    "series.g_product.lookups": ("series.g_product", "lookups", "count"),
    "series.series_mul.calls": ("series.series_mul", "calls", "count"),
    "series.series_mul.self_s": ("series.series_mul", "self_s", "s"),
    "correlator.rho_series.hit_ratio": ("correlator.rho_series", "hit_ratio", "ratio"),
    "correlator.rho_series.lookups": ("correlator.rho_series", "lookups", "count"),
    "correlator.closed_form.calls": ("correlator.closed_form", "calls", "count"),
    "correlator.closed_form.self_s": ("correlator.closed_form", "self_s", "s"),
    "correlator.assemble.self_s": ("correlator.assemble", "self_s", "s"),
    "tau.hurwitz_any.calls": ("tau.hurwitz_any", "calls", "count"),
    "tau.hurwitz_any.hit_ratio": ("tau.hurwitz_any", "hit_ratio", "ratio"),
    "tau.hurwitz_any.lookups": ("tau.hurwitz_any", "lookups", "count"),
    "tau.hurwitz_any.self_s": ("tau.hurwitz_any", "self_s", "s"),
    "tau.connected_any.calls": ("tau.connected_any", "calls", "count"),
    "tau.connected_any.hit_ratio": ("tau.connected_any", "hit_ratio", "ratio"),
    "tau.connected_any.lookups": ("tau.connected_any", "lookups", "count"),
    "tau.connected_any.self_s": ("tau.connected_any", "self_s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
    "oracle.definition.calls": ("oracle.definition", "calls", "count"),
    "oracle.definition.self_s": ("oracle.definition", "self_s", "s"),
    "oracle.char_sums.calls": ("oracle.char_sums", "calls", "count"),
    "partitions.character.calls": ("partitions.character", "calls", "count"),
    "tables.compare_tables.self_s": ("tables.compare_tables", "self_s", "s"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.REQUESTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=reference.REFERENCE,
                        help="reference digests for the sweep and session gates")
    parser.add_argument("--tiny", action="store_true",
                        help="a few requests only, for the smoke test")
    return parser.parse_args(argv)


# -- rounds ----------------------------------------------------------------


def spawn(args: list[str], cache_dir: Path) -> tuple[float, subprocess.Popen]:
    """Start a worker; return the time until it is ready, and the process."""
    env = dict(os.environ, PYTHONPATH=str(SRC), HURWITZ_CACHE=str(cache_dir),
               PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _, err = finish(proc)
        raise RuntimeError(f"worker did not start: {err.strip()[-2000:]}")
    return setup, proc


def finish(proc: subprocess.Popen) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")


def run_round(requests: list[list[str]], traced: bool) -> tuple[float, dict]:
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        cache = tmp / "cache"
        cache.mkdir()
        job, out = tmp / "job.json", tmp / "out.json"
        job.write_text(json.dumps({"trace": traced, "requests": requests}))
        setup, proc = spawn([str(job), str(out)], cache)
        _, err = finish(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
        return setup, json.loads(out.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def setup_sample() -> float:
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        setup, proc = spawn(["--setup"], tmp)
        finish(proc)
        return setup
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# -- the correctness gate ----------------------------------------------------


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_compute(argv, code, out, err, ref) -> tuple[str | None, bool]:
    """(failure or None, whether the value is zero)."""
    if code != 0:
        return f"exit {code}: {err.strip()[-300:]}", False
    try:
        [item] = json.loads(out)
        value = item["value"]
        got = reference.digest(value)
        zero = value == [] or (isinstance(value, str) and Fraction(value) == 0)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output ({exc})", False
    mu, d = _flag(argv, "--mu"), int(_flag(argv, "--d"))
    connected = "--connected" in argv
    if (item.get("mu"), item.get("d"), item.get("connected")) != (mu, d, connected):
        return "output is for another query", False
    k = reference.key(mu.split(","), d, connected, _flag(argv, "--weights"))
    want = ref.get(k)
    if want is None:
        return f"no reference value for {k}", zero
    if got != want:
        return f"wrong value for {k}", zero
    return None, zero


def check_table(argv, code, out, err, errata) -> str | None:
    if code != 0:
        return f"exit {code}: {err.strip()[-300:]}"
    if "outside the known errata" in err:
        return err.strip()
    table = argv[1]
    lines = out.splitlines()
    if not lines or lines[0] != f"table {table}" or len(lines) < 2:
        return "unreadable table"
    flagged = {re.split(r"\s{2,}", line.strip())[0] for line in lines[1:]
               if "<< ERRATUM" in line}
    expected = {cell for tid, cell in errata if tid == table}
    if flagged != expected:
        return f"errata {sorted(flagged ^ expected)} differ from KNOWN_ERRATA"
    return None


def gate(workload: str, requests, results, ref, errata) -> tuple[list[str], list[bool]]:
    failures, zeros = [], []
    for argv, (code, _, out, err) in zip(requests, results):
        if workload == "tables":
            problem, zero = check_table(argv, code, out, err, errata), False
        else:
            problem, zero = check_compute(argv, code, out, err, ref)
        zeros.append(zero)
        if problem:
            failures.append(f"{' '.join(argv)}: {problem}")
    return failures, zeros


# -- metrics -------------------------------------------------------------------


def percentile(samples: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def request_times(rounds: list[dict]) -> list[float]:
    """Each request's median time over the rounds, which all ran the same list."""
    return [statistics.median(times)
            for times in zip(*([r[1] for r in rnd["results"]] for rnd in rounds))]


def end_to_end(plain: list[dict], setups: list[float]) -> tuple[dict, dict]:
    durations = request_times(plain)
    metrics = {"wall_s": metric(sum(durations), "s")}
    samples = {"wall_s": {"requests": len(durations), "rounds": len(plain)}}
    for p in (50, 90, 99):
        value, beyond = percentile(durations, p)
        metrics[f"query_p{p}_ms"] = metric(value * 1000, "ms")
        samples[f"query_p{p}_ms"] = {"samples": len(durations), "beyond": beyond,
                                     "rounds": len(plain)}
    metrics["peak_rss_mb"] = metric(statistics.median(r["peak_rss_mb"] for r in plain), "MB")
    metrics["setup_s"] = metric(statistics.median(setups), "s")
    samples["setup_s"] = {"samples": len(setups)}
    samples["peak_rss_mb"] = {"samples": len(plain)}
    return metrics, samples


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    def med(values):
        return statistics.median(list(values))

    snaps = [rnd["trace"] for rnd in traced]
    metrics = {}
    for name, (group, field, unit) in GROUP_METRICS.items():
        values = []
        for snap in snaps:
            rec = snap["groups"].get(group)
            if rec is None:
                values.append(0)
            elif field == "hit_ratio":
                values.append(rec["hits"] / rec["lookups"] if rec.get("lookups") else 0.0)
            else:
                values.append(rec.get(field, 0))
        metrics[name] = metric(med(values), unit)
    for layer in snaps[0]["layers"]:
        metrics[f"{layer}.self_s"] = metric(med(s["layers"][layer] for s in snaps), "s")
    traced_wall = med(r["wall_s"] for r in traced)
    metrics["trace.unattributed_s"] = metric(
        med(r["wall_s"] - sum(r["trace"]["layers"].values()) for r in traced), "s")
    metrics["values.zero"] = metric(med(r["zero_count"] for r in plain), "count")
    metrics["values.zero_s"] = metric(med(r["zero_s"] for r in plain), "s")
    metrics["cache.entries"] = metric(med(r["cache_entries"] for r in plain), "count")
    metrics["trace_overhead"] = metric(
        traced_wall / med(r["wall_s"] for r in plain), "ratio")
    return metrics, snaps[0]["absent"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hurwitz" / "cli.py").is_file():
        print(f"run.py: no hurwitz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ref = reference.load(args.reference) if args.workload != "tables" else {}
    errata = set()
    if args.workload == "tables":
        from hurwitz.tables import KNOWN_ERRATA
        errata = set(KNOWN_ERRATA)
    WORK.mkdir(exist_ok=True)

    requests = workloads.REQUESTS[args.workload](args.seed)
    if args.tiny:
        requests = requests[:TINY_REQUESTS[args.workload]]
    setups = [setup_sample() for _ in range(SETUP_SAMPLES)]
    plain, traced, failures, cold = [], [], [], []
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        traced_round = bool(args.trace) and len(traced) < len(plain)
        attempted += len(requests)
        started = time.perf_counter()
        setup, rnd = run_round(requests, traced_round)
        problems, zeros = gate(args.workload, requests, rnd["results"], ref, errata)
        failures += problems
        rnd["zero_count"] = sum(zeros)
        rnd["zero_s"] = sum(r[1] for r, z in zip(rnd["results"], zeros) if z)
        cold.append(rnd["cold_start"])
        (traced if traced_round else plain).append(rnd)
        if not traced_round:
            setups += [setup, setup_sample()]
        last = time.perf_counter() - started
        enough = plain and (traced or not args.trace)
        if enough and time.perf_counter() + last > deadline:
            break

    e2e, samples = end_to_end(plain, setups)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "caches": "cold: each round is a fresh interpreter with an empty HURWITZ_CACHE",
        "caches_cold": all(c["cache_dir_empty"] for c in cold),
        "cache_entries_at_start": max(c["cache_entries"] for c in cold),
        "rounds": {"plain": len(plain), "traced": len(traced)},
        "round_wall_s_median": statistics.median(r["wall_s"] for r in plain),
        "round_wall_s": {"plain": [r["wall_s"] for r in plain],
                         "traced": [r["wall_s"] for r in traced]},
        "requests_per_round": len(requests), "samples": samples,
        "fail_rate": metric(len(failures) / attempted, "ratio"),
        "failures": failures[:20], "end_to_end": e2e,
    }
    metrics = e2e
    if args.trace:
        metrics, absent = per_layer(plain, traced)
        report["per_layer"] = metrics
        report["absent"] = absent
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
