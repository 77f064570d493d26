"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py JOB.json OUT.json
    python3 perfbench/worker.py --setup

Imports `hurwitz.cli`, prints ``ready`` (the parent times set-up up to that
line), then sends each request of the job to `hurwitz.cli.main(argv)`, one
at a time, and writes per-request exit codes, durations and output to
OUT.json.  With ``"trace": true`` in the job the layers are traced from
outside (see layertrace.py).  ``--setup`` stops after ``ready``.
Checking the outputs is left to the parent, so it stays outside the timed
region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main(job_path: str, out_path: str = "") -> int:
    import hurwitz.cli

    print("ready", flush=True)
    if job_path == "--setup":
        return 0
    with open(job_path) as fh:
        job = json.load(fh)

    import layertrace

    cache_dir = os.environ["HURWITZ_CACHE"]
    cold = {"cache_dir_empty": not os.listdir(cache_dir),
            "cache_entries": layertrace.cache_entries()}
    tracer = None
    if job["trace"]:
        tracer = layertrace.Tracer()
        tracer.install()
    entry = hurwitz.cli.main     # looked up after install, so traced runs see the wrapper

    results = []
    clock = time.perf_counter
    start = clock()
    for argv in job["requests"]:
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = entry(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = -1
        results.append([code, clock() - t0, out.getvalue(), err.getvalue()])
    wall = clock() - start

    report = {
        "wall_s": wall,
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cold_start": cold,
        "cache_entries": layertrace.cache_entries(),
        "trace": tracer.snapshot() if tracer else None,
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
