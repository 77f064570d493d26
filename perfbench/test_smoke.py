"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at a tiny size, plain and traced, and checks that each
metric BENCHMARK.json names is printed with its unit; checks that a
corrupted reference value fails the gate, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "1",
                           "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def scratch_dir() -> Path:
    (HERE / "_work").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=HERE / "_work"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, lines = bench("--workload", workload, "--trace", str(trace), "--tiny")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    report = json.loads(lines[-2])["report"]
    assert report["caches_cold"] and report["fail_rate"]["value"] == 0


def test_corrupted_reference_fails_the_gate():
    argv = workloads.sweep_requests(1)[0]
    mu = argv[argv.index("--mu") + 1].split(",")
    key = reference.key(mu, int(argv[argv.index("--d") + 1]), "--connected" in argv,
                        argv[argv.index("--weights") + 1])
    data = json.loads(reference.REFERENCE.read_text())
    data["entries"][key] = "0" * 16
    tmp = scratch_dir()
    try:
        corrupted = tmp / "reference.json"
        corrupted.write_text(json.dumps(data))
        code, lines = bench("--workload", "sweep", "--trace", "0", "--tiny",
                            "--reference", str(corrupted))
    finally:
        shutil.rmtree(tmp)
    result = json.loads(lines[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    assert any(key in f for f in json.loads(lines[-2])["report"]["failures"])


def test_refuses_to_run_without_the_sources():
    tmp = scratch_dir()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        code, lines = bench("--workload", "tables", "--trace", "0", cwd=tmp)
    finally:
        shutil.rmtree(tmp)
    assert code != 0
    assert not any('"correct"' in line for line in lines)
