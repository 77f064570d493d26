"""CLI behaviour: formats, round-trips, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hurwitz
from hurwitz import HurwitzResult, cli, compute, correlator, tables
from hurwitz.algebra import GPoly
from hurwitz.cli import main
from hurwitz.correlator import connected_closed_form, nonconnected_assemble
from hurwitz.partitions import partitions_of
from hurwitz.tau import connected_any, hurwitz_any
from hurwitz.weights import parse_model, specialize


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_json_output_bytes_are_pinned(capsys):
    # every profile with |mu| <= 5, d = 0..8, connected and not, under three
    # models: the bytes of `compute --format json`, as one digest
    digest = hashlib.sha256()
    for n in range(1, 6):
        for mu in partitions_of(n):
            for model in ("generic", "quantum", "exp"):
                for connected in ((), ("--connected",)):
                    code, out, _ = run_cli(capsys, "compute", "--mu", ",".join(map(str, mu)),
                                           "--d-range", "0:8", "--weights", model,
                                           "--format", "json", *connected)
                    assert code == 0
                    digest.update(out.encode())
    assert digest.hexdigest() == (
        "12fdf6d85872f2c679a8db2459057337784c4ef9496ccdba6fa2f9aab2659fcb")


def test_json_output_bytes_above_the_degree_cap_are_pinned(capsys):
    # five requests between the default caps and the ceiling, as one digest
    digest = hashlib.sha256()
    for request in (("--mu", "8,8", "--d", "18"), ("--mu", "6,5,5", "--d", "17", "--connected"),
                    ("--mu", "16", "--d", "17"), ("--mu", "7,7,7", "--d", "20"),
                    ("--mu", "12,12", "--d", "24")):
        code, out, _ = run_cli(capsys, "compute", *request, "--max-weight", "30",
                               "--max-degree", "30", "--format", "json")
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "097cc38144dafbf61e628d2a77c9504a14d7051c152225a8b7c26fd62d3fa871")


def test_quantum_bytes_above_the_degree_cap_are_pinned(capsys):
    # symbolic-q json and (q;q)_m text above the default caps: denominators
    # up to degree 210, with Phi_k up to k = 20, as one digest
    digest = hashlib.sha256()
    for mu, d in (("16", "17"), ("12", "13"), ("8,8", "18"), ("5,4,3,2", "20"), ("9,9", "20")):
        for fmt in (("--format", "json"), ()):
            code, out, _ = run_cli(capsys, "compute", "--mu", mu, "--d", d, "--weights",
                                   "quantum", "--max-weight", "30", "--max-degree", "30", *fmt)
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == (
        "339450fbaac77e2d35523a3b97f367b09ac3fba4841ecea9d010fb5f7aa7d9bd")


def test_connected_json_bytes_of_length_four_and_more_are_pinned(capsys):
    # tau's connected values above the default caps, where only tau computes
    digest = hashlib.sha256()
    for mu, d in (("5,4,3,2", "24"), ("4,4,3,3", "20"), ("4,3,3,2,2", "17"),
                  ("2,2,2,2,2,2", "16")):
        code, out, _ = run_cli(capsys, "compute", "--mu", mu, "--d", d, "--connected",
                               "--max-weight", "30", "--max-degree", "30", "--format", "json")
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "f951ca833368573d7fd8dceaf35b007d84d01f2250ec53467a841bac9130f66f")


def test_display_bytes_are_pinned(capsys):
    # the (q;q)_m display path: every table as text and csv, then symbolic-q
    # `compute` text for |mu| <= 5, d = 0..8, connected and not, as one digest
    digest = hashlib.sha256()
    for which in tables.table_ids():
        for fmt in ("text", "csv"):
            code, out, _ = run_cli(capsys, "table", which, "--format", fmt)
            assert code == 0
            digest.update(out.encode())
    for n in range(1, 6):
        for mu in partitions_of(n):
            for connected in ((), ("--connected",)):
                code, out, _ = run_cli(capsys, "compute", "--mu", ",".join(map(str, mu)),
                                       "--d-range", "0:8", "--weights", "quantum", *connected)
                assert code == 0
                digest.update(out.encode())
    assert digest.hexdigest() == (
        "858e12b598a4528dc935f64e235540641bd42377c681e1a9e9b9387450433d0a")


@pytest.mark.parametrize("pipeline", cli.PIPELINES)
def test_negative_d_is_a_usage_error(capsys, pipeline):
    with pytest.raises(ValueError, match="d must be >= 0"):
        compute((2,), -1, parse_model("exp"), pipeline=pipeline)
    code, out, err = run_cli(capsys, "compute", "--mu", "2", "--d", "-1", "--weights", "exp",
                             "--pipeline", pipeline)
    assert code == 1 and out == ""
    assert err.splitlines() == ["hurwitz: error: d must be >= 0"]


@pytest.mark.parametrize("name", ["weight", "degree"])
def test_negative_cap_is_a_usage_error(capsys, name):
    with pytest.raises(ValueError, match=f"{name} cap must be >= 0"):
        compute((2,), 1, **{f"max_{name}": -3})
    code, out, err = run_cli(capsys, "compute", "--mu", "2", "--d", "1", f"--max-{name}", "-3")
    assert code == 1 and out == ""
    assert err.splitlines() == [f"hurwitz: error: {name} cap must be >= 0"]


def test_package_runs_as_a_module():
    src = str(Path(hurwitz.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "hurwitz", "compute", "--mu", "2", "--d", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("H^1(2) nonconnected [generic, correlator] = ")


def test_compute_connected_generic(capsys):
    code, out, _ = run_cli(capsys, "compute", "--mu", "2,1", "--d", "3",
                           "--weights", "generic", "--connected")
    assert code == 0
    assert "g3 + g1*g2" in out


def test_compute_quantum_pretty(capsys):
    code, out, _ = run_cli(capsys, "compute", "--mu", "2", "--d", "1",
                           "--weights", "quantum")
    assert code == 0
    assert "1 / (2(q;q)_1)" in out


def test_compute_trivial(capsys):
    code, out, _ = run_cli(capsys, "compute", "--mu", "1", "--d", "0")
    assert code == 0
    assert out.strip().endswith("= 1")


def test_compute_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "compute", "--mu", "2,1", "--d-range", "0:4",
                           "--connected", "--format", "json")
    assert code == 0
    results = [HurwitzResult.from_json(item) for item in json.loads(out)]
    assert [r.d for r in results] == [0, 1, 2, 3, 4]
    assert all(r.to_json() == item for r, item in zip(results, json.loads(out)))
    # symbolic-q values are read back through QRat.from_json's validation
    code, out, _ = run_cli(capsys, "compute", "--mu", "2,1", "--d-range", "0:7",
                           "--weights", "quantum", "--format", "json")
    assert code == 0
    items = json.loads(out)
    results = [HurwitzResult.from_json(item) for item in items]
    assert [r.to_json() for r in results] == items
    assert results[5].value == specialize(hurwitz_any((2, 1), 5), parse_model("quantum"))


def test_compute_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "compute", "--mu", "2", "--d-range", "1:3",
                           "--weights", "exp", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["mu", "d", "connected", "model", "pipeline", "value"]
    assert rows[1] == ["2", "1", "false", "exp", "correlator", "1/2"]
    assert rows[2][5] == "0"      # parity-vanishing order
    assert rows[3][5] == "1/12"   # g3/2 at g3 = 1/6


def test_compute_pipelines_agree(capsys):
    values = {}
    for pipeline in ("correlator", "tau", "oracle"):
        code, out, _ = run_cli(capsys, "compute", "--mu", "2,1", "--d", "3",
                               "--weights", "exp", "--pipeline", pipeline)
        assert code == 0
        values[pipeline] = out.strip().rsplit("= ", 1)[1]
    assert len(set(values.values())) == 1


def test_compute_oracle_needs_numeric_model(capsys):
    code, _, err = run_cli(capsys, "compute", "--mu", "2", "--d", "1",
                           "--pipeline", "oracle")
    assert code == 1
    assert "numeric" in err


def test_compute_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "compute", "--mu", "11", "--d", "1",
                           "--pipeline", "tau")
    assert code == 2
    assert "cap" in err.lower()


def test_compute_correlator_cap_exit_code(capsys):
    # nonzero parity, so the selection rules pass it on to the correlator caps
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "compute", "--mu", "6,5,4", "--d", "20")
    assert time.perf_counter() - t0 < 2
    assert code == 2
    assert "cap exceeded" in err


def test_compute_wide_d_range_stops_at_the_cap(capsys):
    # the range is walked lazily, so its width costs nothing before d = 13
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "compute", "--mu", "2", "--d-range", "0:1000000000000")
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert "cap exceeded" in err


def test_oracle_checks_the_caps_first(capsys):
    code, _, err = run_cli(capsys, "compute", "--mu", "3,2", "--d", "13",
                           "--weights", "exp", "--pipeline", "oracle")
    assert code == 2
    assert "cap exceeded" in err
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "compute", "--mu", "3,2", "--d-range", "0:1000000000000",
                           "--weights", "exp", "--pipeline", "oracle")
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert "cap exceeded" in err


def test_raised_caps_stop_at_the_ceiling(capsys):
    # an exact value this large would not even print: the request is
    # refused before anything is computed
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "compute", "--mu", "3,2", "--d", "2001", "--weights", "exp",
                             "--pipeline", "oracle", "--max-degree", "2001")
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert err.splitlines() == ["hurwitz: cap exceeded: degree cap 2001 exceeds the ceiling 30"]
    # the ceiling comes before the selection rules: a correlator zero too
    code, out, err = run_cli(capsys, "compute", "--mu", "12", "--d", "30", "--max-weight", "31")
    assert code == 2 and out == ""
    assert err.splitlines() == ["hurwitz: cap exceeded: weight cap 31 exceeds the ceiling 30"]
    code, out, _ = run_cli(capsys, "compute", "--mu", "12", "--d", "30",
                           "--max-weight", "30", "--max-degree", "30")
    assert code == 0
    assert out.strip().endswith("= 0")


def test_compute_parity_zero_is_prompt(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "compute", "--mu", "12", "--d", "30")
    assert time.perf_counter() - t0 < 2
    assert code == 0
    assert out.strip().endswith("= 0")


@pytest.mark.parametrize("model", ["generic", "exp", "quantum", "quantum:q=1/3"])
def test_selection_rule_zero_matches_pipelines(capsys, model):
    # (mu, d, connected): parity zeros, then below the genus-0 bound and
    # below the colength bound with the parity of a nonzero value
    cases = [((2, 1), 2, False), ((2, 1, 1, 1), 4, True),
             ((2, 1), 1, True), ((3, 2), 1, True), ((2, 1, 1, 1), 5, True),
             ((3,), 0, False), ((4, 1, 1, 1), 1, False)]
    for mu, d, connected in cases:
        pipelines = ["tau"] + (["correlator"] if len(mu) <= 3 else [])
        for pipeline in pipelines:
            argv = ["compute", "--mu", ",".join(map(str, mu)), "--d", str(d),
                    "--weights", model, "--pipeline", pipeline, "--format", "json"]
            if connected:
                argv.append("--connected")
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            if pipeline == "tau":
                generic = (connected_any if connected else hurwitz_any)(mu, d)
            elif connected:
                generic = connected_closed_form(mu, d)
            else:
                generic = nonconnected_assemble(mu, d)
            assert generic.is_zero()
            parsed = parse_model(model)
            value = generic if parsed.kind == "generic" else specialize(generic, parsed)
            want = HurwitzResult(mu, d, connected, pipeline, value, parsed.describe())
            assert json.loads(out) == [want.to_json()]


def test_oracle_skips_selection_rules(capsys, monkeypatch):
    calls = []
    real = cli.weighted_from_definition

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "weighted_from_definition", recording)
    code, out, _ = run_cli(capsys, "compute", "--mu", "2,1", "--d", "2",
                           "--weights", "exp", "--pipeline", "oracle")
    assert code == 0
    assert calls == [((2, 1), 2, parse_model("exp"))]
    assert out.strip().endswith("= 0")


def test_parser_reuse_behaves_like_fresh_processes(capsys):
    def usage_error():
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--d", "1"])  # missing --mu
        return exc.value.code, capsys.readouterr().err

    first = usage_error()
    assert first[0] == 1 and "--mu" in first[1]
    code, out, _ = run_cli(capsys, "compute", "--mu", "2,1", "--d", "3",
                           "--connected", "--format", "json")
    assert code == 0 and json.loads(out)[0]["connected"] is True
    code, out, _ = run_cli(capsys, "compute", "--mu", "2,1", "--d", "3",
                           "--format", "json")
    assert code == 0 and json.loads(out)[0]["connected"] is False
    assert usage_error() == first


def _exit_and_output(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


_MU_D = ["--mu", "2", "--d", "1"]
USAGE_CASES = [
    [], ["bogus"], ["-h"], ["--help"], ["--", "compute"], ["-x", "compute", *_MU_D],
    ["compute", "-h"], ["table", "-h"], ["verify", "-h"],
    ["compute", "--d", "1"], ["compute", "--d", "1", "--mu"], ["compute", *_MU_D, "--bogus"],
    ["compute", *_MU_D, "extra"], ["compute", "-x", *_MU_D],
    ["compute", *_MU_D, "--d-range", "0:2"], ["compute", "--mu", "2", "--d", "x"],
    ["compute", *_MU_D, "--pipeline", "nope"],
    ["table"], ["table", "B4", "extra"], ["verify", "--scope", "nope"],
    ["compute", "--mu", "2,1", "--d", "3", "--conn"],
    ["compute", "--mu", "2,1", "--d", "3", "--format=json", "--weights=exp"],
]


def test_usage_and_help_bytes_are_pinned(capsys, monkeypatch):
    # top-level help and errors, subcommand help, bad arguments and two
    # abbreviated or joined spellings: exit codes and every byte, as one digest
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in USAGE_CASES:
        digest.update(repr((argv, *_exit_and_output(capsys, argv))).encode())
    assert digest.hexdigest() == (
        "4d91350104c190989a3f7621932c3d653707b9e9c66807abe3625168ec7c1a43")


ONE_PASS_GRID = [
    ["compute", "--mu", "2,1", "--d", "3"],
    ["compute", "--mu", "3,1,1", "--d-range", "3:7", "--weights", "exp"],
    ["compute", "--mu", "2,1", "--d", "3", "--conn"],
    ["compute", "--mu", "2,1", "--d", "3", "--format=json", "--max-weight", "30"],
    *(["compute", "--mu", "2", "--d", "1", "--weights", "exp", "--pipeline", pipeline]
      for pipeline in cli.PIPELINES),
    ["table", "B4"], ["table", "a1", "--format", "csv"],
    ["verify"], ["verify", "--scope", "full", "--errata-out", "errata.json"],
]


def test_each_request_is_one_parse(monkeypatch):
    # a request is parsed once, by its subcommand's parser, into the
    # namespace the top-level parser gives
    seen = []
    for name in ("cmd_compute", "cmd_table", "cmd_verify"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or cli.EXIT_OK)
    passes = []
    real = cli._Parser.parse_known_args

    def counted(self, *args, **kwargs):
        passes.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", counted)
    for argv in ONE_PASS_GRID:
        passes.clear()
        assert main(argv) == cli.EXIT_OK
        assert passes == [f"hurwitz {argv[0]}"], argv
    monkeypatch.setattr(cli._Parser, "parse_known_args", real)
    parser, _ = cli._build_parser()
    assert seen == [vars(parser.parse_args(argv)) for argv in ONE_PASS_GRID]
    monkeypatch.setattr(sys, "argv", ["hurwitz", *ONE_PASS_GRID[2]])
    assert main() == cli.EXIT_OK
    assert seen[-1] == seen[2]


def _cold_output(capsys, argv):
    for value in (hurwitz_any, connected_any, connected_closed_form, nonconnected_assemble):
        value.cache_clear()
    return run_cli(capsys, *argv)


@pytest.mark.parametrize("model", ["generic", "exp", "rational:c=1,2;d=3", "dual:d=1",
                                   "quantum:q=1/3"])
def test_cached_values_print_the_cold_bytes(capsys, model):
    # values are shared between requests and callers, which is safe only
    # because they are immutable: a repeated request prints what a cold
    # process prints
    for argv in (["--mu", "3,1,1", "--d-range", "3:7"],
                 ["--mu", "2,2,1", "--d-range", "5:7", "--connected"],
                 ["--mu", "2,1,1,1", "--d-range", "3:7", "--pipeline", "tau"]):
        argv = ["compute", *argv, "--weights", model, "--format", "json"]
        first, again = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert first == again == _cold_output(capsys, argv)


def test_assembly_is_one_walk_and_prints_the_cold_bytes(capsys, monkeypatch):
    # a nonconnected correlator value is one cycle sum over the products of
    # its blocks' terms: the connected values other requests cached change
    # nothing, and a cold value makes one walk, no GPoly product and no
    # connected value
    argv = ["compute", "--mu", "2,1,1", "--d", "7", "--format", "json"]
    cold = _cold_output(capsys, argv)
    for mu, d in (("2,1", "3:5"), ("1,1", "0:6"), ("2", "0:4"), ("1", "0:2")):
        assert run_cli(capsys, "compute", "--mu", mu, "--d-range", d, "--connected")[0] == 0
    nonconnected_assemble.cache_clear()
    assert run_cli(capsys, *argv) == cold
    for value in (connected_closed_form, nonconnected_assemble):
        value.cache_clear()
    walks, products = [], []
    walk, mul = correlator.power_sum_total, GPoly.__mul__
    monkeypatch.setattr(correlator, "power_sum_total", lambda *a: walks.append(a) or walk(*a))
    monkeypatch.setattr(GPoly, "__mul__", lambda *a: products.append(a) or mul(*a))
    assert nonconnected_assemble((4, 2, 1), 12)
    assert (len(walks), len(products)) == (1, 0)
    assert connected_closed_form.cache_info().currsize == 0


def test_compute_auto_uses_tau_for_long_profiles(capsys):
    code, out, _ = run_cli(capsys, "compute", "--mu", "1,1,1,1", "--d", "2")
    assert code == 0
    assert "tau" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--d", "1"])  # missing --mu
    assert exc.value.code == 1


@pytest.mark.parametrize("model", ["quantum:q=1/0", "rational:c=1/0", "dual:d=1/0",
                                   "taylor:1,1/0"])
def test_zero_denominator_weight_model(capsys, model):
    code, out, err = run_cli(capsys, "compute", "--mu", "2", "--d", "1", "--weights", model)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"hurwitz: error: bad weight model {model!r}: zero denominator"]


@pytest.mark.parametrize("model", ["taylor:1,,1/2", "rational:c=1,,2;d=3", "dual:d=,1",
                                   "taylor:1,"])
def test_empty_list_item_in_weight_model(capsys, model):
    # an empty item would shift every later coefficient down one place
    code, out, err = run_cli(capsys, "compute", "--mu", "2", "--d", "1", "--weights", model)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"hurwitz: error: bad weight model {model!r}: empty item in a list"]


@pytest.mark.parametrize("model", ["rational:c=1;c=2", "rational:c=1;d=2;c=1"])
def test_repeated_rational_parameter(capsys, model):
    code, out, err = run_cli(capsys, "compute", "--mu", "2", "--d", "1", "--weights", model)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"hurwitz: error: bad weight model {model!r}: repeated rational parameter 'c'"]


@pytest.mark.parametrize("model, reason", [
    ("rational:c", "rational parameter 'c' takes c=..."),
    ("rational:c=1;d", "rational parameter 'd' takes d=..."),
    ("dual:d", "dual model takes d=...")])
def test_weight_parameter_without_equals_sign(capsys, model, reason):
    # a truncated model string must not run as the model with an empty list
    code, out, err = run_cli(capsys, "compute", "--mu", "2", "--d", "1", "--weights", model)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"hurwitz: error: bad weight model {model!r}: {reason}"]


@pytest.mark.parametrize("text", ["3", "a:b", "1:2:3", ":", "5:3"])
def test_bad_d_range(capsys, text):
    code, out, err = run_cli(capsys, "compute", "--mu", "2", "--d-range", text)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"hurwitz: error: bad d range {text!r}; expected lo:hi"]


def test_bad_partition_string(capsys):
    code, _, err = run_cli(capsys, "compute", "--mu", "1,2", "--d", "1")
    assert code == 1
    assert "partition" in err


def test_table_a1(capsys):
    code, out, _ = run_cli(capsys, "table", "A1")
    assert code == 0
    assert "(0,1)" in out and "1/2*g1" in out
    assert "ERRATUM" not in out


def test_table_b9_spot_value(capsys):
    code, out, _ = run_cli(capsys, "table", "B9")
    assert code == 0
    assert "(3,2,1) d=7 connected" in out
    assert " 9" in out


def test_table_b4_flags_errata(capsys):
    code, out, _ = run_cli(capsys, "table", "B4")
    assert code == 0
    assert "ERRATUM" in out
    assert "5/4*g1*g3" in out  # consensus value shown in the grid


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "B8", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["cell", "value", "status", "published"]
    statuses = {row[0]: row[2] for row in rows[1:]}
    assert statuses["(2,1) d=3 connected"] == "ERRATUM"
    assert statuses["(2,1) d=3 nonconnected"] == "ok"


def test_pipeline_disagreement_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(tables, "connected_closed_form", lambda mu, d: GPoly.var(1))
    code, _, err = run_cli(capsys, "table", "B5")
    assert code == 3
    assert err.startswith("hurwitz: verification failed: pipeline disagreement")
    assert err.count("\n") == 1


def test_table_unknown(capsys):
    code, _, err = run_cli(capsys, "table", "B99")
    assert code == 1
    assert "unknown table" in err


def test_verify_quick(tmp_path, capsys):
    errata_path = tmp_path / "errata.json"
    code, out, _ = run_cli(capsys, "verify", "--scope", "quick",
                           "--errata-out", str(errata_path))
    assert code == 0
    assert "all checks passed" in out
    report = json.loads(errata_path.read_text())
    assert any(e["table"] == "A3" and e["cell"] == "(0,2)" for e in report)


def test_verify_unwritable_errata_out(tmp_path, capsys, monkeypatch):
    scopes = []
    monkeypatch.setattr("hurwitz.verify.run_suite", lambda scope: scopes.append(scope) or [])
    plain_file = tmp_path / "plain_file"
    plain_file.write_text("")
    code, _, err = run_cli(capsys, "verify", "--errata-out", str(plain_file / "x.json"))
    assert code == 1
    assert err.startswith("hurwitz: error: ")
    assert len(err.splitlines()) == 1
    assert scopes == []   # the path fails before the suite runs


def test_cache_dir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HURWITZ_CACHE", str(tmp_path / "envcache"))
    code, out, _ = run_cli(capsys, "verify", "--scope", "quick")
    assert code == 0
    assert (tmp_path / "envcache" / "errata.json").exists()
