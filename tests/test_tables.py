"""Published-table comparisons and the frozen errata set."""

import hashlib
import json

from hurwitz import tables, verify
from hurwitz.tables import (
    KNOWN_ERRATA,
    QUICK_TABLE_IDS,
    compare_tables,
    errata_report,
    table_ids,
)


def test_table_ids():
    assert table_ids() == ["A1", "A2", "A3", "B4", "B5", "B6", "B7", "B8",
                           "B9", "B10", "B11", "B12", "B13"]


def test_a1_fully_consistent():
    rows = compare_tables("A1")
    assert len(rows) == 25
    assert all(row["match"] for row in rows)


def test_a2_symmetry_completion():
    rows = {row["cell"]: row for row in compare_tables("A2")}
    assert rows["(0,4)"]["provenance"] == "symmetry"
    assert rows["(4,4)"]["provenance"] == "printed"
    assert all(row["match"] for row in rows.values())


def test_a3_known_errata_only():
    rows = compare_tables("A3")
    bad = {row["cell"] for row in rows if not row["match"]}
    assert bad == {"(0,2)", "(1,2)"}


def test_b_tables_mismatches_are_frozen():
    for table_id in table_ids():
        for row in compare_tables(table_id):
            expected_mismatch = (table_id, row["cell"]) in KNOWN_ERRATA
            assert row["match"] != expected_mismatch, (table_id, row["cell"])


def test_known_errata_coverage():
    flagged = set()
    for table_id in table_ids():
        for row in compare_tables(table_id):
            if not row["match"]:
                flagged.add((table_id, row["cell"]))
    assert flagged == KNOWN_ERRATA


def test_every_pipeline_entry_is_the_computed_value():
    for table_id in table_ids():
        for row in compare_tables(table_id):
            assert row["pipelines"], (table_id, row["cell"])
            assert set(row["pipelines"].values()) == {row["computed"]}, (table_id, row["cell"])


def test_quick_errata_report_covers_a1_to_b9():
    quick = ("A1", "A2", "A3", "B4", "B5", "B6", "B7", "B8", "B9")
    report = errata_report("quick")
    assert [(e["table"], e["cell"]) for e in report] == \
        [(e["table"], e["cell"]) for e in errata_report("full") if e["table"] in quick]
    assert {(e["table"], e["cell"]) for e in report} == \
        {key for key in KNOWN_ERRATA if key[0] in quick}
    assert len(report) == 8


def test_quick_suite_compares_the_quick_tables(monkeypatch):
    compared = []

    def recording(table_id):
        compared.append(table_id)
        return compare_tables(table_id)

    monkeypatch.setattr(verify, "compare_tables", recording)
    assert all(result.passed for result in verify.run_suite("quick"))
    assert tuple(compared) == QUICK_TABLE_IDS


# every published cell, in this order; each mapping in sorted key order
PUBLISHED = ("A1_PRINTED", "A2_PRINTED", "A2_CORNER", "A3_PRINTED", "A3_CORNER",
             "B4_PRINTED", "B5_PRINTED", "B6_PRINTED", "B7_PRINTED", "B8_PRINTED",
             "B9_PRINTED", "B10_PRINTED", "B11_PRINTED", "B12_PRINTED", "B13_PRINTED")


def test_published_cells_are_pinned():
    # the transcription itself, typos included, as one digest: each cell as
    # (name, key, value.to_json()), and a Fraction as its str
    digest, count = hashlib.sha256(), 0
    for name in PUBLISHED:
        data = getattr(tables, name)
        for key, value in sorted(data.items()) if isinstance(data, dict) else [(None, data)]:
            shown = [str(v) for v in value] if isinstance(value, tuple) else value.to_json()
            digest.update(json.dumps([name, key, shown]).encode())
            count += 1
    assert count == 151
    assert digest.hexdigest() == (
        "b7b14b9b9e055cf815a83dd8e8e5cc52363e5adb1ba2fbe236c8362bfaed5f10")
