"""Tests for report rendering and persistence, and for ``repro
report`` over fullscale checkpoints."""

import json
from pathlib import Path

import pytest

from repro.bench import format_table, histogram
from repro.bench.fullscale import load_checkpoint
from repro.bench.harness import EfficacyRecord, record_to_json
from repro.bench.report import emit, per_query_profiles, render_report
from repro.cli import main

COMMITTED_8Q = Path(__file__).resolve().parents[2] / "results" / "fullscale_8q.jsonl"


def test_format_table_alignment():
    text = format_table(
        ["name", "count"],
        [["alpha", 10], ["b", 2000]],
        title="Demo",
    )
    lines = text.splitlines()
    assert lines[0] == "Demo"
    assert lines[1].startswith("name")
    assert "-----" in lines[2]
    assert lines[3].startswith("alpha")
    # Columns line up.
    assert lines[1].index("count") == lines[3].index("10")


def test_format_table_floats():
    text = format_table(["x"], [[1.23456]])
    assert "1.23" in text


def test_histogram_buckets():
    counts = histogram([1, 5, 5, 7, 100], edges=(5, 10))
    assert counts == [3, 1, 1]
    assert histogram([], edges=(1,)) == [0, 0]


def test_histogram_boundary_inclusive():
    assert histogram([5], edges=(5,)) == [1, 0]
    assert histogram([6], edges=(5,)) == [0, 1]


def test_emit_persists(tmp_path, monkeypatch, capsys):
    import repro.bench.report as report

    monkeypatch.setattr(report, "RESULTS_DIR", tmp_path)
    emit("demo", "hello table")
    assert (tmp_path / "demo.txt").read_text() == "hello table\n"
    assert "hello table" in capsys.readouterr().out


# ----------------------------------------------------------------------
# `repro report`: per-query profiles of a fullscale checkpoint
# ----------------------------------------------------------------------
def _record(query=0, technique="SIA", valid=True, optimal=False,
            partial=False, counters=None):
    return EfficacyRecord(
        query_index=query,
        subset=("l_shipdate",),
        n_cols=1,
        technique=technique,
        possible=True,
        valid=valid,
        optimal=optimal,
        iterations=3,
        generation_ms=80.0,
        learning_ms=15.0,
        validation_ms=55.0,
        partial=partial,
        counters=dict(counters or {}),
    )


def _records():
    return [
        _record(query=0, optimal=True, counters={"checks": 10}),
        _record(query=0, technique="DT", valid=False),
        _record(query=2, partial=True, counters={"checks": 5}),
    ]


def _write(path, records):
    path.write_text(
        "".join(json.dumps(record_to_json(r)) + "\n" for r in records)
    )


def test_per_query_profiles_aggregate():
    rows = per_query_profiles(_records())
    assert [r["query"] for r in rows] == [0, 2]
    first = rows[0]
    assert first["cells"] == 2
    assert first["valid"] == 1
    assert first["optimal"] == 1
    assert first["checks"] == 10
    assert first["total_ms"] == pytest.approx(300.0)
    assert first["phase_ms"]["generation"] == pytest.approx(160.0)
    assert rows[1]["partial"] == 1


def test_render_report_table_and_totals():
    text = render_report(_records())
    assert text.splitlines()[0].startswith("query")
    assert text.endswith("3 cells over 2 queries: 2 valid, 1 optimal, 1 partial")


def test_render_report_empty(tmp_path):
    path = tmp_path / "cells.jsonl"
    path.write_text("")
    assert render_report(load_checkpoint(path)) == "checkpoint has no cells"


def test_load_checkpoint_skips_torn_trailing_line(tmp_path):
    path = tmp_path / "cells.jsonl"
    _write(path, _records()[:2])
    with path.open("a") as handle:
        handle.write('{"query_index": 2, "subset": ["l_ship')
    assert [r.query_index for r in load_checkpoint(path)] == [0, 0]


def test_load_checkpoint_rejects_a_bad_middle_line(tmp_path):
    path = tmp_path / "cells.jsonl"
    _write(path, _records())
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "{not json", lines[2]]) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        load_checkpoint(path)


def test_report_reads_committed_pre_counters_checkpoint(capsys):
    """Checkpoints written before cells carried ``counters`` (or
    ``partial``) still render."""
    assert "counters" not in COMMITTED_8Q.read_text()
    assert main(["report", str(COMMITTED_8Q)]) == 0
    out = capsys.readouterr().out.rstrip("\n")
    assert out.endswith(
        "224 cells over 8 queries: 63 valid, 40 optimal, 0 partial"
    )
    assert main(["report", str(COMMITTED_8Q), "--json"]) == 0
    profiles = json.loads(capsys.readouterr().out)["profiles"]
    assert len(profiles) == 8
    assert all(row["checks"] == 0 for row in profiles)


def test_report_missing_file_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent.jsonl")]) == 2
    assert "report: error" in capsys.readouterr().err
