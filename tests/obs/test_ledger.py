"""Run ledger: writer, tolerant reader, profiles and the report table."""

import json

import pytest

from repro.obs.ledger import (
    LEDGER_VERSION,
    RunLedger,
    cell_entry,
    load_ledger,
    per_query_profiles,
    render_report,
)


def _payload(query=0, technique="SIA", valid=True, optimal=False,
             partial=False, **extra):
    payload = {
        "query_index": query,
        "subset": ["l_shipdate"],
        "technique": technique,
        "valid": valid,
        "optimal": optimal,
        "partial": partial,
        "possible": True,
        "iterations": 3,
        "generation_ms": 80.0,
        "learning_ms": 15.0,
        "validation_ms": 55.0,
    }
    payload.update(extra)
    return payload


class TestCellEntry:
    def test_keeps_verdict_cost_and_counters(self):
        entry = cell_entry(
            _payload(query=4, optimal=True),
            counters={"checks": 41, "pivots": 310},
            audit="certified",
            deadline_ms=4000.0,
        )
        assert entry["type"] == "cell"
        assert entry["query"] == 4
        assert entry["technique"] == "SIA"
        assert entry["optimal"] is True
        assert entry["partial"] is False
        assert entry["phase_ms"] == {
            "generation": 80.0, "learning": 15.0, "validation": 55.0,
        }
        assert entry["counters"] == {"checks": 41, "pivots": 310}
        assert entry["audit"] == "certified"
        assert entry["deadline_ms"] == 4000.0

    def test_partial_flag_defaults_false_for_old_payloads(self):
        payload = _payload()
        del payload["partial"]
        assert cell_entry(payload)["partial"] is False


class TestRunLedger:
    def test_writes_header_then_flushed_cells(self, tmp_path):
        path = tmp_path / "tele" / "ledger.jsonl"
        config = {"float_filter": "filter+trust-sat", "workers": 2}
        with RunLedger(path, config) as ledger:
            ledger.append(cell_entry(_payload()))
            # Flushed per line: readable while the run is still going.
            header, entries = load_ledger(path)
            assert header["version"] == LEDGER_VERSION
            assert header["config"] == config
            assert len(entries) == 1
        header, entries = load_ledger(path)
        assert len(entries) == 1

    def test_append_after_close_raises(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.close()
        with pytest.raises(ValueError):
            ledger.append(cell_entry(_payload()))

    def test_reader_skips_torn_trailing_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RunLedger(path) as ledger:
            ledger.append(cell_entry(_payload(query=0)))
            ledger.append(cell_entry(_payload(query=1)))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "cell", "query": 2, "val')
        header, entries = load_ledger(path)
        assert [e["query"] for e in entries] == [0, 1]
        assert header["version"] == LEDGER_VERSION

    def test_reader_tolerates_missing_header(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(
            json.dumps(cell_entry(_payload())) + "\n", encoding="utf-8"
        )
        header, entries = load_ledger(path)
        assert header == {}
        assert len(entries) == 1


class TestProfilesAndReport:
    def _entries(self):
        return [
            cell_entry(_payload(query=0, optimal=True),
                       counters={"checks": 10}),
            cell_entry(_payload(query=0, technique="DT", valid=False)),
            cell_entry(_payload(query=2, partial=True),
                       counters={"checks": 5}),
        ]

    def test_per_query_profiles_aggregate(self):
        rows = per_query_profiles(self._entries())
        assert [r["query"] for r in rows] == [0, 2]
        first = rows[0]
        assert first["cells"] == 2
        assert first["valid"] == 1
        assert first["optimal"] == 1
        assert first["checks"] == 10
        assert first["total_ms"] == pytest.approx(300.0)
        assert first["phase_ms"]["generation"] == pytest.approx(160.0)
        assert rows[1]["partial"] == 1

    def test_render_report_table_and_totals(self):
        header = {"config": {"float_filter": "filter+trust-sat",
                             "deadline_ms": 4000.0}}
        text = render_report(header, self._entries())
        assert "query" in text.splitlines()[0]
        assert "3 cells over 2 queries: 2 valid, 1 optimal, 1 partial" in text
        assert "float_filter=filter+trust-sat" in text
        assert "deadline_ms=4000.0" in text

    def test_render_report_empty(self):
        assert render_report({}, []) == "ledger has no cell entries"


def test_report_renders_ledger_with_legacy_sanitize_key(tmp_path, capsys):
    """Ledgers written while the header still carried ``"sanitize"``
    stay readable by ``repro report``."""
    from repro.cli import main

    path = tmp_path / "ledger.jsonl"
    config = {"float_filter": "filter+trust-sat", "workers": 2,
              "deadline_ms": 4000.0, "sanitize": False, "seed": 42}
    with RunLedger(path, config) as ledger:
        ledger.append(cell_entry(_payload(query=0, optimal=True)))
        ledger.append(cell_entry(_payload(query=1)))
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2 cells over 2 queries: 2 valid, 1 optimal, 0 partial" in out
    assert main(["report", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["sanitize"] is False
    assert [row["query"] for row in payload["profiles"]] == [0, 1]
