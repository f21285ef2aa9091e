"""Tests for the resumable full-scale runner (tiny scales)."""

import json
import re

import pytest

from repro.bench import parallel
from repro.bench.fullscale import load_checkpoint, run, summarize
from repro.bench.harness import EfficacyRecord, record_from_json, record_to_json
from repro.cli import main as cli_main


def test_run_and_summarize(tmp_path, capsys):
    out = tmp_path / "cells.jsonl"
    new_cells = run(queries=1, seed=5, out_path=out, techniques=("TC",))
    assert new_cells == 7  # one query x seven subsets
    text = summarize(load_checkpoint(out))
    assert "Table 2" in text and "Table 3" in text


def test_resume_skips_completed_cells(tmp_path):
    out = tmp_path / "cells.jsonl"
    first = run(queries=1, seed=5, out_path=out, techniques=("TC",))
    second = run(queries=1, seed=5, out_path=out, techniques=("TC",))
    assert first == 7
    assert second == 0
    lines = [l for l in out.read_text().splitlines() if l.strip()]
    assert len(lines) == 7


def test_resume_extends_with_new_technique(tmp_path):
    out = tmp_path / "cells.jsonl"
    run(queries=1, seed=5, out_path=out, techniques=("TC",))
    more = run(queries=1, seed=5, out_path=out, techniques=("TC", "SIA"))
    assert more == 7  # only the SIA cells are new


def test_checkpoint_is_valid_jsonl(tmp_path):
    out = tmp_path / "cells.jsonl"
    run(queries=1, seed=5, out_path=out, techniques=("TC",))
    for line in out.read_text().splitlines():
        payload = json.loads(line)
        assert {"query_index", "subset", "technique", "valid", "optimal"} <= set(payload)


def test_parallel_run_extends_same_checkpoint(tmp_path):
    """A pool run writes the same cells as the in-process runner
    (wall-clock fields aside) and resumes against the same file
    interchangeably."""
    seq_out = tmp_path / "seq.jsonl"
    par_out = tmp_path / "par.jsonl"
    run(queries=1, seed=5, out_path=seq_out, techniques=("TC",))
    stats: dict = {}
    new = run(
        queries=1, seed=5, out_path=par_out, techniques=("TC",),
        workers=2, stats=stats,
    )
    assert new == 7
    assert stats["workers"] == 2
    assert stats["restarts"] == 0

    def comparable(line):
        payload = json.loads(line)
        return {k: v for k, v in payload.items() if not k.endswith("_ms")}

    seq_cells = [comparable(l) for l in seq_out.read_text().splitlines() if l.strip()]
    par_cells = [comparable(l) for l in par_out.read_text().splitlines() if l.strip()]
    assert seq_cells == par_cells
    # Resume on the parallel-written file computes nothing new.
    assert run(
        queries=1, seed=5, out_path=par_out, techniques=("TC",), workers=2
    ) == 0


def test_report_prints_tables_before_profiles(tmp_path, capsys):
    out = tmp_path / "cells.jsonl"
    run(queries=1, seed=5, out_path=out, techniques=("TC",))
    capsys.readouterr()
    assert cli_main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.index("Table 2") < text.index("Table 3") < text.index("7 cells over 1 queries")


def test_resume_refuses_a_checkpoint_of_another_seed(tmp_path):
    """Cells are keyed by (query, subset, technique) within one
    workload; a checkpoint of seed 5 must not be resumed as seed 7,
    whose query 0 is a different query."""
    out = tmp_path / "cells.jsonl"
    run(queries=1, seed=5, out_path=out, techniques=("TC",))
    before = out.read_text()
    assert {json.loads(line)["seed"] for line in before.splitlines()} == {5}
    with pytest.raises(ValueError, match=r"cells\.jsonl.*seed 5, not 7"):
        run(queries=1, seed=7, out_path=out, techniques=("TC",))
    assert out.read_text() == before


def test_resume_refuses_a_checkpoint_without_seeds(tmp_path):
    """Lines written before the seed was recorded still load, but a run
    cannot tell which workload they came from, so it does not extend
    them."""
    out = tmp_path / "cells.jsonl"
    run(queries=1, seed=5, out_path=out, techniques=("TC",))
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    for payload in lines:
        del payload["seed"]
    out.write_text("".join(json.dumps(p) + "\n" for p in lines))
    assert len(load_checkpoint(out)) == 7
    with pytest.raises(ValueError, match="none recorded"):
        run(queries=1, seed=5, out_path=out, techniques=("TC",))


def _bench(out, *extra):
    return cli_main([
        "bench", "--queries", "1", "--parallel", "1", "--seed", "42",
        "--deadline-ms", "1", "--out", str(out), *extra,
    ])


def test_bench_cli_writes_checkpoint_and_resumes(tmp_path, capsys):
    out = tmp_path / "cells.jsonl"
    assert _bench(out) == 0
    assert len(load_checkpoint(out)) == 28  # 7 subsets x 4 techniques
    stdout = capsys.readouterr().out
    assert "28 new cells (28 total" in stdout
    checks = re.search(r"^solver counters: \d+ constructed, (\d+) checks",
                       stdout, re.MULTILINE)
    assert checks is not None and int(checks.group(1)) > 0

    assert _bench(out) == 0
    assert "0 new cells (28 total" in capsys.readouterr().out
    assert len(load_checkpoint(out)) == 28


def test_bench_cli_rejects_a_checkpoint_of_another_seed(tmp_path, capsys):
    out = tmp_path / "cells.jsonl"
    run(queries=1, seed=7, out_path=out, techniques=("TC",))
    before = out.read_bytes()
    capsys.readouterr()
    assert _bench(out) == 2
    assert str(out) in capsys.readouterr().err
    assert out.read_bytes() == before


def test_bench_cli_has_no_fullscale_flag(tmp_path, capsys):
    for extra in (["--fullscale"], ["--json", "B.json"],
                  ["--compare", "OLD.json"]):
        with pytest.raises(SystemExit) as exit_info:
            _bench(tmp_path / "cells.jsonl", *extra)
        assert exit_info.value.code == 2
        assert extra[0] in capsys.readouterr().err
    assert not (tmp_path / "cells.jsonl").exists()


def _stub_sia(calls, fail_on=None):
    """A cheap stand-in for one SIA cell that fails on one query."""

    def stub(wq, subset, technique, *, deadline_ms=None):
        calls.append(wq.index)
        if wq.index == fail_on:
            raise RuntimeError(f"query {wq.index} failed")
        return EfficacyRecord(
            query_index=wq.index,
            subset=tuple(col.name for col in subset),
            n_cols=len(subset),
            technique=technique,
            possible=False,
            valid=False,
            optimal=False,
        )

    return stub


def test_failed_run_keeps_finished_cells(tmp_path, monkeypatch):
    """Cells are checkpointed as they finish, not when the run returns:
    a run whose second query fails keeps the first query's cells, and a
    rerun computes only the rest."""
    out = tmp_path / "cells.jsonl"
    calls: list[int] = []
    monkeypatch.setattr(parallel, "_run_sia_variant", _stub_sia(calls, fail_on=1))
    with pytest.raises(RuntimeError, match="query 1 failed"):
        run(queries=2, seed=5, out_path=out, techniques=("TC", "SIA"))
    cells = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(1 for cell in cells if cell["query_index"] == 0) == 14
    assert len(cells) == 15  # plus query 1's first TC cell

    calls.clear()
    monkeypatch.setattr(parallel, "_run_sia_variant", _stub_sia(calls))
    assert run(queries=2, seed=5, out_path=out, techniques=("TC", "SIA")) == 13
    assert calls == [1] * 7


def test_resume_recomputes_a_torn_last_line(tmp_path):
    """A run killed mid-write leaves a partial final line: resume must
    not raise, must cut it off rather than append onto it, and must
    recompute that cell."""
    out = tmp_path / "cells.jsonl"
    run(queries=1, seed=5, out_path=out, techniques=("TC",))
    lines = out.read_text().splitlines(keepends=True)
    torn = json.loads(lines[3])
    out.write_text("".join(lines[:3]) + lines[3][:60])

    assert len(load_checkpoint(out)) == 3
    assert run(queries=1, seed=5, out_path=out, techniques=("TC",)) == 4
    cells = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(cells) == 7
    keys = {(c["query_index"], tuple(c["subset"]), c["technique"]) for c in cells}
    assert (torn["query_index"], tuple(torn["subset"]), torn["technique"]) in keys
    assert "Table 2 (7 cells)" in summarize(load_checkpoint(out))


def test_deadline_partials_reach_the_checkpoint(tmp_path):
    out = tmp_path / "cells.jsonl"
    run(queries=1, seed=9, out_path=out, techniques=("SIA",), deadline_ms=1.0)
    records = load_checkpoint(out)
    assert len(records) == 7
    assert any(r.partial for r in records), "a 1ms budget must expire a cell"


def test_checkpoint_cells_carry_their_counters(tmp_path, capsys):
    """Each SIA cell records its own nonzero solver-counter delta, and
    ``repro report``'s per-query ``checks`` is the sum over that
    query's cells."""
    out = tmp_path / "cells.jsonl"
    run(queries=2, seed=4, out_path=out, techniques=("SIA", "TC"),
        deadline_ms=2000.0)
    cells = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(value for c in cells for value in c["counters"].values())
    assert any(c["counters"].get("checks", 0) for c in cells)
    capsys.readouterr()
    assert cli_main(["report", str(out), "--json"]) == 0
    profiles = json.loads(capsys.readouterr().out)["profiles"]
    assert [row["query"] for row in profiles] == [0, 1]
    for row in profiles:
        assert row["checks"] == sum(
            c["counters"].get("checks", 0)
            for c in cells
            if c["query_index"] == row["query"]
        )


def test_checkpoint_line_roundtrips_counters():
    record = EfficacyRecord(
        query_index=4, subset=("l_shipdate",), n_cols=1, technique="SIA",
        possible=True, valid=True, optimal=True,
        counters={"checks": 41, "pivots": 310},
    )
    payload = json.loads(json.dumps(record_to_json(record)))
    assert payload["counters"] == {"checks": 41, "pivots": 310}
    assert record_from_json(payload).counters == record.counters


def test_old_checkpoint_lines_read_with_defaults():
    payload = record_to_json(EfficacyRecord(
        query_index=0, subset=("l_shipdate",), n_cols=1, technique="TC",
        possible=False, valid=False, optimal=False,
    ))
    del payload["partial"], payload["counters"]
    record = record_from_json(payload)
    assert record.partial is False
    assert record.counters == {}
