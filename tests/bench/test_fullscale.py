"""Tests for the resumable full-scale runner (tiny scales)."""

import json

import pytest

from repro.bench import parallel
from repro.bench.fullscale import main, run, summarize
from repro.bench.harness import EfficacyRecord
from repro.bench.parallel import TelemetryConfig


def test_run_and_summarize(tmp_path, capsys):
    out = tmp_path / "cells.jsonl"
    new_cells = run(queries=1, seed=5, out_path=out, techniques=("TC",))
    assert new_cells == 7  # one query x seven subsets
    text = summarize(out)
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


def test_main_summarize_mode(tmp_path, capsys):
    out = tmp_path / "cells.jsonl"
    run(queries=1, seed=5, out_path=out, techniques=("TC",))
    code = main(["--summarize", str(out)])
    assert code == 0
    assert "Table 2" in capsys.readouterr().out


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
    a telemetry run whose second query fails keeps the first query's
    cells, and a rerun computes only the rest."""
    out = tmp_path / "cells.jsonl"
    telemetry = TelemetryConfig(directory=tmp_path / "tele", heartbeat_ms=50.0)
    calls: list[int] = []
    monkeypatch.setattr(parallel, "_run_sia_variant", _stub_sia(calls, fail_on=1))
    with pytest.raises(RuntimeError, match="query 1 failed"):
        run(queries=2, seed=5, out_path=out, techniques=("TC", "SIA"),
            telemetry=telemetry)
    cells = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(1 for cell in cells if cell["query_index"] == 0) == 14
    assert len(cells) == 15  # plus query 1's first TC cell

    calls.clear()
    monkeypatch.setattr(parallel, "_run_sia_variant", _stub_sia(calls))
    assert run(queries=2, seed=5, out_path=out, techniques=("TC", "SIA")) == 13
    assert calls == [1] * 7
