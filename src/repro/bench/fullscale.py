"""Resumable efficacy runs: the per-cell checkpoint behind ``repro bench``.

The full Table-2/3 experiment (200 queries × 7 subsets × 4 techniques)
takes on the order of an hour in this pure-Python reproduction, so
:func:`run` checkpoints one JSON line per finished (query, subset,
technique) cell and skips completed cells on a rerun:

    python -m repro bench --queries 200 --out results/full.jsonl
    python -m repro report results/full.jsonl

``repro report`` prints :func:`summarize`'s Table 2 and Table 3 from
whatever cells exist, so a partial run is already inspectable, and
then the per-query profiles.  Each line is one
:func:`~repro.bench.harness.record_to_json` record, the cell's solver
counter delta included, plus the workload ``seed``: a checkpoint holds
the cells of one workload, and :func:`run` refuses to extend a file
written under another seed (or by a version that recorded none).  A
run killed mid-write leaves a torn last line: :func:`load_checkpoint`
skips it and :func:`run` cuts it off before appending, so the cell is
recomputed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .harness import (
    TECHNIQUES,
    EfficacyRecord,
    record_from_json,
    record_to_json,
    table2_rows,
    table3_rows,
)
from .parallel import parallel_efficacy_records
from .report import format_table


class CheckpointError(ValueError):
    """A checkpoint file that cannot be read or extended."""


def _load_lines(path: Path | str) -> list[dict]:
    """Every checkpoint line as parsed JSON, in file order.

    An unparseable *final* line is a write torn by a killed run and is
    skipped; an unparseable line anywhere else raises
    :class:`CheckpointError`.
    """
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    payloads = []
    for number, line in enumerate(lines, start=1):
        try:
            payloads.append(json.loads(line))
        except ValueError as exc:
            if number == len(lines):
                break
            raise CheckpointError(f"{path}: line {number} is not JSON") from exc
    return payloads


def load_checkpoint(path: Path | str) -> list[EfficacyRecord]:
    """Every cell in a checkpoint file, in file order (see
    :func:`_load_lines` for torn lines).  Lines written before
    ``seed``, ``partial`` or ``counters`` existed read with their
    defaults."""
    return [
        record_from_json({k: v for k, v in payload.items() if k != "seed"})
        for payload in _load_lines(path)
    ]


def _drop_torn_tail(path: Path) -> None:
    """Cut the file back to its last complete line, so the next append
    does not glue a cell onto a torn one."""
    with path.open("rb+") as handle:
        handle.truncate(handle.read().rfind(b"\n") + 1)


def run(
    queries: int,
    seed: int,
    out_path: Path,
    techniques=TECHNIQUES,
    *,
    workers: int = 1,
    deadline_ms: float | None = None,
    stats: dict | None = None,
) -> int:
    """Run (resumably) and return the number of new cells computed.

    Cells already in the checkpoint are skipped; the rest run through
    :func:`repro.bench.parallel.parallel_efficacy_records` on
    ``workers`` processes and are appended and flushed as soon as they
    reach this process -- per cell in-process, per finished query from
    a pool -- so a killed run keeps everything it finished.
    ``deadline_ms`` bounds each SIA cell's synthesis wall-clock;
    expired cells are checkpointed as partial results (``partial:
    true``, truncated timings).  The driver's run statistics and
    solver counters land in ``stats`` (when given).

    Raises :class:`CheckpointError` when ``out_path`` holds a line of another
    workload seed, or one without a seed: its cells belong to a
    different workload and must not be skipped as done.
    """
    done: set[tuple] = set()
    if out_path.exists():
        _drop_torn_tail(out_path)
        payloads = _load_lines(out_path)
        foreign = {payload.get("seed") for payload in payloads} - {seed}
        if foreign:
            names = ", ".join(
                "none recorded" if other is None else str(other)
                for other in sorted(foreign, key=str)
            )
            raise CheckpointError(
                f"{out_path}: checkpoint holds cells of workload seed "
                f"{names}, not {seed}; use a fresh checkpoint file"
            )
        done = {
            (p["query_index"], tuple(p["subset"]), p["technique"])
            for p in payloads
        }
    out_path.parent.mkdir(parents=True, exist_ok=True)

    new_cells = 0
    with out_path.open("a") as handle:

        def checkpoint(record: EfficacyRecord) -> None:
            nonlocal new_cells
            line = {"seed": seed, **record_to_json(record)}
            handle.write(json.dumps(line) + "\n")
            handle.flush()
            new_cells += 1
            cell_ms = record.generation_ms + record.learning_ms + record.validation_ms
            print(
                f"q{record.query_index} {'+'.join(record.subset)} "
                f"{record.technique}: valid={record.valid} "
                f"optimal={record.optimal} ({cell_ms / 1000.0:.1f}s)",
                file=sys.stderr,
            )

        result = parallel_efficacy_records(
            num_queries=queries,
            seed=seed,
            techniques=tuple(techniques),
            workers=workers,
            deadline_ms=deadline_ms,
            skip=frozenset(done),
            on_cell=checkpoint,
        )
    if stats is not None:
        stats.update(result.pool)
        stats["counters"] = result.counters
    return new_cells


def summarize(records: list[EfficacyRecord]) -> str:
    """Render Table 2/3 from whatever checkpoint cells exist."""
    headers2 = ["cols", "possible"]
    for technique in TECHNIQUES:
        headers2 += [f"{technique} valid", f"{technique} optimal"]
    headers3 = ["cols"]
    for technique in ("SIA", "SIA_v1", "SIA_v2"):
        headers3 += [f"{technique} gen", f"{technique} learn", f"{technique} val"]
    partials = sum(1 for r in records if r.partial)
    out = (
        format_table(headers2, table2_rows(records), title=f"Table 2 ({len(records)} cells)")
        + "\n\n"
        + format_table(headers3, table3_rows(records), title="Table 3 (ms)")
    )
    if partials:
        out += (
            f"\n\n{partials} partial cell(s) (deadline expired); "
            "their timings are excluded from Table 3."
        )
    return out
