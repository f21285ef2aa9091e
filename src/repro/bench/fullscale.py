"""Resumable paper-scale experiment runner.

The full Table-2/3 experiment (200 queries × 7 subsets × 4 techniques)
takes on the order of an hour in this pure-Python reproduction, so this
runner checkpoints one JSON line per finished (query, subset,
technique) cell and skips completed cells on restart:

    python -m repro.bench.fullscale --queries 200 --out results/full.jsonl
    python -m repro.bench.fullscale --summarize results/full.jsonl

The summary prints Table 2 and Table 3 from whatever cells exist, so a
partial run is already inspectable.
"""

from __future__ import annotations

import argparse
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
from .parallel import TelemetryConfig, parallel_efficacy_records
from .report import format_table


def _cell_key(payload: dict) -> tuple:
    return (payload["query_index"], tuple(payload["subset"]), payload["technique"])


def run(
    queries: int,
    seed: int,
    out_path: Path,
    techniques=TECHNIQUES,
    *,
    workers: int = 1,
    deadline_ms: float | None = None,
    stats: dict | None = None,
    telemetry=None,
) -> int:
    """Run (resumably) and return the number of new cells computed.

    Cells already in the checkpoint are skipped; the rest run through
    :func:`repro.bench.parallel.parallel_efficacy_records` on
    ``workers`` processes and are appended and flushed as soon as they
    reach this process -- per cell in-process, per finished query from
    a pool -- so a killed run keeps everything it finished.
    ``deadline_ms`` bounds each SIA cell's synthesis wall-clock;
    expired cells are checkpointed as partial results (``partial:
    true``, truncated timings).  The driver's run statistics land in
    ``stats`` (when given); ``telemetry`` (a
    :class:`~repro.bench.parallel.TelemetryConfig`) turns on the
    heartbeat/ledger plane.
    """
    done: set[tuple] = set()
    if out_path.exists():
        with out_path.open() as handle:
            for line in handle:
                if line.strip():
                    done.add(_cell_key(json.loads(line)))
    out_path.parent.mkdir(parents=True, exist_ok=True)

    new_cells = 0
    with out_path.open("a") as handle:

        def checkpoint(record: EfficacyRecord) -> None:
            nonlocal new_cells
            handle.write(json.dumps(record_to_json(record)) + "\n")
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
            telemetry=telemetry,
            skip=frozenset(done),
            on_cell=checkpoint,
        )
    if stats is not None:
        stats.update(result.pool)
        stats["counters"] = result.counters
        stats["metrics"] = result.metrics
    return new_cells


def summarize(path: Path) -> str:
    """Render Table 2/3 from whatever checkpoint cells exist."""
    records = []
    with path.open() as handle:
        for line in handle:
            if line.strip():
                records.append(record_from_json(json.loads(line)))
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


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (see module docstring for usage)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, default=Path("results/fullscale.jsonl"))
    parser.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="worker processes (1 = in-process)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="B",
        help="per-cell synthesis budget; expired cells checkpoint partials",
    )
    parser.add_argument(
        "--telemetry", type=Path, default=None, metavar="DIR",
        help="write heartbeats.jsonl and ledger.jsonl under DIR",
    )
    parser.add_argument(
        "--summarize", type=Path, default=None, metavar="JSONL",
        help="print Table 2/3 from an existing checkpoint file and exit",
    )
    args = parser.parse_args(argv)
    if args.summarize is not None:
        print(summarize(args.summarize))
        return 0
    telemetry = None
    if args.telemetry is not None:
        telemetry = TelemetryConfig(directory=args.telemetry)
    new_cells = run(
        args.queries, args.seed, args.out,
        workers=args.parallel, deadline_ms=args.deadline_ms,
        telemetry=telemetry,
    )
    print(f"computed {new_cells} new cells -> {args.out}", file=sys.stderr)
    print(summarize(args.out))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
