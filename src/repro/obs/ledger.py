"""Append-only JSONL run ledger: one line per synthesis attempt.

The checkpoint file (``bench/fullscale``) records *results*; the ledger
records *attempts* -- what was tried, under which configuration, what
it cost per phase and per solver tier, and how it ended.  That history
is the substrate the ROADMAP's cost-validated promotion gate learns
from, and what ``repro report`` renders as per-query profiles.

File format (version 1) -- a header line followed by cell lines::

    {"type": "header", "version": 1, "t": 12.3,
     "config": {"float_filter": "filter+trust-sat", "techniques": [...],
                "workers": 2, "deadline_ms": 4000.0, "seed": 42,
                "queries": 8}}
    {"type": "cell", "query": 0, "subset": ["l_shipdate"],
     "technique": "SIA", "valid": true, "optimal": true,
     "partial": false, "possible": true, "iterations": 3,
     "phase_ms": {"generation": 81.2, "learning": 14.0,
                  "validation": 55.1},
     "counters": {"checks": 41, "pivots": 310, "float_checks": 38},
     "audit": "certified", "deadline_ms": 4000.0}

``counters`` is the per-cell :data:`~repro.smt.stats.GLOBAL_COUNTERS`
delta (so per-tier float/exact effort is attributable per attempt);
``audit`` says whether the cell's verify verdicts were proof-logged
(``certified``) or plain (``none``); ``partial`` marks a cell whose
synthesis budget expired (section 6.2 cooperative deadline) so
aggregates can exclude truncated timings.

Readers are tolerant: torn trailing lines (a crashed run) and missing
keys from older writers are skipped or defaulted, never fatal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Iterable

from .clock import now
from .metrics import summarize_values

__all__ = [
    "LEDGER_VERSION",
    "RunLedger",
    "cell_entry",
    "load_ledger",
    "per_query_profiles",
    "render_report",
]

#: Ledger file-format version (the header's ``version`` field).
LEDGER_VERSION = 1


def cell_entry(
    record_payload: dict,
    *,
    counters: dict[str, int] | None = None,
    audit: str = "none",
    deadline_ms: float | None = None,
) -> dict:
    """Build a ledger cell line from a checkpoint-encoded record.

    ``record_payload`` is the ``fullscale`` JSON encoding of an
    :class:`~repro.bench.harness.EfficacyRecord`; the ledger keeps the
    verdict/cost fields and attaches the per-cell counter delta.
    """
    return {
        "type": "cell",
        "query": record_payload["query_index"],
        "subset": list(record_payload["subset"]),
        "technique": record_payload["technique"],
        "valid": bool(record_payload["valid"]),
        "optimal": bool(record_payload["optimal"]),
        "partial": bool(record_payload.get("partial", False)),
        "possible": bool(record_payload.get("possible", False)),
        "iterations": record_payload.get("iterations", 0),
        "phase_ms": {
            "generation": round(record_payload.get("generation_ms", 0.0), 4),
            "learning": round(record_payload.get("learning_ms", 0.0), 4),
            "validation": round(record_payload.get("validation_ms", 0.0), 4),
        },
        "counters": dict(counters or {}),
        "audit": audit,
        "deadline_ms": deadline_ms,
    }


class RunLedger:
    """Append-only writer: header on open, one flushed line per cell."""

    def __init__(self, path: Path | str, config: dict | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = self.path.open("w", encoding="utf-8")
        self._write(
            {
                "type": "header",
                "version": LEDGER_VERSION,
                "t": round(now(), 4),
                "config": dict(config or {}),
            }
        )

    def _write(self, entry: dict) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()

    def append(self, entry: dict) -> None:
        """Append one cell line (flushed so crashes lose nothing)."""
        if self._handle is None:
            raise ValueError(f"ledger {self.path} is closed")
        self._write(entry)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def load_ledger(path: Path | str) -> tuple[dict, list[dict]]:
    """Parse a ledger file into ``(header, cell entries)``.

    Unparseable lines and unknown types are skipped; a file with no
    header yields ``{}`` so readers can still render the cells.
    """
    header: dict = {}
    entries: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("type") == "header" and not header:
                header = record
            elif record.get("type") == "cell":
                entries.append(record)
    return header, entries


def per_query_profiles(entries: Iterable[dict]) -> list[dict]:
    """Aggregate cell entries into one profile row per query."""
    profiles: dict[int, dict[str, Any]] = {}
    for entry in entries:
        query = entry.get("query")
        if query is None:
            continue
        row = profiles.setdefault(
            query,
            {
                "query": query,
                "cells": 0,
                "valid": 0,
                "optimal": 0,
                "partial": 0,
                "iterations": 0,
                "phase_ms": {"generation": 0.0, "learning": 0.0,
                             "validation": 0.0},
                "checks": 0,
                "cell_ms": [],
            },
        )
        row["cells"] += 1
        row["valid"] += bool(entry.get("valid"))
        row["optimal"] += bool(entry.get("optimal"))
        row["partial"] += bool(entry.get("partial"))
        row["iterations"] += entry.get("iterations", 0)
        phase_ms = entry.get("phase_ms") or {}
        total = 0.0
        for phase in ("generation", "learning", "validation"):
            value = float(phase_ms.get(phase, 0.0))
            row["phase_ms"][phase] += value
            total += value
        row["cell_ms"].append(total)
        row["checks"] += (entry.get("counters") or {}).get("checks", 0)
    out = []
    for query in sorted(profiles):
        row = profiles[query]
        row["total_ms"] = round(sum(row["cell_ms"]), 1)
        row["cell_ms"] = summarize_values(row["cell_ms"])
        for phase in row["phase_ms"]:
            row["phase_ms"][phase] = round(row["phase_ms"][phase], 1)
        out.append(row)
    return out


def render_report(header: dict, entries: list[dict]) -> str:
    """``repro report``: the per-query profile table as aligned text."""
    if not entries:
        return "ledger has no cell entries"
    rows = per_query_profiles(entries)
    headers = [
        "query", "cells", "valid", "optimal", "partial", "iters",
        "gen ms", "learn ms", "val ms", "total ms", "p95 cell", "checks",
    ]
    body = [
        [
            str(row["query"]),
            str(row["cells"]),
            str(row["valid"]),
            str(row["optimal"]),
            str(row["partial"]),
            str(row["iterations"]),
            f"{row['phase_ms']['generation']:.1f}",
            f"{row['phase_ms']['learning']:.1f}",
            f"{row['phase_ms']['validation']:.1f}",
            f"{row['total_ms']:.1f}",
            f"{row['cell_ms']['p95']:.1f}",
            str(row["checks"]),
        ]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(line[i]) for line in body))
        for i in range(len(headers))
    ]

    def fmt(cells: list[str]) -> str:
        return "  ".join(
            cell.rjust(widths[i]) for i, cell in enumerate(cells)
        ).rstrip()

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(line) for line in body)
    totals = {
        "cells": sum(r["cells"] for r in rows),
        "valid": sum(r["valid"] for r in rows),
        "optimal": sum(r["optimal"] for r in rows),
        "partial": sum(r["partial"] for r in rows),
    }
    config = header.get("config") or {}
    lines.append("")
    lines.append(
        f"{totals['cells']} cells over {len(rows)} queries: "
        f"{totals['valid']} valid, {totals['optimal']} optimal, "
        f"{totals['partial']} partial"
        + (
            f" (float_filter={config['float_filter']}"
            + (
                f", deadline_ms={config['deadline_ms']}"
                if config.get("deadline_ms") is not None
                else ""
            )
            + ")"
            if config.get("float_filter")
            else ""
        )
    )
    return "\n".join(lines)
