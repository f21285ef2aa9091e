"""Plain-text table rendering and result persistence for experiments.

Every benchmark writes both to stdout and to ``results/<name>.txt`` in
the repository root so EXPERIMENTS.md can cite stable artefacts.
:func:`render_report` is ``repro report``: per-query profiles of a
fullscale checkpoint.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from ..obs.metrics import summarize_values

if TYPE_CHECKING:
    from .harness import EfficacyRecord

RESULTS_DIR = Path(
    os.environ.get("REPRO_RESULTS_DIR", Path(__file__).resolve().parents[3] / "results")
)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width table with a separator under the header."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    parts = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in str_rows)
    return "\n".join(parts)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def emit(name: str, text: str) -> None:
    """Print a report and persist it under results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def histogram(values: Sequence[float], edges: Sequence[float]) -> list[int]:
    """Counts per bucket: (-inf, e0], (e0, e1], ..., (en, +inf)."""
    counts = [0] * (len(edges) + 1)
    for value in values:
        placed = False
        for i, edge in enumerate(edges):
            if value <= edge:
                counts[i] += 1
                placed = True
                break
        if not placed:
            counts[-1] += 1
    return counts


_PHASES = ("generation", "learning", "validation")


def per_query_profiles(records: Iterable[EfficacyRecord]) -> list[dict]:
    """One profile row per query: verdict counts, phase times, the
    cell-time distribution and summed solver checks."""
    profiles: dict[int, dict] = {}
    for record in records:
        row = profiles.setdefault(
            record.query_index,
            {
                "query": record.query_index,
                "cells": 0,
                "valid": 0,
                "optimal": 0,
                "partial": 0,
                "iterations": 0,
                "phase_ms": dict.fromkeys(_PHASES, 0.0),
                "checks": 0,
                "cell_ms": [],
            },
        )
        row["cells"] += 1
        row["valid"] += record.valid
        row["optimal"] += record.optimal
        row["partial"] += record.partial
        row["iterations"] += record.iterations
        total = 0.0
        for phase in _PHASES:
            value = getattr(record, f"{phase}_ms")
            row["phase_ms"][phase] += value
            total += value
        row["cell_ms"].append(total)
        row["checks"] += record.counters.get("checks", 0)
    out = []
    for query in sorted(profiles):
        row = profiles[query]
        row["total_ms"] = round(sum(row["cell_ms"]), 1)
        row["cell_ms"] = summarize_values(row["cell_ms"])
        for phase in _PHASES:
            row["phase_ms"][phase] = round(row["phase_ms"][phase], 1)
        out.append(row)
    return out


def render_report(records: list[EfficacyRecord]) -> str:
    """The per-query profile table plus a totals line."""
    if not records:
        return "checkpoint has no cells"
    rows = per_query_profiles(records)
    headers = [
        "query", "cells", "valid", "optimal", "partial", "iters",
        "gen ms", "learn ms", "val ms", "total ms", "p95 cell", "checks",
    ]
    body = [
        [
            row["query"], row["cells"], row["valid"], row["optimal"],
            row["partial"], row["iterations"],
            *(f"{row['phase_ms'][phase]:.1f}" for phase in _PHASES),
            f"{row['total_ms']:.1f}",
            f"{row['cell_ms']['p95']:.1f}",
            row["checks"],
        ]
        for row in rows
    ]
    totals = {
        key: sum(row[key] for row in rows)
        for key in ("cells", "valid", "optimal", "partial")
    }
    return (
        format_table(headers, body)
        + f"\n\n{totals['cells']} cells over {len(rows)} queries: "
        f"{totals['valid']} valid, {totals['optimal']} optimal, "
        f"{totals['partial']} partial"
    )
