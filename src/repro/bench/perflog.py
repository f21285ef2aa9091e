"""Machine-readable perf trajectory: ``BENCH_smt_micro.json``.

The micro-benchmarks (``benchmarks/bench_smt_micro.py``) and the
parallel workload driver (``repro bench``) record their timings and
solver counters here, one JSON document at the repo root, so CI can
archive a perf point per commit and the trajectory can be diffed
across the PR stack.

Schema (version 1)::

    {
      "schema": 1,
      "benchmarks": {
        "<name>": {
          "median_ms": float,      # median wall-clock per run
          "p95_ms": float,         # 95th percentile per run
          "runs": int,             # timed runs aggregated
          "counters": {...},       # GLOBAL_COUNTERS delta over the runs
          "trace_id": str,         # optional: links the entry to the
                                   # JSONL trace captured for the same
                                   # run (``repro trace`` on that file
                                   # attributes the wall-clock here)
          ...                      # benchmark-specific extras
        }
      }
    }

Writes merge by benchmark name, so the micro-bench and the workload
driver can contribute to the same file independently.  ``trace_id``
is an additive extra within schema version 1: absent in entries
written before observability landed, present whenever a run was
traced (see :func:`stamp_trace_id`).
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median, quantiles

SCHEMA_VERSION = 1
DEFAULT_PATH = Path("BENCH_smt_micro.json")


def summarize_times(times_ms: list[float]) -> dict:
    """Median / p95 / run-count summary of per-run wall-clock times."""
    if not times_ms:
        raise ValueError("no timed runs to summarize")
    if len(times_ms) == 1:
        p95 = times_ms[0]
    else:
        p95 = quantiles(times_ms, n=20)[-1]
    return {
        "median_ms": round(median(times_ms), 4),
        "p95_ms": round(p95, 4),
        "runs": len(times_ms),
    }


def stamp_trace_id(benchmarks: dict[str, dict], trace_id: str | None) -> None:
    """Attach ``trace_id`` to every entry (no-op when untraced)."""
    if not trace_id:
        return
    for entry in benchmarks.values():
        entry["trace_id"] = trace_id


def update_bench_json(
    benchmarks: dict[str, dict], path: Path | str = DEFAULT_PATH
) -> Path:
    """Merge ``benchmarks`` (name -> entry) into the JSON file."""
    path = Path(path)
    payload: dict = {"schema": SCHEMA_VERSION, "benchmarks": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing.get("benchmarks"), dict):
                payload["benchmarks"] = existing["benchmarks"]
        except (ValueError, OSError):
            pass  # unreadable trajectory: start fresh rather than crash
    payload["benchmarks"].update(benchmarks)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
