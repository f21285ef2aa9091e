"""Replay a JSONL trace into attribution tables and a text flamegraph.

This is the read side of :mod:`repro.obs.trace`, behind the ``repro
trace`` CLI subcommand.  Given a trace file it rebuilds the span
forest and renders:

* a **per-phase attribution table** -- every span carrying a ``phase``
  attribute is charged to that phase (nested phase spans are ignored:
  only the outermost phase span on any root-to-leaf path counts, so a
  ``verify`` span calling back into a traced helper is not counted
  twice).  The residue row ``(untraced)`` absorbs wall-clock time no
  phase span covers, so the table always sums to the trace wall-clock;
* a **text flamegraph** -- spans aggregated by root-to-leaf name path,
  with bars scaled to the wall-clock and inclusive/percentage columns;
* ``--json`` emits the same data machine-readably for CI trend checks.

Wall-clock is ``max(t1) - min(t0)`` over all spans: for the
single-process traces the instrumentation produces, that is the
distance from the first span opening to the last span closing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import summarize_values

__all__ = [
    "SpanNode",
    "TraceReplay",
    "load_trace",
    "render_flamegraph",
    "render_phase_table",
    "replay_to_json",
]


@dataclass
class SpanNode:
    """One completed span, linked into the reconstructed forest."""

    span_id: int
    parent_id: int | None
    name: str
    t0: float
    t1: float
    attrs: dict = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def duration_ms(self) -> float:
        return self.t1 - self.t0

    @property
    def phase(self) -> str | None:
        phase = self.attrs.get("phase")
        return phase if isinstance(phase, str) else None


@dataclass
class TraceReplay:
    """A parsed trace: the span forest."""

    trace_id: str = ""
    spans: dict[int, SpanNode] = field(default_factory=dict)
    roots: list[SpanNode] = field(default_factory=list)
    malformed_lines: int = 0

    @property
    def wall_ms(self) -> float:
        if not self.spans:
            return 0.0
        nodes = self.spans.values()
        return max(n.t1 for n in nodes) - min(n.t0 for n in nodes)

    # ------------------------------------------------------------------
    def phase_totals(self) -> dict[str, dict]:
        """Aggregate outermost phase spans: phase -> stats.

        Walks each root; the first span carrying a ``phase`` attribute
        on a path claims its whole subtree (nested phase spans are
        attribution labels for *non-overlapping* regions -- see
        :mod:`repro.obs.trace` -- so anything below is double-cover).
        """
        durations: dict[str, list[float]] = {}
        counters: dict[str, dict[str, int]] = {}
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            phase = node.phase
            if phase is None:
                stack.extend(node.children)
                continue
            durations.setdefault(phase, []).append(node.duration_ms)
            bucket = counters.setdefault(phase, {})
            for key, value in node.attrs.items():
                if key.startswith("ctr.") and isinstance(value, int):
                    bucket[key[4:]] = bucket.get(key[4:], 0) + value
        out: dict[str, dict] = {}
        for phase, values in durations.items():
            out[phase] = {
                "count": len(values),
                "total_ms": round(sum(values), 4),
                **summarize_values(values),
                "counters": counters.get(phase, {}),
            }
        return out

    def path_totals(self) -> list[tuple[tuple[str, ...], int, float]]:
        """Flamegraph input: (name path, count, inclusive ms), sorted
        depth-first with heaviest siblings first."""
        totals: dict[tuple[str, ...], list[float]] = {}

        def walk(node: SpanNode, prefix: tuple[str, ...]) -> None:
            path = prefix + (node.name,)
            totals.setdefault(path, []).append(node.duration_ms)
            for child in node.children:
                walk(child, path)

        for root in self.roots:
            walk(root, ())

        def sort_key(path: tuple[str, ...]) -> tuple:
            # Depth-first: order each path by the inclusive time of its
            # ancestors at every level, heaviest first.
            key = []
            for depth in range(len(path)):
                prefix = path[: depth + 1]
                key.append((-sum(totals[prefix]), prefix[-1]))
            return tuple(key)

        return [
            (path, len(values), sum(values))
            for path, values in sorted(totals.items(), key=lambda kv: sort_key(kv[0]))
        ]


def load_trace(path: Path | str) -> TraceReplay:
    """Parse a JSONL trace file into a :class:`TraceReplay`.

    Tolerant of torn final lines (a crashed run is exactly when a trace
    is most interesting); malformed lines are counted, not fatal.
    """
    replay = TraceReplay()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                replay.malformed_lines += 1
                continue
            kind = record.get("type")
            if kind == "meta":
                replay.trace_id = record.get("trace_id", "")
            elif kind == "span":
                try:
                    node = SpanNode(
                        span_id=int(record["id"]),
                        parent_id=record.get("parent"),
                        name=str(record["name"]),
                        t0=float(record["t0"]),
                        t1=float(record["t1"]),
                        attrs=record.get("attrs") or {},
                    )
                except (KeyError, TypeError, ValueError):
                    replay.malformed_lines += 1
                    continue
                replay.spans[node.span_id] = node
            elif kind == "event":
                # Point events (SAT restarts) are no longer emitted;
                # older traces that hold them still load.
                continue
            else:
                replay.malformed_lines += 1
    # Spans are emitted at close, children before parents; link the
    # forest in a second pass.  An orphan (parent never closed, e.g. a
    # crash mid-span) is promoted to a root rather than dropped.
    for node in replay.spans.values():
        parent = (
            replay.spans.get(node.parent_id)
            if node.parent_id is not None
            else None
        )
        if parent is None:
            replay.roots.append(node)
        else:
            parent.children.append(node)
    for node in replay.spans.values():
        node.children.sort(key=lambda child: (child.t0, child.span_id))
    replay.roots.sort(key=lambda root: (root.t0, root.span_id))
    return replay


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
UNTRACED = "(untraced)"


def attribution_rows(replay: TraceReplay) -> list[dict]:
    """Phase rows (heaviest first) plus the ``(untraced)`` residue row.

    Row shares are fractions of the trace wall-clock; the ``total_ms``
    column sums to the wall-clock by construction (the residue row is
    defined as the difference), which is what makes the table an
    *attribution* rather than a sampling.
    """
    wall = replay.wall_ms
    phases = replay.phase_totals()
    rows = [
        {"phase": name, **stats} for name, stats in phases.items()
    ]
    rows.sort(key=lambda row: (-row["total_ms"], row["phase"]))
    covered = sum(row["total_ms"] for row in rows)
    residue = round(wall - covered, 4)
    if rows and residue > 0:
        rows.append(
            {
                "phase": UNTRACED,
                "count": 0,
                "total_ms": residue,
                "p50": 0.0,
                "p95": 0.0,
                "max": 0.0,
                "counters": {},
            }
        )
    for row in rows:
        row["share"] = round(row["total_ms"] / wall, 4) if wall > 0 else 0.0
    return rows


def render_phase_table(replay: TraceReplay) -> str:
    """The per-phase attribution table as aligned text."""
    rows = attribution_rows(replay)
    if not rows:
        return "no phase spans in trace (nothing to attribute)"
    headers = ["phase", "count", "total ms", "p50", "p95", "max", "share"]
    body = [
        [
            row["phase"],
            str(row["count"]),
            f"{row['total_ms']:.1f}",
            f"{row['p50']:.1f}",
            f"{row['p95']:.1f}",
            f"{row['max']:.1f}",
            f"{row['share'] * 100.0:5.1f}%",
        ]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(line[i]) for line in body))
        for i in range(len(headers))
    ]
    def fmt(cells: list[str]) -> str:
        return "  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(cells)
        ).rstrip()

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(line) for line in body)
    lines.append("")
    lines.append(
        f"wall-clock {replay.wall_ms:.1f} ms over {len(replay.spans)} spans"
        + (f" (trace {replay.trace_id})" if replay.trace_id else "")
    )
    return "\n".join(lines)


def render_flamegraph(
    replay: TraceReplay, *, width: int = 40, depth: int | None = None
) -> str:
    """Indented inclusive-time tree with bars scaled to wall-clock.

    ``depth`` truncates the tree below that many levels (deep SMT spans
    would otherwise dwarf the interesting CEGIS structure).
    """
    wall = replay.wall_ms
    if not replay.spans or wall <= 0:
        return "empty trace"
    lines = []
    for path, count, total in replay.path_totals():
        if depth is not None and len(path) > depth:
            continue
        share = total / wall
        bar = "#" * max(1, round(share * width)) if total > 0 else ""
        label = "  " * (len(path) - 1) + path[-1]
        suffix = f" x{count}" if count > 1 else ""
        lines.append(
            f"{label:<44} {total:>9.1f}ms {share * 100.0:>5.1f}% "
            f"{bar}{suffix}"
        )
    return "\n".join(lines)


def replay_to_json(replay: TraceReplay) -> dict:
    """Machine-readable replay summary (the ``--json`` payload)."""
    return {
        "trace_id": replay.trace_id,
        "wall_ms": round(replay.wall_ms, 4),
        "spans": len(replay.spans),
        "malformed_lines": replay.malformed_lines,
        "phases": {row.pop("phase"): row for row in attribution_rows(replay)},
    }
