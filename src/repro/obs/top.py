"""``repro top``: live terminal view of a telemetry-enabled bench run.

Reads ``heartbeats.jsonl`` (see :mod:`repro.obs.heartbeat` for the wire
format) and renders a one-screen rollup: driver progress and queue
depth, per-worker current position, silence flags, folded solver
counters, and the running p50/p95 of *query completion* times derived
from consecutive ``driver`` lines.

Pure stdlib and strictly read-only: ``--once`` prints a single frame
(CI-friendly); live mode re-reads the file every ``interval`` seconds
and repaints with an ANSI clear.  All timestamps come from the parent
driver's clock (``rx`` on beacon lines, ``t`` on driver lines), which
share one epoch; worker-side ``t`` values do not and are ignored.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .heartbeat import DEFAULT_INTERVAL_MS, SILENT_INTERVALS
from .metrics import summarize_values

__all__ = ["load_feed", "render_top", "run_top"]


def load_feed(path: Path | str) -> dict:
    """Fold a heartbeat log into a renderable state dict.

    Tolerant of torn trailing lines (the writer flushes per line, but a
    reader can still catch a partial write) and unknown line types.
    """
    workers: dict[int, dict] = {}
    counters: dict[str, int] = {}
    driver: dict = {}
    silent: set[int] = set()
    completions: list[float] = []
    last_driver_t: float | None = None
    last_done = 0
    beacons = 0
    ended = False
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError:
        lines = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        kind = record.get("type")
        if kind == "beacon":
            wid = record.get("worker")
            if wid is None:
                continue
            beacons += 1
            entry = workers.setdefault(wid, {"beacons": 0})
            entry["beacons"] += 1
            entry["last"] = record
            silent.discard(wid)
            for name, value in (record.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + value
        elif kind == "driver":
            done = record.get("done", 0)
            t = record.get("t")
            if t is not None and last_driver_t is not None and done > last_done:
                # Per-completion elapsed: dt spread over the queries
                # finishing in this window.
                per_query = (t - last_driver_t) * 1000.0 / (done - last_done)
                completions.extend([per_query] * (done - last_done))
            if t is not None:
                last_driver_t = t
            last_done = done
            driver = record
        elif kind == "silence":
            wid = record.get("worker")
            if wid is not None:
                silent.add(wid)
        elif kind == "end":
            ended = True
    return {
        "workers": workers,
        "counters": counters,
        "driver": driver,
        "silent": sorted(silent),
        "completions": completions,
        "beacons": beacons,
        "ended": ended,
        "last_t": last_driver_t,
    }


def _age(state: dict, record: dict) -> str:
    """Beacon age relative to the newest driver timestamp, if knowable."""
    rx = record.get("rx")
    last_t = state.get("last_t")
    if rx is None or last_t is None:
        return "-"
    return f"{max(last_t - rx, 0.0):.1f}s"


def render_top(state: dict) -> str:
    """One frame of the live view, as plain text."""
    driver = state["driver"]
    lines: list[str] = []
    done = driver.get("done", 0)
    total = driver.get("total", "?")
    status = "finished" if state["ended"] else "running"
    lines.append(
        f"run {status}: {done}/{total} queries done, "
        f"queue depth {driver.get('queue_depth', 0)}"
    )
    active = sum(
        1
        for entry in state["workers"].values()
        if entry.get("last", {}).get("phase") not in (None, "idle")
    )
    lines.append(
        f"workers: {len(state['workers'])} seen, {active} active, "
        f"{len(state['silent'])} silent; {state['beacons']} beacon(s)"
    )
    if state["completions"]:
        summary = summarize_values(state["completions"])
        lines.append(
            f"query completion p50/p95: "
            f"{summary['p50']:.1f}/{summary['p95']:.1f} ms "
            f"over {len(state['completions'])} completion(s)"
        )
    if state["counters"]:
        top_counters = sorted(
            state["counters"].items(), key=lambda kv: -kv[1]
        )[:6]
        lines.append(
            "counters: "
            + " ".join(f"{name}={value}" for name, value in top_counters)
        )
    lines.append("")
    headers = ["worker", "phase", "query", "cell", "done", "beacons", "age"]
    body = []
    for wid in sorted(state["workers"]):
        entry = state["workers"][wid]
        last = entry.get("last", {})
        flag = " (silent)" if wid in state["silent"] else ""
        body.append(
            [
                f"{wid}{flag}",
                str(last.get("phase") or "-"),
                str(last.get("query") if last.get("query") is not None else "-"),
                str(last.get("cell") or "-"),
                str(last.get("cells_done", 0)),
                str(entry["beacons"]),
                _age(state, last),
            ]
        )
    if not body:
        lines.append("no worker beacons yet")
        return "\n".join(lines)
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in body))
        for i in range(len(headers))
    ]

    def fmt(cells: list[str]) -> str:
        return "  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)
        ).rstrip()

    lines.append(fmt(headers))
    lines.append(fmt(["-" * w for w in widths]))
    lines.extend(fmt(row) for row in body)
    return "\n".join(lines)


def run_top(
    path: Path | str,
    *,
    once: bool = False,
    interval_s: float = DEFAULT_INTERVAL_MS * SILENT_INTERVALS / 1000.0,
) -> int:
    """Entry point for ``repro top``; returns a process exit code."""
    path = Path(path)
    if not path.exists():
        print(f"top: no heartbeat log at {path} (run bench with --telemetry)")
        return 1
    if once:
        print(render_top(load_feed(path)))
        return 0
    try:
        while True:
            state = load_feed(path)
            # ANSI home+clear keeps the frame in place like top(1).
            print("\x1b[H\x1b[2J" + render_top(state), flush=True)
            if state["ended"]:
                return 0
            time.sleep(interval_s)
    except KeyboardInterrupt:
        return 0
