"""Metrics registry: named duration timers with percentiles.

:data:`repro.smt.stats.GLOBAL_COUNTERS` answers "how many" for a fixed
set of solver events; this registry holds named :class:`Timer` s,
created on demand: recorded millisecond durations with deterministic
p50/p95/max summaries (value retention is capped; count and sum stay
exact past the cap).  Its one timer today is ``smt.session_check_ms``,
recorded by every :meth:`repro.smt.session.SmtSession.check`.

The registry is **delta-oriented**: ``snapshot()`` before a stretch of
work and ``delta_since()`` after give that work's timers as pure JSON
(``{"timers": {name: {"count", "total", "values", "max"}}}``).

Everything here is plain ints/floats on purpose: metrics never touch
solver arithmetic.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = [
    "GLOBAL_METRICS",
    "MetricsRegistry",
    "Timer",
    "summarize_values",
]

#: Retained values per timer.  Past the cap new values stop being
#: retained (count/total stay exact); the cap exists so a million-check
#: workload cannot hold a million floats per timer.  Deterministic: the
#: *first* ``_VALUE_CAP`` recordings are retained, no sampling.
_VALUE_CAP = 8192

#: Guards the get-or-create of every registry in this process.  The
#: lock-free fast path returns an existing metric; only the re-check +
#: insert takes the lock (double-checked locking), so two threads
#: racing on a fresh name can no longer both insert and silently drop
#: one Timer's recorded values.
_REGISTRY_LOCK = threading.Lock()


class Timer:
    """Recorded millisecond durations (see module doc)."""

    __slots__ = ("count", "total", "max", "values")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.values: list[float] = []

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        if len(self.values) < _VALUE_CAP:
            self.values.append(value)


def summarize_values(
    values: list[float], observed_max: float | None = None
) -> dict[str, float]:
    """p50/p95/max of ``values`` (0.0s when empty).

    Percentiles use the nearest-rank method on the retained values;
    ``observed_max`` (exact even past the retention cap) overrides the
    retained maximum when given.
    """
    if not values:
        return {"p50": 0.0, "p95": 0.0, "max": round(observed_max or 0.0, 4)}
    ordered = sorted(values)
    n = len(ordered)
    p50 = ordered[(n - 1) // 2]
    p95 = ordered[min(n - 1, (95 * n + 99) // 100 - 1)]
    top = observed_max if observed_max is not None else ordered[-1]
    return {"p50": round(p50, 4), "p95": round(p95, 4), "max": round(top, 4)}


class MetricsRegistry:
    """Named timers, created on first use."""

    __slots__ = ("_timers",)

    def __init__(self) -> None:
        self._timers: dict[str, Timer] = {}

    # -- access --------------------------------------------------------
    def timer(self, name: str) -> Timer:
        metric = self._timers.get(name)
        if metric is None:
            with _REGISTRY_LOCK:
                metric = self._timers.get(name)
                if metric is None:
                    metric = self._timers[name] = Timer()
        return metric

    # -- snapshots / deltas -------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Positions of every timer, for a later :meth:`delta_since`."""
        return {
            "timers": {
                k: (t.count, len(t.values), t.total)
                for k, t in self._timers.items()
            },
        }

    def delta_since(self, snapshot: dict[str, Any]) -> dict[str, Any]:
        """Pure-JSON increments since ``snapshot`` (ship-able to the
        parent across a process boundary)."""
        timers = {}
        base = snapshot.get("timers", {})
        for name, metric in self._timers.items():
            count0, retained0, total0 = base.get(name, (0, 0, 0.0))
            added = metric.count - count0
            if not added:
                continue
            timers[name] = {
                "count": added,
                "total": round(metric.total - total0, 4),
                "values": [round(v, 4) for v in metric.values[retained0:]],
                "max": round(metric.max, 4),
            }
        return {"timers": timers}


#: The process-wide registry (workers ship their deltas to the parent).
GLOBAL_METRICS = MetricsRegistry()
