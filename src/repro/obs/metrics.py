"""Metrics registry: counters, timers and histograms with percentiles.

:data:`repro.smt.stats.GLOBAL_COUNTERS` answers "how many" for a fixed
set of solver events; this registry generalizes it to *named* metrics
created on demand, with distributions:

* :class:`Counter` -- a monotone integer;
* :class:`Histogram` -- recorded values with deterministic
  p50/p95/max summaries (value retention is capped; count and sum stay
  exact past the cap);
* :class:`Timer` -- a histogram of millisecond durations with a
  context-manager ``time()`` reading the injectable clock.

The registry is **delta-oriented** so the parallel workload driver can
aggregate across worker processes exactly like the solver counters:
``snapshot()`` in the worker before the batch, ``delta_since()``
after, ship the (pure-JSON) delta to the parent, and
:func:`merge_delta` folds worker deltas into one aggregate **in batch
order** -- the merged histogram value streams are deterministic given
a deterministic schedule, and the parent process's own registry is
never mixed in (no double-counting).

Everything here is plain ints/floats on purpose: metrics never touch
solver arithmetic, so SIA001's exact-zone rules do not apply.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator

from .clock import now

__all__ = [
    "Counter",
    "GLOBAL_METRICS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "merge_delta",
    "summarize_values",
]

#: Retained values per histogram.  Past the cap new values stop being
#: retained (count/total stay exact); the cap exists so a million-check
#: workload cannot hold a million floats per timer.  Deterministic: the
#: *first* ``_VALUE_CAP`` recordings are retained, no sampling.
_VALUE_CAP = 8192

#: Guards the get-or-create of every registry in this process.  The
#: lock-free fast path returns an existing metric; only the re-check +
#: insert takes the lock (double-checked locking), so two threads
#: racing on a fresh name can no longer both insert and silently drop
#: one Counter's accumulated value.
_REGISTRY_LOCK = threading.Lock()


class Counter:
    """A monotone integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins).

    Gauges report *state* (worker utilization, pool occupancy), not
    *events*.  They participate in the snapshot/delta protocol with
    last-write-wins semantics: :meth:`MetricsRegistry.snapshot` records
    each gauge's write version, :meth:`MetricsRegistry.delta_since`
    ships the current value for gauges written since the snapshot, and
    :func:`merge_delta` overwrites in merge order (ascending batch
    index), so the aggregate carries the latest state deterministically
    rather than an invented sum.
    """

    __slots__ = ("value", "version")

    def __init__(self) -> None:
        self.value = 0.0
        #: Write counter; lets ``delta_since`` distinguish "set to the
        #: same value again" from "never written" without comparing
        #: floats.
        self.version = 0

    def set(self, value: float) -> None:
        self.value = value
        self.version += 1


class Histogram:
    """Recorded values with percentile summaries (see module doc)."""

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

    def summary(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "total": round(self.total, 4),
            **summarize_values(self.values, self.max),
        }


class Timer(Histogram):
    """A histogram of millisecond durations with a timing helper."""

    __slots__ = ()

    @contextmanager
    def time(self) -> Iterator[None]:
        start = now()
        try:
            yield
        finally:
            self.record((now() - start) * 1000.0)


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
    """Named counters/timers/histograms, created on first use."""

    __slots__ = ("_counters", "_timers", "_histograms", "_gauges")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, Gauge] = {}

    # -- access --------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with _REGISTRY_LOCK:
                metric = self._counters.get(name)
                if metric is None:
                    metric = self._counters[name] = Counter()
        return metric

    def timer(self, name: str) -> Timer:
        metric = self._timers.get(name)
        if metric is None:
            with _REGISTRY_LOCK:
                metric = self._timers.get(name)
                if metric is None:
                    metric = self._timers[name] = Timer()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with _REGISTRY_LOCK:
                metric = self._histograms.get(name)
                if metric is None:
                    metric = self._histograms[name] = Histogram()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with _REGISTRY_LOCK:
                metric = self._gauges.get(name)
                if metric is None:
                    metric = self._gauges[name] = Gauge()
        return metric

    # -- snapshots / deltas -------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Positions of every metric, for a later :meth:`delta_since`."""
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "timers": {
                k: (t.count, len(t.values), t.total)
                for k, t in self._timers.items()
            },
            "histograms": {
                k: (h.count, len(h.values), h.total)
                for k, h in self._histograms.items()
            },
            "gauges": {k: g.version for k, g in self._gauges.items()},
        }

    def delta_since(self, snapshot: dict[str, Any]) -> dict[str, Any]:
        """Pure-JSON increments since ``snapshot`` (ship-able to the
        parent across a process boundary)."""
        counters = {}
        for name, metric in self._counters.items():
            delta = metric.value - snapshot.get("counters", {}).get(name, 0)
            if delta:
                counters[name] = delta
        out: dict[str, Any] = {"counters": counters}
        for kind, table in (
            ("timers", self._timers),
            ("histograms", self._histograms),
        ):
            deltas = {}
            base = snapshot.get(kind, {})
            for name, metric in table.items():
                count0, retained0, total0 = base.get(name, (0, 0, 0.0))
                added = metric.count - count0
                if not added:
                    continue
                deltas[name] = {
                    "count": added,
                    "total": round(metric.total - total0, 4),
                    "values": [round(v, 4) for v in metric.values[retained0:]],
                    "max": round(metric.max, 4),
                }
            out[kind] = deltas
        gauges = {}
        for name, gauge in self._gauges.items():
            if gauge.version != snapshot.get("gauges", {}).get(name, 0):
                gauges[name] = round(gauge.value, 4)
        out["gauges"] = gauges
        return out

    def summary(self) -> dict[str, Any]:
        """Human/JSON-facing rollup of every metric's current state."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "timers": {
                k: t.summary() for k, t in sorted(self._timers.items())
            },
            "histograms": {
                k: h.summary() for k, h in sorted(self._histograms.items())
            },
            "gauges": {
                k: round(g.value, 4) for k, g in sorted(self._gauges.items())
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        self._timers.clear()
        self._histograms.clear()
        self._gauges.clear()


def merge_delta(total: dict[str, Any], delta: dict[str, Any]) -> dict[str, Any]:
    """Fold one worker delta into the ``total`` aggregate, in call order.

    ``total`` uses the same shape as :meth:`MetricsRegistry.delta_since`
    output; start from ``{}``.  Counter increments add; timer/histogram
    deltas add counts/sums and **append** value lists in merge order, so
    the caller's ordering discipline (ascending batch index) makes the
    aggregate deterministic.  Gauge values overwrite (last write in
    merge order wins).  Deltas must come from non-overlapping windows
    (per-batch snapshots), or events would be double-counted.
    """
    for name, value in delta.get("counters", {}).items():
        bucket = total.setdefault("counters", {})
        bucket[name] = bucket.get(name, 0) + value
    for name, value in delta.get("gauges", {}).items():
        total.setdefault("gauges", {})[name] = value
    for kind in ("timers", "histograms"):
        for name, entry in delta.get(kind, {}).items():
            bucket = total.setdefault(kind, {}).setdefault(
                name, {"count": 0, "total": 0.0, "values": [], "max": 0.0}
            )
            bucket["count"] += entry.get("count", 0)
            bucket["total"] = round(bucket["total"] + entry.get("total", 0.0), 4)
            bucket["values"].extend(entry.get("values", []))
            bucket["max"] = max(bucket["max"], entry.get("max", 0.0))
    return total


#: The process-wide registry (workers ship their deltas to the parent).
GLOBAL_METRICS = MetricsRegistry()
