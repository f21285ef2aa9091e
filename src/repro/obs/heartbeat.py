"""Worker heartbeats: periodic beacons over a lossy side channel.

The bench pool driver (:mod:`repro.bench.parallel`) runs paper-scale
workloads for minutes with nothing observable between dispatch and the
final merge.  This module adds a *telemetry* plane next to the result
plane -- strictly lossy, never blocking, and invisible when off:

* :class:`StatusBoard` -- a single-writer bulletin board the worker's
  hot path posts its current position to (query, cell, phase, cells
  done).  ``post()`` is a handful of plain attribute stores; the GIL
  makes each store atomic and only the emitter thread reads the board,
  so there is no lock on the hot path.  The module-level
  :data:`GLOBAL_BOARD` is the worker-side singleton (one synthesis
  pipeline per process by contract).
* :class:`BeaconChannel` -- a bounded, non-blocking wrapper around a
  queue: ``post()`` drops the beacon when the queue is full (counting
  drops) instead of ever waiting, ``drain()`` empties without
  blocking.  The channel is the only thing crossing the process
  boundary; losing beacons under load is the design, losing *results*
  is impossible because results use their own queue.
* :class:`HeartbeatEmitter` -- a daemon thread in each worker that
  wakes every ``interval_ms``, reads the board, computes the solver
  counter delta since its previous beat, and posts one beacon.
* :class:`RunModel` -- the parent-side fold: latest beacon per worker,
  counter totals, and silence detection (a worker whose last beacon is
  older than ``silence_intervals`` heartbeat periods is flagged once).

Both board and channel speak a single-producer ``post()``/``drain()``
protocol: one thread posts and one drains, so neither takes a lock.
Each spawn worker owns its board and its end of the channel.

Beacon wire format (one JSON object per line in ``heartbeats.jsonl``)::

    {"type": "beacon", "v": 1, "worker": 0, "seq": 7, "t": 123.4,
     "query": 3, "cell": "l_shipdate/SIA", "phase": "cell",
     "cells_done": 12, "deadline_ms": 4000.0,
     "counters": {"checks": 118, "pivots": 904}}

The parent also writes ``driver`` lines (progress and queue depth),
``silence`` lines (one per newly-flagged worker) and a final ``end``
line; ``repro top`` renders all of them.
"""

from __future__ import annotations

import queue as queue_mod
import threading
from typing import Any, Callable

from .clock import now

__all__ = [
    "BEACON_VERSION",
    "BeaconChannel",
    "DEFAULT_INTERVAL_MS",
    "GLOBAL_BOARD",
    "HeartbeatEmitter",
    "RunModel",
    "SILENT_INTERVALS",
    "StatusBoard",
]

#: Beacon wire-format version (bump on incompatible shape changes).
BEACON_VERSION = 1

#: Heartbeat period when the caller does not choose one, milliseconds.
DEFAULT_INTERVAL_MS = 500.0

#: A worker is flagged silent after this many missed heartbeat periods.
SILENT_INTERVALS = 2

#: Bounded channel capacity: enough for every worker to buffer several
#: beats between parent polls, small enough that a stuck parent costs
#: dropped telemetry, not memory.
_CHANNEL_CAPACITY = 256


class StatusBoard:
    """Single-writer status bulletin the worker hot path posts to.

    ``post()`` is called from the worker's main (synthesis) thread
    only; ``drain()`` from the emitter thread only.  Every field is a
    plain attribute store -- atomic under the GIL -- and the reader
    tolerates torn *combinations* (a beacon pairing the new query with
    the previous phase for one beat is acceptable telemetry), so the
    hot path takes no lock.
    """

    def __init__(self) -> None:
        self.query: int | None = None
        self.cell: str | None = None
        self.phase: str | None = None
        self.cells_done = 0
        self.deadline_ms: float | None = None

    def post(
        self,
        *,
        query: int | None = None,
        cell: str | None = None,
        phase: str | None = None,
        cells_done: int | None = None,
        deadline_ms: float | None = None,
    ) -> None:
        """Overwrite the board's current position (never blocks)."""
        if query is not None:
            self.query = query
        if cell is not None:
            self.cell = cell
        if phase is not None:
            self.phase = phase
        if cells_done is not None:
            self.cells_done = cells_done
        if deadline_ms is not None:
            self.deadline_ms = deadline_ms

    def drain(self) -> dict[str, Any]:
        """The board's current position, as beacon fields."""
        return {
            "query": self.query,
            "cell": self.cell,
            "phase": self.phase,
            "cells_done": self.cells_done,
            "deadline_ms": self.deadline_ms,
        }

    def reset(self) -> None:
        self.post(cells_done=0)
        self.query = self.cell = self.phase = None
        self.cells_done = 0
        self.deadline_ms = None


#: Worker-side board singleton: one synthesis pipeline per process, so
#: the bench hot path posts here and the emitter reads here.
GLOBAL_BOARD = StatusBoard()


class BeaconChannel:
    """Non-blocking, lossy wrapper around a (process or thread) queue.

    The wrapped queue only needs ``put_nowait``/``get_nowait``; both a
    ``multiprocessing`` queue (pool driver) and ``queue.Queue``
    (inline driver, tests) qualify.  ``post()`` never blocks: a full
    queue drops the beacon and counts the drop, because telemetry must
    never hold up synthesis.
    """

    def __init__(self, sink: Any | None = None) -> None:
        self.sink = (
            sink if sink is not None
            else queue_mod.Queue(maxsize=_CHANNEL_CAPACITY)
        )
        self.dropped = 0

    def post(self, beacon: dict) -> bool:
        """Enqueue without blocking; ``False`` when the beacon dropped."""
        try:
            self.sink.put_nowait(beacon)
        except queue_mod.Full:
            self.dropped += 1
            return False
        return True

    def drain(self) -> list[dict]:
        """Every beacon currently queued, without blocking."""
        out: list[dict] = []
        while True:
            try:
                out.append(self.sink.get_nowait())
            except queue_mod.Empty:
                return out


class HeartbeatEmitter:
    """Periodic beacon producer running on a worker-side daemon thread.

    ``beat()`` is also callable directly (no thread) so tests drive it
    deterministically.  The counter source defaults to the solver's
    global counters; each beat ships only the *delta* since the
    previous beat, so the parent can fold beacons additively.
    """

    def __init__(
        self,
        worker_id: int,
        channel: BeaconChannel,
        *,
        interval_ms: float = DEFAULT_INTERVAL_MS,
        board: StatusBoard | None = None,
        counter_source: Callable[[], dict[str, int]] | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.channel = channel
        self.interval_ms = interval_ms
        self.board = board if board is not None else GLOBAL_BOARD
        if counter_source is None:
            from ..smt.stats import GLOBAL_COUNTERS

            counter_source = GLOBAL_COUNTERS.snapshot
        self._counter_source = counter_source
        self._last_counters = counter_source()
        self._seq = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- producing -----------------------------------------------------
    def beat(self) -> dict:
        """Compose and post one beacon; returns it (posted or dropped)."""
        current = self._counter_source()
        delta = {
            name: current[name] - self._last_counters.get(name, 0)
            for name in current
            if current[name] - self._last_counters.get(name, 0)
        }
        self._last_counters = current
        self._seq += 1
        beacon = {
            "type": "beacon",
            "v": BEACON_VERSION,
            "worker": self.worker_id,
            "seq": self._seq,
            "t": round(now(), 4),
            "counters": delta,
            **self.board.drain(),
        }
        self.channel.post(beacon)
        return beacon

    # -- thread lifecycle ----------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.interval_ms / 1000.0):
            self.beat()

    def start(self) -> "HeartbeatEmitter":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="heartbeat", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the beater thread and post one final beacon."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.beat()


class RunModel:
    """Parent-side live model folded from worker beacons.

    Tracks the latest beacon and beacon count per worker, sums the
    shipped counter deltas, and detects silence: a worker whose last
    beacon (or registration) is older than ``silence_intervals``
    heartbeat periods is reported by :meth:`flag_silent` exactly once
    (re-flagged only after it resumes beating).
    """

    def __init__(
        self,
        *,
        interval_ms: float = DEFAULT_INTERVAL_MS,
        silence_intervals: int = SILENT_INTERVALS,
    ) -> None:
        self.interval_ms = interval_ms
        self.silence_intervals = silence_intervals
        self.workers: dict[int, dict] = {}
        self.counters: dict[str, int] = {}
        self.beacons = 0
        self.silence_flags = 0
        self._last_seen: dict[int, float] = {}
        self._silent: set[int] = set()

    def register(self, worker_id: int, t: float) -> None:
        """Start the silence clock for a worker before its first beat."""
        self._last_seen.setdefault(worker_id, t)

    def fold(self, beacon: dict, t: float | None = None) -> None:
        """Fold one beacon; ``t`` is the *local-clock* arrival time.

        Beacon ``t`` fields are worker perf-counter readings on an
        arbitrary per-process epoch, so silence tracking must use the
        folder's own clock (arrival time), never the beacon's.
        """
        worker = beacon.get("worker")
        if worker is None:
            return
        self.beacons += 1
        entry = self.workers.setdefault(worker, {"beacons": 0})
        entry["beacons"] += 1
        entry["last"] = beacon
        self._last_seen[worker] = t if t is not None else now()
        self._silent.discard(worker)
        for name, value in (beacon.get("counters") or {}).items():
            self.counters[name] = self.counters.get(name, 0) + value

    def flag_silent(self, t: float) -> list[int]:
        """Worker ids newly crossing the silence threshold at time ``t``."""
        horizon = self.silence_intervals * self.interval_ms / 1000.0
        flagged: list[int] = []
        for worker, last in self._last_seen.items():
            if worker in self._silent:
                continue
            if t - last > horizon:
                self._silent.add(worker)
                self.silence_flags += 1
                flagged.append(worker)
        return flagged

    @property
    def silent(self) -> list[int]:
        return sorted(self._silent)

    def snapshot(self) -> dict:
        """JSON-able rollup for ``repro top`` / pool statistics."""
        return {
            "beacons": self.beacons,
            "workers": {
                wid: {
                    "beacons": entry["beacons"],
                    "query": entry.get("last", {}).get("query"),
                    "cell": entry.get("last", {}).get("cell"),
                    "phase": entry.get("last", {}).get("phase"),
                    "cells_done": entry.get("last", {}).get("cells_done", 0),
                }
                for wid, entry in sorted(self.workers.items())
            },
            "counters": dict(self.counters),
            "silent": self.silent,
            "silence_flags": self.silence_flags,
        }
