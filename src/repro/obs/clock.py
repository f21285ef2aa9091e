"""The injectable monotonic clock: the single sanctioned time source.

Every duration measured anywhere in :mod:`repro` flows through this
module, never through ``time.time()`` / ``time.perf_counter()``
directly (the deadline tests drive synthesis on a
:class:`ManualClock` and fail on a direct read), for two reasons:

* **Deterministic traces in tests.**  Swapping in a
  :class:`ManualClock` makes span durations exact -- and with them the
  CEGIS stage ``Timings``, which are read off the phase spans -- so
  tests can assert on attribution tables instead of sleeping and
  hoping.
* **One overhead budget.**  The tracer, the metrics registry and the
  engine's operator stats all pay the same per-read cost: a single
  indirect call on top of ``time.perf_counter`` (~100ns).  A span
  reads the clock on entry and exit whether or not its tracer writes
  a trace, so tracing changes what is written, never what is read.

``now()`` returns *seconds* on an arbitrary monotonic epoch, matching
``time.perf_counter``; callers convert to milliseconds at the edge.
"""

from __future__ import annotations

import time

__all__ = ["Clock", "ManualClock", "get_clock", "set_clock", "now"]


class Clock:
    """Monotonic clock; the default reads ``time.perf_counter``."""

    __slots__ = ()

    def now(self) -> float:
        """Seconds since an arbitrary fixed epoch (monotonic)."""
        return time.perf_counter()


class ManualClock(Clock):
    """A clock tests drive by hand: ``now()`` only moves on ``advance``."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward (negative advances are rejected)."""
        if seconds < 0:
            raise ValueError("monotonic clocks cannot go backwards")
        self._now += seconds


_CLOCK: Clock = Clock()


def get_clock() -> Clock:
    """The currently installed clock."""
    return _CLOCK


def set_clock(clock: Clock) -> Clock:
    """Install ``clock`` process-wide; returns the previous one so
    tests can restore it in a ``finally``."""
    global _CLOCK
    previous = _CLOCK
    _CLOCK = clock
    return previous


def now() -> float:
    """Shorthand for ``get_clock().now()`` (the common call shape)."""
    return _CLOCK.now()
