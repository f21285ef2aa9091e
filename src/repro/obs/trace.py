"""Zero-dependency span tracer emitting a JSONL event stream.

The CEGIS loop's cost structure (where does synthesis time go --
sample generation, learning, verification, counter-example mining?) is
invisible to monotone counters; this tracer records it as a tree of
**spans**:

* a span has a name, a parent, millisecond start/end offsets on the
  injectable clock (:mod:`repro.obs.clock`), and free-form attributes;
* ``Tracer.span`` is a context manager, so nesting follows the call
  structure: the span opened innermost becomes the parent of any span
  opened inside it;
* every completed span is one JSON line in the sink, so traces stream,
  append, and survive crashes up to the last finished span.

Spans always measure; only emitting them is optional.  The default
process-wide tracer is a :class:`Tracer` with no sink: it reads the
clock on span entry and exit, keeps the span stack, and writes no
JSON and takes no counter snapshots.  Installing a tracer with a sink
(:func:`repro.obs.install_file_tracer`) makes the same spans one JSON
line each.  ``repro trace`` (:mod:`repro.obs.replay`) rebuilds the
tree and renders per-phase attribution tables and a text flamegraph.

The ``phase`` attribute is the attribution label: ``repro trace``
charges a span carrying ``phase=...`` to that phase and ignores any
phase spans nested below it, so instrumentation must put phase labels
only on non-overlapping regions (the CEGIS instrumentation labels the
leaf stages Learn / Verify / CounterT / CounterF / GenerateSamples).
Every span applies the same rule as it closes: :attr:`Span.phase_ms`
holds the milliseconds of the outermost phase spans below it, by
phase.  This is where :class:`repro.core.result.Timings` comes from,
so Table 3 and ``repro trace`` read the same measurements.

Wire format (one object per line)::

    {"type": "meta", "trace_id": ..., "version": 1}
    {"type": "span", "trace_id": ..., "id": 3, "parent": 2,
     "name": "cegis.learn", "t0": 12.5, "t1": 14.1,
     "attrs": {"phase": "learn"}}

Older traces may also hold ``"type": "event"`` lines (point events,
once emitted on SAT restarts); the replayer skips them.
"""

from __future__ import annotations

import json
from typing import Any, Callable, IO

from .clock import Clock, now

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
]

TRACE_VERSION = 1


class Span:
    """One live span; obtained from :meth:`Tracer.span`, used as a
    context manager.  ``set()`` adds attributes until the span closes.

    ``t0``/``t1`` are raw clock readings in seconds; the wire format
    carries them as millisecond offsets from the tracer's first span.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "t0", "t1",
                 "attrs", "phase_ms", "_counter_base")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t0 = 0.0
        self.t1: float | None = None
        self.attrs = attrs
        #: Milliseconds of the outermost phase spans below this one, by
        #: phase (filled as they close; see the module doc).
        self.phase_ms: dict[str, float] = {}
        self._counter_base: dict[str, int] | None = None

    def set(self, **attrs: Any) -> None:
        """Attach attributes (last write per key wins)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.t0 = tracer._now()
        if tracer._origin is None:
            tracer._origin = self.t0
        tracer._stack.append(self)
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        self.t1 = self._tracer._now()
        if self._counter_base is not None:
            source = self._tracer._counter_source
            if source is not None:
                for key, value in source().items():
                    delta = value - self._counter_base.get(key, 0)
                    if delta:
                        self.attrs[f"ctr.{key}"] = delta
        if exc_type is not None:
            self.attrs.setdefault("error", getattr(exc_type, "__name__", "error"))
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - unbalanced exit, keep the tree sane
            try:
                stack.remove(self)
            except ValueError:
                pass
        if stack:
            # An outermost phase span claims its whole subtree, so the
            # phase spans nested in it are not passed up.
            totals = stack[-1].phase_ms
            phase = self.attrs.get("phase")
            if phase is not None:
                totals[phase] = (
                    totals.get(phase, 0.0) + (self.t1 - self.t0) * 1000.0
                )
            else:
                for key, ms in self.phase_ms.items():
                    totals[key] = totals.get(key, 0.0) + ms
        self._tracer._emit_span(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id})"


class Tracer:
    """A span tracer, writing each closed span to a JSONL sink if it
    has one.

    ``sink`` is any text-mode file-like object, or ``None`` for the
    default tracer, which measures spans but writes nothing.  The
    tracer never opens or closes paths itself (see
    :func:`repro.obs.install_file_tracer` for the owning wrapper).
    ``clock`` pins the clock; without one every reading goes to the
    clock installed at that moment (:func:`repro.obs.clock.set_clock`).
    ``counter_source`` is an optional zero-argument callable returning a
    ``name -> int`` snapshot (normally ``GLOBAL_COUNTERS.snapshot``);
    spans opened with ``counters=True`` record the nonzero deltas over
    their lifetime as ``ctr.*`` attributes -- this is how simplex
    pivots and SAT conflicts land on the phase spans without per-pivot
    tracing cost.  ``smt_spans`` opts into one span per
    ``SmtSession.check`` (high volume; off by default).

    The span stack is the tracer's only state and is not locked: one
    thread per tracer (the efficacy pool and the benchmarks run
    synthesis in one thread per process).
    """

    __slots__ = ("trace_id", "smt_spans", "_sink", "_clock", "_origin",
                 "_stack", "_next_id", "_counter_source", "_closed")

    def __init__(
        self,
        sink: IO[str] | None = None,
        *,
        trace_id: str | None = None,
        clock: Clock | None = None,
        counter_source: Callable[[], dict[str, int]] | None = None,
        smt_spans: bool = False,
    ) -> None:
        self._sink = sink
        self._clock = clock
        self.smt_spans = smt_spans
        # The first span's entry reading: the tracer reads the clock
        # only on span entry and exit, so a traced run takes exactly the
        # readings of an untraced one.
        self._origin: float | None = None
        self._stack: list[Span] = []
        self._next_id = 0
        self._closed = False
        if sink is None:
            self.trace_id = ""
            self._counter_source = None
            return
        self.trace_id = trace_id if trace_id is not None else _fresh_trace_id()
        self._counter_source = counter_source
        self._write({"type": "meta", "trace_id": self.trace_id,
                     "version": TRACE_VERSION})

    # ------------------------------------------------------------------
    def span(self, name: str, *, counters: bool = False, **attrs: Any) -> Span:
        """Open a span (use as a context manager).

        ``counters=True`` snapshots the counter source on entry and
        records nonzero deltas as ``ctr.*`` attributes on exit.
        """
        self._next_id += 1
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self, name, self._next_id, parent, attrs)
        if counters and self._counter_source is not None:
            span._counter_base = self._counter_source()
        return span

    def close(self) -> None:
        """Flush the sink; the tracer emits nothing afterwards."""
        if self._closed:
            return
        self._closed = True
        if self._sink is None:
            return
        try:
            self._sink.flush()
        except (OSError, ValueError):  # pragma: no cover - sink gone
            pass

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self._clock.now() if self._clock is not None else now()

    def _emit_span(self, span: Span) -> None:
        if self._sink is None:
            return
        origin = self._origin  # set by the first span's entry
        record: dict[str, Any] = {
            "type": "span",
            "trace_id": self.trace_id,
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "t0": round((span.t0 - origin) * 1000.0, 4),
            "t1": round((span.t1 - origin) * 1000.0, 4),
        }
        if span.attrs:
            record["attrs"] = _jsonable_attrs(span.attrs)
        self._write(record)

    def _write(self, record: dict[str, Any]) -> None:
        if self._closed:
            return
        self._sink.write(json.dumps(record, sort_keys=True) + "\n")


def _jsonable_attrs(attrs: dict[str, Any]) -> dict[str, Any]:
    """Coerce attribute values to JSON scalars (repr as a last resort)."""
    out: dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, bool)) or value is None:
            out[key] = value
        elif isinstance(value, float):
            out[key] = round(value, 6)
        else:
            out[key] = repr(value)
    return out


def _fresh_trace_id() -> str:
    import uuid

    return uuid.uuid4().hex[:16]


#: The process-wide tracer.  Instrumented code reads it via
#: :func:`get_tracer` on every use (never caches it across calls), so
#: installing a tracer mid-process takes effect immediately.
_TRACER: Tracer = Tracer()


def get_tracer() -> Tracer:
    """The currently installed tracer (the sink-less default when no
    trace is being written)."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous
