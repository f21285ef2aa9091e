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

Tracing is **off by default**: the module-level tracer is a
:class:`NullTracer` whose ``span()`` returns a shared no-op context
manager -- the instrumented hot paths pay one global read and one
method call.  ``repro trace`` (:mod:`repro.obs.replay`) rebuilds the
tree and renders per-phase attribution tables and a text flamegraph.

The ``phase`` attribute is the attribution label: ``repro trace``
charges a span carrying ``phase=...`` to that phase and ignores any
phase spans nested below it, so instrumentation must put phase labels
only on non-overlapping regions (the CEGIS instrumentation labels the
leaf stages Learn / Verify / CounterT / CounterF / GenerateSamples).

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

from .clock import Clock, get_clock

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
]

TRACE_VERSION = 1


class _NullSpan:
    """Shared do-nothing span for the tracing-disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every call is a no-op."""

    __slots__ = ()

    enabled = False
    smt_spans = False
    trace_id = ""

    def span(self, name: str, *, counters: bool = False, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def close(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Span:
    """One live span; obtained from :meth:`Tracer.span`, used as a
    context manager.  ``set()`` adds attributes until the span closes."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "t0", "t1",
                 "attrs", "_counter_base")

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
        self._counter_base: dict[str, int] | None = None

    def set(self, **attrs: Any) -> None:
        """Attach attributes (last write per key wins)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.t0 = self._tracer._now_ms()
        self._tracer._stack.append(self)
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        self.t1 = self._tracer._now_ms()
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
        self._tracer._emit_span(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id})"


class Tracer:
    """A live tracer writing spans to a JSONL sink.

    ``sink`` is any text-mode file-like object; the tracer never opens
    or closes paths itself (see :func:`repro.obs.install_file_tracer`
    for the owning wrapper).  ``counter_source`` is an optional
    zero-argument callable returning a ``name -> int`` snapshot
    (normally ``GLOBAL_COUNTERS.snapshot``); spans opened with
    ``counters=True`` record the nonzero deltas over their lifetime as
    ``ctr.*`` attributes -- this is how simplex pivots and SAT
    conflicts land on the phase spans without per-pivot tracing cost.
    ``smt_spans`` opts into one span per ``SmtSession.check`` (high
    volume; off by default).
    """

    __slots__ = ("trace_id", "smt_spans", "_sink", "_clock", "_origin",
                 "_stack", "_next_id", "_counter_source", "_closed")

    enabled = True

    def __init__(
        self,
        sink: IO[str],
        *,
        trace_id: str | None = None,
        clock: Clock | None = None,
        counter_source: Callable[[], dict[str, int]] | None = None,
        smt_spans: bool = False,
    ) -> None:
        self._sink = sink
        self._clock = clock or get_clock()
        self.trace_id = trace_id if trace_id is not None else _fresh_trace_id()
        self.smt_spans = smt_spans
        self._origin = self._clock.now()
        self._stack: list[Span] = []
        self._next_id = 0
        self._counter_source = counter_source
        self._closed = False
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
        span = Span(self, name, self._next_id, parent, dict(attrs))
        if counters and self._counter_source is not None:
            span._counter_base = self._counter_source()
        return span

    def close(self) -> None:
        """Flush the sink; the tracer emits nothing afterwards."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sink.flush()
        except (OSError, ValueError):  # pragma: no cover - sink gone
            pass

    # ------------------------------------------------------------------
    def _now_ms(self) -> float:
        return (self._clock.now() - self._origin) * 1000.0

    def _emit_span(self, span: Span) -> None:
        record: dict[str, Any] = {
            "type": "span",
            "trace_id": self.trace_id,
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "t0": round(span.t0, 4),
            "t1": round(span.t1 if span.t1 is not None else span.t0, 4),
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
_TRACER: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The currently installed tracer (the shared null tracer when off)."""
    return _TRACER


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` process-wide; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous
