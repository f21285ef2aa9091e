"""``repro.obs``: the observability layer (tracing, metrics, clock).

A zero-dependency substrate the whole stack reports through:

* :mod:`repro.obs.clock` -- the injectable monotonic clock every
  duration in the repo is measured on (lint rule SIA010 pins this);
* :mod:`repro.obs.trace` -- context-manager span tracing to JSONL,
  off by default, with per-span attributes and counter deltas;
* :mod:`repro.obs.metrics` -- named counters and timers with
  worker-mergeable deltas, generalizing the solver's
  :data:`~repro.smt.stats.GLOBAL_COUNTERS`;
* :mod:`repro.obs.replay` -- the ``repro trace`` replay: per-phase
  attribution tables and text flamegraphs from a trace file.

The per-cell record of an efficacy run is the fullscale checkpoint
(:mod:`repro.bench.fullscale`), rendered by ``repro report``.

:func:`install_file_tracer` is the one-call entry point the CLI and
benchmarks use::

    with install_file_tracer("run.jsonl") as tracer:
        ...  # everything under here emits spans

See docs/INTERNALS.md, "Observability".
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .clock import Clock, ManualClock, get_clock, now, set_clock
from .metrics import (
    GLOBAL_METRICS,
    Counter,
    MetricsRegistry,
    Timer,
    merge_delta,
    summarize_values,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
)

__all__ = [
    "Clock",
    "Counter",
    "GLOBAL_METRICS",
    "ManualClock",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Timer",
    "Tracer",
    "get_clock",
    "get_tracer",
    "install_file_tracer",
    "merge_delta",
    "now",
    "set_clock",
    "set_tracer",
    "summarize_values",
]


@contextmanager
def install_file_tracer(
    path: Path | str,
    *,
    trace_id: str | None = None,
    smt_spans: bool = False,
) -> Iterator[Tracer]:
    """Install a process-wide tracer writing JSONL to ``path``.

    Wires the solver counters (:data:`repro.smt.stats.GLOBAL_COUNTERS`)
    in as the tracer's counter source, so ``span(..., counters=True)``
    records solver-effort deltas (checks, learned clauses, simplex
    pivots) as span attributes.  On exit the previous tracer (normally
    the null tracer) is restored and the file is closed.
    """
    # Imported here, not at module level: repro.obs must stay importable
    # below repro.smt (smt.session reads the tracer at check time).
    from ..smt.stats import GLOBAL_COUNTERS

    sink = open(path, "w", encoding="utf-8")
    try:
        tracer = Tracer(
            sink,
            trace_id=trace_id,
            counter_source=GLOBAL_COUNTERS.snapshot,
            smt_spans=smt_spans,
        )
        previous = set_tracer(tracer)
    except BaseException:
        sink.close()
        raise
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.close()
        sink.close()
