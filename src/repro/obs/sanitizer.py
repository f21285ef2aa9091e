"""Opt-in runtime shared-state sanitizer (TSan-lite).

The static concurrency rules (:mod:`repro.analysis.concurrency`,
SIA501-504) reason about *source*; this module checks the same
contract on *live processes*.  When installed it wraps the two
process-global registries --
:data:`repro.smt.stats.GLOBAL_COUNTERS` and
:data:`repro.obs.metrics.GLOBAL_METRICS` -- and records every access
as an aggregate count keyed by (registry, site, pid, tid, op), cheap
enough to leave on for a whole benchmark run:

* ``SolverCounters.__setattr__`` is patched so every counter write
  notes the writing process and thread;
* the ``MetricsRegistry`` accessors (``counter``/``timer``/
  ``histogram``) note which process touched which metric table.

Two things are **violations**:

* a write from a process whose pid differs from the registry module's
  import-time owner pid -- the registry was inherited warm across a
  ``fork``, exactly the hazard the spawn contract (SIA502) exists to
  prevent; under spawn the worker re-imports the module and owns its
  registry from zero;
* counter writes from more than one thread of the same process --
  ``SolverCounters`` is a plain dataclass with no lock, so cross-thread
  ``+=`` loses updates (SIA501/SIA503 at runtime).

Violations additionally emit ``sanitizer.violation`` events into the
PR 4 trace stream (:mod:`repro.obs.trace`), so ``repro trace`` replay
shows *when* the cross-process write happened.

Activation: ``repro bench --parallel N --sanitize`` installs the
sanitizer in the parent and exports :data:`SANITIZE_ENV` so spawned
workers self-install at entry (:func:`maybe_install_sanitizer` in
the pool initializer ``repro.bench.parallel._init_worker``).  Workers ship their drained
reports back with the batch deltas; :func:`summarize_reports` folds
them into the run-level summary the CLI prints and CI gates on.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any

from . import metrics as _metrics
from .trace import get_tracer

__all__ = [
    "SANITIZE_ENV",
    "Sanitizer",
    "SanitizerReport",
    "install_sanitizer",
    "maybe_install_sanitizer",
    "summarize_reports",
    "uninstall_sanitizer",
]

#: Environment flag the parent exports so spawned workers self-install.
SANITIZE_ENV = "REPRO_SANITIZE"

#: Serializes install/uninstall and the class-level patching they do.
_INSTALL_LOCK = threading.Lock()

#: Original attributes the install patched, for restoration.
_ORIGINALS: dict[str, Any] = {}

_ACTIVE: "Sanitizer | None" = None


@dataclass
class SanitizerReport:
    """Drained access log of one process, JSON-able for transit."""

    pid: int
    accesses: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "accesses": self.accesses,
            "violations": self.violations,
        }


class Sanitizer:
    """Access recorder for the patched registries (one per process)."""

    def __init__(self, owners: dict[str, int]) -> None:
        self._owners = owners
        self._lock = threading.Lock()
        # (registry, site, pid, tid, op) -> count
        self._accesses: dict[tuple[str, str, int, int, str], int] = {}
        self._violations: list[dict] = []
        self._reported: set[tuple[str, str, int]] = set()

    def record(self, registry: str, site: str, op: str) -> None:
        """Note one access; called from the patched registry methods."""
        pid = os.getpid()
        tid = threading.get_ident()
        owner = self._owners.get(registry, pid)
        with self._lock:
            key = (registry, site, pid, tid, op)
            self._accesses[key] = self._accesses.get(key, 0) + 1
            if op == "write" and pid != owner:
                dedup = (registry, site, pid)
                if dedup not in self._reported:
                    self._reported.add(dedup)
                    violation = {
                        "kind": "fork-inherited-write",
                        "registry": registry,
                        "site": site,
                        "pid": pid,
                        "owner_pid": owner,
                        "message": (
                            f"{registry}.{site} written by pid {pid} but "
                            f"owned by pid {owner}: the registry was "
                            "inherited warm across a fork"
                        ),
                    }
                    self._violations.append(violation)
                    get_tracer().event(
                        "sanitizer.violation",
                        kind="fork-inherited-write",
                        registry=registry,
                        site=site,
                        pid=pid,
                        owner_pid=owner,
                    )

    def drain(self) -> SanitizerReport:
        """Return and clear everything recorded so far by this process.

        Cross-thread counter writes are diagnosed here rather than in
        :meth:`record` -- they are only visible once all threads'
        accesses sit side by side.
        """
        with self._lock:
            accesses = [
                {
                    "registry": registry,
                    "site": site,
                    "pid": pid,
                    "tid": tid,
                    "op": op,
                    "count": count,
                }
                for (registry, site, pid, tid, op), count in sorted(
                    self._accesses.items()
                )
            ]
            violations = list(self._violations)
            writer_tids: dict[tuple[str, int], set[int]] = {}
            for (registry, _site, pid, tid, op) in self._accesses:
                if op == "write" and registry == "GLOBAL_COUNTERS":
                    writer_tids.setdefault((registry, pid), set()).add(tid)
            for (registry, pid), tids in sorted(writer_tids.items()):
                if len(tids) > 1:
                    violations.append(
                        {
                            "kind": "cross-thread-write",
                            "registry": registry,
                            "pid": pid,
                            "threads": len(tids),
                            "message": (
                                f"{registry} written by {len(tids)} "
                                f"threads of pid {pid} without a lock; "
                                "+= interleavings lose updates"
                            ),
                        }
                    )
            self._accesses.clear()
            self._violations.clear()
            self._reported.clear()
        return SanitizerReport(
            pid=os.getpid(), accesses=accesses, violations=violations
        )


def install_sanitizer() -> Sanitizer:
    """Patch the registries and start recording; idempotent."""
    global _ACTIVE
    # Imported here, not at module level: repro.obs must stay importable
    # below repro.smt (mirrors install_file_tracer).
    from ..smt import stats as _stats

    with _INSTALL_LOCK:
        if _ACTIVE is not None:
            return _ACTIVE
        sanitizer = Sanitizer(
            owners={
                "GLOBAL_COUNTERS": _stats._OWNER_PID,
                "GLOBAL_METRICS": _metrics._OWNER_PID,
            }
        )

        original_setattr = _stats.SolverCounters.__setattr__
        _ORIGINALS["SolverCounters.__setattr__"] = original_setattr

        def _traced_setattr(
            self: Any,
            name: str,
            value: Any,
            _orig: Any = original_setattr,
            _global: Any = _stats.GLOBAL_COUNTERS,
        ) -> None:
            active = _ACTIVE
            if active is not None and self is _global:
                active.record("GLOBAL_COUNTERS", name, "write")
            _orig(self, name, value)

        _stats.SolverCounters.__setattr__ = _traced_setattr  # type: ignore[method-assign]

        for accessor in ("counter", "timer", "histogram", "gauge"):
            original = getattr(_metrics.MetricsRegistry, accessor)
            _ORIGINALS[f"MetricsRegistry.{accessor}"] = original

            def _traced_accessor(
                self: Any,
                name: str,
                _orig: Any = original,
                _accessor: str = accessor,
            ) -> Any:
                active = _ACTIVE
                if active is not None and self is _metrics.GLOBAL_METRICS:
                    active.record(
                        "GLOBAL_METRICS", f"{_accessor}:{name}", "touch"
                    )
                return _orig(self, name)

            setattr(_metrics.MetricsRegistry, accessor, _traced_accessor)

        _ACTIVE = sanitizer
        return sanitizer


def uninstall_sanitizer() -> None:
    """Restore the patched registries; no-op when not installed."""
    global _ACTIVE
    from ..smt import stats as _stats

    with _INSTALL_LOCK:
        if _ACTIVE is None:
            return
        _stats.SolverCounters.__setattr__ = _ORIGINALS.pop(  # type: ignore[method-assign]
            "SolverCounters.__setattr__"
        )
        for accessor in ("counter", "timer", "histogram", "gauge"):
            setattr(
                _metrics.MetricsRegistry,
                accessor,
                _ORIGINALS.pop(f"MetricsRegistry.{accessor}"),
            )
        _ACTIVE = None


def maybe_install_sanitizer() -> Sanitizer | None:
    """The active sanitizer, installing from :data:`SANITIZE_ENV`.

    Worker entry points call this: under ``--sanitize`` the parent
    exports the flag before dispatching, so spawned workers (fresh
    interpreters, no inherited install) activate themselves.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    if os.environ.get(SANITIZE_ENV) != "1":
        return None
    return install_sanitizer()


def summarize_reports(reports: list[dict]) -> dict[str, Any]:
    """Fold per-process report JSONs into one run-level summary."""
    pids: set[int] = set()
    total = 0
    by_registry: dict[str, int] = {}
    violations: list[dict] = []
    for report in reports:
        pids.add(report.get("pid", 0))
        for access in report.get("accesses", []):
            total += access.get("count", 0)
            registry = access.get("registry", "?")
            by_registry[registry] = (
                by_registry.get(registry, 0) + access.get("count", 0)
            )
        violations.extend(report.get("violations", []))
    return {
        "processes": len(pids),
        "accesses": total,
        "by_registry": dict(sorted(by_registry.items())),
        "violations": violations,
    }
