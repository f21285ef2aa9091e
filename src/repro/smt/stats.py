"""Process-wide solver instrumentation counters.

The warm-session work (docs/INTERNALS.md, "Incremental sessions")
is justified by *measured* reductions in solver construction and
re-encoding work, so the substrate keeps cheap monotone counters that
the micro-benchmarks (``benchmarks/bench_smt_micro.py``) and the
parallel workload driver snapshot around their workloads:

* ``solvers_constructed`` -- ``Solver`` instances built (each one
  re-encodes CNF and grows a cold CDCL core from nothing),
* ``checks`` -- top-level ``Solver.check`` calls,
* ``clauses_learned`` -- CDCL conflict clauses learned,
* ``restarts`` -- CDCL Luby restarts,
* ``pivots`` -- simplex pivot operations,
* ``sessions_created`` / ``session_checks`` -- :class:`SmtSession`
  instances and the checks they served (``session_checks /
  sessions_created`` is the session-reuse factor),
* ``sessions_reused`` -- always 0: every enumeration and verifier
  builds its own session.  The field stays because the end-to-end
  benchmark (``benchmarks/e2e``) reads it for ``smt.sessions_reused``,
* ``scopes_opened`` / ``scopes_retracted`` -- activation-literal
  scopes pushed and retired,
* ``proof_fallbacks`` -- checks that had to leave the warm session
  for a sealed proof-logging solver (certified paths),
* ``float_checks`` / ``float_pivots`` -- two-tier backend
  (:mod:`repro.smt.backend`): LRA checks that entered the float tier,
  and pivots spent there (``pivots`` stays the *exact*-tier pivot
  count, so ``float_pivots / (float_pivots + pivots)`` is the share of
  pivot work the cheap tier absorbed),
* ``float_sat_confirmed`` / ``float_unsat_confirmed`` -- float-tier
  verdicts the exact tier confirmed (a snapped SAT candidate that
  model-checked in Fractions; a suspected conflict re-derived as an
  exact Farkas certificate),
* ``tier_disagreements`` -- float verdicts the exact tier *refuted*
  (a bogus conflict or a candidate that failed the exact model check);
  each one is silently corrected by a full exact solve,
* ``tier_fallbacks`` -- float-tier checks that ended in a full exact
  solve for any reason (give-up or disagreement).

**Counting semantics** (pinned by ``tests/smt/test_counter_semantics.py``):
``checks`` counts *every* top-level ``Solver.check`` call, wherever it
came from -- warm session checks and certified fallbacks included.
``session_checks`` counts the subset of ``checks`` served by a warm
:class:`SmtSession` (so a warm check increments **both**, by design:
``checks - session_checks`` is the cold-check count, and
``session_checks / checks`` is the warm share).  A certified fallback
(:func:`~repro.smt.session.certified_solver`, whether reached through
``SmtSession.certified_check`` or directly) runs on a sealed fresh
solver: it increments ``solvers_constructed``, ``checks`` and
``proof_fallbacks``, and must **never** increment ``session_checks``
-- it was not served warm, and counting it there would overstate the
session-reuse factor the warm-CEGIS benchmarks report.

Counters are per process; the parallel driver aggregates the deltas
its workers report.  This module sits below every other smt module so
both :mod:`repro.smt.sat` and :mod:`repro.smt.solver` can import it
without cycles.  Richer distributions (per-check latency percentiles)
live in :data:`repro.obs.metrics.GLOBAL_METRICS`; these counters stay
dataclass-flat because the hot loops increment them unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class SolverCounters:
    """Monotone event counters (see module docstring)."""

    solvers_constructed: int = 0
    checks: int = 0
    clauses_learned: int = 0
    restarts: int = 0
    pivots: int = 0
    sessions_created: int = 0
    sessions_reused: int = 0  # never incremented; see module docstring
    session_checks: int = 0
    scopes_opened: int = 0
    scopes_retracted: int = 0
    proof_fallbacks: int = 0
    float_checks: int = 0
    float_pivots: int = 0
    float_sat_confirmed: int = 0
    float_unsat_confirmed: int = 0
    tier_disagreements: int = 0
    tier_fallbacks: int = 0

    def snapshot(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta_since(self, snapshot: dict[str, int]) -> dict[str, int]:
        """Counter increments since a previous :meth:`snapshot`."""
        return {
            name: value - snapshot.get(name, 0)
            for name, value in self.snapshot().items()
        }

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


#: The process-wide counter instance (workers report their own copy).
GLOBAL_COUNTERS = SolverCounters()
