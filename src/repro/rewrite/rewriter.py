"""End-to-end query rewriting with synthesized predicates.

Given a bound query and a target table, extract the WHERE predicate,
synthesize a valid predicate over the target table's columns
(Algorithm 1), and conjoin it into the query.  The rewritten query is
semantically equivalent by construction (the synthesized predicate is
implied by the original one) and its single-table shape lets the
pushdown optimizer filter the target table below the join.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..core import SIA_DEFAULT, SiaConfig, Synthesizer, UNSUPPORTED
from ..core.result import SynthesisOutcome
from ..predicates import PAnd, Pred, TRUE_PRED, pand, simplify_conjunction
from ..sql.binder import BoundQuery, parse_query
from ..sql.printer import render_query
from .rules import synthesis_input, target_columns


@dataclass
class RewriteResult:
    """Outcome of a rewrite attempt."""

    original: BoundQuery
    outcome: SynthesisOutcome
    target_table: str
    rewritten: BoundQuery | None = None

    @property
    def succeeded(self) -> bool:
        return self.rewritten is not None

    @property
    def original_sql(self) -> str:
        return render_query(self.original)

    @property
    def rewritten_sql(self) -> str | None:
        if self.rewritten is None:
            return None
        return render_query(self.rewritten)

    @property
    def synthesized_predicate(self) -> Pred | None:
        return self.outcome.predicate


PER_COLUMN = "per_column"
FULL_SET = "full_set"
COMBINED = "combined"


def rewrite_query(
    query: BoundQuery,
    target_table: str,
    config: SiaConfig = SIA_DEFAULT,
    *,
    synthesizer: Synthesizer | None = None,
    strategy: str = PER_COLUMN,
) -> RewriteResult:
    """Rewrite ``query`` with synthesized predicates over
    ``target_table``'s columns (the paper's headline flow).

    ``strategy`` picks the column subsets to synthesize over:

    * ``per_column`` (default) -- one synthesis per single column.
      Cheap, usually optimal, and the results simplify to plain bounds
      (the paper's Q2 carries ``l_shipdate < '1993-06-20'`` style
      predicates) that are cheap for the engine to evaluate.
    * ``full_set`` -- one synthesis over all target columns at once
      (captures cross-column constraints like the paper's
      ``l_commitdate - l_shipdate < 29``, at a much higher synthesis
      and evaluation cost).
    * ``combined`` -- both; all valid results are conjoined (valid
      predicates are closed under conjunction, Lemma 2).
    """
    target_table = target_table.lower()
    predicate = synthesis_input(query)
    targets = target_columns(predicate, target_table)
    if not targets:
        outcome = SynthesisOutcome(
            status=UNSUPPORTED,
            detail=f"predicate uses no columns of {target_table!r}",
        )
        return RewriteResult(query, outcome, target_table)

    subsets: list[set] = []
    if strategy in (PER_COLUMN, COMBINED):
        subsets.extend({column} for column in sorted(targets))
    if strategy in (FULL_SET, COMBINED) and len(targets) > 1:
        subsets.append(set(targets))
    if not subsets:
        subsets.append(set(targets))

    synth = synthesizer or Synthesizer(config)
    outcomes = [synth.synthesize(predicate, subset) for subset in subsets]
    valid = [o for o in outcomes if o.is_valid and o.predicate is not None]
    combined = _merge_outcomes(outcomes, valid)
    result = RewriteResult(query, combined, target_table)
    if valid:
        # Conjoin without pand's FALSE folding: an unsatisfiable learned
        # predicate must not drop the join conditions the planner needs.
        learned = pand([o.predicate for o in valid])
        conjuncts = [
            c
            for c in (*query.where.conjuncts(), *learned.conjuncts())
            if c is not TRUE_PRED
        ]
        where = pand(conjuncts) if len(conjuncts) < 2 else PAnd(tuple(conjuncts))
        result.rewritten = dataclasses.replace(query, where=where)
    return result


def _merge_outcomes(outcomes, valid) -> SynthesisOutcome:
    """Aggregate per-subset outcomes into one result record."""
    from ..core.result import OPTIMAL, Timings, VALID

    timed_out = any(o.timed_out for o in outcomes)
    if not valid:
        # Report the most informative failure.
        best = max(outcomes, key=lambda o: (o.iterations, len(o.detail)))
        return dataclasses.replace(best, timed_out=timed_out)
    merged = SynthesisOutcome(
        status=OPTIMAL if all(o.is_optimal for o in valid) else VALID,
        predicate=simplify_conjunction(pand([o.predicate for o in valid])),
        iterations=sum(o.iterations for o in outcomes),
        true_samples=sum(o.true_samples for o in outcomes),
        false_samples=sum(o.false_samples for o in outcomes),
        timings=Timings(
            generation_ms=sum(o.timings.generation_ms for o in outcomes),
            learning_ms=sum(o.timings.learning_ms for o in outcomes),
            validation_ms=sum(o.timings.validation_ms for o in outcomes),
        ),
        optimal_exact=all(o.optimal_exact for o in valid),
        target_columns=tuple(
            sorted({name for o in valid for name in o.target_columns})
        ),
        timed_out=timed_out,
    )
    return merged


def rewrite_sql(
    sql: str,
    schema: dict,
    target_table: str,
    config: SiaConfig = SIA_DEFAULT,
) -> RewriteResult:
    """Parse, bind and rewrite a SQL string in one step."""
    return rewrite_query(parse_query(sql, schema), target_table, config)
