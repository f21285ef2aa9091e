"""Ablation: hyperplane coefficient resolution (max_denominator).

The learned float hyperplane is snapped to an integer grid before
verification (DESIGN.md #3).  Too coarse a grid (8) distorts learned
directions; too fine a grid (512) inflates coefficients and slows the
integer theory reasoning.  The default (64) balances both.

Only planes over two or more columns have a direction to round: a
one-column plane is learned exactly (DESIGN.md #6) and never reads
``max_denominator``.  So the sweep runs the three two-column
``full_set`` syntheses of seed-13 section 6.3 queries 123, 168 and 184
(the converging ``fullset_2col`` cells of the end-to-end benchmark).
"""

from dataclasses import replace
from statistics import mean
from time import perf_counter

from repro.bench import emit, format_table
from repro.core import SIA_DEFAULT
from repro.rewrite import FULL_SET, rewrite_query
from repro.sql.binder import parse_query
from repro.tpch import generate_workload
from repro.tpch.workload import schema

TWO_COLUMN_QUERIES = (123, 168, 184)


def run_resolution(max_denominator: int, queries):
    config = replace(SIA_DEFAULT, max_denominator=max_denominator)
    tables = schema()
    outcomes = []
    start = perf_counter()
    for sql in queries:
        result = rewrite_query(
            parse_query(sql, tables), "lineitem", config, strategy=FULL_SET
        )
        outcomes.append(result.outcome)
    return outcomes, (perf_counter() - start) * 1000.0


def test_ablation_svm_resolution(benchmark, once):
    workload = generate_workload(max(TWO_COLUMN_QUERIES) + 1, seed=13)
    queries = [workload[index].sql for index in TWO_COLUMN_QUERIES]

    def run():
        return {d: run_resolution(d, queries) for d in (8, 64, 512)}

    results = once(benchmark, run)
    rows = []
    for denominator, (outcomes, elapsed_ms) in results.items():
        valid = [o for o in outcomes if o.is_valid]
        optimal = [o for o in outcomes if o.is_optimal]
        iters = " ".join(str(o.iterations) for o in outcomes)
        rows.append(
            [
                denominator,
                len(outcomes),
                len(valid),
                len(optimal),
                iters,
                mean(o.iterations for o in outcomes),
                elapsed_ms,
            ]
        )
    emit(
        "ablation_svm",
        format_table(
            [
                "max_denominator",
                "runs",
                "valid",
                "optimal",
                "iters (123 168 184)",
                "avg iters",
                "total ms",
            ],
            rows,
            title=(
                "Ablation: hyperplane coefficient resolution (DESIGN.md #3), "
                "two-column full_set cells"
            ),
        ),
    )
    by = {row[0]: row for row in rows}
    # The default resolution must synthesize at least as many valid
    # predicates as the coarse grid.
    assert by[64][2] >= by[8][2]
