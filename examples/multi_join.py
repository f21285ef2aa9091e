"""Rewriting a three-table join (generality beyond the paper's workload).

The section 6.3 benchmark joins two tables; Sia's formulation (Def. 2)
is table-agnostic -- any subset of the predicate's columns works.  This
example joins customer, orders and lineitem, with predicates that
straddle orders/lineitem, and synthesizes pushdown predicates for each
side of the join.

Run:  python examples/multi_join.py
"""

from repro.engine import build_plan, execute
from repro.rewrite import rewrite_query
from repro.sql import parse_query, render_pred
from repro.tpch import generate_catalog

SQL = (
    "SELECT * FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey "
    "AND l_receiptdate - o_orderdate < 60 "
    "AND l_shipdate - o_orderdate > 30 "
    "AND o_orderdate < DATE '1994-01-01'"
)


def main() -> None:
    catalog = generate_catalog(scale_factor=0.01, seed=0)
    query = parse_query(SQL, catalog.schema())
    print("original query:\n ", SQL, "\n")

    rewritten = query
    for table in ("lineitem",):
        result = rewrite_query(rewritten, table)
        if not result.succeeded:
            print(f"{table}: nothing synthesized ({result.outcome.status})")
            continue
        print(f"{table}: {render_pred(result.synthesized_predicate)}")
        rewritten = result.rewritten

    plan_orig = build_plan(query)
    plan_rew = build_plan(rewritten)
    rel_o, stats_o = execute(plan_orig, catalog)
    rel_r, stats_r = execute(plan_rew, catalog)
    assert rel_o.num_rows == rel_r.num_rows
    print(f"\nboth plans return {rel_o.num_rows} rows")
    print(f"original : {stats_o.elapsed_ms:6.1f} ms, join input {stats_o.join_input_tuples}")
    print(f"rewritten: {stats_r.elapsed_ms:6.1f} ms, join input {stats_r.join_input_tuples}")
    print("\nrewritten plan:")
    print(plan_rew.describe())


if __name__ == "__main__":
    main()
