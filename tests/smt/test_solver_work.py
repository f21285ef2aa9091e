"""Solver-work canary: the exact work of a fixed, small solver workload.

Every formula node is hash-consed, and a canonical ``LinExpr`` keeps the
coefficient order of its first live construction.  That order is the
simplex's Bland order, so a change that merely interns an extra object
on a hot path can multiply the pivots while every answer stays the same.
Outputs alone do not show that; this test pins the work as well.

``generate_workload`` checks each random predicate for satisfiability
with a one-shot solver, which makes it a cheap, deterministic probe.
The float tier is forced off so every pivot is an exact one.  The counts
must not depend on ``PYTHONHASHSEED`` either (CI runs this file under
two seeds).  To re-derive the SQL digest after an intended change::

    PYTHONPATH=src python -c "import hashlib; from repro.tpch.workload \\
        import generate_workload; print(hashlib.sha256('\\n'.join(q.sql \\
        for q in generate_workload(16, seed=13)).encode()).hexdigest())"
"""

import hashlib

from repro.smt.stats import GLOBAL_COUNTERS
from repro.tpch.workload import generate_workload

SQL_SHA256 = "3d6d0107fd5049503026eaebb3a342b1bb52a419f1db1d691255fe4a75d94290"


def test_generate_workload_solver_work(monkeypatch):
    monkeypatch.setenv("SIA_FLOAT_FILTER", "off")
    before = GLOBAL_COUNTERS.snapshot()
    queries = generate_workload(16, seed=13)
    work = GLOBAL_COUNTERS.delta_since(before)
    sql = "\n".join(query.sql for query in queries)
    assert hashlib.sha256(sql.encode()).hexdigest() == SQL_SHA256
    assert work["checks"] == 19
    assert work["pivots"] == 34
    assert work["float_pivots"] == 0
