"""Cost model behind the pool's longest-first submission order.

Scheduling is a heuristic -- correctness never depends on it -- so the
tests pin what the driver *does* rely on: one positive, deterministic
cost per query (the submission order itself is pinned in
``test_parallel.py``).
"""

from repro.bench.schedule import expected_costs, synthetic_lineitem_stats
from repro.tpch import LINEITEM_DATES, generate_workload


def test_synthetic_stats_cover_all_date_columns():
    stats = synthetic_lineitem_stats()
    for column in LINEITEM_DATES:
        assert column.name in stats.columns
    assert stats is synthetic_lineitem_stats()  # cached


def test_expected_costs_are_positive_and_deterministic():
    queries = generate_workload(6, seed=11)
    costs = expected_costs(queries)
    assert len(costs) == 6
    assert all(cost > 0 for cost in costs)
    assert costs == expected_costs(queries)
