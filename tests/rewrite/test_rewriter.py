"""Tests for the end-to-end rewriter and rewrite rules."""

import numpy as np
import pytest

from repro.core import FAILED, VALID, SiaConfig, SynthesisOutcome
from repro.engine import build_plan, execute
from repro.predicates import Column, DATE, INTEGER, TRUE_PRED
from repro.rewrite import (
    is_syntax_based_prospective,
    pushdown_blocked_tables,
    rewrite_query,
    rewrite_sql,
    synthesis_input,
    target_columns,
)
from repro.sql.binder import parse_query
from repro.tpch import generate_catalog

FAST = SiaConfig(max_iterations=8, seed=1)


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(0.005, seed=5)


@pytest.fixture(scope="module")
def schema(catalog):
    return catalog.schema()


MOTIVATING_SQL = (
    "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
    "AND l_shipdate - o_orderdate < 20 AND o_orderdate < DATE '1993-06-01' "
    "AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10"
)


def test_synthesis_input_excludes_join(schema):
    query = parse_query(MOTIVATING_SQL, schema)
    pred = synthesis_input(query)
    cols = {c.name for c in pred.columns()}
    assert "o_orderkey" not in cols
    assert "l_orderkey" not in cols
    assert "o_orderdate" in cols


def test_target_columns(schema):
    query = parse_query(MOTIVATING_SQL, schema)
    pred = synthesis_input(query)
    targets = target_columns(pred, "lineitem")
    assert targets == {
        Column("lineitem", "l_shipdate", DATE),
        Column("lineitem", "l_commitdate", DATE),
    }


def test_pushdown_blocked_tables(schema):
    query = parse_query(MOTIVATING_SQL, schema)
    # lineitem has no single-table predicate but is referenced by
    # multi-table conjuncts: blocked.
    assert pushdown_blocked_tables(query) == ["lineitem"]
    assert is_syntax_based_prospective(query)


def test_not_prospective_when_both_tables_have_local_preds(schema):
    sql = (
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
        "AND l_shipdate < DATE '1994-01-01' "
        "AND o_orderdate < DATE '1995-01-01' "
        "AND l_shipdate - o_orderdate < 20"
    )
    query = parse_query(sql, schema)
    assert pushdown_blocked_tables(query) == []
    assert not is_syntax_based_prospective(query)


def test_prospective_when_one_side_lacks_local_pred(schema):
    sql = (
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
        "AND l_shipdate < DATE '1994-01-01' "
        "AND l_shipdate - o_orderdate < 20"
    )
    query = parse_query(sql, schema)
    assert pushdown_blocked_tables(query) == ["orders"]


def test_rewrite_produces_equivalent_query(catalog, schema):
    query = parse_query(MOTIVATING_SQL, schema)
    result = rewrite_query(query, "lineitem", FAST)
    assert result.succeeded
    assert result.outcome.is_valid
    r1, s1 = execute(build_plan(query), catalog)
    r2, s2 = execute(build_plan(result.rewritten), catalog)
    assert r1.num_rows == r2.num_rows
    key = Column("lineitem", "l_orderkey", INTEGER)
    assert np.array_equal(
        np.sort(r1.column(key)), np.sort(r2.column(key))
    )


def test_rewritten_plan_has_lineitem_filter_below_join(catalog, schema):
    query = parse_query(MOTIVATING_SQL, schema)
    result = rewrite_query(query, "lineitem", FAST)
    text = build_plan(result.rewritten).describe()
    join_pos = text.index("HashJoin")
    # There is a filter mentioning lineitem dates strictly below the join.
    below = text[join_pos:]
    assert "Filter" in below and "l_commitdate" in below


def test_rewrite_reduces_join_input(catalog, schema):
    query = parse_query(MOTIVATING_SQL, schema)
    result = rewrite_query(query, "lineitem", FAST)
    _, s_orig = execute(build_plan(query), catalog)
    _, s_rew = execute(build_plan(result.rewritten), catalog)
    assert s_rew.join_input_tuples <= s_orig.join_input_tuples


def test_rewrite_no_target_columns(schema):
    sql = (
        "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey "
        "AND o_orderdate < DATE '1994-01-01'"
    )
    query = parse_query(sql, schema)
    result = rewrite_query(query, "lineitem", FAST)
    assert not result.succeeded
    assert result.outcome.status == "unsupported"


def test_rewrite_sql_helper(schema):
    result = rewrite_sql(MOTIVATING_SQL, schema, "lineitem", FAST)
    assert result.original_sql.startswith("SELECT *")
    if result.succeeded:
        assert result.rewritten_sql is not None
        assert len(result.rewritten_sql) > len(result.original_sql)


def test_rewrite_result_properties(schema):
    query = parse_query(MOTIVATING_SQL, schema)
    result = rewrite_query(query, "lineitem", FAST)
    assert result.target_table == "lineitem"
    if result.succeeded:
        assert result.synthesized_predicate is not None


def test_unsatisfiable_join_rewrite_keeps_join_conditions(catalog, schema):
    """A contradictory WHERE synthesizes FALSE; the rewritten query must
    keep the join conditions so it can still be planned, and return the
    same (empty) rows as the original."""
    sql = (
        "SELECT l_orderkey FROM lineitem, orders WHERE o_orderkey = l_orderkey "
        "AND l_shipdate < o_orderdate AND o_orderdate < l_shipdate - 10"
    )
    query = parse_query(sql, schema)
    result = rewrite_query(query, "lineitem", FAST)
    assert result.succeeded
    conjuncts = set(result.rewritten.where.conjuncts())
    assert set(query.where.conjuncts()) <= conjuncts
    r1, _ = execute(build_plan(query), catalog)
    r2, _ = execute(build_plan(result.rewritten), catalog)
    key = Column("lineitem", "l_orderkey", INTEGER)
    assert r1.num_rows == r2.num_rows == 0
    assert np.array_equal(r1.column(key), r2.column(key))


class _StubSynthesizer:
    """Returns ``status`` for every subset; the l_shipdate subset hit its
    synthesis timeout."""

    def __init__(self, status):
        self.status = status

    def synthesize(self, predicate, subset):
        (column,) = subset
        return SynthesisOutcome(
            status=self.status,
            predicate=TRUE_PRED if self.status == VALID else None,
            timed_out=column.name == "l_shipdate",
        )


@pytest.mark.parametrize("status", [VALID, FAILED])
def test_merged_outcome_reports_any_subset_timeout(schema, status):
    query = parse_query(MOTIVATING_SQL, schema)
    result = rewrite_query(
        query, "lineitem", FAST, synthesizer=_StubSynthesizer(status)
    )
    assert result.outcome.status == status
    assert result.outcome.timed_out
