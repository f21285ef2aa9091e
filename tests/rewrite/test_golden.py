"""Golden CEGIS paths for three fast ad-hoc templates and two 2-D ones.

The per-column iteration counts and the rewritten SQL of seed-13
section 6.3 queries 3, 7 and 18 (``per_column``, the default config)
are pinned, so a change to the learner, the sampler or the verifier
that moves a CEGIS path shows here instead of only in benchmark counts.
So are the ``full_set`` syntheses of queries 123 and 168, whose planes
cross two columns: the only paths here that train the SVM.
"""

import pytest

from repro.core import SIA_DEFAULT, Synthesizer
from repro.rewrite import FULL_SET, rewrite_query
from repro.sql.binder import parse_query
from repro.tpch import generate_workload
from repro.tpch.workload import schema


class RecordingSynthesizer(Synthesizer):
    """Records each one-column synthesis's iteration count."""

    def __init__(self):
        super().__init__(SIA_DEFAULT)
        self.iterations = {}

    def synthesize(self, pred, target_columns):
        outcome = super().synthesize(pred, target_columns)
        (column,) = target_columns
        self.iterations[column.name] = outcome.iterations
        return outcome


@pytest.fixture(scope="module")
def workload():
    return generate_workload(169, seed=13)


@pytest.mark.parametrize(
    "index, iterations, learned",
    [
        (
            3,
            {"l_commitdate": 1, "l_receiptdate": 0, "l_shipdate": 0},
            "lineitem.l_commitdate >= DATE '1993-08-24'",
        ),
        (
            7,
            {"l_commitdate": 3, "l_receiptdate": 0, "l_shipdate": 0},
            "lineitem.l_commitdate <= DATE '1992-09-14'",
        ),
        (
            18,
            {"l_commitdate": 0, "l_shipdate": 6},
            "lineitem.l_shipdate <= DATE '1993-07-19'",
        ),
    ],
)
def test_adhoc_template_rewrite_is_pinned(workload, index, iterations, learned):
    synthesizer = RecordingSynthesizer()
    result = rewrite_query(
        parse_query(workload[index].sql, schema()),
        "lineitem",
        synthesizer=synthesizer,
    )
    assert synthesizer.iterations == iterations
    assert result.outcome.is_optimal
    assert result.rewritten_sql == f"{workload[index].sql} AND {learned}"


@pytest.mark.parametrize(
    "index, iterations, learned",
    [
        (
            123,
            7,
            "lineitem.l_commitdate - DATE '1970-01-01'"
            " + -1 * (lineitem.l_receiptdate - DATE '1970-01-01') > -8",
        ),
        (
            168,
            1,
            "lineitem.l_receiptdate - DATE '1970-01-01'"
            " + -1 * (lineitem.l_shipdate - DATE '1970-01-01') > -151",
        ),
    ],
)
def test_two_column_full_set_rewrite_is_pinned(
    workload, index, iterations, learned
):
    result = rewrite_query(
        parse_query(workload[index].sql, schema()),
        "lineitem",
        strategy=FULL_SET,
    )
    assert result.outcome.iterations == iterations
    assert result.outcome.is_optimal
    assert result.rewritten_sql == f"{workload[index].sql} AND {learned}"
