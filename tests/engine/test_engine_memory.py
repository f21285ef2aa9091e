"""The engine's memory: the glibc allocator policy set at import, and
results that never share the executor's arrays across executions."""

import json
import os
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.engine import allocator, build_plan, execute
from repro.sql.binder import parse_query
from repro.tpch import generate_catalog
from repro.tpch.queries import get_query
from repro.tpch.workload import schema

GLIBC = platform.libc_ver()[0] == "glibc"

#: Minor page faults of each of five executions of the motivating query
#: at SF 0.01, after one warm-up, printed as a JSON list.
_FAULT_PROBE = """
import json, resource
from repro.engine import build_plan, execute
from repro.sql.binder import parse_query
from repro.tpch import generate_catalog
from repro.tpch.queries import get_query
from repro.tpch.workload import schema

catalog = generate_catalog(0.01, seed=1)
plan = build_plan(parse_query(get_query("q_motivating").sql, schema()))
execute(plan, catalog)
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    execute(plan, catalog)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def _probe_faults(**settings: str) -> list[int]:
    """Run the fault probe in a fresh process whose environment sets no
    malloc tunables besides ``settings``."""
    env = {
        name: value
        for name, value in os.environ.items()
        if name != "GLIBC_TUNABLES" and not name.startswith("MALLOC_")
    }
    env.update(settings, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.skipif(not GLIBC, reason="the allocator policy is glibc-only")
def test_repeated_executions_fault_no_pages_in():
    # Under glibc's default thresholds each execution faults ~370 pages
    # in again; with the policy, it reuses the heap the last one freed.
    faults = _probe_faults()
    assert max(faults) <= 32, faults


@pytest.mark.skipif(not GLIBC, reason="the allocator policy is glibc-only")
def test_user_malloc_tunables_are_left_alone():
    # A user's own trim threshold freezes glibc's mmap threshold at its
    # 128 KiB default, so the per-execution faults stay.
    faults = _probe_faults(GLIBC_TUNABLES="glibc.malloc.trim_threshold=131072")
    assert min(faults) >= 300, faults


@pytest.mark.skipif(not GLIBC, reason="the allocator policy is glibc-only")
@pytest.mark.parametrize(
    "environ, applies",
    [
        ({}, True),
        ({"GLIBC_TUNABLES": "glibc.cpu.x86_shstk=off"}, True),
        ({"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=65536"}, False),
        ({"MALLOC_MMAP_THRESHOLD_": "65536"}, False),
        ({"MALLOC_TRIM_THRESHOLD_": "65536"}, False),
    ],
)
def test_policy_yields_to_user_settings(environ, applies):
    assert allocator.policy_applies(environ) is applies


def test_policy_is_a_no_op_off_glibc(monkeypatch):
    def no_libc_call(*_args):
        raise AssertionError("mallopt called off glibc")

    monkeypatch.setattr(allocator.platform, "libc_ver", lambda: ("musl", ""))
    monkeypatch.setattr(allocator.ctypes, "CDLL", no_libc_call)
    assert not allocator.policy_applies({})
    assert allocator.keep_freed_arrays_mapped() is False


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(0.01, seed=1)


def _arrays(relation) -> list[np.ndarray]:
    """Every array a relation's columns read: values, NULL masks and
    selection vectors, with each column gathered."""
    out = []
    for column, lazy in relation.data.items():
        values, nulls = relation.values_and_nulls(column)
        out += [values, lazy.values]
        out += [a for a in (nulls, lazy.nulls, lazy.indices) if a is not None]
    return out


def _rows(relation) -> Counter:
    columns = sorted(relation.data, key=lambda column: column.qualified)
    cells = []
    for column in columns:
        values, nulls = relation.values_and_nulls(column)
        values = values.tolist()
        if nulls is not None:
            values = [None if null else v for v, null in zip(values, nulls)]
        cells.append(values)
    return Counter(zip(*cells))


@pytest.mark.parametrize(
    "name", ["q_motivating", "q3_shipping_priority", "q1_pricing_summary"]
)
def test_results_of_one_plan_share_no_executor_arrays(catalog, name):
    plan = build_plan(parse_query(get_query(name).sql, schema()))
    first, _ = execute(plan, catalog)
    second, _ = execute(plan, catalog)

    assert first.num_rows == second.num_rows > 0
    assert _rows(first) == _rows(second)

    base = [
        array
        for table in catalog.tables.values()
        for array in (*table.columns.values(), *table.nulls.values())
    ]
    produced = [
        array
        for array in _arrays(first)
        if not any(np.shares_memory(array, column) for column in base)
    ]
    assert produced, "the plan produced no arrays of its own"
    for array in produced:
        for other in _arrays(second):
            assert not np.shares_memory(array, other)
