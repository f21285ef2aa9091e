"""Smoke test of the end-to-end benchmark, well under a minute::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Each workload runs on a three-request slice through the same functions
as a measured run; the command line prints every metric BENCHMARK.json
names, with its unit; a doctored rewrite that drops one conjunct is
caught by the same-rows check; and a run whose every request fails
still reports.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run
import workload
from repro.predicates import pand

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workload.WORKLOADS)
    assert declared("end_to_end") == workload.END_TO_END
    assert declared("per_layer") == workload.PER_LAYER


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_three_request_slice(name, tmp_path):
    # Seed 13 draws plan-cache templates 0, 5, 5: one cache hit to time.
    trace = tmp_path / f"{name}.jsonl"
    report = workload.measure(
        workload.WORKLOADS[name], 13, requests=3, traced=True, trace_file=trace
    )
    assert report["attempted"] == 3
    assert report["failed"] == 0, report["errors"]
    values = {**report["metrics"], **report["extra"]}
    for metric, unit in {**workload.END_TO_END, **workload.PER_LAYER}.items():
        if metric == "trace.overhead_frac":  # run.py derives it from two runs
            continue
        value, printed_unit = values[metric]
        assert printed_unit == unit, metric
        assert isinstance(value, (int, float)), metric
    layers = sum(ms for _, ms in report["layers"])
    assert layers == pytest.approx(report["request_wall_ms"], rel=0.01)
    assert workload.load_trace(trace).spans


@pytest.mark.parametrize(
    "name, traced, kind",
    [("plan_cache", False, "end_to_end"), ("fullset_2col", True, "per_layer")],
)
def test_command_prints_every_metric_with_its_unit(name, traced, kind, tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "13", "--seconds", "2",
         "--trace", str(tmp_path) if traced else "0"],
        stdout=subprocess.PIPE, text=True, timeout=150, check=True,
    )
    *table, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)
    printed = {
        (words[0], words[-1]) for words in map(str.split, table) if len(words) > 1
    }
    for metric, unit in declared(kind).items():
        assert (metric, unit) in printed, metric
    assert (tmp_path / f"{name}.jsonl").exists() == traced


def test_doctored_rewrite_fails_the_same_rows_check(monkeypatch):
    real = workload.RewriteCache.rewrite

    def drop_one_conjunct(self, query, target_table):
        result = real(self, query, target_table)
        if result.rewritten is not None:
            kept = list(result.rewritten.where.conjuncts())
            del kept[1]  # the first conjunct after the join condition
            rewritten = dataclasses.replace(result.rewritten, where=pand(kept))
            result = dataclasses.replace(result, rewritten=rewritten)
        return result

    monkeypatch.setattr(workload.RewriteCache, "rewrite", drop_one_conjunct)
    report = workload.measure(workload.WORKLOADS["fullset_2col"], 13, requests=3)
    assert report["extra"]["error_frac"][0] > 0
    assert any("other rows" in error for error in report["errors"])


def test_run_whose_every_request_fails_still_reports(monkeypatch, capsys):
    real = workload.RewriteCache.rewrite

    def keep_only_the_join(self, query, target_table):
        result = real(self, query, target_table)
        if result.rewritten is not None:
            join = next(iter(result.rewritten.where.conjuncts()))
            rewritten = dataclasses.replace(result.rewritten, where=join)
            result = dataclasses.replace(result, rewritten=rewritten)
        return result

    monkeypatch.setattr(workload.RewriteCache, "rewrite", keep_only_the_join)
    # Every full-set template is rewritten, so every request fails.
    report = workload.measure(workload.WORKLOADS["fullset_2col"], 13, requests=3)
    assert report["failed"] == report["attempted"] == 3
    assert report["metrics"]["queries_per_s"][0] is None
    run.print_report("fullset_2col", 13, report, traced=False)
    line = run.result_line({"fullset_2col": report}, ["fullset_2col"])
    assert not line["correct"] and line["failed"] == 3
    printed = capsys.readouterr().out
    assert "queries_per_s" in printed and "other rows" in printed
