"""The perf gate: every entry of the committed ``BENCH_e2e.json``.

``BENCH_e2e.json`` is the one committed perf record.  Each entry holds,
per ``BENCHMARK.json`` workload, the medians of the end-to-end metrics
of ``benchmarks/e2e/run.py`` over alternating fresh-process
parent/change pairs.  An entry passes when its runs were all correct,
it has at least ten pairs, it covers every workload, its units are
those of ``BENCHMARK.json``, and no metric's ``change`` median is worse
than its ``parent`` median by more than the metric's bound.
"""

import copy
import json
from pathlib import Path

REPO = Path(__file__).parents[2]
MIN_PAIRS = 10


def _load(name):
    return json.loads((REPO / name).read_text())


def e2e_defects(bench, spec):
    """Every way the entries of ``bench`` fail the gate of ``spec``."""
    defects = []
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for name, metric in metrics.items():
        unit = bench["units"].get(name)
        if unit != metric["unit"]:
            defects.append(f"{name}: unit {unit!r}, not {metric['unit']!r}")
    for entry in bench["entries"]:
        label = f"entry on {entry['parent']}"
        if entry["all_runs_correct"] is not True:
            defects.append(f"{label}: not all runs correct")
        if entry["pairs"] < MIN_PAIRS:
            defects.append(f"{label}: {entry['pairs']} pairs < {MIN_PAIRS}")
        for workload in spec["workloads"]:
            medians = entry["workloads"].get(workload["name"])
            if medians is None:
                defects.append(f"{label}: no {workload['name']} workload")
                continue
            parent, change = medians["parent"], medians["change"]
            for name in metrics.keys() & parent.keys() & change.keys():
                bound = metrics[name]["bound"]
                if metrics[name]["better"] == "lower":
                    worse = change[name] > parent[name] * (1 + bound)
                else:
                    worse = change[name] < parent[name] * (1 - bound)
                if worse:
                    defects.append(
                        f"{label}: {workload['name']} {name} "
                        f"{parent[name]} -> {change[name]} is worse by "
                        f"more than {bound:.0%}"
                    )
    return defects


def test_committed_entries_pass_the_gate():
    bench = _load("BENCH_e2e.json")
    spec = _load("BENCHMARK.json")
    assert bench["entries"]
    assert e2e_defects(bench, spec) == []


def test_gate_reports_each_defect():
    bench = _load("BENCH_e2e.json")
    spec = _load("BENCHMARK.json")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    def doctored(edit):
        copy_ = copy.deepcopy(bench)
        edit(copy_["entries"][-1])
        return e2e_defects(copy_, spec)

    def slower(entry):  # lower is better: 25% past the bound
        medians = entry["workloads"]["adhoc"]
        medians["change"]["setup_s"] = (
            medians["parent"]["setup_s"] * (1 + bounds["setup_s"] * 1.25)
        )

    def less_throughput(entry):  # higher is better: 25% past the bound
        medians = entry["workloads"]["plan_cache"]
        medians["change"]["queries_per_s"] = (
            medians["parent"]["queries_per_s"]
            * (1 - bounds["queries_per_s"] * 1.25)
        )

    def drop_workload(entry):
        del entry["workloads"]["fullset_2col"]

    def incorrect(entry):
        entry["all_runs_correct"] = False

    def few_pairs(entry):
        entry["pairs"] = MIN_PAIRS - 1

    for edit, expected in (
        (slower, "adhoc setup_s"),
        (less_throughput, "plan_cache queries_per_s"),
        (drop_workload, "no fullset_2col workload"),
        (incorrect, "not all runs correct"),
        (few_pairs, "pairs < 10"),
    ):
        defects = doctored(edit)
        assert len(defects) == 1 and expected in defects[0], (edit, defects)

    wrong_unit = copy.deepcopy(bench)
    wrong_unit["units"]["setup_s"] = "ms"
    assert e2e_defects(wrong_unit, spec) == ["setup_s: unit 'ms', not 's'"]
