"""Linter tests: every planted fixture violation is caught with the
right rule ID, file and line; sanctioned code yields zero findings."""

from pathlib import Path

import pytest

from repro.analysis import lint_file, lint_paths, zone_of
from repro.analysis.lint import BOUNDARY_ZONE, EXACT_ZONE, GENERAL_ZONE

FIXTURES = Path(__file__).parent / "fixtures"

PLANTED = [
    ("smt/sia001_float_literal.py", "SIA001", 3),
    ("smt/sia002_float_cast.py", "SIA002", 5),
    ("smt/sia003_float_equality.py", "SIA003", 5),
    ("smt/sia004_eval.py", "SIA004", 5),
    ("smt/sia005_bare_except.py", "SIA005", 7),
    ("smt/sia006_frozen_mutation.py", "SIA006", 5),
    ("smt/sia007_missing_slots.py", "SIA007", 8),
    ("smt/sia008_model_unchecked.py", "SIA008", 6),
    ("core/sia009_direct_solver.py", "SIA009", 5),
    ("core/sia010_direct_time.py", "SIA010", 6),
    ("core/sia010_aliased_import.py", "SIA010", 7),
    ("core/sia010_datetime_now.py", "SIA010", 7),
]


@pytest.mark.parametrize("filename,rule,line", PLANTED)
def test_planted_violation_is_caught(filename, rule, line):
    findings = lint_file(FIXTURES / filename)
    assert findings, f"{filename}: expected a finding"
    matching = [f for f in findings if f.rule == rule]
    assert matching, f"{filename}: no {rule} among {findings}"
    finding = matching[0]
    assert finding.line == line
    assert finding.file.endswith(filename)


@pytest.mark.parametrize("filename,rule,line", PLANTED)
def test_planted_violation_is_the_only_finding(filename, rule, line):
    findings = lint_file(FIXTURES / filename)
    assert {f.rule for f in findings} == {rule}


def test_clean_fixture_has_zero_findings():
    assert lint_file(FIXTURES / "smt" / "clean.py") == []


def test_pragmas_suppress_sanctioned_lines():
    assert lint_file(FIXTURES / "smt" / "pragma_sanctioned.py") == []


def test_pragmas_can_be_ignored_for_auditing():
    findings = lint_file(
        FIXTURES / "smt" / "pragma_sanctioned.py", honor_pragmas=False
    )
    assert {f.rule for f in findings} == {"SIA001", "SIA002", "SIA006"}


def test_sia010_exempts_the_obs_clock_module():
    from repro.analysis.lint import lint_source

    source = "import time\n\n\ndef now():\n    return time.perf_counter()\n"
    assert lint_source(source, Path("src/repro/obs/clock.py")) == []
    flagged = lint_source(source, Path("src/repro/core/clock.py"))
    assert {f.rule for f in flagged} == {"SIA010"}


def test_sia010_holds_the_rest_of_obs_to_the_rule():
    # The exemption is clock.py only: every other module in obs/ must
    # route through repro.obs.now() like everyone else.
    from repro.analysis.lint import lint_source

    source = "import time\n\n\ndef now():\n    return time.perf_counter()\n"
    for name in ("trace.py", "metrics.py", "replay.py", "clocks.py"):
        flagged = lint_source(source, Path(f"src/repro/obs/{name}"))
        assert {f.rule for f in flagged} == {"SIA010"}, name


def test_sia010_time_sleep_is_not_a_clock_read():
    # sleep() consumes time, it does not *read* the clock, so it is
    # legal anywhere, obs/ included.
    from repro.analysis.lint import lint_source

    source = "import time\n\ntime.sleep(0.5)\n"
    assert lint_source(source, Path("src/repro/obs/trace.py")) == []
    assert lint_source(source, Path("src/repro/bench/x.py")) == []


def test_sia010_covers_aliased_time_module():
    from repro.analysis.lint import lint_source

    source = "import time as _time\n\nt = _time.monotonic()\n"
    flagged = lint_source(source, Path("src/repro/bench/x.py"))
    assert {f.rule for f in flagged} == {"SIA010"}


def test_sia010_covers_from_imports_and_aliases():
    from repro.analysis.lint import lint_source

    source = (
        "from time import perf_counter\n"
        "from time import monotonic as mono\n"
        "\n"
        "a = perf_counter()\n"
        "b = mono()\n"
    )
    flagged = lint_source(source, Path("src/repro/bench/x.py"))
    assert [f.rule for f in flagged] == ["SIA010", "SIA010"]
    assert [f.line for f in flagged] == [4, 5]


def test_sia010_covers_datetime_family():
    from repro.analysis.lint import lint_source

    source = (
        "import datetime as dtmod\n"
        "from datetime import datetime, date\n"
        "\n"
        "a = dtmod.datetime.now()\n"
        "b = datetime.utcnow()\n"
        "c = date.today()\n"
    )
    flagged = lint_source(source, Path("src/repro/bench/x.py"))
    assert [f.rule for f in flagged] == ["SIA010"] * 3
    assert [f.line for f in flagged] == [4, 5, 6]


def test_sia010_ignores_unrelated_names():
    from repro.analysis.lint import lint_source

    source = (
        "from statistics import mean\n"
        "import datetime\n"
        "\n"
        "a = mean([1, 2])\n"
        "b = datetime.timedelta(seconds=3)\n"
        "c = datetime.datetime(2024, 1, 1)\n"
    )
    assert lint_source(source, Path("src/repro/bench/x.py")) == []


def test_lint_paths_walks_directories():
    findings, files = lint_paths([FIXTURES])
    assert files == len(list(FIXTURES.rglob("*.py")))
    rules = {f.rule for f in findings}
    assert {rule for _, rule, _ in PLANTED} <= rules


def test_overlapping_paths_are_examined_once():
    from repro.analysis.lint import iter_python_files

    once = iter_python_files([FIXTURES])
    overlapped = iter_python_files(
        [FIXTURES, FIXTURES / "smt", Path(str(FIXTURES)) / "." / "core"]
    )
    assert len(overlapped) == len(once)
    findings_once, files_once = lint_paths([FIXTURES])
    findings_twice, files_twice = lint_paths([FIXTURES, FIXTURES / "smt"])
    assert files_twice == files_once
    assert findings_twice == findings_once


def test_zone_classification():
    assert zone_of(Path("src/repro/smt/solver.py")) == EXACT_ZONE
    assert zone_of(Path("src/repro/predicates/expr.py")) == EXACT_ZONE
    assert zone_of(Path("src/repro/learn/svm.py")) == BOUNDARY_ZONE
    assert zone_of(Path("src/repro/engine/executor.py")) == GENERAL_ZONE


def test_float_literals_fine_outside_exact_zone(tmp_path):
    path = tmp_path / "engine" / "stats.py"
    path.parent.mkdir()
    path.write_text("RATE = 0.5\n")
    assert lint_file(path) == []


def test_float_cast_flagged_in_boundary_zone(tmp_path):
    path = tmp_path / "learn" / "model.py"
    path.parent.mkdir()
    path.write_text("def f(x):\n    return float(x)\n")
    findings = lint_file(path)
    assert [f.rule for f in findings] == ["SIA002"]


def test_sia009_only_fires_in_core_zone(tmp_path):
    source = "def f(x):\n    s = Solver()\n    s.add(x)\n    return s.check()\n"
    core = tmp_path / "core" / "probe.py"
    core.parent.mkdir()
    core.write_text(source)
    assert [f.rule for f in lint_file(core)] == ["SIA009"]
    smt = tmp_path / "smt" / "probe.py"
    smt.parent.mkdir()
    smt.write_text(source)
    assert lint_file(smt) == []


def test_sia009_pragma_escape(tmp_path):
    path = tmp_path / "core" / "probe.py"
    path.parent.mkdir()
    path.write_text(
        "def f(x):\n"
        "    s = Solver()  # sia: allow(SIA009)\n"
        "    s.add(x)\n"
        "    return s.check()\n"
    )
    assert lint_file(path) == []


def test_sanctioned_constructor_mutation_not_flagged(tmp_path):
    path = tmp_path / "smt" / "node.py"
    path.parent.mkdir()
    path.write_text(
        "class Node:\n"
        "    __slots__ = ('x',)\n"
        "    def __init__(self, x):\n"
        "        object.__setattr__(self, 'x', x)\n"
    )
    assert lint_file(path) == []
