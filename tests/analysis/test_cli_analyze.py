"""CLI contract of ``repro analyze``: exit codes and --json output."""

import json

import pytest

from repro.analysis import soundness
from repro.cli import main
from repro.predicates import Col, Column, Comparison, TRUE_PRED
from repro.predicates.expr import INTEGER
from repro.rewrite.rules import REWRITE_RULES, RewriteRule

X = Col(Column("t", "x", INTEGER))

# x = x <=> TRUE holds in two-valued logic but not in SQL (NULL = NULL
# is NULL), so the reverse direction fails: one SIA202 finding.
TRAP = RewriteRule(
    name="reflexive-as-equivalence",
    lhs=Comparison(X, "=", X),
    rhs=TRUE_PRED,
    equivalence=True,
)


@pytest.fixture
def unsound_registry(monkeypatch):
    monkeypatch.setattr(soundness, "REWRITE_RULES", (*REWRITE_RULES, TRAP))


def test_analyze_src_is_clean(capsys):
    # The headline acceptance criterion: every rewrite rule the tree
    # ships re-verifies through the solver.
    code = main(["analyze"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.rstrip().endswith("clean")
    assert f"verified {len(REWRITE_RULES)} rewrite rule(s)" in out


def test_analyze_unsound_rule_exits_one(unsound_registry, capsys):
    code = main(["analyze"])
    out = capsys.readouterr().out
    assert code == 1
    assert "SIA202" in out
    assert "reflexive-as-equivalence" in out


def test_analyze_json_output(unsound_registry, capsys):
    code = main(["analyze", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["version"] == 1
    assert payload["clean"] is False
    summary = payload["summary"]
    assert set(summary) == {
        "rules_checked", "obligations_discharged", "proofs_audited",
        "findings", "by_rule",
    }
    assert summary["rules_checked"] == len(REWRITE_RULES) + 1
    assert summary["findings"] == len(payload["findings"])
    assert summary["by_rule"] == {"SIA202": 1}
    (finding,) = payload["findings"]
    assert set(finding) == {
        "rule", "title", "file", "line", "col", "message", "hint", "pass",
    }
    assert finding["pass"] == "soundness"


def test_analyze_internal_error_exits_two(monkeypatch, capsys):
    def broken():
        raise RuntimeError("solver exploded")

    monkeypatch.setattr("repro.analysis.runner.check_registry", broken)
    code = main(["analyze"])
    err = capsys.readouterr().err
    assert code == 2
    assert "internal error" in err
