"""Exact-arithmetic purity audit (the known-crossings satellite).

Two guarantees:

1. With pragmas honored, the exact zone (``repro/smt/`` +
   ``repro/predicates/``) and the learn boundary produce **zero** float
   findings -- i.e. every crossing that exists is explicitly sanctioned
   in source.
2. With pragmas *ignored*, the set of files containing crossings is
   exactly the documented whitelist -- so a new float literal or cast
   anywhere else in the exact zone fails this test even if someone
   slaps a pragma on it without updating the whitelist here.
"""

from pathlib import Path

from repro.analysis import lint_paths

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

FLOAT_RULES = {"SIA001", "SIA002", "SIA003"}

# The documented float sites, by file.  repro/smt/sat.py holds the
# VSIDS activity heuristic (floats never reach theory arithmetic);
# repro/predicates/eval.py is the vectorised engine-evaluation
# boundary; the two learn/ files are the paper's float->Fraction
# crossing (DESIGN.md substitution table).
SANCTIONED_FILES = {
    "src/repro/smt/sat.py",
    "src/repro/predicates/eval.py",
    "src/repro/learn/svm.py",
    "src/repro/learn/rationalize.py",
}


def _float_findings(paths, *, honor_pragmas):
    findings, _ = lint_paths(paths, honor_pragmas=honor_pragmas)
    return [f for f in findings if f.rule in FLOAT_RULES]


def test_no_unsanctioned_crossing_in_exact_zone():
    findings = _float_findings(
        [SRC / "smt", SRC / "predicates"], honor_pragmas=True
    )
    assert findings == [], [f.render() for f in findings]


def test_learn_boundary_crossings_are_all_sanctioned():
    findings = _float_findings([SRC / "learn"], honor_pragmas=True)
    assert findings == [], [f.render() for f in findings]


def test_crossings_exist_only_in_documented_files():
    findings = _float_findings(
        [SRC / "smt", SRC / "predicates", SRC / "learn"], honor_pragmas=False
    )
    observed = {str(Path(f.file).relative_to(ROOT)) for f in findings}
    assert observed == SANCTIONED_FILES


def test_certify_is_exact_zone_despite_living_under_analysis():
    """The certificate auditor is promoted into the exact zone."""
    from repro.analysis.lint import EXACT_ZONE, lint_source, zone_of

    path = SRC / "analysis" / "certify.py"
    assert zone_of(path) == EXACT_ZONE
    findings = lint_source("x = 0.5\n", path, honor_pragmas=False)
    assert [f.rule for f in findings] == ["SIA001"]


def test_the_two_learn_crossings_are_where_documented():
    findings = _float_findings([SRC / "learn"], honor_pragmas=False)
    casts = sorted(
        (Path(f.file).name, f.rule) for f in findings if f.rule == "SIA002"
    )
    assert casts == [("rationalize.py", "SIA002"), ("svm.py", "SIA002")]
