"""Suppression pragmas honored by the linter.

A pragma is a source comment of one of the forms::

    # sia: allow-float          -- suppresses SIA001/SIA002/SIA003
    # sia: allow-mutation       -- suppresses SIA006
    # sia: allow(SIA004,SIA005) -- suppresses the listed rule ids

A pragma suppresses matching findings on its own line.  When the
pragma starts a comment-only line, the suppression extends through the
rest of that comment block to the first code line after it, so a
sanctioned exception can carry a multi-line justification::

    # sia: allow-float -- documented learn-boundary crossing: the SVM
    # is float-native; rationalization restores exactness downstream.
    bias = float(w[dim] * BIAS_SCALE)

Free-form prose may also follow an inline pragma after ``--``.
"""

from __future__ import annotations

import re

_PRAGMA_RE = re.compile(
    r"#\s*sia:\s*(allow-float|allow-mutation|allow\(([A-Z0-9,\s]+)\))"
)

_FLOAT_RULES = frozenset({"SIA001", "SIA002", "SIA003"})
_MUTATION_RULES = frozenset({"SIA006"})


def extract_pragmas(source: str) -> dict[int, frozenset[str]]:
    """Map of 1-based line number -> rule ids suppressed on that line."""
    out: dict[int, frozenset[str]] = {}
    lines = source.splitlines()
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        kind = match.group(1)
        if kind == "allow-float":
            rules = _FLOAT_RULES
        elif kind == "allow-mutation":
            rules = _MUTATION_RULES
        else:
            rules = frozenset(
                part.strip()
                for part in match.group(2).split(",")
                if part.strip()
            )
        out[lineno] = out.get(lineno, frozenset()) | rules
        if not text.lstrip().startswith("#"):
            continue
        # A pragma opening a comment block covers the whole block and
        # the first code line after it, so the sanctioned exception can
        # carry a multi-line justification.
        cursor = lineno  # 0-based index of the line after the pragma
        while cursor < len(lines) and lines[cursor].lstrip().startswith("#"):
            out[cursor + 1] = out.get(cursor + 1, frozenset()) | rules
            cursor += 1
        # Decorator lines are not where findings anchor (the linter
        # reports at the ``def``/``class`` line), so a pragma block
        # above a decorated definition extends past the decorators to
        # the definition line itself.
        while cursor < len(lines) and lines[cursor].lstrip().startswith("@"):
            out[cursor + 1] = out.get(cursor + 1, frozenset()) | rules
            cursor += 1
        if cursor < len(lines):
            out[cursor + 1] = out.get(cursor + 1, frozenset()) | rules
    return out


def is_suppressed(
    pragmas: dict[int, frozenset[str]], line: int, rule: str
) -> bool:
    """Whether ``rule`` is pragma-suppressed at ``line``."""
    return rule in pragmas.get(line, frozenset())
