"""Two source-level bans that no behavioural test can see: ``eval`` /
``exec`` (values are built explicitly, never from strings), and bare
``except:``, which would also swallow ``KeyboardInterrupt`` and the
solver's budget and type errors.  No exceptions, no pragmas."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _violations():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = f"{path.relative_to(SRC)}:{getattr(node, 'lineno', 0)}"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("eval", "exec")
            ):
                yield f"{where}: {node.func.id}()"
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                yield f"{where}: bare except"


def test_no_eval_exec_or_bare_except_in_src():
    assert list(_violations()) == []
