"""Rules the package source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

import steinerkit

PACKAGE = Path(steinerkit.__file__).resolve().parent


def test_no_assert_statements():
    """Invariants are explicit checks that raise, because ``python -O``
    strips every ``assert``."""
    files = sorted(PACKAGE.rglob("*.py"))
    found = [f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert files
    assert found == []
