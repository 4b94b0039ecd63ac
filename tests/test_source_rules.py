"""Rules the package source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

import steinerkit

PACKAGE = Path(steinerkit.__file__).resolve().parent


def nodes_where(predicate) -> list[str]:
    """``path:line`` of every syntax node in the package that matches."""
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    return [f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
            for path in files
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if predicate(node)]


def test_no_assert_statements():
    """Invariants are explicit checks that raise, because ``python -O``
    strips every ``assert``."""
    assert nodes_where(lambda node: isinstance(node, ast.Assert)) == []


def test_no_constant_true_loops():
    """Every loop is bounded by its own test: a ``while True`` that ends only
    at a ``break`` hangs on the input whose break never comes."""
    assert nodes_where(lambda node: isinstance(node, ast.While)
                       and isinstance(node.test, ast.Constant)
                       and bool(node.test.value)) == []
