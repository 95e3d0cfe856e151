"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "igl"


def test_package_holds_no_assert_statement():
    """``python -O`` strips ``assert`` statements, so a check written as
    one would pass whatever it checks; ``verify``'s checks are
    comparisons."""
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
