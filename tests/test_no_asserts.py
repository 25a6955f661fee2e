"""Bug sentinels in the package must be real exceptions.

``python -O`` strips ``assert`` statements, and the command line does not
catch ``AssertionError``, so neither form may appear under ``src/fmgames``.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "fmgames"


def _raises_assertion_error(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_sentinels_in_package():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Raise) and node.exc is not None
                    and _raises_assertion_error(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
