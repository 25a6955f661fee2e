"""The README's "Library" example runs as printed and gives its commented results."""

import ast
import re
from pathlib import Path

from fmgames.corpus import edge_structure, loop_structure
from fmgames.structures import serialize_structure

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block(tmp_path, monkeypatch):
    (tmp_path / "edge.fms").write_text(serialize_structure(edge_structure()))
    (tmp_path / "loop.fms").write_text(serialize_structure(loop_structure()))
    monkeypatch.chdir(tmp_path)
    source = _library_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], []), "README.md", "exec")
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        # an expression's expected value is the comment ending its last line
        expected = ast.literal_eval(lines[stmt.end_lineno - 1].split("#", 1)[1].strip())
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert got == expected, ast.unparse(stmt)
        checked.append(expected)
    assert checked == [False, True, None, (True, False)]
