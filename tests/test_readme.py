"""The README's "Library" example runs as printed and gives its commented
results, and its "Command line" examples run as printed."""

import ast
import io
import re
import shlex
from pathlib import Path

from fmgames import cli
from fmgames.corpus import KRIPKE_VOCAB, clique, edge_structure, linear_order, loop_structure
from fmgames.structures import Structure, serialize_structure

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


def _kripke(edges, props, name):
    elems = sorted({w for edge in edges for w in edge} | {"a"})
    return Structure.make(KRIPKE_VOCAB, elems, {"R": edges, "P": [(w,) for w in props]},
                          point="a", name=name)


def test_readme_command_lines(tmp_path, monkeypatch, capsys):
    """Every ``fmgames`` line of the "Command line" section, in order, on the
    structures its file names stand for: each exits 0 or 1 (a verdict),
    never 2 (an error such as a file no earlier line builds)."""
    structures = {
        "L3": linear_order(3), "L4": linear_order(4), "K2": clique(2), "K3": clique(3),
        "edge": edge_structure(), "loop": loop_structure(),
        "chain": _kripke([("a", "b"), ("b", "c")], ["c"], "chain"),
        "ma": _kripke([("a", "b"), ("a", "c")], ["b"], "ma"),
        "mb": _kripke([("a", "b")], [], "mb"),
    }
    for name, st in structures.items():
        (tmp_path / f"{name}.fms").write_text(serialize_structure(st))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line"):text.index("## Library")]
    commands = [line for line in section.splitlines() if line.startswith("fmgames ")]
    assert commands
    for line in commands:
        try:
            code = cli.main(shlex.split(line)[1:])
        except SystemExit as exc:  # an argument argparse refuses
            code = exc.code
        assert code in (0, 1), (line, capsys.readouterr().err)
