"""Every name the package exports is read somewhere besides its export.

A name ``fmgames/__init__.py`` imports for export must be read, as a name
or as an attribute, in another module of the package, in the tests or in
the benchmark harness, outside its own definition.  An export left behind
when its last reader goes fails here.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "fmgames").glob("*.py"))
INIT = ROOT / "src" / "fmgames" / "__init__.py"
READERS = ([p for p in PACKAGE if p != INIT] + sorted((ROOT / "tests").glob("*.py"))
           + [ROOT / "perfbench" / "run.py"])
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(tree) -> Counter:
    """How often each name or attribute is read in ``tree``."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
    return reads


def test_no_orphaned_exports():
    exported = [alias.asname or alias.name
                for node in ast.parse(INIT.read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(exported) > 50
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in READERS]
    reads = sum(map(_reads, trees), Counter())
    # a read inside the definition itself, a recursive call, keeps nothing alive
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS) and node.name in exported:
                reads[node.name] -= _reads(node)[node.name]
    assert [name for name in exported if reads[name] <= 0] == []
