"""Every private function, method or class of the package is read.

No linter is a dependency, so this walks the syntax trees: a definition
under ``src/fmgames`` whose name starts with a single underscore must be
read, as a name or as an attribute, somewhere in the package, the tests or
the benchmark harness, outside its own body.  A helper left behind when its
last caller goes fails here.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "fmgames").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + [ROOT / "perfbench" / "run.py"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _reads(tree) -> Counter:
    """How often each name or attribute is read in ``tree``."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
    return reads


def test_no_dead_private_definitions():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    reads = sum(map(_reads, trees.values()), Counter())
    defined = [(path, node) for path in PACKAGE for node in ast.walk(trees[path])
               if isinstance(node, DEFINITIONS) and _private(node.name)]
    assert len(defined) > 20
    # a read inside the definition itself, a recursive call, keeps nothing alive
    dead = [f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}" for path, node in defined
            if reads[node.name] == _reads(node)[node.name]]
    assert dead == []
