"""Every module-level import in the package, the tests and the benchmark
harness is used.

No linter is a dependency, so this walks the syntax trees: a name an
import binds at module level must be read somewhere in its module, as a
name, the base of an attribute, a string annotation or an ``__all__``
entry.  ``src/fmgames/__init__.py`` is left out: its imports are the
package's interface.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "fmgames").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))
MODULES.append(ROOT / "perfbench" / "run.py")


def _bound(node) -> list:
    """The ``(name, line)`` pairs a module-level import binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [((alias.asname or alias.name).split(".")[0], node.lineno) for alias in node.names]


def _read(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _read(ast.parse(ann.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def test_no_unused_module_level_imports():
    assert len(MODULES) > 10
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                           for name, line in _bound(node) if name not in read]
    assert unused == []
