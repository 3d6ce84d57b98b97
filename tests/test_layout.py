"""Layout guard: the package carries no code that only the tests use.

Every public top-level name of ``src/qracsim`` must be referenced, as a name
or an attribute, somewhere in ``src/``, ``scripts/`` or ``perfbench/``
outside its own definition.  Builders that serve only as test oracles
belong in ``tests/reference.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qracsim"
PROGRAM_DIRS = ("src", "scripts", "perfbench")


def _public_definitions(tree: ast.Module):
    """(name, defining node) for every public top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def test_every_public_name_has_a_program_caller():
    trees = {path: ast.parse(path.read_text()) for d in PROGRAM_DIRS for path in sorted((ROOT / d).rglob("*.py"))}
    references: dict[str, list[int]] = {}  # name -> ids of the Name / Attribute nodes that use it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append(id(node))
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, definition in _public_definitions(trees[path]):
            own = {id(n) for n in ast.walk(definition)}
            if all(ref in own for ref in references.get(name, [])):
                unreferenced.append(f"{path.name}:{name}")
    assert unreferenced == [], f"public names with no caller in {', '.join(PROGRAM_DIRS)}: {unreferenced}"
