"""Layout guard: the package carries no code that only the tests use.

Every public top-level name of ``src/qracsim`` must be referenced, as a name
or an attribute, somewhere in ``src/``, ``scripts/`` or ``perfbench/``
outside its own definition.  So must every public method and property of a
public class, as an attribute: a bare name of the same spelling, such as a
local variable, is not a use of the method.  Builders that serve only as
test oracles belong in ``tests/reference.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qracsim"
PROGRAM_DIRS = ("src", "scripts", "perfbench")


def _program_trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text()) for d in PROGRAM_DIRS for path in sorted((ROOT / d).rglob("*.py"))}


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


def _public_methods(tree: ast.Module):
    """(Class.method, method name, defining node) for every public method or
    property of a public top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _unreferenced(trees, definitions, kinds) -> list[str]:
    """Labels of the definitions whose name no node of the given kinds uses
    outside the definition itself."""
    references: dict[str, list[int]] = {}  # name -> ids of the nodes that use it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, kinds):
                name = node.attr if isinstance(node, ast.Attribute) else node.id
                references.setdefault(name, []).append(id(node))
    unreferenced = []
    for label, name, definition in definitions:
        own = {id(n) for n in ast.walk(definition)}
        if all(ref in own for ref in references.get(name, [])):
            unreferenced.append(label)
    return unreferenced


def test_every_public_name_has_a_program_caller():
    trees = _program_trees()
    definitions = [
        (f"{path.name}:{name}", name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, node in _public_definitions(trees[path])
    ]
    unreferenced = _unreferenced(trees, definitions, (ast.Name, ast.Attribute))
    assert unreferenced == [], f"public names with no caller in {', '.join(PROGRAM_DIRS)}: {unreferenced}"


def test_every_public_method_has_a_program_caller():
    trees = _program_trees()
    definitions = [
        (f"{path.name}:{label}", name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for label, name, node in _public_methods(trees[path])
    ]
    unreferenced = _unreferenced(trees, definitions, (ast.Attribute,))
    assert unreferenced == [], f"public methods with no caller in {', '.join(PROGRAM_DIRS)}: {unreferenced}"
