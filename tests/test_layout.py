"""Layout guard: the package carries no code that only the tests use, and
embeds no operator densely.

Every public top-level name of ``src/qracsim`` must be referenced, as a name
or an attribute, somewhere in ``src/`` or ``perfbench/`` outside its own
definition.  So must every public method and property of a public class, as
an attribute: a bare name of the same spelling, such as a local variable, is
not a use of the method.  Builders that serve only as test oracles belong in
``tests/reference.py``, as the state-vector primitive ``reference.apply`` and
the dense Bell projectors do.  No operator in ``src/`` is embedded densely as
``np.kron(np.eye(...), op)``; it is contracted with its own sites.  No file
in ``src/`` mentions ``numpy.random``: importing it costs about 5 MiB and
15-20 ms, and the stdlib ``random`` serves every seeded draw.  A dataclass in
``src/`` is a record that checks its inputs in ``__post_init__``; a record
that checks nothing is a ``NamedTuple``.  Every field of a record is read as
an attribute in ``src/`` or ``perfbench/``: a field that only the tests or
the record's own check read is left out, and a value that follows from the
other fields is a property.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qracsim"
PROGRAM_DIRS = ("src", "perfbench")


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


def _is_call(node: ast.AST, attr: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == attr


def test_no_dense_identity_embedding():
    embeddings = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _is_call(node, "kron") and any(_is_call(arg, "eye") for arg in node.args)
    ]
    assert embeddings == [], f"kron with an identity factor, contract the operator with its own sites: {embeddings}"


def test_no_numpy_random():
    mentions = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "numpy.random" in line or "np.random" in line
    ]
    assert mentions == [], f"numpy.random in src/, use the stdlib random: {mentions}"


def _is_dataclass_decorator(node: ast.AST) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass"


def test_every_dataclass_validates():
    unchecked = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(_is_dataclass_decorator(dec) for dec in node.decorator_list)
        and not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__" for item in node.body)
    ]
    assert unchecked == [], f"dataclasses without __post_init__, make them NamedTuples: {unchecked}"


# fields kept although no program code reads them: AsymOptimum.details holds the
# solver's health numbers for the summary.json that ROADMAP item 6 plans (reads of
# other records' details pass it by name today; the exemption does not lean on them)
UNREAD_FIELDS = {"AsymOptimum.details"}


def _is_record(node: ast.ClassDef) -> bool:
    named_tuple = any((base.id if isinstance(base, ast.Name) else None) == "NamedTuple" for base in node.bases)
    return named_tuple or any(_is_dataclass_decorator(dec) for dec in node.decorator_list)


def _record_fields(tree: ast.Module):
    """(Class.field, field name, the record's own check or else the field's
    line) for every field of a top-level NamedTuple or dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_record(node):
            check = next((item for item in node.body if getattr(item, "name", None) == "__post_init__"), None)
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id, check or item


def test_every_record_field_has_a_program_reader():
    # by name, as the method guard: a read of any record's field of that name counts.
    # The record's own methods are readers, since the method guard gives each a caller;
    # its __post_init__ check is not
    trees = _program_trees()
    definitions = [
        (label, name, node) for path in sorted(PACKAGE.glob("*.py")) for label, name, node in _record_fields(trees[path])
    ]
    assert UNREAD_FIELDS <= {label for label, _, _ in definitions}
    unread = [label for label in _unreferenced(trees, definitions, (ast.Attribute,)) if label not in UNREAD_FIELDS]
    assert unread == [], f"record fields with no reader in {', '.join(PROGRAM_DIRS)}: {unread}"
