"""Every public module-level function and class in src/mtk, and every
public method of a public class, is referenced somewhere in the package
outside its own definition: code that only tests call belongs under
tests/."""

import ast
from collections import Counter
from pathlib import Path

import mtk

PACKAGE = Path(mtk.__file__).parent


def _references(node) -> Counter:
    """How often each name is read as an ast.Name or ast.Attribute under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _public_definitions(tree):
    """(qualified name, node) for the public functions and classes of a
    module and the public methods of its public classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unreferenced_public_names() -> list[str]:
    trees = {
        p.stem: ast.parse(p.read_text())
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    }
    total = sum((_references(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _public_definitions(tree)
        if total[node.name] == _references(node)[node.name]
    )


def test_every_public_name_is_used_inside_the_package():
    assert unreferenced_public_names() == []
