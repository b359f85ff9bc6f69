"""Every module-level function and class in src/mtk, private ones too,
and every public method of a public class, is referenced somewhere in
the package outside its own definition: code that only tests call
belongs under tests/, and a recursive helper's calls to itself do not
count as a use."""

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


def _definitions(tree):
    """(qualified name, node) for the functions and classes of a module
    and the public methods of its public classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unreferenced_names(trees: dict) -> list[str]:
    """module.name for each definition in trees, module -> ast, that no
    code outside its own body reads."""
    total = sum((_references(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if total[node.name] == _references(node)[node.name]
    )


def test_every_public_name_is_used_inside_the_package():
    trees = {
        p.stem: ast.parse(p.read_text())
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    }
    assert unreferenced_names(trees) == []


def test_a_private_helper_that_only_calls_itself_is_unused():
    source = "def _walk(n):\n    return _walk(n - 1)\n\n\ndef _used():\n    return 1\n\n\n_used()\n"
    assert unreferenced_names({"m": ast.parse(source)}) == ["m._walk"]
