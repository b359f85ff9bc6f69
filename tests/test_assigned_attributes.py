"""Every attribute that src/mtk assigns, by `obj.name = ...` or by
`object.__setattr__(obj, "name", ...)`, is read somewhere in the package:
an attribute nothing reads is dead state."""

import ast
from pathlib import Path

import mtk

PACKAGE = Path(mtk.__file__).parent


def _assigned(node):
    """The attribute name an assignment node stores to, or None."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        return node.attr
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and len(node.args) == 3
        and isinstance(node.args[1], ast.Constant)
    ):
        return node.args[1].value
    return None


def unread_attributes() -> list[str]:
    assigned: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = _assigned(node)
            if name is not None:
                assigned.setdefault(name, f"{path.stem}:{node.lineno}")
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{where} {name}" for name, where in assigned.items() if name not in read)


def test_every_assigned_attribute_is_read_inside_the_package():
    assert unread_attributes() == []
