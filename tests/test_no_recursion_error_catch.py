"""No module in src/mtk catches RecursionError.  Whether a search runs out
of interpreter frames depends on how deep its caller already is, so a
verdict read off that error would change with the call site.  Deep
searches keep their own stack instead."""

import ast
from pathlib import Path

import mtk

PACKAGE = Path(mtk.__file__).parent


def _names(node):
    """The names an except clause's type expression catches."""
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _names(elt)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


def recursion_error_catches(package: Path = PACKAGE) -> list[str]:
    """module:line for every except clause that names RecursionError."""
    return sorted(
        f"{path.stem}:{node.lineno}"
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and "RecursionError" in _names(node.type)
    )


def test_no_module_catches_recursion_error():
    assert recursion_error_catches() == []


def test_guard_sees_every_form_of_the_catch(tmp_path):
    (tmp_path / "m.py").write_text(
        "import builtins\n"
        "def f(g):\n"
        "    try:\n"
        "        g()\n"
        "    except RecursionError:\n"
        "        pass\n"
        "    try:\n"
        "        g()\n"
        "    except (ValueError, RecursionError) as e:\n"
        "        pass\n"
        "    try:\n"
        "        g()\n"
        "    except builtins.RecursionError:\n"
        "        pass\n"
        "    except ValueError:\n"
        "        pass\n"
    )
    assert recursion_error_catches(tmp_path) == ["m:13", "m:5", "m:9"]
