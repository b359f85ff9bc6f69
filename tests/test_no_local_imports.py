"""No function in src/mtk imports inside its body.  A function-local
import hides a dependency from the module header, and in mtk it was only
ever used to get round an import cycle; the modules import each other
in one direction, so every import belongs at the top of its module."""

import ast
from pathlib import Path

import mtk

PACKAGE = Path(mtk.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def local_imports(package: Path = PACKAGE) -> list[str]:
    """module.function for every function whose body holds an import."""
    return sorted(
        f"{path.stem}.{node.name}"
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, FUNCTIONS)
        and any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(node))
    )


def test_no_function_imports_in_its_body():
    assert local_imports() == []
