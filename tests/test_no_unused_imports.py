"""No module in src/mtk other than __init__.py imports a name it never
uses.  An import nothing reads still ties the module to another one, and
after a refactor it is the first thing left behind.  __init__.py is the
package's export list: it imports names in order to re-export them."""

import ast
from pathlib import Path

import mtk

PACKAGE = Path(mtk.__file__).parent


def imported_names(tree: ast.Module) -> list[str]:
    """The names an import binds at the top of the module (the first part
    of a dotted `import a.b`); `from __future__` imports bind none."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def unused_imports(package: Path = PACKAGE) -> list[str]:
    """module.name for every imported name the module never reads."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        out += [f"{path.stem}.{name}" for name in imported_names(tree) if name not in used]
    return out


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports() == []


def test_the_check_sees_an_unused_import(tmp_path):
    (tmp_path / "used.py").write_text("from fractions import Fraction\nONE = Fraction(1)\n")
    (tmp_path / "unused.py").write_text(
        "from __future__ import annotations\nimport os.path\nfrom math import gcd, lcm\n"
        "def f(a: int) -> int:\n    return gcd(a, 2)\n"
    )
    (tmp_path / "__init__.py").write_text("from .used import ONE\n")
    assert unused_imports(tmp_path) == ["unused.os", "unused.lcm"]
