"""No nested function in src/mtk reaches itself through the nested
functions of its own scope: such a closure holds a cell that refers back
to the function, so every call leaves a reference cycle (and whatever
the closure captured) for the cyclic collector.  Recursive searches are
module-level functions that take their state as arguments."""

import ast
from pathlib import Path

import mtk

PACKAGE = Path(mtk.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scopes(node, qualname: str):
    """(qualified name, node) for every function under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
            name = f"{qualname}.{child.name}"
            if isinstance(child, FUNCTIONS):
                yield name, child
            yield from _scopes(child, name)
        else:
            yield from _scopes(child, qualname)


def _nested_functions(scope):
    """The functions defined in scope's body, not inside a nested one."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, FUNCTIONS):
            yield node
        elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _on_a_cycle(scope):
    """Names of scope's nested functions that reach themselves through
    references among scope's nested functions."""
    nested = {f.name: f for f in _nested_functions(scope)}
    refs = {
        name: {n.id for n in ast.walk(f) if isinstance(n, ast.Name) and n.id in nested}
        for name, f in nested.items()
    }
    for name in nested:
        seen, todo = set(), list(refs[name])
        while todo:
            g = todo.pop()
            if g not in seen:
                seen.add(g)
                todo.extend(refs[g])
        if name in seen:
            yield name


def recursive_closures(package: Path = PACKAGE) -> list[str]:
    return sorted(
        f"{qualname}.{name}"
        for path in package.glob("*.py")
        for qualname, scope in _scopes(ast.parse(path.read_text()), path.stem)
        for name in _on_a_cycle(scope)
    )


def test_no_nested_function_reaches_itself():
    assert recursive_closures() == []


def test_guard_sees_direct_and_mutual_recursion(tmp_path):
    (tmp_path / "m.py").write_text(
        "def outer():\n"
        "    def rec(i):\n"
        "        return i and rec(i - 1)\n"
        "    def even(i):\n"
        "        return i == 0 or odd(i - 1)\n"
        "    def odd(i):\n"
        "        return i != 0 and even(i - 1)\n"
        "    def leaf(i):\n"
        "        return even(i)\n"
        "    return rec, leaf\n"
        "class C:\n"
        "    def method(self):\n"
        "        def walk(node):\n"
        "            return [walk(c) for c in node]\n"
        "        return walk\n"
    )
    assert recursive_closures(tmp_path) == [
        "m.C.method.walk",
        "m.outer.even",
        "m.outer.odd",
        "m.outer.rec",
    ]
