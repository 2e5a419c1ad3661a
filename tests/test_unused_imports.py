"""No module of the package, the test suite or the demos imports a name it never
uses, and no function there assigns a local it never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = (sorted(p for p in (ROOT / "src" / "fftriccati").glob("*.py")
                if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))
         + sorted((ROOT / "demos").glob("*.py")))


def imported_names(tree):
    """{bound name: line} for every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return used


def unused_imports(source):
    """(line, name) of each unused import; a "# noqa" import line is exempt."""
    tree = ast.parse(source)
    used = used_names(tree)
    lines = source.splitlines()
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in used and "# noqa" not in lines[line - 1])


def _own_nodes(func):
    """The nodes of a function's body, not descending into nested scopes."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def unread_locals(source):
    """(line, name) of each plain ``name = ...`` in a function body whose name the
    function (nested scopes included) never reads; a "_" name, a global or
    nonlocal name and a "# noqa" line are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        found += [(node.lineno, target.id) for node in _own_nodes(func)
                  if isinstance(node, ast.Assign) and "# noqa" not in lines[node.lineno - 1]
                  for target in node.targets if isinstance(target, ast.Name)
                  and not target.id.startswith("_") and target.id not in read]
    return sorted(found)


def test_detector_finds_unused_and_respects_all():
    src = ("import os\nimport numpy as np\nfrom a import b, c\n"
           "from d import e  # noqa: F401\n__all__ = ['c']\nnp.zeros(1)\n")
    assert unused_imports(src) == [(1, "os"), (3, "b")]


def test_no_unused_imports():
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for path in FILES for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports: " + ", ".join(found)


def test_local_detector_finds_unread_names():
    src = ("def f(x):\n    a = 1\n    b = 2\n    _c = 3\n    d = 4  # noqa\n"
           "    e = 5\n    def g():\n        h = 6\n        return e\n"
           "    i = j = 7\n    return b + g() + j\n\n\nk = 8\n")
    assert unread_locals(src) == [(2, "a"), (8, "h"), (10, "i")]


def test_no_unread_locals():
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for path in FILES for line, name in unread_locals(path.read_text())]
    assert not found, "unread locals: " + ", ".join(found)
