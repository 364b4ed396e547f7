"""Rules about the test suite itself."""

import ast
import os

ORACLES = os.path.join(os.path.dirname(__file__), "oracles.py")
PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "quivdeform")


def test_oracles_import_nothing_from_the_package():
    # the oracles are the independent reference the checks are compared
    # with, so they never call the code under test
    with open(ORACLES, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), ORACLES)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "expected the oracles to import something"
    assert not [name for name in imported
                if name.startswith(".") or name.split(".")[0] == "quivdeform"], imported


def unused_imports(source, filename):
    """(line, name) of each name the module imports and never uses.  A use
    is a load of the name, or the name listed in __all__; an import
    statement with "noqa: F401" on one of its lines is a deliberate
    re-export and is skipped."""
    tree = ast.parse(source, filename)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("noqa: F401" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_rule_sees_leftovers():
    source = ("from .linalg import rank, span  # noqa: F401\n"
              "from .linalg import (FinDimAlgebra,\n"
              "                     rank)\n"
              "import os.path\n"
              "__all__ = ['FinDimAlgebra']\n"
              "os.path.join('a')\n")
    assert unused_imports(source, "example.py") == [(2, "rank")]


def test_package_modules_use_every_name_they_import():
    unused = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                found = unused_imports(fh.read(), path)
            if found:
                unused[name] = found
    assert not unused, unused
