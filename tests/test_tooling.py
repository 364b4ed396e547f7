"""Rules about the test suite itself."""

import ast
import os

ORACLES = os.path.join(os.path.dirname(__file__), "oracles.py")


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
