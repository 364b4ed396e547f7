"""Rules about the test suite itself."""

import ast
import importlib.util
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


def unread_parameters(source, filename):
    """(line, function, parameter) of each parameter that its function
    never reads, in line order.  A read is a load of the name anywhere in the body,
    nested functions included; the self or cls of a method (its first
    parameter, unless it is a staticmethod) is not counted."""
    tree = ast.parse(source, filename)
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods.update(id(item) for item in node.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                           and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                       for d in item.decorator_list))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        if id(node) in methods:
            params = params[1:]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out += [(node.lineno, name, p) for p in params if p not in read]
    return sorted(out)


def test_unread_parameter_rule_sees_leftovers():
    source = ("class C:\n"
              "    def method(self, used, unused):\n"
              "        return used\n"
              "    @staticmethod\n"
              "    def static(first):\n"
              "        return 0\n"
              "def outer(a, b, *rest, key=None, **extra):\n"
              "    def inner(c):\n"
              "        return a + c\n"
              "    b = 1\n"
              "    return inner, rest, extra\n"
              "square = lambda x, y: x * x\n")
    assert unread_parameters(source, "example.py") == [
        (2, "method", "unused"), (5, "static", "first"), (7, "outer", "b"),
        (7, "outer", "key"), (12, "<lambda>", "y")]


def test_package_functions_read_every_parameter():
    unread = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                found = unread_parameters(fh.read(), path)
            if found:
                unread[name] = found
    assert not unread, unread


def unreferenced_definitions(sources, exported):
    """(file, line, name) of each module-level function or class that is
    not in exported and is referenced nowhere in sources outside its own
    definition, in file and line order.  sources maps file names to
    module sources; a reference is a Name or an attribute with the name,
    so an import alone is none."""
    trees = {filename: ast.parse(source, filename) for filename, source in sources.items()}
    used = {}
    for filename, tree in trees.items():
        inside = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inside.update((id(n), node.name) for n in ast.walk(node))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and inside.get(id(node)) != name:
                used.setdefault(name, set()).add(filename)
    out = []
    for filename, tree in sorted(trees.items()):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name not in exported and node.name not in used):
                out.append((filename, node.lineno, node.name))
    return out


def test_unreferenced_definition_rule_sees_leftovers():
    sources = {"a.py": ("def kept():\n"
                        "    return helper()\n"
                        "def helper():\n"
                        "    return 1\n"
                        "def recursive(n):\n"
                        "    return recursive(n - 1)\n"
                        "class Lonely:\n"
                        "    def method(self):\n"
                        "        return Lonely()\n"),
               "b.py": ("from a import recursive, Lonely\n"
                        "import a\n"
                        "def imported_only():\n"
                        "    return a.kept\n")}
    assert unreferenced_definitions(sources, {"kept"}) == [
        ("a.py", 5, "recursive"), ("a.py", 7, "Lonely"), ("b.py", 3, "imported_only")]


def test_package_defines_nothing_that_nothing_reaches():
    # a function or class of the package is either exported in
    # __init__.__all__ or used somewhere in the package
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    exported = set()
    for node in ast.parse(sources["__init__.py"]).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(elt.value for elt in node.value.elts)
    assert exported
    assert not unreferenced_definitions(sources, exported)


def test_trace_pins_methods_that_their_classes_define():
    # bench/trace.py wraps each (class, attribute) of its METHODS through
    # vars(class)[attribute], so a pinned method that moves to a base
    # class breaks the traced benchmark run; it is loaded by path under a
    # name that does not shadow the standard library's trace module
    path = os.path.join(os.path.dirname(os.path.dirname(PACKAGE)), "bench", "trace.py")
    spec = importlib.util.spec_from_file_location("bench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    pins = [(cls, attr) for methods in trace.METHODS.values() for cls, attr in methods]
    assert pins
    assert [(cls.__name__, attr) for cls, attr in pins if attr not in vars(cls)] == []
