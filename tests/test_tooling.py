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


def importers_of(module):
    """The package's files that import module, at any depth of their code."""
    importers = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                           else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                if module in modules:
                    importers.append(name)
    return importers


def test_only_fields_imports_fractions():
    # over Q a scalar is an int while it is an integer and a Fraction
    # otherwise; Field makes every one, so no other module builds a Fraction
    assert importers_of("fractions") == ["fields.py"]


def test_no_module_imports_re():
    # files and command lines are read with str methods, since compiling
    # the patterns cost each process more than reading its file; the
    # patterns are the reference in tests/oracles.py
    assert importers_of("re") == []


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
    so an import alone is none.  A dunder such as a module's __getattr__
    is a hook that the interpreter calls, and is not reported."""
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
                    and node.name not in exported and node.name not in used
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
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
                        "        return Lonely()\n"
                        "def __getattr__(name):\n"
                        "    return name\n"
                        "def __getattr(name):\n"
                        "    return name\n"),
               "b.py": ("from a import recursive, Lonely\n"
                        "import a\n"
                        "def imported_only():\n"
                        "    return a.kept\n")}
    assert unreferenced_definitions(sources, {"kept"}) == [
        ("a.py", 5, "recursive"), ("a.py", 7, "Lonely"), ("a.py", 12, "__getattr"),
        ("b.py", 3, "imported_only")]


def package_sources():
    """({file name: source} of the package's modules, the names of
    __init__.__all__)."""
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
    return sources, exported


def test_package_defines_nothing_that_nothing_reaches():
    # a function or class of the package is either exported in
    # __init__.__all__ or used somewhere in the package
    sources, exported = package_sources()
    assert exported
    assert not unreferenced_definitions(sources, exported)


def uncalled_methods(sources, exported):
    """(file, line, "Class.method") of each method of a module-level class
    not in exported whose name no Name or attribute in sources references
    outside the method's own body, in file and line order.  Dunders are
    hooks that the interpreter calls, and are not reported."""
    trees = {filename: ast.parse(source, filename) for filename, source in sources.items()}
    methods = [(filename, cls.name, item) for filename, tree in sorted(trees.items())
               for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name not in exported
               for item in cls.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (item.name.startswith("__") and item.name.endswith("__"))]
    inside = {id(n): item.name for _, _, item in methods for n in ast.walk(item)}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and inside.get(id(node)) != (node.id if isinstance(node, ast.Name) else node.attr)}
    return [(filename, item.lineno, "%s.%s" % (cls, item.name))
            for filename, cls, item in methods if item.name not in used]


def test_uncalled_method_rule_sees_leftovers():
    sources = {"a.py": ("class Kept:\n"
                        "    def __init__(self):\n"
                        "        self.used()\n"
                        "    def used(self):\n"
                        "        return 1\n"
                        "    def recursive(self):\n"
                        "        return self.recursive()\n"
                        "    def _helper(self):\n"
                        "        return 2\n"
                        "class Public:\n"
                        "    def api(self):\n"
                        "        return 3\n"),
               "b.py": ("def call(obj):\n"
                        "    return obj._helper\n")}
    assert uncalled_methods(sources, {"Public"}) == [("a.py", 6, "Kept.recursive")]


def test_src_keeps_no_unused_import_or_uncalled_helper():
    # no module of src/ imports a name it never uses, and every function,
    # class and method that __init__.__all__ does not export is reached
    # from the package's own code
    sources, exported = package_sources()
    assert {name: found for name, source in sources.items()
            for found in (unused_imports(source, name),) if found} == {}
    assert unreferenced_definitions(sources, exported) == []
    assert uncalled_methods(sources, exported) == []


def test_one_hochschild_differential():
    # _push is the differential of the package; its one caller is
    # full_differential, so a second differential cannot come back
    # unnoticed
    sources, _ = package_sources()
    callers = []
    for filename, source in sources.items():
        for func in ast.walk(ast.parse(source, filename)):
            if isinstance(func, ast.FunctionDef):
                callers += ["%s:%s" % (filename, func.name) for node in ast.walk(func)
                            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id == "_push"]
    assert callers == ["hochschild.py:full_differential"]


def load_trace():
    """bench/trace.py, loaded by path under a name that does not shadow
    the standard library's trace module."""
    path = os.path.join(os.path.dirname(os.path.dirname(PACKAGE)), "bench", "trace.py")
    spec = importlib.util.spec_from_file_location("bench_trace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace


def test_trace_pins_methods_that_their_classes_define():
    # bench/trace.py wraps each (class, attribute) of its METHODS through
    # vars(class)[attribute], so a pinned method that moves to a base
    # class breaks the traced benchmark run
    trace = load_trace()
    pins = [(cls, attr) for methods in trace.METHODS.values() for cls, attr in methods]
    assert pins
    assert [(cls.__name__, attr) for cls, attr in pins if attr not in vars(cls)] == []
    # the field operations that count_replacements counts are read the
    # same way, from vars(fields.Field)
    ops = [(cls, op) for cls, op, _ in trace.count_replacements({})]
    assert [op for _, op in ops] == ["mul", "add", "inv"]
    assert [(cls.__name__, op) for cls, op in ops if op not in vars(cls)] == []



# spans of bench/trace.py that name no function of the package: their
# time metric reads 0, or their time lands in the layer's other_s.  The
# benchmark change of the roadmap empties this set; until then a span
# that goes stale, or one that resolves again, fails the test below.
STALE_TRACE_SPANS = {
    "hochschild.cobound_solve", "hochschild.differential",
    "linalg.invert_matrix", "linalg.matmul", "linalg.nullspace", "linalg.rank",
    "linalg.rref", "linalg.solve",
    "morita._phi_operator", "morita._tensor_side", "morita.deform_structure_algebra",
    "morita.identity_context", "morita.regular_deformed_uple", "morita.tensor_over",
    "quiver.normal_form",
}


def test_trace_spans_resolve_in_their_modules():
    # every span that TIMES, CALLS, SIZED, HELPERS and SKIP name, as
    # module.function or module.Class.method, is an attribute of the
    # package module it names, except exactly the known stale ones
    from quivdeform import cli
    trace = load_trace()
    modules = dict(trace.LAYERS, cli=cli)
    spans = set(trace.SIZED) | set(trace.CALLS.values())
    spans.update(span for names in trace.TIMES.values() for span in names)
    for table in (trace.HELPERS, trace.SKIP):
        spans.update("%s.%s" % (layer, name) for layer, names in table.items()
                     for name in names)
    stale = set()
    for span in spans:
        owner, *path = span.split(".")
        owner = modules[owner]
        for attr in path:
            owner = getattr(owner, attr, None)
        if owner is None:
            stale.add(span)
    assert spans - stale
    assert stale == STALE_TRACE_SPANS

def test_readme_library_use_runs(monkeypatch, capsys):
    # the python block under "## Library use" in README.md, run from the
    # repository root as documented, so that the documented API cannot go
    # stale; its asserts check the values it describes
    root = os.path.dirname(os.path.dirname(PACKAGE))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "compute_basis" in block
    monkeypatch.chdir(root)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.startswith("5 1\n")


def test_package_exports_resolve_once():
    import quivdeform
    names = quivdeform.__all__
    assert len(names) == len(set(names)), [n for n in names if names.count(n) > 1]
    assert [n for n in names if not hasattr(quivdeform, n)] == []


def test_readme_names_every_command_and_option_of_the_parser():
    # the command block under "## Command line" lists the subcommands of
    # the parser's table, in its order, and the section names each option
    from quivdeform.cli import COMMANDS
    root = os.path.dirname(os.path.dirname(PACKAGE))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n", 2)[1]
    assert [line.split()[1] for line in block.splitlines()
            if line.startswith("quivdeform ")] == list(COMMANDS)
    options = {name for _, table, _, _ in COMMANDS.values() for name in table}
    assert len(options) == 8
    assert sorted(name for name in options | {"--help", "-h", "-o"}
                  if "`%s" % name not in section) == []


# transcripts whose input file the README names but the repository does
# not ship: shifted.alg is the user's own copy of two_cycle.alg with a
# cocycle moved by a coboundary
README_MISSING_INPUTS = {"shifted.alg"}


def readme_transcripts(readme):
    """(argv, expected stdout lines) of each "$ quivdeform ..." line in a
    fenced block of the README; the output runs to the next "$ " line or
    the end of the block, without trailing blank lines."""
    out = []
    for block in readme.split("```")[1::2]:
        current = None
        for line in block.splitlines():
            if line.startswith("$ "):
                current = (line[2:].split()[1:], [])
                out.append(current)
            elif current is not None:
                current[1].append(line)
    for _, lines in out:
        while lines and not lines[-1].strip():
            lines.pop()
    return out


def matches_transcript(expected, actual):
    """Whether the lines match, a line "..." standing for any run of lines."""
    if not expected:
        return not actual
    if expected[0] == "...":
        return any(matches_transcript(expected[1:], actual[k:])
                   for k in range(len(actual) + 1))
    return bool(actual) and actual[0] == expected[0] and \
        matches_transcript(expected[1:], actual[1:])


def test_transcript_matcher_sees_mismatches():
    assert matches_transcript(["a", "...", "d"], ["a", "b", "c", "d"])
    assert matches_transcript(["a", "...", "b"], ["a", "b"])
    assert not matches_transcript(["a", "...", "d"], ["a", "b", "c"])
    assert not matches_transcript(["a", "b"], ["a", "b", "c"])
    assert not matches_transcript(["a", "c"], ["a", "b"])


def test_readme_transcripts_run(monkeypatch, capsys):
    # every "$ quivdeform ..." transcript of README.md whose input files
    # the repository ships, run from the repository root: its stdout
    # matches the transcript line by line
    from quivdeform.cli import run
    root = os.path.dirname(os.path.dirname(PACKAGE))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        transcripts = readme_transcripts(fh.read())
    monkeypatch.chdir(root)
    ran, missing = 0, set()
    for argv, expected in transcripts:
        absent = {arg for arg in argv
                  if os.path.splitext(arg)[1] and not os.path.exists(arg)}
        if absent:
            missing |= absent
            continue
        run(argv)
        actual = capsys.readouterr().out.splitlines()
        assert matches_transcript(expected, actual), (argv, actual)
        ran += 1
    assert missing == README_MISSING_INPUTS
    assert ran >= 4
