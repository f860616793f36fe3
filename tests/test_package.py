"""Package hygiene: a standard-library-only runtime, exports that exist, and
no code that the package itself never uses."""

import ast
import cProfile
import hashlib
import importlib
import importlib.util
import inspect
import json
import re
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import chainflow
from chainflow import scalars
from chainflow.cli import main
from chainflow.linalg import MultiPoly, PolyRing

SOURCES = sorted(Path(chainflow.__file__).parent.glob("*.py"))
EXPORTING = [m.__name__ for m in (
    importlib.import_module(f"chainflow.{p.stem}") for p in SOURCES
    if p.stem not in ("__init__", "__main__")) if hasattr(m, "__all__")]


def imported_roots(path):
    """Top-level names of the absolute imports in ``path``, with their line
    numbers; relative imports stay inside the package and are skipped."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.split(".")[0]


def unused_imports(path):
    """Names that ``path`` imports and never reads, with their line numbers.

    An import counts as read when its name occurs in the scope that holds
    the import: the module, or the function for a local import.  Names
    listed in the module's ``__all__`` are exports and count as read.
    """
    tree = ast.parse(path.read_text(), str(path))
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if scope is tree:
            read |= exported
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


def local_imports(path):
    """``(line, function name)`` of every import inside a function body."""
    tree = ast.parse(path.read_text(), str(path))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield node.lineno, fn.name


def _names(node, name):
    """Whether ``node`` is ``name`` or an attribute ``something.name``."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def field_choices(path):
    """Line of every ``QQ if ... else GF(...)``, in either order, in
    ``path``: a characteristic picking its prime field."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.IfExp):
            branches = (node.body, node.orelse)
            if (any(_names(b, "QQ") for b in branches)
                    and any(isinstance(b, ast.Call) and _names(b.func, "GF")
                            for b in branches)):
                yield node.lineno


# A key width or mask, or a value derived from one, by the names that the
# ``keys`` module gives them.
KEY_LAYOUT_NAME = re.compile(r"(?i)\w*(bits|mask)|guard")


def key_layout_uses(path):
    """``(line, what)`` of every bit shift in ``path``, every name or
    attribute of a key width or mask, and every ``KeyLayout`` built with a
    width of its own."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, (ast.LShift, ast.RShift))):
            yield node.lineno, "shift"
        elif isinstance(node, ast.Call) and _names(node.func, "KeyLayout"):
            yield node.lineno, "KeyLayout"
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and KEY_LAYOUT_NAME.fullmatch(name):
            yield node.lineno, name


# Definitions that nothing in the package refers to, and why they stay.
UNREFERENCED_ALLOWED = {
    # The benchmark tracer wraps these by module attribute: its traced pass
    # must find them where they are.
    "enumerate_matroidal": "wrapped by the benchmark tracer",
    "affine_combination": "wrapped by the benchmark tracer",
    # Public API that the tests exercise.
    "homotopy_from_json": "public API, exercised by tests",
    "stratified_from_json": "public API, exercised by tests",
}


def _references(tree):
    """Names, attribute names and string constants in ``tree``."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def unreferenced_definitions(paths):
    """``(file name, line, name)`` of every function, class and method in
    ``paths`` that no other code of ``paths`` refers to.

    A reference is a name, an attribute or a string equal to the defined
    name (``getattr(field, "clear_vector_denominators")`` counts), outside
    the definition itself and outside ``__all__``: listing a name for
    export is not a use of it.  Dunder methods are called by the language
    and are skipped.
    """
    trees = [(p, ast.parse(p.read_text(), str(p))) for p in paths]
    refs = Counter()
    for _, tree in trees:
        refs.update(_references(tree))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                refs.subtract(_references(node))
    for path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = sum(1 for r in _references(node) if r == node.name)
            if refs[node.name] <= own:
                yield path.name, node.lineno, node.name


def test_sources_are_found():
    assert {"flows", "linalg", "cli"} <= {p.stem for p in SOURCES}
    assert {"chainflow.flows", "chainflow.splittings"} <= set(EXPORTING)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_standard_library_or_chainflow(path):
    outside = [(line, root) for line, root in imported_roots(path)
               if root != "chainflow" and root not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("name", EXPORTING)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [e for e in exported if not hasattr(module, e)] == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "__init__"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert sorted(unused_imports(path)) == []


def test_unused_import_check_sees_local_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import os\nfrom sys import argv as av, path\n__all__ = ['path']\n"
        "def f():\n    from json import dumps, loads\n    return loads\n"
        "def g():\n    return os, dumps\n")
    assert sorted(unused_imports(src)) == [(2, "av"), (5, "dumps")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    assert sorted(local_imports(path)) == []


def test_local_import_check_sees_planted_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import os\n"
        "def f():\n    import json\n    return json\n"
        "class C:\n    def g(self):\n"
        "        def h():\n            from sys import argv\n"
        "            return argv\n        return h, os\n")
    assert sorted(local_imports(src)) == [(3, "f"), (8, "g"), (8, "h")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_scalars_picks_a_field_from_a_characteristic(path):
    # scalars.prime_field is the one place; any other module calls it
    want = 1 if path.stem == "scalars" else 0
    assert len(list(field_choices(path))) == want


def test_field_choice_check_sees_planted_choices(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from chainflow import scalars\n"
        "from chainflow.scalars import GF, QQ\n"
        "def f(p):\n    return QQ if p == 0 else GF(p)\n"
        "def g(p):\n    return scalars.GF(p) if p else scalars.QQ\n"
        "def h(p):\n    return QQ if p == 0 else GF\n"
        "def k(p):\n    return None if p == 0 else GF(p)\n")
    assert list(field_choices(src)) == [4, 6]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_keys_knows_the_key_layout(path):
    # keys.py packs exponents; any other module asks it
    uses = list(key_layout_uses(path))
    if path.stem == "keys":
        assert uses
    else:
        assert uses == []


def test_key_layout_check_sees_planted_uses(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from chainflow import keys\n"
        "YBITS = 8\n"
        "def f(k, F):\n"
        "    k >>= 8\n"
        "    return (k << 3) | F.keys.mask, F.keys.guard & k, {1} & {2}\n"
        "def g(names):\n"
        "    return keys.KeyLayout(names, 8), keys.field_keys(names)\n")
    assert sorted(key_layout_uses(src)) == [
        (2, "YBITS"), (4, "shift"), (5, "guard"), (5, "mask"), (5, "shift"),
        (7, "KeyLayout")]


def test_every_definition_is_used():
    unused = sorted(unreferenced_definitions(SOURCES))
    assert [u for u in unused if u[2] not in UNREFERENCED_ALLOWED] == []
    # An allowance that no longer covers an unreferenced definition goes.
    assert {name for _, _, name in unused} == set(UNREFERENCED_ALLOWED)


def test_unused_definition_check_sees_planted_def(tmp_path):
    used = tmp_path / "used.py"
    used.write_text(
        "__all__ = ['dead', 'Box']\n"
        "def helper():\n    return 1\n"
        "def dead():\n    return dead()\n"
        "class Box:\n"
        "    def __repr__(self):\n        return 'Box'\n"
        "    def size(self):\n        return helper()\n"
        "    def spare(self):\n        return 0\n")
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from used import Box\n"
        "def run(field):\n"
        "    return Box().size(), getattr(field, 'probe')()\n"
        "def probe():\n    return run\n")
    assert sorted(unreferenced_definitions([used, caller])) == [
        ("used.py", 4, "dead"), ("used.py", 11, "spare")]


# The Taylor start averaged over F_3(y), the lcm start split by
# Moore-Penrose over Q, and the bar start of a semigroup piece over F_2(y).
TRAFFIC_JOBS = [
    "resolve --fixture cycle3 --char 3 --start taylor",
    "resolve --fixture cycle2 --char 0 --start lcm --mode mp",
    "toric-resolve --fixture semigroup23 --char 2",
]
# Those, plus one job of every other subcommand and a resolve that also
# writes its field, homotopy and stratification.
GUARD_JOBS = TRAFFIC_JOBS + [
    "lattice --fixture cycle2",
    "matroidal --fixture cycle3 --start taylor",
    "counterexample --prime 2",
    "resolve --fixture cycle3 --char 5 --with-field",
]

# Why a package function that none of GUARD_JOBS runs may stay.
TRACER = "the benchmark tracer wraps it, or only such a function calls it"
READER = "a public JSON reader or a field's parse, or a helper of one"
ERROR = "an error path, or the text of an error message"
ORACLE = "test oracles compute with it"
# Each function, method and lambda of the package that none of GUARD_JOBS
# runs, by module and qualified name, with its reason.
IDLE_ALLOWED = {
    "flows.affine_combination": TRACER,
    "splittings.enumerate_matroidal": TRACER,
    "splittings._degree_options": TRACER,
    "splittings._build_homotopy": TRACER,
    "linalg.solve": TRACER,                 # only _degree_options
    "linalg.RingMatrix.scale": TRACER,      # only affine_combination
    "linalg.MultiPoly.scale": TRACER,       # only RingMatrix.scale
    "serialize.complex_from_json": READER,
    "serialize.homotopy_from_json": READER,
    "serialize.stratified_from_json": READER,
    "serialize.matrix_from_json": READER,
    "serialize.entry_from_map": READER,
    "serialize._integer": READER,
    "serialize._string": READER,
    "serialize._strings": READER,
    "scalars.field_from_descriptor": READER,
    "scalars.Rationals.parse": READER,
    "scalars.PrimeField.parse": READER,
    "scalars.FunctionField.parse": READER,
    "scalars.FunctionField._read_pd": READER,
    "keys.KeyLayout._range_error": ERROR,
    "linalg.MultiPoly.render": ERROR,       # StratifiedComplex.validate
    "linalg._renders_atomic": ERROR,        # only MultiPoly.render
    "linalg.PolyRing.var": ORACLE,
    "scalars.Rationals.mul": ORACLE,        # the add/mul fold of test_linalg
}
MODULES = [importlib.import_module(
    "chainflow" if p.stem == "__init__" else f"chainflow.{p.stem}")
    for p in SOURCES]
BENCH_REFERENCE = (Path(__file__).resolve().parent.parent / "bench"
                   / "reference.json")


def _functions(attr):
    """The plain functions behind a module or class attribute: the
    attribute itself, the function of a static or class method, or the
    accessors of a property."""
    if isinstance(attr, (staticmethod, classmethod)):
        attr = attr.__func__
    if isinstance(attr, property):
        return [f for f in (attr.fget, attr.fset, attr.fdel) if f is not None]
    return [attr] if inspect.isfunction(attr) else []


def defined_functions(module):
    """``(qualified name, code object)`` of the functions, methods and
    lambdas that the source file of ``module`` defines, nested ones
    included; comprehensions are left out."""
    def walk(name, code):
        yield name, code
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and (
                    const.co_name == "<lambda>"
                    or not const.co_name.startswith("<")):
                yield from walk(f"{name}.<locals>.{const.co_name}", const)

    owners = [module] + [v for v in vars(module).values()
                         if inspect.isclass(v)]
    for owner in owners:
        for attr in vars(owner).values():
            for f in _functions(attr):
                if f.__code__.co_filename == module.__file__:
                    yield from walk(f.__qualname__, f.__code__)


def idle_functions(modules, run):
    """``module.qualname`` of every function, method and lambda of
    ``modules`` that ``run()`` never enters.  Dunder methods are called by
    the language and are skipped, as in :func:`unreferenced_definitions`;
    the package prefix ``chainflow.`` is dropped."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
    ran = {entry.code for entry in profile.getstats()}
    return {f"{m.__name__.removeprefix('chainflow.')}.{name}"
            for m in modules for name, code in defined_functions(m)
            if code not in ran
            and not (code.co_name.startswith("__")
                     and code.co_name.endswith("__"))}


def test_every_package_function_runs_in_a_job(tmp_path):
    # A route that no job takes cannot creep into the package unseen.
    def run():
        for job in GUARD_JOBS:
            assert main(job.split() + ["--out", str(tmp_path / "a.json")]) == 0

    idle = idle_functions(MODULES, run)
    assert sorted(idle - set(IDLE_ALLOWED)) == []
    # An allowance for a function that now runs goes.
    assert sorted(set(IDLE_ALLOWED) - idle) == []
    assert set(IDLE_ALLOWED.values()) <= {TRACER, READER, ERROR, ORACLE}


def test_traffic_guard_sees_planted_idle_functions(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(
        "def used():\n    return Box.size(), (lambda: 0)()\n"
        "def idle():\n    return (lambda: 1)()\n"
        "class Box:\n"
        "    def __repr__(self):\n        return 'Box'\n"
        "    @staticmethod\n    def size():\n        return 2\n"
        "    @property\n    def spare(self):\n        return 3\n"
        "    @classmethod\n    def make(cls):\n"
        "        def inner():\n            return cls\n"
        "        return inner\n")
    spec = importlib.util.spec_from_file_location("planted", path)
    planted = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(planted)
    assert sorted(idle_functions([planted], planted.used)) == [
        "planted.Box.make", "planted.Box.make.<locals>.inner",
        "planted.Box.spare", "planted.idle", "planted.idle.<locals>.<lambda>"]


def test_jobs_reproduce_their_artifacts_with_read_only_terms(
        tmp_path, monkeypatch):
    # Entries are shared values, so no code may write into a term dict.
    digests = json.loads(BENCH_REFERENCE.read_text())
    init = MultiPoly.__init__

    def read_only(self, ring, terms):
        init(self, ring, types.MappingProxyType(terms))

    monkeypatch.setattr(MultiPoly, "__init__", read_only)
    assert isinstance(PolyRing(scalars.QQ, ()).one().terms,
                      types.MappingProxyType)
    for job in TRAFFIC_JOBS:
        out = tmp_path / "a.json"
        assert main(job.split() + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[job]


def field_protocol():
    """Names in the field protocol that the ``scalars`` docstring lists.

    The list is the paragraph after "package:"; each entry line is indented
    four spaces, and the names on it come before any ``--`` comment, with
    argument lists dropped.
    """
    block = scalars.__doc__.split("package:\n\n", 1)[1].split("\n\n", 1)[0]
    names = []
    for line in block.splitlines():
        if re.match(r"    \S", line):
            head = re.sub(r"\([^)]*\)", "", line.split("--")[0])
            names += [n.strip() for n in head.split(",")]
    return names


def test_fields_provide_the_protocol():
    protocol = field_protocol()
    assert protocol == ["char", "zero", "one", "add", "sub", "mul", "neg",
                        "inv", "is_zero", "eq", "from_int", "render", "parse",
                        "dot"]
    for field in (scalars.QQ, scalars.GF(5),
                  scalars.FunctionField(3, ["y[a][1]"])):
        assert [n for n in protocol if not hasattr(field, n)] == [], field
