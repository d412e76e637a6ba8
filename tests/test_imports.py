"""No module of the package or of its tests imports a name it never uses,
and no private helper of the package outlives its last caller.

The scan reads each `src/secgroups/*.py` and `tests/*.py` with the standard
`ast` module: every name an import statement binds must be read somewhere
in that module, as a bare name or as the head of an attribute chain.  The
package `__init__.py` is exempt: its imports are the public re-exports.

A module-level function or class of the package whose name starts with one
underscore must be named, as a bare name, an attribute or an imported name,
by some top-level statement of the package other than its own definition.

No package module imports an underscore name from another package
module: a rule that two modules need is public in the one that owns it.

A public function or class of `intlinalg` must be named the same way, or
as a string, by some top-level statement of the package or of the
benchmark (`perfbench/`, its tests excepted) other than its own
definition: tests alone do not keep a kernel helper alive.

No package module but `intlinalg` calls `smith_normal_form`, one exempt
site excepted (`SNF_CALLERS`, with its reason): a lattice question is asked
of an `intlinalg.Lattice`, which holds the certificate.

Every parameter with a default of a function or method of the package must
be set, by keyword or by position, by some call in the package or the
benchmark that names it: an option that no caller sets is a constant.
Calls in tests do not count.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "secgroups"
PACKAGE_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in PACKAGE_MODULES if p.name != "__init__.py"]
TEST_MODULES = sorted(TESTS.glob("*.py"))
BENCH_MODULES = sorted(p for p in (TESTS.parent / "perfbench").glob("*.py")
                       if not p.name.startswith("test_"))


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in `source` that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return ["%s (line %d)" % (name, line)
            for name, line in sorted(bound.items(), key=lambda t: t[1])
            if name not in read]


def test_the_scan_sees_an_unused_import():
    source = ("from .a import used, unused\n"
              "import os.path\n"
              "def f():\n"
              "    return used + os.sep\n")
    assert unused_imports(source) == ["unused (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def orphaned_helpers(sources: dict) -> list[str]:
    """The private module-level functions and classes (`module._name`) of
    the modules in `sources` (module name -> text) that no top-level
    statement of any of them names, their own definitions excepted."""
    helpers = {}
    named = []
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_")
                    and not stmt.name.startswith("__")):
                helpers["%s.%s" % (module, stmt.name)] = (stmt, stmt.name)
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            named.append((stmt, names))
    return sorted(key for key, (own, name) in helpers.items()
                  if not any(name in names
                             for stmt, names in named if stmt is not own))


def test_the_scan_sees_an_orphaned_helper():
    sources = {
        "a": ("def _local():\n    return 1\n"
              "def _shared():\n    return 2\n"
              "class _Orphan:\n    pass\n"
              "def _recursive():\n    return _recursive()\n"
              "def f():\n    return _local()\n"),
        "b": "from .a import _shared\n",
    }
    assert orphaned_helpers(sources) == ["a._Orphan", "a._recursive"]


def test_no_orphaned_private_helpers():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE_MODULES}
    assert orphaned_helpers(sources) == []


def private_imports(source: str) -> list[str]:
    """The underscore names that `source`, a package module, imports from
    another package module (a relative import)."""
    return ["%s (line %d)" % (alias.name, node.lineno)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_the_scan_sees_a_private_import():
    source = ("from __future__ import annotations\n"
              "from os import _exit\n"
              "from .a import public, _private\n"
              "def f():\n"
              "    from . import _inner\n"
              "    return public, _private, _inner, _exit\n")
    assert private_imports(source) == ["_private (line 3)", "_inner (line 5)"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_package_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def unnamed_public_functions(module: str, sources: dict) -> list[str]:
    """The public module-level functions and classes of `module`, a key of
    `sources` (module name -> text), that no top-level statement of any
    source names, their own definitions excepted, as a bare name, an
    attribute, an imported name or a string (the benchmark wraps library
    functions by name)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    public = {stmt.name: stmt for stmt in trees[module].body
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_")}
    named = []
    for tree in trees.values():
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    names.add(node.value)
            named.append((stmt, names))
    return sorted("%s.%s" % (module, name) for name, own in public.items()
                  if not any(name in names
                             for stmt, names in named if stmt is not own))


def test_the_scan_sees_an_unnamed_public_function():
    sources = {
        "la": ("def used():\n    return 1\n"
               "def wrapped():\n    return 2\n"
               "def inner():\n    return 3\n"
               "def outer():\n    return inner()\n"
               "def dead():\n    return dead()\n"
               "class Dead:\n    pass\n"
               "def _private():\n    return 4\n"),
        "user": "from . import la\nX = la.used() + la.outer()\n",
        "bench": 'TARGETS = [("la", "wrapped")]\n',
    }
    assert unnamed_public_functions("la", sources) == ["la.Dead", "la.dead"]


def test_every_public_intlinalg_function_has_a_caller():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in PACKAGE_MODULES + BENCH_MODULES}
    assert unnamed_public_functions("intlinalg", sources) == []


def snf_call_sites(sources: dict) -> list[str]:
    """`module.name` for each call of `smith_normal_form`, and each import
    of it, in the modules of `sources` (module name -> text) other than
    `intlinalg`, named by the top-level function or class that holds it
    (`<module>` at the top level)."""
    out = []
    for module, text in sources.items():
        if module == "intlinalg":
            continue
        for stmt in ast.parse(text).body:
            for node in ast.walk(stmt):
                f = node.func if isinstance(node, ast.Call) else None
                name = (node.name if isinstance(node, ast.alias)
                        else f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                if name == "smith_normal_form":
                    out.append("%s.%s" % (module,
                                          getattr(stmt, "name", "<module>")))
    return sorted(out)


def test_the_scan_sees_an_snf_call():
    sources = {
        "intlinalg": ("def smith_normal_form(a):\n    return a\n"
                      "def kernel(a):\n    return smith_normal_form(a)\n"),
        "a": ("from . import intlinalg as la\n"
              "from .intlinalg import smith_normal_form as snf\n"
              "class G:\n"
              "    def __init__(self):\n"
              "        la.smith_normal_form([])\n"
              "def f():\n    return la.kernel([])\n"),
    }
    assert snf_call_sites(sources) == ["a.<module>", "a.G"]


# the one site outside intlinalg that runs an SNF itself, with its reason
SNF_CALLERS = {
    "nil2._projection_twist": "it solves T G == -C for a matrix T, one "
                              "`Lattice.divide` in the quotient's central "
                              "layer per diagonal entry of the SNF of G; "
                              "as one Lattice on T's nc * nq unknowns it "
                              "would run another, larger SNF and pick "
                              "another T, which the quotient's projection "
                              "carries",
}


def test_only_intlinalg_runs_a_smith_normal_form():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert snf_call_sites(sources) == sorted(SNF_CALLERS)


def _calls(node, cls=None):
    """(name, call) for each call under node: the bare or attribute name
    it calls, and for `cls(...)` the name of the enclosing class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            f = child.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if name == "cls":
                name = cls
            if name:
                yield name, child
        yield from _calls(child, child.name
                          if isinstance(child, ast.ClassDef) else cls)


def _defaulted(module, cls, fn):
    """(label, called name, position, parameter) for each parameter of fn
    with a default; a method's positions skip self or cls unless it is a
    static method, and a keyword-only parameter has no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    skip = 1 if cls and not static else 0
    label = "%s.%s" % (module, "%s.%s" % (cls, fn.name) if cls else fn.name)
    callee = cls if fn.name == "__init__" else fn.name
    first = len(positional) - len(args.defaults)
    for i in range(first, len(positional)):
        name = positional[i].arg
        yield "%s(%s)" % (label, name), callee, i - skip, name
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield "%s(%s)" % (label, arg.arg), callee, None, arg.arg


def _sets(call, position, name):
    """Does the call set the parameter, by keyword or by position?  A
    starred argument or a ** mapping may set any it reaches."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and any(
        i == position or isinstance(a, ast.Starred)
        for i, a in enumerate(call.args[:position + 1]))


def unset_options(modules: dict, callers: list) -> list[str]:
    """The defaulted parameters of the module-level functions and methods
    of `modules` (module name -> text) that no call in `callers` (texts)
    sets, as `module.function(parameter)` or
    `module.Class.method(parameter)`.  A call reaches a function by its
    bare or attribute name, and `__init__` by the class name (or `cls`
    inside the class)."""
    params = []
    for module, text in modules.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, ast.FunctionDef):
                params += _defaulted(module, None, stmt)
            elif isinstance(stmt, ast.ClassDef):
                params += [p for item in stmt.body
                           if isinstance(item, ast.FunctionDef)
                           for p in _defaulted(module, stmt.name, item)]
    calls = {}
    for text in callers:
        for name, call in _calls(ast.parse(text)):
            calls.setdefault(name, []).append(call)
    return sorted(label for label, callee, position, name in params
                  if not any(_sets(call, position, name)
                             for call in calls.get(callee, ())))


def test_the_scan_sees_an_option_no_call_sets():
    modules = {"m": ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                     "def g(x=0):\n    pass\n"
                     "def unused(y=0):\n    pass\n"
                     "class K:\n"
                     "    def __init__(self, p=0, q=0):\n        pass\n"
                     "    @classmethod\n"
                     "    def make(cls, r=0):\n        return cls(q=r)\n"
                     "    def meth(self, s=0, t=0):\n        pass\n"
                     "    @staticmethod\n"
                     "    def stat(u=0, v=0):\n        pass\n")}
    callers = [modules["m"],
               "from m import f, g, K\n"
               "f(0, 1, d=2)\n"
               "g(*[1])\n"
               "K().meth(1)\n"
               "K.stat(1)\n",
               "import m\nm.K.make(r=1)\n"]
    assert unset_options(modules, callers) == [
        "m.K.__init__(p)", "m.K.meth(t)", "m.K.stat(v)", "m.f(c)", "m.f(e)",
        "m.unused(y)"]


# the defaulted parameters no call in the package or the benchmark sets,
# each with its reason
UNSET_OPTIONS = {
    "cli.main(argv)": "the entry point: the console script calls it with "
                      "no arguments, so it reads sys.argv",
}


def test_every_option_is_set_by_some_call():
    """Calls in tests do not count: an option only a test sets is one no
    user of the package needs."""
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    callers = [p.read_text(encoding="utf-8")
               for p in PACKAGE_MODULES + BENCH_MODULES]
    assert unset_options(modules, callers) == sorted(UNSET_OPTIONS)
