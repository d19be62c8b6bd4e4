"""No module of the package imports a name at module level that it never
uses, or anything from a sibling module inside a function or class; no
module-level private function or class goes unreferenced in the package,
no public function, class or method goes unmentioned in the repository,
no function has a parameter it never reads, every parameter default is
overridden by some call, only ``Frozen`` overrides ``__setattr__`` or
calls ``object.__new__``, only the two subgroup-class types write their
own ``__eq__`` or ``__hash__``, no module of the package calls ``apply_endo``,
every ``__slots__`` field of a package class is read somewhere, the
package imports nothing outside itself and the standard library, the
CLI imports neither ``dataclasses`` nor ``inspect``, and every
``module.name`` that the README names exists.  There is no linter in the toolchain, so these stdlib ``ast``
checks stand in for one."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aperiodic_lab"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def used_names(tree: ast.Module) -> set:
    """Every name the module loads, including those inside quoted
    annotations and those it re-exports through ``__all__``."""
    trees = [tree]
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    names = {
        node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = used_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import List, Optional\n"
        "from .words import Word\n"
        "__all__ = ['Word']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [x]\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "osp")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def function_level_sibling_imports(source: str) -> list:
    """(line, module) of every import from a sibling module inside a
    function or class, ``from . import name`` included (module ``None``).
    The package's modules import one another in a fixed order, so an
    import that would close a cycle at load time is a layering fault to
    mend, not to hide in a function body."""
    tree = ast.parse(source)
    return sorted(
        (node.lineno, node.module)
        for scope in tree.body
        if not isinstance(scope, (ast.Import, ast.ImportFrom))
        for node in ast.walk(scope)
        if isinstance(node, ast.ImportFrom) and node.level >= 1
    )


def test_checker_finds_function_level_sibling_import():
    source = (
        "from .words import Word\n"
        "from . import graphs\n"
        "import os\n"
        "def f():\n"
        "    from .words import word_str\n"
        "    from .homology import det\n"
        "    from collections import Counter\n"
        "    return word_str, det, Counter\n"
        "class C:\n"
        "    def g(self):\n"
        "        from . import rtt\n"
        "        return rtt\n"
    )
    assert function_level_sibling_imports(source) == [
        (5, "words"), (6, "homology"), (11, None)
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_import_of_a_module_imported_at_top(path):
    assert function_level_sibling_imports(path.read_text()) == []


def unreferenced_private_definitions(sources: dict) -> list:
    """(module, name) of every module-level ``_private`` function or class
    that no statement of any module refers to, its own definition aside.
    A reference is a loaded name, an attribute, or a name imported with
    ``from ... import``."""
    defined = []
    referenced = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = used_names(ast.Module(body=[node], type_ignores=[]))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    names.update(alias.name for alias in sub.names)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((module, node.name))
            referenced |= names
    return sorted(d for d in defined if d[1] not in referenced)


def test_checker_finds_unreferenced_private_definition():
    sources = {
        "a.py": (
            "def _dead(n):\n"
            "    return _dead(n - 1)\n"
            "def _called():\n"
            "    pass\n"
            "class _Imported:\n"
            "    pass\n"
            "def _attribute():\n"
            "    pass\n"
            "def public():\n"
            "    return _called()\n"
        ),
        "b.py": (
            "from .a import _Imported\n"
            "from . import a\n"
            "x = a._attribute\n"
        ),
    }
    assert unreferenced_private_definitions(sources) == [("a.py", "_dead")]


def test_no_unreferenced_private_definitions():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


def public_definitions(source: str) -> list:
    """Names of the module-level functions and classes and of the methods
    of module-level classes that do not start with an underscore."""
    names = []
    for node in ast.parse(source).body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for sub in [node, *members]:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not sub.name.startswith("_"):
                    names.append(sub.name)
    return names


def unmentioned_public_names(package: dict, others: list) -> list:
    """Public names defined in the ``package`` sources (module -> text)
    that occur, as whole words, nowhere in the package or ``others`` (a
    list of texts) beyond their own definitions."""
    defined = {}
    for module, source in package.items():
        for name in public_definitions(source):
            defined.setdefault(name, []).append(module)
    texts = [*package.values(), *others]
    unmentioned = []
    for name, modules in defined.items():
        pattern = re.compile(rf"\b{name}\b")
        if sum(len(pattern.findall(text)) for text in texts) <= len(modules):
            unmentioned.extend((module, name) for module in modules)
    return sorted(unmentioned)


def test_checker_finds_unmentioned_public_name():
    package = {
        "a.py": (
            "def dead():\n"
            "    pass\n"
            "def used():\n"
            "    pass\n"
            "class Thing:\n"
            "    def method(self):\n"
            "        return used()\n"
            "    def unread(self):\n"
            "        pass\n"
            "    def _private(self):\n"
            "        pass\n"
        ),
        "b.py": "def unread():\n    pass\n",
    }
    others = ["Thing().method()\n", "see `helper` in the README\n"]
    assert unmentioned_public_names(package, others) == [
        ("a.py", "dead"), ("a.py", "unread"), ("b.py", "unread")
    ]


def test_every_public_name_is_mentioned():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    others = [
        path.read_text()
        for directory in ("tests", "demos", "bench")
        for path in sorted((ROOT / directory).rglob("*.py"))
    ]
    others.append((ROOT / "README.md").read_text())
    assert unmentioned_public_names(package, others) == []


def _scopes(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every class and function, at any depth."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + node.name
            yield name, node
            yield from _scopes(node, name + ".")
        else:
            yield from _scopes(node, prefix)


def setattr_overrides(source: str) -> list:
    """Qualified names of the classes that define ``__setattr__``."""
    return [
        name
        for name, node in _scopes(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and sub.name == "__setattr__"
            for sub in node.body
        )
    ]


def object_new_calls(source: str) -> list:
    """Qualified name of the innermost function or class around each
    reference to ``object.__new__`` ("" at module level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "__new__"
                and isinstance(child.value, ast.Name)
                and child.value.id == "object"
            ):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def unread_parameters(source: str) -> list:
    """(function, parameter) for every parameter that the function's body,
    nested functions included, never loads.  Dunder methods implement a
    protocol whose signature is fixed, so they are exempt."""
    found = []
    for name, node in _scopes(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        loaded = {
            sub.id
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        found.extend((name, p.arg) for p in params if p.arg not in loaded)
    return found


def test_checkers_find_trust_boundary_breaches():
    source = (
        "class Frozen:\n"
        "    def __setattr__(self, name, value):\n"
        "        raise AttributeError\n"
        "    @classmethod\n"
        "    def _trusted(cls, *values):\n"
        "        return object.__new__(cls), values\n"
        "class Loose:\n"
        "    def __setattr__(self, name, value):\n"
        "        pass\n"
        "    def copy(self, unused, *rest):\n"
        "        return object.__new__(type(self))\n"
        "def outer(graph, darts):\n"
        "    def inner(d):\n"
        "        return d ^ 1\n"
        "    return [inner(d) for d in darts if graph]\n"
        "def skip(graph, darts, **options):\n"
        "    return tuple(darts)\n"
    )
    assert setattr_overrides(source) == ["Frozen", "Loose"]
    assert object_new_calls(source) == ["Frozen._trusted", "Loose.copy"]
    assert unread_parameters(source) == [
        ("Loose.copy", "unused"), ("Loose.copy", "rest"),
        ("skip", "graph"), ("skip", "options"),
    ]


def test_frozen_is_the_only_setattr_override():
    found = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in setattr_overrides(path.read_text())
    ]
    assert found == [("words.py", "Frozen")]


def test_frozen_trusted_is_the_only_object_new():
    found = [
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in object_new_calls(path.read_text())
    ]
    assert found == [("words.py", "Frozen._trusted")]


def equality_overrides(source: str) -> list:
    """Qualified names of the classes whose body defines or assigns
    ``__eq__`` or ``__hash__``."""
    dunders = {"__eq__", "__hash__"}
    found = []
    for name, node in _scopes(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            else:
                continue
            if names & dunders:
                found.append(name)
                break
    return found


def test_checker_finds_equality_override():
    source = (
        "class Frozen:\n"
        "    def __init_subclass__(cls):\n"
        "        def __eq__(self, other):\n"
        "            return self is other\n"
        "        cls.__eq__ = __eq__\n"
        "class Point(Frozen):\n"
        "    _identity = ('x', 'y')\n"
        "    def __eq__(self, other):\n"
        "        return self.x == other.x\n"
        "    def __hash__(self):\n"
        "        return hash(self.x)\n"
        "class Outer:\n"
        "    class Inner:\n"
        "        __hash__ = None\n"
    )
    assert equality_overrides(source) == ["Point", "Outer.Inner"]


def test_only_subgroup_classes_write_their_own_equality():
    # every other value type states its identity once, in ``_identity``,
    # and ``Frozen`` derives both methods from it
    found = [
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in equality_overrides(path.read_text())
    ]
    assert found == [("subgroups.py", "SubgroupConjClass"), ("subgroups.py", "FreeFactorSystem")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def _call_signatures(texts: list) -> dict:
    """Called name -> list of (positional count before any ``*``, whether a
    ``*`` follows, keyword names, whether a ``**`` is given) per call."""
    calls = {}
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
            calls.setdefault(name, []).append((
                starred[0] if starred else len(node.args),
                bool(starred),
                {k.arg for k in node.keywords if k.arg is not None},
                any(k.arg is None for k in node.keywords),
            ))
    return calls


def unpassed_defaults(package: dict, others: list) -> list:
    """(module, function, parameter) for every parameter with a default of a
    module-level function, or of a method of a module-level class, in the
    ``package`` sources (module -> text) that no call in the package or in
    ``others`` (a list of texts) passes by keyword or by position.  Calls
    match by name, and a call of a class counts toward its ``__init__``; a
    ``*`` or ``**`` argument passes every parameter it can reach.  Other
    dunder methods serve a protocol that fixes their calls, so they are
    exempt."""
    calls = _call_signatures([*package.values(), *others])
    found = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name.startswith("__") and fn.name != "__init__":
                    continue
                qualified = fn.name if fn is node else f"{node.name}.{fn.name}"
                called = node.name if fn.name == "__init__" else fn.name
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
                )
                # a method's first parameter is bound, not passed
                offset = 0 if fn is node or static else 1
                args = fn.args
                positional = [*args.posonlyargs, *args.args]
                with_default = [
                    (i - offset, p.arg)
                    for i, p in enumerate(positional)
                    if i >= len(positional) - len(args.defaults)
                ]
                with_default += [
                    (None, p.arg)
                    for p, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                ]
                for position, param in with_default:
                    if not any(
                        param in keywords
                        or double_star
                        or (position is not None and (position < n or star))
                        for n, star, keywords, double_star in calls.get(called, ())
                    ):
                        found.append((module, qualified, param))
    return sorted(found)


def test_checker_finds_unpassed_default():
    package = {
        "a.py": (
            "def f(x, k=1, *, flag=False):\n"
            "    return x\n"
            "def g(x, limit=3):\n"
            "    return f(x, 2)\n"
            "class Thing:\n"
            "    def __init__(self, size=0):\n"
            "        pass\n"
            "    def walk(self, start=None, stop=None):\n"
            "        pass\n"
            "    @staticmethod\n"
            "    def make(n=1):\n"
            "        pass\n"
            "    def __eq__(self, other=None):\n"
            "        pass\n"
        ),
    }
    others = ["Thing(size=4).walk(1)\nThing.make(*args)\ng(**options)\n"]
    assert unpassed_defaults(package, others) == [
        ("a.py", "Thing.walk", "stop"), ("a.py", "f", "flag")
    ]


def test_every_default_is_passed_somewhere():
    # a default that no caller overrides is a knob nobody turns: make it a
    # constant, or test the other setting
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    others = [
        path.read_text()
        for directory in ("tests", "demos")
        for path in sorted((ROOT / directory).rglob("*.py"))
    ]
    assert unpassed_defaults(package, others) == []

def apply_endo_calls(source: str) -> list:
    """Qualified name of the innermost function or class around each call
    of ``apply_endo`` ("" at module level), by name or as an attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "apply_endo":
                    found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_checker_finds_apply_endo_calls():
    source = (
        "from .words import apply_endo\n"
        "from . import words\n"
        "class Auto:\n"
        "    def __init__(self, images, word):\n"
        "        apply_endo(images, word)\n"
        "def hot(images, words_):\n"
        "    return [words.apply_endo(images, w) for w in words_]\n"
        "table = apply_endo\n"
        "apply_endo([], None)\n"
    )
    assert apply_endo_calls(source) == ["Auto.__init__", "hot", ""]


def test_no_module_calls_apply_endo():
    # applying one map to many words goes through a kept Substitution, whose
    # memo a call of apply_endo would rebuild from nothing every time; the
    # certification in FreeAutomorphism.__init__ keeps its two maps too
    found = [
        (path.name, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in apply_endo_calls(path.read_text())
    ]
    assert found == []


def unread_slots(package: dict, others: list) -> list:
    """(module, class, field) for every ``__slots__`` entry of a class in
    the ``package`` sources (module -> text) that no attribute read in the
    package or in ``others`` (a list of texts) names.  A read is ``x.field``
    loaded, matched by name; the fields set with ``object.__setattr__`` and
    the ``getattr`` of ``Frozen.__reduce__``, which walks every slot, are
    not reads."""
    read = {
        node.attr
        for text in [*package.values(), *others]
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for module, source in package.items():
        for name, node in _scopes(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    found.extend(
                        (module, name, field)
                        for field in ast.literal_eval(stmt.value)
                        if field not in read
                    )
    return sorted(found)


def test_checker_finds_unread_slot():
    package = {
        "a.py": (
            "class Point:\n"
            "    __slots__ = ('x', 'y', 'label')\n"
            "    def __init__(self, x, y, label):\n"
            "        object.__setattr__(self, 'x', x)\n"
            "        object.__setattr__(self, 'y', y)\n"
            "        self.label = label\n"
            "    def norm(self):\n"
            "        return abs(self.x)\n"
            "class Empty:\n"
            "    __slots__ = ()\n"
        ),
    }
    others = ["assert p.y == getattr(p, 'label')\n"]
    assert unread_slots(package, others) == [("a.py", "Point", "label")]


def test_every_slot_is_read():
    # a field that nothing reads is state every instance carries for no one
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    others = [
        path.read_text()
        for directory in ("tests", "demos", "bench")
        for path in sorted((ROOT / directory).rglob("*.py"))
    ]
    assert unread_slots(package, others) == []


def third_party_imports(source: str) -> list:
    """(line, module) of every import, at any depth, that is neither
    relative nor of a standard-library module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found.extend(
            (node.lineno, m) for m in modules
            if m.split(".")[0] not in sys.stdlib_module_names
        )
    return found


def test_checker_finds_third_party_import():
    source = (
        "import os.path\n"
        "import numpy as np\n"
        "from . import words\n"
        "from .words import Word\n"
        "def f():\n"
        "    from scipy.sparse import csgraph\n"
    )
    assert third_party_imports(source) == [(2, "numpy"), (6, "scipy.sparse")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_stdlib_and_relative_imports(path):
    assert third_party_imports(path.read_text()) == []


def test_every_module_imports_without_numpy_or_scipy():
    # a None entry in sys.modules makes any import of that name fail
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    code = (
        "import importlib, sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module('aperiodic_lab.' + name)\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # a fresh interpreter pays for every module the CLI pulls in, and
    # dataclasses, with the inspect it imports, cost about 10 ms of it
    code = (
        "import aperiodic_lab.cli, sys\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.stdout == "[]\n"


# a code span of dotted names, optionally under the package name
README_NAME = re.compile(r"`((?:aperiodic_lab\.)?\w+(?:\.\w+)+)`")


def unresolved_readme_names(text: str, modules: dict) -> list:
    """Every dotted code span of ``text`` whose first name is one of
    ``modules`` (name -> module) and whose other names are not a chain of
    attributes from it, in order of appearance."""
    found = []
    for match in README_NAME.finditer(text):
        first, *rest = match.group(1).split(".")
        if first not in modules:
            continue
        value = modules[first]
        for name in rest:
            if not hasattr(value, name):
                found.append(match.group(1))
                break
            value = getattr(value, name)
    return found


def test_checker_finds_unresolved_readme_name():
    words = types.SimpleNamespace(Word=types.SimpleNamespace(inverse=None), reduce=None)
    package = types.SimpleNamespace(words=words)
    text = (
        "`words.Word.inverse` and `words.gone` (`words.Word.gone`),\n"
        "`Word.inverse`, `other.thing`, `aperiodic_lab.words.reduce`,\n"
        "`aperiodic_lab.gone`, `a..z`, `words . reduce` and words.gone\n"
    )
    modules = {"words": words, "aperiodic_lab": package}
    assert unresolved_readme_names(text, modules) == [
        "words.gone", "words.Word.gone", "aperiodic_lab.gone"
    ]


def test_readme_names_resolve():
    names = ["aperiodic_lab"] + [
        "aperiodic_lab." + p.stem for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"
    ]
    modules = {name.split(".")[-1]: importlib.import_module(name) for name in names}
    assert unresolved_readme_names((ROOT / "README.md").read_text(), modules) == []
