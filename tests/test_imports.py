"""No module of the package imports a name at module level that it never
uses.  There is no linter in the toolchain, so this stdlib ``ast`` check
stands in for one."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aperiodic_lab"


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
