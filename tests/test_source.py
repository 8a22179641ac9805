"""Dead-code guard over the package source: no unused import, no unreferenced private name,
no class member that only tests read."""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "foatools"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")
README = PACKAGE.parents[1] / "README.md"


def names_read(tree):
    """Every name a module reads: bare names, and attributes taken of any object."""
    return [node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)] + [
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = TREES[module]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    assert sorted(imported - set(names_read(tree))) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_module_name_is_referenced(module):
    defined = set()
    for node in TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    read = {name for tree in TREES.values() for name in names_read(tree)}
    assert sorted(private - read) == []


def test_every_class_member_is_read_in_src_or_named_in_the_readme():
    # Python calls the dunder methods itself; every other method or property is
    # library code only if the package reads it or the README documents it.
    used = {name for tree in TREES.values() for name in names_read(tree)} | set(re.findall(r"\w+", README.read_text()))
    members = [
        f"{cls.name}.{node.name}"
        for tree in TREES.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__") and node.name not in used
    ]
    assert members == []
