"""The runtime needs numpy and the standard library only; the package's
public surface is the import block of its __init__.py."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import circlet

ROOT = Path(__file__).resolve().parents[1]
SOURCES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted((ROOT / "src" / "circlet").glob("*.py"))}


def _bound(alias: ast.alias) -> str:
    """The name an import alias binds: `import a.b` binds a."""
    return alias.asname or alias.name.split(".")[0]


def test_library_imports_only_stdlib_and_numpy():
    found, foreign = set(), []
    for name, tree in SOURCES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                found.add(top)
                if top != "numpy" and top not in sys.stdlib_module_names:
                    foreign.append(f"{name}:{node.lineno}: {module}")
    assert "numpy" in found  # the scan saw the imports
    assert foreign == []


def test_declared_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_public_names_are_the_package_import_block():
    sources = [(node.module, alias) for node in ast.walk(SOURCES["__init__.py"])
               if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    names = [_bound(alias) for _, alias in sources]
    assert len(names) == len(set(names)), "a name is imported twice"
    assert set(names) == set(circlet.__all__)
    star = {}
    exec("from circlet import *", star)
    assert set(star) - {"__builtins__"} == set(circlet.__all__)
    for module, alias in sources:
        obj = getattr(circlet, _bound(alias))
        assert obj is getattr(importlib.import_module(f"circlet.{module}"), alias.name)
        assert obj.__module__.startswith("circlet."), alias.name


def test_modules_use_every_name_they_import():
    unused = []
    for module, tree in SOURCES.items():
        if module == "__init__.py":  # its imports are the public surface
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                imported.update((_bound(alias), node.lineno) for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []
