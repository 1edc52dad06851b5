"""The package's module boundaries: what each module exports, imports and
pulls in when it is imported."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import switchsim

PACKAGE = Path(switchsim.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
# The one package-private name more than one module builds with.
SHARED_PRIVATE = {"_new_tuple"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree: ast.Module):
    """The names a module's top-level imports bind, ``__future__``'s aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name).partition(".")[0]
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def exported_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def defined_names(tree: ast.Module) -> set[str]:
    """Names a module's top level binds by definition or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_is_defined_where_it_is_exported(path):
    # A name in ``__all__`` that a module imports is a re-export: its
    # callers should import it from the module that defines it.
    tree = parse(path)
    assert [name for name in exported_names(tree) if name not in defined_names(tree)] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    crossing = [alias.name for node in ast.walk(parse(path))
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names
                if alias.name.startswith("_") and alias.name not in SHARED_PRIVATE]
    assert crossing == []


def test_importing_workloads_does_not_load_the_replay_engine():
    # ``workloads`` writes and returns a scenario config, so importing it
    # must not pull in the replay or the prefetch layer.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, switchsim.workloads; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('switchsim'))))")
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert "switchsim.workloads" in loaded
    assert {"switchsim.replay", "switchsim.prefetch"}.isdisjoint(loaded)
