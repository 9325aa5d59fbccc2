"""Every exported name resolves, so a deleted function leaves no stale
entry in an ``__all__`` behind; every exported name has a caller; and so
does every module-level private function and constant of the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dyadlab

MODULES = ["dyadlab"] + [f"dyadlab.{info.name}"
                         for info in pkgutil.iter_modules(dyadlab.__path__)]

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "demos", "perfbench")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "repeated names"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


def _used_names():
    """Names read (``name`` or ``obj.name``) anywhere in the caller
    directories, except inside a definition of the same name; imports,
    ``__all__`` strings, definitions and assignments are not reads."""
    used = set()
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            used |= _reads(ast.parse(path.read_text()), frozenset())
    return used


def _reads(node, owners):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        owners = owners | {node.name}
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= _reads(child, owners)
    return found - owners


def test_every_export_has_a_caller():
    used = _used_names()
    unused = sorted(
        f"{name}.{attr}" for name in MODULES
        for attr in getattr(importlib.import_module(name), "__all__", [])
        if attr not in used)
    assert not unused


def _private_definitions():
    """``(module.name, name)`` of every module-level ``_``-prefixed function
    and constant in the package source (dunder names excepted)."""
    for path in sorted((ROOT / "src" / "dyadlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield f"{path.stem}.{name}", name


def test_every_private_helper_has_a_caller():
    used = _used_names()
    unused = sorted(qualified for qualified, name in _private_definitions()
                    if name not in used)
    assert not unused
