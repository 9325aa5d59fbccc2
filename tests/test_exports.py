"""Every exported name resolves, so a deleted function leaves no stale
entry in an ``__all__`` behind."""

import importlib
import pkgutil

import pytest

import dyadlab

MODULES = ["dyadlab"] + [f"dyadlab.{info.name}"
                         for info in pkgutil.iter_modules(dyadlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "repeated names"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing
