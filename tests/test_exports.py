"""Every module's public list names what the module defines: a name left in
``__all__`` after its definition moved or was deleted fails here."""

import importlib
import pkgutil

import pytest

import eflcolor

# __main__ runs the CLI on import
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(eflcolor.__path__)
    if m.name != "__main__"
)


def test_modules_with_public_lists():
    with_all = [
        name for name in MODULES
        if hasattr(importlib.import_module(f"eflcolor.{name}"), "__all__")
    ]
    assert {
        "coloring", "core", "decomposition", "serialize", "solver",
    } <= set(with_all)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"eflcolor.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [e for e in exported if not hasattr(module, e)] == []
    namespace = {}
    exec(f"from eflcolor.{name} import *", namespace)
    assert set(exported) <= namespace.keys()
    # a function or class is exported by the module that defines it
    assert [
        e for e in exported
        if callable(getattr(module, e))
        and getattr(module, e).__module__ != module.__name__
    ] == []
