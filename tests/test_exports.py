"""Every name the package and its submodules list in `__all__` exists, so a
deleted definition cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import riskfuse

MODULES = ["riskfuse"] + [f"riskfuse.{m.name}" for m in pkgutil.iter_modules(riskfuse.__path__)]


def test_every_submodule_is_checked():
    assert {"riskfuse.autodiff", "riskfuse.pipeline", "riskfuse.storage"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "an export is listed twice"
    assert [n for n in exported if not hasattr(module, n)] == []
