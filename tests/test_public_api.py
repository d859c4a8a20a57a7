"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import nkshed

MODULES = ["nkshed"] + [f"nkshed.{m.name}" for m in pkgutil.iter_modules(nkshed.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), module
    missing = [name for name in exported if not hasattr(mod, name)]
    assert missing == [], (module, missing)

