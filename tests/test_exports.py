import importlib
import pkgutil

import pytest

import revstack

MODULES = sorted(info.name for info in pkgutil.iter_modules(revstack.__path__))


@pytest.mark.parametrize("module", ["revstack"] + ["revstack." + m for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
