import importlib
import pkgutil

import pytest

import fxtqp

MODULES = sorted(m.name for m in pkgutil.iter_modules(fxtqp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # hand-kept __all__ lists otherwise keep names the module no longer has
    module = importlib.import_module(f"fxtqp.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"fxtqp.{name}.__all__ names missing attributes: {missing}"
