import importlib
import pkgutil

import pytest

import hyptorsion

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(hyptorsion.__path__, "hyptorsion.") if name != "hyptorsion.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
