"""The exported names of the package and of each submodule."""

import importlib
import pkgutil

import pytest

import csd1d

# the package and every submodule that declares __all__
MODULES = [
    module
    for module in [csd1d] + [
        importlib.import_module(f"csd1d.{info.name}")
        for info in pkgutil.iter_modules(csd1d.__path__)
    ]
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_names_resolve_once(module):
    name, exported = module.__name__, module.__all__
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
