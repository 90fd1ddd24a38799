"""Every exported name resolves, so a deleted function cannot linger in __all__."""

import importlib
import pkgutil

import pytest

import sternlike

SUBMODULES = [importlib.import_module(f"sternlike.{info.name}")
              for info in pkgutil.iter_modules(sternlike.__path__)
              if info.name != "__main__"]
# errors exports its classes without an __all__
MODULES = [sternlike] + [m for m in SUBMODULES if hasattr(m, "__all__")]


def test_only_errors_goes_without_all():
    assert [m.__name__ for m in SUBMODULES if not hasattr(m, "__all__")] == ["sternlike.errors"]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
