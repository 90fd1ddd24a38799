"""Every exported name resolves, so a deleted function cannot linger in
__all__, and every name the README's quick start uses is exported."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_the_readme_quick_start_runs():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]  # the quick start
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
