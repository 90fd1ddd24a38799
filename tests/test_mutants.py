"""The mutation table of `tools/mutants.py` stays in step with the source."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_edits_one_place_and_names_existing_tests():
    mutants = _load_mutants()
    assert mutants.check() == []
    for mutant in mutants.MUTANTS:
        assert mutant.old != mutant.new and mutant.tests, mutant.reason
        for node in mutant.tests:
            path, name = node.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), node
