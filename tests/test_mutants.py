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


def test_the_check_reports_a_listed_test_that_is_not_defined(monkeypatch):
    mutants = _load_mutants()
    first = mutants.MUTANTS[0]
    renamed = first._replace(tests=(*first.tests, "tests/test_identities.py::test_no_such_test"))
    monkeypatch.setattr(mutants, "MUTANTS", (renamed,))
    assert mutants.check() == [
        f"mutant 0 ({first.reason}): no test tests/test_identities.py::test_no_such_test"]
