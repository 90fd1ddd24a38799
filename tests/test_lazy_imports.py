"""The package imports each submodule on first use, and a cold CLI run loads
only what its subcommand calls."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sternlike

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(code: str) -> str:
    """Runs `code` in a fresh interpreter and returns its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def _modules_loaded_after(code: str, names: tuple[str, ...]) -> list[str]:
    """Which of `names` a fresh interpreter holds in sys.modules after `code`."""
    probe = f"{code}\nimport sys\nprint(' '.join(n for n in {names!r} if n in sys.modules))"
    return _fresh(probe).split()


NETWORK_AND_POOL = ("urllib.request", "http.client", "ssl", "concurrent.futures.process",
                    "multiprocessing")


@pytest.mark.parametrize("code,unwanted", [
    ("import sternlike", NETWORK_AND_POOL + ("sternlike.identities",)),
    # only fetch_bfile imports the network stack, and nothing starts a process
    ("from sternlike import cli, identities, linrep, oeis, recurrence, series, tm_oracle",
     NETWORK_AND_POOL),
])
def test_imports_leave_out_the_network_and_the_pool(code, unwanted):
    assert _modules_loaded_after(code, unwanted) == []


def test_a_cold_cli_loads_no_dataclasses_and_no_traceback():
    # the crash handler prints with the interpreter's own printer
    assert _modules_loaded_after("import sternlike.cli", ("dataclasses", "traceback")) == []


def test_the_submodules_load_no_dataclasses_and_no_inspect():
    code = "from sternlike import cli, identities, linrep, oeis, recurrence, series, tm_oracle"
    assert _modules_loaded_after(code, ("dataclasses", "inspect")) == []


def test_importing_the_cli_builds_no_stride_table():
    code = ("import sternlike.cli\nfrom sternlike import linrep, recurrence\n"
            "print(recurrence._stride_rows.cache_info().currsize,"
            " linrep._stride_products.cache_info().currsize)")
    assert _fresh(code) == "0 0\n"


def test_a_catalog_entry_builds_no_catalog():
    code = ("from sternlike import identities\nidentities.catalog_entry('prop1')\n"
            "identities.catalog_entry('generic_cor_tm_complexity_shift')\n"
            "print(identities.catalog.cache_info().currsize)")
    assert _fresh(code) == "0\n"


def test_each_catalog_entry_is_the_catalog_one():
    from sternlike.identities import _CATALOG_SOURCES, catalog, catalog_entry, catalog_names
    sources = {name: (family, variant, n_min) for name, family, variant, n_min, _ in _CATALOG_SOURCES}
    for name, expected in zip(catalog_names(), catalog(), strict=True):
        entry = catalog_entry(name)
        assert entry is expected and entry.text == expected.text
        fields = (entry.name, entry.family, entry.variant, entry.n_min, entry.bindings)
        assert fields == (expected.name, expected.family, expected.variant, expected.n_min,
                          expected.bindings)
        assert fields[1:4] == sources.get(name, ("generic_cor", "", entry.bindings[0][1].n0))
    assert len(sources) == 22 and len(catalog()) == 29
    for name in ("generic_cor_s", "generic_cor_", "generic_cor_custom", "nosuch"):
        with pytest.raises(sternlike.UnknownIdentityError):
            catalog_entry(name)


def test_cli_eval_loads_only_what_it_calls():
    names = ("sternlike.identities", "sternlike.tm_oracle", "sternlike.oeis",
             "sternlike.series", "urllib.request", "sternlike.linrep")
    code = "import sternlike.cli\nsternlike.cli.main(['eval', 'stern', '5'])"
    # eval prints s(5) = 3 first; linrep, which it calls, shows the probe works
    assert _modules_loaded_after(code, names) == ["3", "sternlike.linrep"]


def test_cli_verify_with_jobs_starts_no_process():
    code = ("import sternlike.cli\nsternlike.cli.main(['verify', 'prop1', '--e-max', '3', "
            "'--n-max', '8', '--jobs', '2'])")
    # the verdict line comes first; neither pool module follows it
    loaded = _modules_loaded_after(code, ("concurrent.futures.process", "multiprocessing"))
    assert loaded == "identity prop1: holds checked=171".split()


def test_verify_certifies_in_integers_alone():
    # the certificate's spans are found fraction-free, without Fraction or
    # Decimal: coons's over one sequence, and one over two sequences, whose
    # shift windows hold a block per sequence
    code = ("import sternlike\nfrom sternlike.identities import bind_presets\n"
            "v = sternlike.verify(sternlike.catalog_entry('coons'), 4, 16)\n"
            "w = sternlike.verify(bind_presets(sternlike.parse_identity(\n"
            "    's(2*n) - s(n) + t(2*n) + t(n) == 0')), 4, 16)\n"
            "print(v.path, w.path)")
    assert _modules_loaded_after(code, ("fractions", "decimal")) == ["all", "all"]


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from sternlike import *", namespace)
    assert [name for name in sternlike.__all__ if name not in namespace] == []


@pytest.mark.parametrize("module,names", sternlike._EXPORTS.items(),
                         ids=list(sternlike._EXPORTS))
def test_each_exported_name_is_its_submodule_value(module, names):
    owner = importlib.import_module(f"sternlike.{module}")
    assert [name for name in names if getattr(sternlike, name) is not getattr(owner, name)] == []
    assert all(name in vars(sternlike) for name in names)  # kept after the first lookup


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'sternlike' has no attribute 'nosuch'"):
        sternlike.nosuch
    assert not hasattr(sternlike, "nosuch")


def test_dir_lists_every_exported_name_before_any_is_loaded():
    code = "import sternlike\nprint(sorted(set(sternlike.__all__) - set(dir(sternlike))))"
    assert _fresh(code) == "[]\n"
