"""Exact arithmetic for Stern-like sequences.

Sequences satisfying v(2n) = a*v(n), v(2n+1) = b*v(n) + c*v(n+1) beyond a
start index: direct evaluation, compiled 2-regular linear representations
with O(log n) evaluation, an exhaustively verified identity catalog, exact
truncated-series checks of the related generating-series relations, and a
brute-force Thue-Morse block-counting oracle.

`import sternlike` loads no submodule: each exported name imports the
submodule that defines it on first access (PEP 562).  Only `fetch_bfile`
loads the network stack, and nothing starts a process.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "recurrence": ("SternLikeSpec", "make_spec", "preset", "PRESET_NAMES", "evaluator",
                   "eval_direct", "eval_range", "parse_spec_text", "load_spec_file"),
    "linrep": ("CoeffTable", "MatrixPair", "LinearRepresentation", "coeff_table",
               "coeff_at", "coeffs", "transition_matrices", "eval_fast",
               "recover_coefficients", "linear_representation"),
    "identities": ("Identity", "Verdict", "parse_identity", "catalog", "catalog_entry",
                   "catalog_names", "generic_corollary", "check_instance", "verify",
                   "discrepancy_report"),
    "series": ("LaurentSeries", "CheckReport", "sequence_series", "add", "sub", "mul",
               "scale", "compose_power", "shift", "truncate", "divide", "first_mismatch",
               "check_named"),
    "tm_oracle": ("thue_morse_prefix", "factor_complexity", "factor_counts",
                  "verify_y_preset"),
    "oeis": ("BFileTable", "parse_bfile", "write_bfile", "crosscheck", "fetch_bfile"),
    "errors": ("SternlikeError", "SpecError", "UnknownPresetError", "RangeError",
               "DomainError", "ParseError", "UnknownIdentityError",
               "SingularSystemError", "DivisionError", "UnknownCheckError", "BFileError"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name: str):
    """Import the submodule that exports `name` and keep the value here."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
