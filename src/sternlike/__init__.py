"""Exact arithmetic for Stern-like sequences.

Sequences satisfying v(2n) = a*v(n), v(2n+1) = b*v(n) + c*v(n+1) beyond a
start index: direct evaluation, compiled 2-regular linear representations
with O(log n) evaluation, an exhaustively verified identity catalog, exact
truncated-series checks of the related generating-series relations, and a
brute-force Thue-Morse block-counting oracle.
"""

from .errors import (BFileError, DivisionError, DomainError, ParseError,
                     RangeError, SingularSystemError, SpecError,
                     SternlikeError, UnknownCheckError, UnknownIdentityError,
                     UnknownPresetError)
from .identities import (Identity, Verdict, catalog, catalog_entry,
                         catalog_names, check_instance, discrepancy_report,
                         generic_corollary, parse_identity, verify)
from .linrep import (CoeffTable, LinearRepresentation, MatrixPair, coeff_at,
                     coeff_table, coeffs, eval_fast, linear_representation,
                     recover_coefficients, transition_matrices)
from .oeis import (BFileTable, crosscheck, fetch_bfile, parse_bfile,
                   write_bfile)
from .recurrence import (PRESET_NAMES, SternLikeSpec, eval_direct, eval_range,
                         evaluator, load_spec_file, make_spec, parse_spec_text,
                         preset)
from .series import (LaurentSeries, CheckReport, add, check_named,
                     compose_power, divide, first_mismatch, mul,
                     sequence_series, scale, shift, sub, truncate)
from .tm_oracle import (factor_complexity, factor_counts, thue_morse_prefix,
                        verify_y_preset)

__version__ = "0.1.0"

__all__ = [
    "SternLikeSpec", "make_spec", "preset", "PRESET_NAMES", "evaluator",
    "eval_direct", "eval_range", "parse_spec_text", "load_spec_file",
    "CoeffTable", "MatrixPair", "LinearRepresentation", "coeff_table",
    "coeff_at", "coeffs", "transition_matrices", "eval_fast",
    "recover_coefficients", "linear_representation",
    "Identity", "Verdict", "parse_identity", "catalog", "catalog_entry",
    "catalog_names", "generic_corollary", "check_instance", "verify",
    "discrepancy_report",
    "LaurentSeries", "CheckReport", "sequence_series", "add", "sub", "mul",
    "scale", "compose_power", "shift", "truncate", "divide", "first_mismatch",
    "check_named",
    "thue_morse_prefix", "factor_complexity", "factor_counts", "verify_y_preset",
    "BFileTable", "parse_bfile", "write_bfile", "crosscheck", "fetch_bfile",
    "SternlikeError", "SpecError", "UnknownPresetError", "RangeError",
    "DomainError", "ParseError", "UnknownIdentityError",
    "SingularSystemError", "DivisionError", "UnknownCheckError", "BFileError",
]
