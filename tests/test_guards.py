"""Input guards across the package, each with its exact message."""

import pytest

from sternlike import (BFileError, DomainError, RangeError, SpecError, coeff_at,
                       coeff_table, compose_power, linear_representation, make_spec,
                       parse_bfile, parse_spec_text, preset, recover_coefficients,
                       truncate, verify_y_preset)
from sternlike.series import LaurentSeries, from_coeffs

_F = from_coeffs([5, 6], val=2)   # 5X^2 + 6X^3, sound below X^4

_GUARDS = {
    # series
    "empty_series": (lambda: LaurentSeries(0, ()), RangeError,
                     "a series needs at least one stored coefficient"),
    "from_coeffs_order_below_stored": (lambda: from_coeffs([1, 2], order=1), RangeError,
                                       "order 1 is below the stored range"),
    "compose_power_m_0": (lambda: compose_power(_F, 0), RangeError,
                          "compose_power needs m >= 1, got 0"),
    "truncate_at_val": (lambda: truncate(_F, _F.val), RangeError,
                        "cannot truncate below the valuation bound 2"),
    "coefficient_past_order": (lambda: _F.coefficient(4), RangeError,
                               "coefficient of X^4 is beyond the sound order 4"),
    # linrep
    "coeff_at_negative_e": (lambda: coeff_at(preset("stern"), -1, 0), RangeError,
                            "e must be >= 0, got -1"),
    "coeff_table_negative_e_max": (lambda: coeff_table(preset("stern"), -1), RangeError,
                                   "e_max must be >= 0, got -1"),
    "recover_negative_e": (lambda: recover_coefficients(preset("stern"), -1, 0, 1, 2),
                           RangeError, "e must be >= 0, got -1"),
    "recover_r_past_2e": (lambda: recover_coefficients(preset("stern"), 1, 3, 1, 2),
                          RangeError, "r must lie in [0, 2^1], got 3"),
    "recover_x0_below_n0": (lambda: recover_coefficients(preset("twisted"), 1, 0, 0, 2),
                            RangeError, "x0, y0 must be >= n0 = 1, got 0, 2"),
    "evaluate_negative_index": (lambda: linear_representation(preset("stern")).evaluate(-1),
                                DomainError, "sequence index must be >= 0, got -1"),
    # recurrence
    "non_integer_coefficient": (lambda: make_spec(1.5, 1, 1, 0, [0, 1]), SpecError,
                                "coefficient a must be an integer"),
    "negative_output_min_index": (lambda: make_spec(1, 1, 1, 0, [0, 1], output_min_index=-1),
                                  SpecError, "output_min_index must be a non-negative integer"),
    "spec_line_without_equals": (lambda: parse_spec_text("a = 1\nb 1\n"), SpecError,
                                 "spec line 2: expected 'key = value', got 'b 1'"),
    "spec_init_not_integers": (
        lambda: parse_spec_text("a = 1\nb = 1\nc = 1\nn0 = 0\ninit = 0, x\n"), SpecError,
        "spec key 'init': not a comma-separated integer list: '0, x'"),
    # oeis, tm_oracle
    "bfile_non_integer_field": (lambda: parse_bfile("0 0\n1 x\n"), BFileError,
                                "line 2: non-integer field in '1 x'"),
    "verify_y_preset_ell_max_0": (lambda: verify_y_preset(0), RangeError,
                                  "ell_max must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", _GUARDS)
def test_guard_message_is_pinned(case):
    call, error, message = _GUARDS[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
