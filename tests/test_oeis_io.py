"""B-file parsing/writing and sequence cross-checks."""

import urllib.request

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sternlike import (BFileError, RangeError, crosscheck, eval_direct,
                       fetch_bfile, parse_bfile, preset, write_bfile)
from sternlike.oeis import PRESET_OEIS_IDS, bfile_url
from sternlike.recurrence import PRESET_NAMES
from sternlike.tm_oracle import factor_complexity, thue_morse_prefix

from conftest import STERN_TERMS, FakeResponse


def test_parse_bfile_examples():
    assert parse_bfile("0 0\n1 1\n2 1").records == ((0, 0), (1, 1), (2, 1))
    assert parse_bfile("# comment\n5 3").records == ((5, 3),)
    assert parse_bfile("\n\n# only comments\n").records == ()


def test_parse_bfile_errors_carry_line_numbers():
    with pytest.raises(BFileError) as err:
        parse_bfile("2 1\n1 1")
    assert err.value.line_no == 2
    with pytest.raises(BFileError):
        parse_bfile("0 0\nnot a record")
    with pytest.raises(BFileError):
        parse_bfile("0 0 0")


def test_write_bfile_matches_term_list():
    text = write_bfile(preset("stern"), 0, 16)
    assert text == "".join(f"{n} {v}\n" for n, v in enumerate(STERN_TERMS))


def test_write_parse_round_trip():
    for name in ("stern", "twisted", "z2", "tm_complexity_shift"):
        spec = preset(name)
        text = write_bfile(spec, 0, 64)
        table = parse_bfile(text)
        assert write_bfile(spec, 0, 64) == "".join(
            f"{i} {v}\n" for i, v in table.records)


@given(st.sampled_from(PRESET_NAMES), st.integers(-3, 300), st.integers(0, 300))
@example("josephus", 0, 0)
def test_write_parse_crosscheck_round_trip(name, lo, width):
    spec = preset(name)
    hi = lo + width
    start = max(lo, spec.output_min_index, 0)
    if start > hi:   # nothing left to write, e.g. josephus 0..0
        with pytest.raises(RangeError):
            write_bfile(spec, lo, hi)
        return
    text = write_bfile(spec, lo, hi)
    table = parse_bfile(text)
    assert table.records == tuple((n, eval_direct(spec, n)) for n in range(start, hi + 1))
    assert "".join(f"{n} {v}\n" for n, v in table.records) == text
    report = crosscheck(spec, table)
    assert (report.ok, report.checked, report.skipped) == (True, hi - start + 1, 0)


def test_write_bfile_honors_output_min_index():
    text = write_bfile(preset("josephus"), 0, 5)
    assert text.splitlines()[0] == "1 1"


def test_crosscheck_stern_fixture(fixtures_dir):
    table = parse_bfile((fixtures_dir / "b002487_ref.txt").read_text(),
                        source="b002487_ref.txt")
    report = crosscheck(preset("stern"), table)
    assert report.ok
    assert report.checked == 17


def test_crosscheck_twisted_fixture(fixtures_dir):
    table = parse_bfile((fixtures_dir / "twisted_ref.txt").read_text())
    assert crosscheck(preset("twisted"), table).ok


def test_crosscheck_y_against_oracle_with_shift():
    # the oracle counts blocks of length m; the preset is that count shifted
    # by one, so the comparison needs index_shift=+1
    word = thue_morse_prefix(64 * 1024)
    rows = "".join(f"{m} {factor_complexity(word, m)}\n" for m in range(1, 49))
    table = parse_bfile(rows, source="oracle")
    report = crosscheck(preset("tm_complexity_shift"), table, index_shift=1)
    assert report.ok
    assert report.checked == 48


def test_crosscheck_reports_mismatches():
    table = parse_bfile("0 0\n1 1\n2 999\n")
    report = crosscheck(preset("stern"), table)
    assert not report.ok
    assert report.mismatches == ((2, 999, 1),)
    assert "MISMATCH" in report.summary()


def test_crosscheck_skips_below_output_min_index():
    # index 0 of the josephus preset is a placeholder: a wrong file value
    # there must be ignored, while one at index >= 1 must be flagged
    spec = preset("josephus")
    assert crosscheck(spec, parse_bfile("0 777\n1 1\n")).ok
    report = crosscheck(spec, parse_bfile("0 777\n1 2\n"))
    assert report.mismatches == ((1, 2, 1),)
    assert report.skipped == 1


def test_bfile_url_and_id_table():
    assert bfile_url("A002487") == "https://oeis.org/A002487/b002487.txt"
    assert PRESET_OEIS_IDS["stern"] == ("A002487", 0)
    assert PRESET_OEIS_IDS["tm_complexity_shift"] == ("A005942", 1)


def test_fetch_bfile_parses_the_downloaded_text_offline(monkeypatch):
    requests = []

    def urlopen(url, timeout):
        requests.append(url)
        return FakeResponse()

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    table = fetch_bfile("A002487")
    assert requests == [bfile_url("A002487")]
    assert (table.records, table.source) == (((0, 0), (1, 1), (2, 1)), bfile_url("A002487"))


def test_fetch_bfile_rejects_a_body_that_is_not_utf8(monkeypatch):
    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda url, timeout: FakeResponse(b"1 1\n2 \xff\n"))
    with pytest.raises(BFileError) as err:
        fetch_bfile("A002487")
    assert str(err.value).startswith(f"{bfile_url('A002487')}: not UTF-8 text (")
    assert err.value.line_no is None
