"""OEIS b-file parsing, writing, and sequence cross-checks.

A b-file is the OEIS flat format: one `index value` pair per line, `#`
comment lines allowed, indices strictly increasing.  Cross-checking
compares locally computed terms against such a table, which may be a
vendored fixture or fetched from oeis.org (fetching is the only
network-touching code path in the package and must be asked for
explicitly).
"""

from __future__ import annotations

from ._frozen import Frozen, set_field
from .errors import BFileError, RangeError
from .recurrence import SternLikeSpec, _term_lookup, eval_range

__all__ = [
    "BFileTable",
    "parse_bfile",
    "table_rows",
    "write_bfile",
    "CrosscheckReport",
    "crosscheck",
    "PRESET_OEIS_IDS",
    "bfile_url",
    "fetch_bfile",
]


class BFileTable(Frozen):
    __slots__ = ("records", "source")

    def __init__(self, records: tuple[tuple[int, int], ...], source: str = ""):
        set_field(self, "records", records)
        set_field(self, "source", source)


def parse_bfile(text: str, source: str = "") -> BFileTable:
    """Parse b-file text; BFileError carries the offending line number."""
    records: list[tuple[int, int]] = []
    last_index: int | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(f"expected 'index value', got {raw!r}", line_no)
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileError(f"non-integer field in {raw!r}", line_no) from None
        if last_index is not None and index <= last_index:
            raise BFileError(
                f"indices must strictly increase ({index} after {last_index})", line_no)
        last_index = index
        records.append((index, value))
    return BFileTable(tuple(records), source)


def _first_row(spec: SternLikeSpec, lo: int, hi: int) -> int:
    """The first index of `table_rows`; RangeError if the range holds none."""
    if lo > hi:
        raise RangeError(f"empty range: lo={lo} > hi={hi}")
    start = max(lo, spec.output_min_index, 0)
    if start > hi:
        raise RangeError(f"empty range: {spec.label()} starts at n={start} > hi={hi}")
    return start


def table_rows(spec: SternLikeSpec, lo: int, hi: int) -> list[tuple[int, int]]:
    """(n, v(n)) for lo <= n <= hi, leaving out the placeholder indices below 0
    and below the spec's output_min_index; RangeError if that leaves none."""
    start = _first_row(spec, lo, hi)
    return list(zip(range(start, hi + 1), eval_range(spec, start, hi)))


def write_bfile(spec: SternLikeSpec, lo: int, hi: int) -> str:
    """Render the `table_rows` of v(lo)..v(hi) in b-file format, formatted
    straight from the values."""
    start = _first_row(spec, lo, hi)
    return "".join(map("{} {}\n".format, range(start, hi + 1), eval_range(spec, start, hi)))


class CrosscheckReport(Frozen):
    __slots__ = ("spec_label", "source", "index_shift", "checked", "skipped", "mismatches")

    def __init__(self, spec_label: str, source: str, index_shift: int, checked: int,
                 skipped: int, mismatches: tuple[tuple[int, int, int], ...]):
        set_field(self, "spec_label", spec_label)
        set_field(self, "source", source)
        set_field(self, "index_shift", index_shift)
        set_field(self, "checked", checked)
        set_field(self, "skipped", skipped)
        # (sequence index, file value, computed value)
        set_field(self, "mismatches", mismatches)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        head = (f"{self.spec_label} vs {self.source or 'b-file'} "
                f"(shift {self.index_shift:+d}): {self.checked} compared, "
                f"{self.skipped} skipped")
        if self.ok:
            return head + ", no mismatches"
        shown = ", ".join(f"v({n})={got} file={want}"
                          for n, want, got in self.mismatches[:5])
        return head + f", {len(self.mismatches)} MISMATCHES: {shown}"


def crosscheck(spec: SternLikeSpec, bfile: BFileTable, index_shift: int = 0) -> CrosscheckReport:
    """Compare v(n) against the b-file value at index n + index_shift.

    Equivalently, file record (m, value) is checked against v(m -
    index_shift).  Records whose sequence index falls below 0 or below the
    spec's output_min_index are skipped.
    """
    # sized by the job, so a sparse file with huge indices allocates little
    _, value = _term_lookup(spec, 2 * len(bfile.records))
    mismatches = []
    checked = skipped = 0
    floor = max(spec.output_min_index, 0)
    for file_index, file_value in bfile.records:
        n = file_index - index_shift
        if n < floor:
            skipped += 1
            continue
        got = value(n)
        checked += 1
        if got != file_value:
            mismatches.append((n, file_value, got))
    return CrosscheckReport(spec.label(), bfile.source, index_shift,
                            checked, skipped, tuple(mismatches))


# OEIS identifiers named alongside the presets, for --fetch URL construction
# and as the default cross-check target.  The shift is the amount added to a
# sequence index to get the b-file index (tm_complexity_shift counts blocks
# of length n+1, hence +1).
PRESET_OEIS_IDS: dict[str, tuple[str, int]] = {
    "stern": ("A002487", 0),
    "z1": ("A005590", 0),
    "z2": ("A177219", 0),
    "z3": ("A049347", 0),
    "tm_complexity_shift": ("A005942", 1),
    "josephus": ("A006165", 0),
}


def bfile_url(a_number: str) -> str:
    ident = a_number.upper().lstrip("A")
    return f"https://oeis.org/A{ident}/b{ident}.txt"


def fetch_bfile(a_number: str, timeout: float = 30.0) -> BFileTable:
    """Download a b-file over HTTPS.  Only ever called from an explicit opt-in."""
    import urllib.request  # the network stack loads only when a fetch is asked for
    url = bfile_url(a_number)
    with urllib.request.urlopen(url, timeout=timeout) as response:
        body = response.read()
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BFileError(f"{url}: not UTF-8 text ({exc})") from None
    return parse_bfile(text, source=url)
