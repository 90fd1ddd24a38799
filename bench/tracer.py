"""Per-layer counters and spans, wrapped around `sternlike` from outside.

`install()` replaces every module binding of the instrumented functions
(the package imports by name, so `identities.coeff_at`, `tm_oracle.eval_direct`
and the package-level re-exports are patched along with the defining module).

Three kinds of wrapper, by how hot the call is:
  * span   - coarse calls: a span record (id, parent, job, name, start, end),
             a call count, and self time (duration minus child spans and timed
             calls inside it);
  * timed  - hot single-term / single-coefficient calls: count and time only;
  * counted - per-term value functions: a count only.
Spans stay in memory until the workload ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.job = ""
        self._open: list[list] = []  # [span index, seconds covered by children]

    def span(self, name, fn, after=None):
        """Wrap a coarse call; `after(result, args)` adds derived counts."""
        counts, self_s, total_s, spans, stack = (
            self.counts, self.self_s, self.total_s, self.spans, self._open)

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                total_s[name] += duration
                counts[name] += 1
                if stack:
                    stack[-1][1] += duration
                spans[index] = (index, parent, self.job, name, start, end)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def timed(self, name, fn, after=None):
        counts, self_s, stack = self.counts, self.self_s, self._open

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            duration = time.perf_counter() - start
            counts[name] += 1
            self_s[name] += duration
            if stack:
                stack[-1][1] += duration
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def report(self) -> dict:
        return {"counts": dict(self.counts), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "spans": self.spans}


def _rebind(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "sternlike" or module_name.startswith("sternlike.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _mul_pairs(f, g) -> int:
    """Schoolbook (i, j) coefficient pairs landing below the product's order."""
    width = min(f.order + g.val, g.order + f.val) - (f.val + g.val)
    lg = len(g.coeffs)
    return sum(min(lg, width - i) for i in range(min(len(f.coeffs), max(width, 0))))


def install() -> Tracer:
    """Instrument every loaded sternlike module; returns the live tracer."""
    from sternlike import identities, linrep, oeis, recurrence, series, tm_oracle

    tr = Tracer()
    counts = tr.counts

    real_evaluator = recurrence.evaluator

    def evaluator(spec):
        value = real_evaluator(spec)

        def counted_value(n):
            counts["recurrence.term"] += 1
            return value(n)

        return counted_value

    _rebind(real_evaluator, evaluator)

    def add(key, amount):
        counts[key] += amount

    def verify_span(fn):
        traced = tr.span("identities.verify", fn,
                         lambda v, args: add("identities.instances", v.checked_count))

        def wrapper(*args, **kwargs):
            terms, coeffs = counts["recurrence.term"], counts["linrep.coeff_at"]
            try:
                return traced(*args, **kwargs)
            finally:
                add("identities.term_lookups", counts["recurrence.term"] - terms)
                add("identities.coeff_lookups", counts["linrep.coeff_at"] - coeffs)

        return wrapper

    spans = {
        identities.verify: verify_span,
        recurrence.eval_direct: lambda fn: tr.timed("recurrence.eval_direct", fn),
        recurrence.eval_range: lambda fn: tr.span(
            "recurrence.eval_range", fn,
            lambda out, args: add("recurrence.eval_range_terms", len(out))),
        linrep.eval_fast: lambda fn: tr.timed(
            "linrep.eval_fast", fn,
            lambda out, args: add("linrep.eval_fast_bits", args[1].bit_length())),
        linrep.coeff_at: lambda fn: tr.timed("linrep.coeff_at", fn),
        linrep.coeff_table: lambda fn: tr.span("linrep.coeff_table", fn),
        series.mul: lambda fn: tr.span(
            "series.mul", fn,
            lambda out, args: (add("series.mul_coeffs_out", len(out.coeffs)),
                               add("series.mul_pairs", _mul_pairs(*args)))),
        series.divide: lambda fn: tr.span(
            "series.divide", fn,
            lambda out, args: add("series.divide_coeffs_out", len(out.coeffs))),
        series.sequence_series: lambda fn: tr.span("series.sequence_series", fn),
        series.first_mismatch: lambda fn: tr.span("series.first_mismatch", fn),
        oeis.write_bfile: lambda fn: tr.span(
            "oeis.write_bfile", fn,
            lambda out, args: add("oeis.write_bfile_bytes", len(out.encode()))),
        oeis.parse_bfile: lambda fn: tr.span(
            "oeis.parse_bfile", fn,
            lambda out, args: add("oeis.parse_bfile_records", len(out.records))),
        oeis.crosscheck: lambda fn: tr.span("oeis.crosscheck", fn),
        tm_oracle.thue_morse_prefix: lambda fn: tr.span("tm_oracle.prefix", fn),
        tm_oracle.factor_complexity: lambda fn: tr.span(
            "tm_oracle.factor_complexity", fn,
            lambda out, args: add("tm_oracle.windows", len(args[0]) - args[1] + 1)),
    }
    for original, make in spans.items():
        _rebind(original, make(original))

    real_check = series.check_named

    def check_named(name, *args, **kwargs):
        return tr.span(f"series.check.{name}", real_check)(name, *args, **kwargs)

    _rebind(real_check, check_named)

    cls = linrep.LinearRepresentation
    cls.evaluate = tr.span("linrep.evaluate", cls.evaluate)
    return tr
