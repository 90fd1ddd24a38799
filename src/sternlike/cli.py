"""Command-line interface.

Exit codes: 0 = success / identity holds; 1 = a counterexample or mismatch
was found; 2 = usage, parse, or spec errors, and input files that are
not UTF-8 text; 3 = a crash (any other exception), with its traceback on
stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import replace

from . import identities, linrep, oeis, series, tm_oracle
from .errors import BFileError, SternlikeError
from .recurrence import (PRESET_NAMES, SternLikeSpec, eval_direct, load_spec_file,
                         prefix, preset)

__all__ = ["main"]


def _resolve_sequence(target: str) -> SternLikeSpec:
    """A preset name/alias, or a path to a spec file."""
    try:
        return preset(target)
    except SternlikeError:
        if os.path.exists(target):
            return load_spec_file(target)
        raise


def _cmd_eval(args) -> int:
    spec = _resolve_sequence(args.sequence)
    if args.direct:
        value = eval_direct(spec, args.n)
    else:
        value = linrep.eval_fast(spec, args.n)
    print(value)
    return 0


def _cmd_table(args) -> int:
    spec = _resolve_sequence(args.sequence)
    if args.format == "bfile":
        sys.stdout.write(oeis.write_bfile(spec, getattr(args, "from"), args.to))
    else:
        rows = oeis.table_rows(spec, getattr(args, "from"), args.to)
        print("n,value")
        for n, v in rows:
            print(f"{n},{v}")
    return 0


def _cmd_coeffs(args) -> int:
    spec = _resolve_sequence(args.sequence)
    table = linrep.coeff_table(spec, args.e_max)
    print("# e r A B")
    for e in range(table.e_max + 1):
        for r in range(len(table.A[e])):
            print(f"{e} {r} {table.A[e][r]} {table.B[e][r]}")
    return 0


def _cmd_compile(args) -> int:
    spec = _resolve_sequence(args.sequence)
    sys.stdout.write(linrep.linear_representation(spec).render())
    return 0


def _cmd_verify(args) -> int:
    if args.expr is not None:
        identity = identities.parse_identity(args.expr)
        identity = identities.bind_presets(identity)
        if args.n_min is not None:
            identity = replace(identity, n_min=args.n_min)
        label = args.expr
    else:
        identity = identities.catalog_entry(args.name)
        if args.n_min is not None:
            raise SternlikeError(f"--n-min applies only with --expr; {identity.name} "
                                 f"has n_min = {identity.n_min}")
        label = identity.name
    verdict = identities.verify(identity, args.e_max, args.n_max, jobs=args.jobs)
    if verdict.holds:
        print(f"identity {label}: holds checked={verdict.checked_count}")
        return 0
    ce = verdict.counterexample
    print(f"identity {label}: FAILS e={ce.e} r={ce.r} n={ce.n} "
          f"lhs={ce.lhs} rhs={ce.rhs} checked={verdict.checked_count}")
    return 1


def _cmd_series(args) -> int:
    report = series.check_named(args.check, order=args.order, e_max=args.e_max)
    for line in report.machine_lines():
        print(line)
    print(report.summary(), file=sys.stderr)
    return 0 if report.holds else 1


def _cmd_oracle_tm(args) -> int:
    report = tm_oracle.verify_y_preset(args.ell_max)
    bad_lengths = {m[0] for m in report.mismatches}
    values = prefix(preset("tm_complexity_shift"), report.ell_max - 1)
    for ell in range(1, report.ell_max + 1):
        ok = ell not in bad_lengths and ell not in report.unsaturated
        print(f"ell={ell} recurrence={values[ell - 1]} ok={str(ok).lower()}")
    print(report.summary(), file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_oeis_check(args) -> int:
    spec = _resolve_sequence(args.sequence)
    default_shift = 0
    if spec.name in oeis.PRESET_OEIS_IDS:
        default_shift = oeis.PRESET_OEIS_IDS[spec.name][1]
    shift = default_shift if args.shift is None else args.shift
    if args.bfile is not None:
        try:
            with open(args.bfile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise BFileError(f"{args.bfile}: not UTF-8 text ({exc})") from None
        table = oeis.parse_bfile(text, source=args.bfile)
    else:
        if spec.name not in oeis.PRESET_OEIS_IDS:
            raise SternlikeError(
                f"no OEIS id is associated with {spec.label()}; pass --bfile instead")
        table = oeis.fetch_bfile(oeis.PRESET_OEIS_IDS[spec.name][0])
    report = oeis.crosscheck(spec, table, index_shift=shift)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_catalog(args) -> int:
    for identity in identities.catalog():
        print(f"{identity.name:24s} n_min={identity.n_min} {identity.text}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sternlike",
        description="Exact evaluation and exhaustive verification for Stern-like sequences.",
        epilog=f"presets: {', '.join(PRESET_NAMES)} (a sequence argument may also "
               "be a path to a `key = value` spec file)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="print one term")
    p.add_argument("sequence")
    p.add_argument("n", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--direct", action="store_true",
                      help="descent through the recurrence instead of the matrix path")
    mode.add_argument("--fast", action="store_true", help="matrix path (default)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("table", help="print a range of terms")
    p.add_argument("sequence")
    p.add_argument("--from", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--format", choices=("bfile", "csv"), default="bfile")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("coeffs", help="print the coefficient table A(e, r), B(e, r)")
    p.add_argument("sequence")
    p.add_argument("--e-max", type=int, required=True)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("compile", help="export the linear representation")
    p.add_argument("sequence")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("verify", help="exhaustively check an identity")
    p.add_argument("name", nargs="?", help="catalog identity name")
    p.add_argument("--expr", help="identity text instead of a catalog name")
    p.add_argument("--e-max", type=int, default=6)
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--n-min", type=int,
                   help="lower n bound for --expr identities (default 0)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("series", help="run a named generating-series check")
    p.add_argument("check", choices=series.CHECK_NAMES)
    p.add_argument("--order", type=int)
    p.add_argument("--e-max", type=int,
                   help="top level E (for coons_lemma8: top product length K)")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("oracle-tm",
                       help="brute-force Thue-Morse block counts vs the recurrence")
    p.add_argument("--ell-max", type=int, default=64)
    p.set_defaults(func=_cmd_oracle_tm)

    p = sub.add_parser("oeis", help="b-file cross-checks")
    oeis_sub = p.add_subparsers(dest="oeis_command", required=True)
    pc = oeis_sub.add_parser("check", help="compare terms against a b-file")
    pc.add_argument("sequence")
    src = pc.add_mutually_exclusive_group(required=True)
    src.add_argument("--bfile", help="path to a local b-file")
    src.add_argument("--fetch", action="store_true",
                     help="download the b-file from oeis.org (network)")
    pc.add_argument("--shift", type=int, default=None,
                    help="b-file index = sequence index + shift")
    pc.set_defaults(func=_cmd_oeis_check)

    p = sub.add_parser("catalog", help="list the identity catalog")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    # exact values are the output, so lift the int <-> str digit limit while
    # the command runs (both for arguments and for printed terms)
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "verify" and (args.name is None) == (args.expr is None):
        print("error: pass exactly one of a catalog name or --expr", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (SternlikeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a crash must not read as exit 1, a counterexample
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
