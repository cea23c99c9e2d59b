"""Command-line workbench.

Subcommands: axioms, count, poly, dc-table, kernel-report, search. Exit code
0 on success, 1 on a domain error, 2 on a usage error. All counts and scores
are printed as decimal strings; CSV and JSON output is byte-deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from .doublecircle import (DEFAULT_DPS, QkTable, asymptotic_report,
                           df_series, f_closed, f_series, small_roots)
from .errors import ChirotriError, OutOfRange, WriteFailed
from .expr import (Atom, EvalMode, eval_expr, load_chirotope, load_rooted,
                   parse_expr)
from .oracle import DEFAULT_ORACLE_CAP, count_triangulations
from .orderdb import read_order_types
from .polynomials import q_from_p
from .search import check_pipeline, koch_variant_search


def _is_file(arg: str) -> bool:
    return arg.endswith((".chi", ".pts"))


def _rooted_input(arg: str, cap: int):
    if _is_file(arg):
        return load_rooted(arg)
    return eval_expr(parse_expr(arg), EvalMode.MATERIALIZE, oracle_cap=cap)


def _cmd_axioms(args) -> int:
    chi, _ = load_chirotope(args.file)
    report = chi.check_axioms()
    if report.ok:
        print(f"ok: {chi.n} elements, axioms hold")
        return 0
    print(f"interiority violations: {len(report.interiority)}")
    for row in report.interiority[:10]:
        print(f"  (x,y,z,t)={row}")
    print(f"transitivity violations: {len(report.transitivity)}")
    for row in report.transitivity[:10]:
        print(f"  (s,t,x,y,z)={row}")
    return 1


def _cmd_count(args) -> int:
    if args.method == "brute":
        if _is_file(args.input) and not args.drop_root:
            chi, _ = load_chirotope(args.input)  # no root needed
        else:
            rc = _rooted_input(args.input, args.oracle_cap)
            chi = rc.chi
            if args.drop_root:
                chi, _ = chi.restrict([x for x in range(chi.n) if x != rc.root])
        print(count_triangulations(chi, cap=args.oracle_cap))
        return 0
    if args.drop_root:
        raise OutOfRange("--drop-root needs --method brute")
    # a file goes through the expression language's own load() atom
    if _is_file(args.input):
        tree = Atom("load", (args.input,))
    else:
        tree = parse_expr(args.input)
    p = eval_expr(tree, EvalMode.POLYNOMIAL, oracle_cap=args.oracle_cap)
    print(q_from_p(p)(1))
    return 0


def _cmd_poly(args) -> int:
    p = eval_expr(parse_expr(args.expr), EvalMode.POLYNOMIAL,
                  oracle_cap=args.oracle_cap)
    out = q_from_p(p).to_json() if args.which == "Q" else p.to_json()
    if args.out:
        try:
            Path(args.out).write_text(out + "\n")
        except OSError as exc:
            raise WriteFailed(f"cannot write {args.out}: {exc}") from exc
    else:
        print(out)
    return 0


def _unprintable(kmax: int, limit: int) -> OutOfRange:
    return OutOfRange(f"--kmax {kmax}: D({kmax}) has more than {limit} digits, "
                      f"above Python's limit for printing an integer")


def _cmd_dc_table(args) -> int:
    if args.kmax < 3:
        raise OutOfRange("--kmax must be at least 3")
    # D(k) is the law's estimate 1.42 * 12^(k-2) * k^(-3/2) times a ratio
    # that falls from 1.22 at k = 3 towards 1 (1.00016 at k = 3980), so
    # log10 D(k) > (k-2) log10 12 - 1.5 log10 k - 1, and a kmax past that
    # bound certainly cannot print. The comparison builds neither D(kmax)
    # nor a float of kmax; the check after the table catches the k at the
    # bound.
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and args.kmax - 2 >= ((limit + 1 + 1.5 * math.log10(args.kmax))
                                   / math.log10(12)):
        raise _unprintable(args.kmax, limit)
    rows = asymptotic_report(range(3, args.kmax + 1), dps=args.precision)
    try:
        str(rows[-1].exact)  # the largest count: if it prints, all do
    except ValueError:
        raise _unprintable(args.kmax, limit) from None
    if args.format == "csv":
        print("k,exact,estimate,ratio")
        for r in rows:
            print(f"{r.k},{r.exact},{mp.nstr(r.estimate, 12)},{mp.nstr(r.ratio, 10)}")
    else:
        payload = [{"estimate": mp.nstr(r.estimate, 12), "exact": str(r.exact),
                    "k": r.k, "ratio": mp.nstr(r.ratio, 10)} for r in rows]
        print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_kernel_report(args) -> int:
    try:
        x = Fraction(args.x)
    except (ValueError, ZeroDivisionError) as exc:
        raise OutOfRange(f"bad rational {args.x!r}") from exc
    if args.terms < 1:
        raise OutOfRange("--terms must be at least 1")
    dps = args.precision
    table = QkTable(args.terms)
    pt = small_roots(x, dps=dps)
    fc, dfc = f_closed(pt, dps=dps)
    fs = f_series(x, args.terms, table, dps=dps)
    dfs = df_series(x, args.terms, table, dps=dps)
    digits = min(dps, 30)
    payload = {
        "x": str(x),
        "u1": mp.nstr(pt.u1, digits),
        "u2": mp.nstr(pt.u2, digits),
        "F_closed": mp.nstr(fc, digits),
        "F_series": mp.nstr(fs, digits),
        "dF_closed": mp.nstr(dfc, digits),
        "dF_series": mp.nstr(dfs, digits),
        "residuals": {"F": mp.nstr(abs(fc - fs), 6), "dF": mp.nstr(abs(dfc - dfs), 6)},
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_search(args) -> int:
    if args.top < 0:
        raise OutOfRange("--top must be at least 0")
    check_pipeline(args.levels, args.metric)  # also when no record is scored
    records, skipped = read_order_types(args.db, args.n, args.width,
                                        lenient=args.lenient)
    for idx in skipped:
        print(f"note: record {idx} skipped (collinear)", file=sys.stderr)
    rows = koch_variant_search(records, args.levels, args.metric,
                               cap=args.oracle_cap)
    print("record,root,score")
    limit = args.top if args.top else len(rows)
    for r in rows[:limit]:
        print(f"{r.record},{r.root},{r.score}")
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chirotri",
        description="exact chirotope composition and triangulation counting")
    ap.add_argument("--precision", type=int, default=DEFAULT_DPS,
                    help="significant digits for numeric analytics")
    ap.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP,
                    help="element cap for brute-force enumeration")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="axiom scan of a .chi or .pts file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("count", help="count triangulations of an expression or file")
    p.add_argument("input")
    p.add_argument("--method", choices=["brute", "poly"], default="brute")
    p.add_argument("--drop-root", action="store_true",
                   help="restrict away the root before counting (brute only)")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("poly", help="polynomial of an expression, as JSON")
    p.add_argument("expr")
    p.add_argument("--which", choices=["P", "Q"], default="P")
    p.add_argument("--out", help="write JSON to this file instead of stdout")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("dc-table", help="double-circle exact vs asymptotic table")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_dc_table)

    p = sub.add_parser("kernel-report", help="kernel roots and series cross-check")
    p.add_argument("--x", required=True, help="rational in (0, 1/12), e.g. 1/20")
    p.add_argument("--terms", type=int, default=80)
    p.set_defaults(func=_cmd_kernel_report)

    p = sub.add_parser("search", help="alternating-merge pipeline over a database")
    p.add_argument("--db", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--width", type=int, choices=[8, 16], default=None)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--top", type=int, default=0, help="print only the top T rows")
    p.add_argument("--metric", choices=["weak", "count"], default="weak")
    p.add_argument("--lenient", action="store_true",
                   help="skip collinear records instead of failing")
    p.set_defaults(func=_cmd_search)
    return ap


def run_cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.precision < 1:
            raise OutOfRange("--precision must be at least 1")
        return args.func(args)
    except ChirotriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    """Console entry point: run_cli, then flush stdout.

    A reader that closes the pipe early (``chirotri poly ... | head``) ends
    the run with exit code 1 and no traceback.
    """
    try:
        code = run_cli(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
