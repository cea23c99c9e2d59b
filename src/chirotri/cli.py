"""Command-line workbench.

Subcommands: axioms, count, poly, dc-table, kernel-report, search. Exit code
0 on success, 1 on a domain error, 2 on a usage error. All counts and scores
are printed in full as decimal strings (``exact_str``), at any length; CSV
and JSON output is byte-deterministic. Only dc-table and kernel-report
import the double-circle module, and with it mpmath.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (ChirotriError, OutOfRange, WriteFailed, cannot_access,
                     clip)
from .expr import (Atom, EvalMode, eval_expr, load_chirotope, load_rooted,
                   parse_expr)
from .oracle import DEFAULT_ORACLE_CAP, count_triangulations
from .orderdb import read_order_types
from .polynomials import DEFAULT_DPS, exact_str, q_from_p
from .search import check_pipeline, koch_variant_search


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
    is_file = args.input.endswith((".chi", ".pts"))  # else an expression
    if args.method == "poly":
        if args.drop_root:
            raise OutOfRange("--drop-root needs --method brute")
        # a file goes through the expression language's own load() atom
        tree = Atom("load", (args.input,)) if is_file else parse_expr(args.input)
        p = eval_expr(tree, EvalMode.POLYNOMIAL, oracle_cap=args.oracle_cap)
        print(exact_str(q_from_p(p)(1)))
        return 0
    if is_file and not args.drop_root:
        chi, _ = load_chirotope(args.input)  # no root needed
    else:
        rc = (load_rooted(args.input) if is_file else
              eval_expr(parse_expr(args.input), EvalMode.MATERIALIZE,
                        oracle_cap=args.oracle_cap))
        chi = rc.chi
        if args.drop_root:
            chi, _ = chi.restrict([x for x in range(chi.n) if x != rc.root])
    print(exact_str(count_triangulations(chi, cap=args.oracle_cap)))
    return 0


def _cmd_poly(args) -> int:
    p = eval_expr(parse_expr(args.expr), EvalMode.POLYNOMIAL,
                  oracle_cap=args.oracle_cap)
    poly = q_from_p(p) if args.which == "Q" else p
    out = poly.to_json()
    if args.out:
        try:
            Path(args.out).write_text(out + "\n")
        except OSError as exc:
            raise WriteFailed(cannot_access("write", args.out, exc)) from exc
    else:
        print(out)
    return 0


def _nstr(x, n: int) -> str:
    """``mp.nstr(x, n)`` for x > 0 and n < 15, at any int-to-str limit.

    For x of 2,000 to 3,500 bits, nstr writes every digit of x's integer
    part with str(), which a limit lowered towards 640 digits refuses
    (below that range the part has fewer digits; above it, nstr scales x
    by a power of ten first). Its text depends only on the leading n + 1
    of those digits and on their count, so it is nstr of that prefix with
    the exponent shifted back.
    """
    import mpmath as mp

    if not 2000 <= mp.mag(x) <= 3500:
        return mp.nstr(x, n)
    digits = exact_str(int(x))
    head, _, exp = mp.nstr(mp.mpf(int(digits[:n + 1])), n).partition("e+")
    return f"{head}e+{int(exp) + len(digits) - n - 1}"


def _cmd_dc_table(args) -> int:
    import mpmath as mp

    from .doublecircle import asymptotic_report

    if args.kmax < 3:
        raise OutOfRange("--kmax must be at least 3")
    fields = ("k", "exact", "estimate", "ratio")
    rows = [(r.k, exact_str(r.exact), _nstr(r.estimate, 12),
             mp.nstr(r.ratio, 10))
            for r in asymptotic_report(range(3, args.kmax + 1), dps=args.precision)]
    if args.format == "csv":
        print(",".join(fields))
        for row in rows:
            print(*row, sep=",")
    else:
        print(json.dumps([dict(zip(fields, row)) for row in rows],
                         sort_keys=True))
    return 0


def _cmd_kernel_report(args) -> int:
    import mpmath as mp

    from .doublecircle import (QkTable, df_series, f_closed, f_series,
                               small_roots)

    try:
        x = Fraction(args.x)
    except (ValueError, ZeroDivisionError) as exc:
        raise OutOfRange(f"bad rational {clip(args.x)}") from exc
    if args.terms < 1:
        raise OutOfRange("--terms must be at least 1")
    dps = args.precision
    pt = small_roots(x, dps=dps)  # checks x before the table is built
    table = QkTable(args.terms)
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
        print(f"{r.record},{r.root},{exact_str(r.score)}")
    return 0


class _BuiltOnDispatch:
    """A command's parser: it keeps the calls that describe it and replays
    them on a real parser in ``parse_known_args``, which argparse calls
    only on the command it dispatches to."""

    def __init__(self, **kwargs):
        self._kwargs, self._calls = kwargs, []

    def add_argument(self, *args, **kwargs):
        self._calls.append(("add_argument", args, kwargs))

    def set_defaults(self, **kwargs):
        self._calls.append(("set_defaults", (), kwargs))

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self._kwargs)
        for name, call_args, call_kwargs in self._calls:
            getattr(parser, name)(*call_args, **call_kwargs)
        return parser.parse_known_args(args, namespace)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chirotri",
        description="exact chirotope composition and triangulation counting")
    ap.add_argument("--precision", type=int, default=DEFAULT_DPS,
                    help="significant digits for numeric analytics")
    ap.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP,
                    help="element cap for brute-force enumeration")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_BuiltOnDispatch)

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
    """Run one command line; ``argv=None`` reads ``sys.argv[1:]``.

    Returns 0 on success or help, 1 on a domain error (one ``error:`` line
    on stderr) and 2 on a usage error (usage text on stderr). Only the
    parser of the command that runs is built.
    """
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
    the run with exit code 1 and no traceback. Ctrl-C (SIGINT) ends it with
    exit code 130 and one ``interrupted`` line on stderr.
    """
    try:
        code = run_cli(argv)
        sys.stdout.flush()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
