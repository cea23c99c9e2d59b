"""Polynomial route: pinned stdout of ``poly --which P``, ``poly --which Q``
and ``count --method poly`` over chains, trees and loaded point sets, and
of the deep Koch levels 9 and 10."""

import hashlib
import random
from math import gcd

import pytest

from chirotri import (EvalMode, UnivarPoly, chirotope_from_points, eval_expr,
                      parse_expr, try_split)
from chirotri.cli import run_cli

from helpers import random_point_set

_EXPRESSIONS = [
    *(f"koch({i})" for i in range(1, 9)),
    "chik(1)", "chik(2)", "chik(12)", "chik(72)",
    "convex(3)", "convex(4)", "convex(15)", "convex(130)",
    "twist(koch(5))",
    "meet(chik(3), convex(6))",
    "join(meet(koch(2), twist(koch(3))), meet(koch(3), koch(2)))",
]


def _write_pts(tmp_path, seed):
    """A seeded 5-9-point set in general position and one of its hull labels."""
    rng = random.Random(seed)
    ps = random_point_set(rng.randrange(5, 10), rng)
    path = tmp_path / f"s{seed}.pts"
    path.write_text(ps.to_text())
    root = rng.choice(sorted(chirotope_from_points(ps).extreme_elements()))
    return f'load("{path}", {root})'


def test_poly_outputs_are_pinned(tmp_path, capsys):
    # sha256 prefix over the stdout of the three polynomial commands, one
    # expression after the other
    a, b = _write_pts(tmp_path, 5), _write_pts(tmp_path, 9)
    exprs = _EXPRESSIONS + [f"join({a}, twist({b}))",
                            f"meet(join({b}, koch(3)), {a})"]
    h = hashlib.sha256()
    for e in exprs:
        for argv in (["poly", e, "--which", "P"], ["poly", e, "--which", "Q"],
                     ["count", "--method", "poly", e]):
            assert run_cli(argv) == 0, argv
            out, err = capsys.readouterr()
            assert err == ""
            h.update(out.encode())
    assert h.hexdigest()[:16] == "db1c84ae5e306032"


def _canonical_factors(p):
    """The factors (U, V) of a factored P with V its lowest-u row over the
    gcd of that row's entries: one pair per polynomial, whatever the scale
    of the factors it holds."""
    u, v = try_split(p)
    s = gcd(*(c for _, c in v.terms()))
    if u.terms()[0][1] < 0:
        s = -s
    return (UnivarPoly({e: c * s for e, c in u.terms()}),
            UnivarPoly({e: c // s for e, c in v.terms()}))


@pytest.mark.parametrize("level, digest", [(9, "e6e4caee02f7694d"),
                                           (10, "80825a47e888014e")])
def test_deep_koch_outputs_are_pinned(level, digest, capsys):
    # ``poly --which P`` would print about 80 MB at level 9 and 650 MB at
    # level 10; P factors, so its two canonical factors stand for it
    e = f"koch({level})"
    h = hashlib.sha256()
    for argv in (["poly", e, "--which", "Q"], ["count", "--method", "poly", e]):
        assert run_cli(argv) == 0, argv
        out, err = capsys.readouterr()
        assert err == ""
        h.update(out.encode())
    for factor in _canonical_factors(eval_expr(parse_expr(e),
                                               EvalMode.POLYNOMIAL)):
        h.update(factor.to_json().encode())
    assert h.hexdigest()[:16] == digest
