"""Polynomial route: pinned stdout of ``poly --which P``, ``poly --which Q``
and ``count --method poly`` over chains, trees and loaded point sets."""

import hashlib
import random

from chirotri import chirotope_from_points
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
