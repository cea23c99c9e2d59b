"""Expression language, order-type ingestion, search harness, CLI surface."""

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import random
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chirotri import (Chirotope, EvalMode, ExprSyntaxError,
                      GeneralPositionViolation, MalformedFile, OracleTooLarge,
                      OrderTypeRecord, OutOfRange, PointSet, RootedChirotope,
                      TooLarge, TooSmall, brute_Q, chi1, chirotope_from_points,
                      convex, count_triangulations, eval_expr, iter_order_types,
                      koch_variant_search, meet, meet_P, parse_expr,
                      print_expr, q_from_p, rank_candidates, read_order_types,
                      seed_score, serialize_order_types, try_split,
                      write_chi)
from chirotri import compose
from chirotri.cli import run_cli
from chirotri.expr import Atom, Flip, Join, Meet, Twist
from chirotri.oracle import brute_P

from helpers import (catalan, random_point_set, random_rooted,
                     seed_score_unfolded)


# -- parsing -----------------------------------------------------------------


def test_parse_examples():
    assert parse_expr("join(triangle, triangle)") == Join(Atom("triangle"),
                                                          Atom("triangle"))
    tree = parse_expr("(koch(2) v koch(2)) ^ (koch(2) v koch(2))")
    piece = Join(Atom("koch", (2,)), Atom("koch", (2,)))
    assert tree == Meet(piece, piece)
    assert parse_expr("twist(chi1)") == Twist(Atom("chi1"))
    assert parse_expr('load("a.chi", 3)') == Atom("load", ("a.chi", 3))


def test_parse_errors():
    with pytest.raises(ExprSyntaxError):
        parse_expr("meet(triangle)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("twist(triangle, triangle)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("unknownthing(3)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("convex()")
    with pytest.raises(ExprSyntaxError):
        parse_expr("triangle v triangle ^ triangle")
    with pytest.raises(ExprSyntaxError):
        parse_expr("join(triangle,, triangle)")
    err = None
    try:
        parse_expr("join(triangle,\n  %")
    except ExprSyntaxError as exc:
        err = exc
    assert err is not None and err.line == 2 and err.col == 3



def test_error_positions_count_newlines_inside_strings():
    # the position of a token counts every newline before it, one inside a
    # quoted load path too
    for src, line, col in (('load("a\nb.chi", 0) %', 2, 12),
                           ('load("a\nb.chi", 0) v\n  %', 3, 3),
                           ('join(load("a\n\nb.chi"),\n"c")', 4, 1)):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(src)
        assert (info.value.line, info.value.col) == (line, col), src


def test_digits_beyond_ascii():
    # decimal digits of any script read as integers; another digit
    # character (a superscript two) is not a number
    assert parse_expr("convex(\u0667)") == Atom("convex", (7,))
    assert parse_expr("koch(\u0661\u0660)") == Atom("koch", (10,))
    with pytest.raises(ExprSyntaxError):
        parse_expr("convex(\u00b2)")


@pytest.mark.parametrize("call", [
    "join()", "join(triangle)", "twist()", "twist(triangle, triangle)",
    "convex()", "load(1, 2, 3)", "meet", "flip"])
def test_arity_errors_point_at_the_name(call):
    # one rule checks the number of arguments of every builtin call
    with pytest.raises(ExprSyntaxError, match=r"takes \d") as info:
        parse_expr("triangle v\n  " + call)
    assert (info.value.line, info.value.col) == (2, 3)

_atoms = st.one_of(
    st.sampled_from([Atom("triangle"), Atom("chi1")]),
    st.builds(lambda name, a: Atom(name, (a,)),
              st.sampled_from(["convex", "chik", "koch", "dc"]),
              st.integers(0, 10 ** 6)),
    st.builds(lambda path, root: Atom("load", (path,) if root is None
                                      else (path, root)),
              st.text(st.characters(blacklist_characters='"'), max_size=12),
              st.none() | st.integers(0, 99)),
)
_trees = st.recursive(_atoms, lambda kids: st.one_of(
    st.builds(Join, kids, kids), st.builds(Meet, kids, kids),
    st.builds(Twist, kids), st.builds(Flip, kids)), max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_trees)
@example(parse_expr("join(triangle, triangle)"))
@example(parse_expr("(koch(2) v koch(2)) ^ (koch(2) v koch(2))"))
@example(parse_expr("twist(flip(meet(convex(5), chik(2))))"))
@example(parse_expr('load("x.pts", 0)'))
@example(parse_expr("join(triangle, triangle, chi1)"))
def test_print_roundtrip(tree):
    back = parse_expr(print_expr(tree))
    assert back == tree and hash(back) == hash(tree)
    # a node hashes as its type name with the tuple of its field values
    key = tuple(getattr(tree, f.name) for f in dataclasses.fields(tree))
    assert hash(tree) == hash((type(tree).__name__, key))


def test_long_chains_print_flat_and_reparse():
    assert print_expr(parse_expr("triangle v chi1")) == "join(triangle, chi1)"
    assert (print_expr(parse_expr("(triangle ^ chi1 ^ chi1) v chi1"))
            == "join(meet(triangle, chi1, chi1), chi1)")
    for op in ("v", "^"):
        tree = parse_expr(f" {op} ".join(["triangle"] * 1100))
        text = print_expr(tree)
        name = "join" if op == "v" else "meet"
        assert text == f"{name}({', '.join(['triangle'] * 1100)})"
        assert parse_expr(text) == tree


def test_infix_matches_calls():
    assert parse_expr("triangle v triangle") == parse_expr("join(triangle, triangle)")
    assert parse_expr("triangle ^ triangle") == parse_expr("meet(triangle, triangle)")
    # left associativity
    assert parse_expr("triangle v triangle v chi1") == \
        parse_expr("join(join(triangle, triangle), chi1)")


# -- evaluation ---------------------------------------------------------------


def test_eval_meet_example_both_modes():
    rc = eval_expr(parse_expr("meet(triangle, triangle)"), EvalMode.MATERIALIZE)
    assert brute_Q(rc)(1) == 1
    p = eval_expr(parse_expr("meet(triangle, triangle)"), EvalMode.POLYNOMIAL)
    assert q_from_p(p).terms() == [(3, 1)]


def test_mode_agreement():
    rng = random.Random(127)
    exprs = ["convex(6)", "chik(2)", "koch(2)", "join(triangle, convex(4))",
             "meet(convex(4), chi1)", "twist(chik(2))", "flip(koch(2))",
             "(triangle v triangle) ^ triangle", "dc(4)"]
    for src in exprs:
        tree = parse_expr(src)
        rc = eval_expr(tree, EvalMode.MATERIALIZE)
        p = eval_expr(tree, EvalMode.POLYNOMIAL)
        assert q_from_p(p) == brute_Q(rc), src


def test_materialize_cap_handoff():
    with pytest.raises(TooLarge) as exc:
        eval_expr(parse_expr("koch(4)"), EvalMode.MATERIALIZE)
    assert "polynomial" in str(exc.value)
    # polynomial mode reaches the same expression fine
    p = eval_expr(parse_expr("koch(4)"), EvalMode.POLYNOMIAL)
    assert p(1, 1) > 0


def test_materialize_checks_generator_size_before_building(monkeypatch):
    def never(*args):
        raise AssertionError("generator built above the cap")
    monkeypatch.setattr(compose, "convex", never)
    monkeypatch.setattr(compose, "chi_k", never)
    monkeypatch.setattr(compose, "koch", never)
    # koch(i)'s size is written as 2^i + 2 and never built
    for src, n in (("convex(100000)", 100000), ("chik(100000)", 200002),
                   ("koch(100)", r"2\^100 \+ 2")):
        with pytest.raises(TooLarge, match=f"has {n} elements"):
            eval_expr(parse_expr(src), EvalMode.MATERIALIZE)
    # koch(3) has 10 elements: refused under a cap of 9, built under 10
    for src, cap in (("koch(3)", 9), ("koch(0)", 2), ("koch(0)", -1)):
        with pytest.raises(TooLarge, match=r"has 2\^\d \+ 2 elements"):
            eval_expr(parse_expr(src), EvalMode.MATERIALIZE, oracle_cap=cap)
    with pytest.raises(AssertionError, match="generator built"):
        eval_expr(parse_expr("koch(3)"), EvalMode.MATERIALIZE, oracle_cap=10)


def test_polynomial_mode_expands_generators():
    p = eval_expr(parse_expr("convex(14)"), EvalMode.POLYNOMIAL)
    assert q_from_p(p)(1) == catalan(12)


def test_generator_chains_equal_the_chains_spelled_out():
    # the row recurrence and the general path, one join_P per link, build
    # the same polynomial and the same factors at the same scale
    def poly(src):
        return eval_expr(parse_expr(src), EvalMode.POLYNOMIAL)

    cases = ([("chi1", k, f"chik({k})") for k in range(1, 31)]
             + [("triangle", n - 2, f"convex({n})") for n in range(3, 41)])
    for leaf, links, generator in cases:
        chain = poly(generator)
        by_hand = poly(leaf if links == 1 else
                       "join(" + ", ".join([leaf] * links) + ")")
        assert chain == by_hand, generator
        assert try_split(chain) is not None, generator
        assert try_split(chain) == try_split(by_hand), generator


def test_generator_chains_call_no_join_p(monkeypatch):
    from chirotri import expr, polynomials
    calls = []

    def spy(*args, _real=polynomials.join_P):
        calls.append(args)
        return _real(*args)
    for module in (expr, polynomials):
        monkeypatch.setattr(module, "join_P", spy)
    for src in ("chik(40)", "convex(60)", "join(chik(3), convex(5))"):
        calls.clear()
        eval_expr(parse_expr(src), EvalMode.POLYNOMIAL)
        assert len(calls) == src.count("join"), src
    # a chain spelled out by hand takes join_P link by link
    calls.clear()
    eval_expr(parse_expr("chi1 v chi1 v chi1"), EvalMode.POLYNOMIAL)
    assert len(calls) == 2


def test_generator_arguments_out_of_domain_keep_their_errors():
    for src, error, message in (("chik(0)", OutOfRange, "need k >= 1, got 0"),
                                ("convex(2)", TooSmall, "needs n >= 3, got 2")):
        for mode in EvalMode:
            with pytest.raises(error, match=message):
                eval_expr(parse_expr(src), mode)


def test_memo_keeps_only_nodes_reached_twice(monkeypatch):
    # a chain reaches each spine node once, so no intermediate polynomial
    # stays alive; keeping them all took about 11 MB for chik(300). The
    # generator keeps no intermediate row either
    for src in ("chik(300)", "join(" + ", ".join(["chi1"] * 300) + ")"):
        tree = parse_expr(src)
        tracemalloc.start()
        try:
            p = eval_expr(tree, EvalMode.POLYNOMIAL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, src[:9]
        assert p == eval_expr(tree, EvalMode.POLYNOMIAL)
    # a shared tree still computes each distinct node once: the rewrite of
    # koch(3) is a subtree of that of koch(4)
    from chirotri import expr
    calls = []
    for name in ("join_P", "meet_P", "brute_P"):
        def spy(*args, _name=name, _real=getattr(expr, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(expr, name, spy)
    for src, merges in (("koch(6)", 3),
                        ("join(koch(4), meet(koch(3), twist(koch(4))))", 3)):
        calls.clear()
        eval_expr(parse_expr(src), EvalMode.POLYNOMIAL)
        assert sorted(calls) == (["brute_P"] + ["join_P"] * merges
                                 + ["meet_P"] * merges), src


def test_load_atom(tmp_path):
    path = tmp_path / "c5.chi"
    path.write_text(write_chi(convex(5).chi, 0))
    rc = eval_expr(parse_expr(f'load("{path}")'), EvalMode.MATERIALIZE)
    assert rc.chi.n == 5 and rc.root == 0
    rc2 = eval_expr(parse_expr(f'load("{path}", 2)'), EvalMode.MATERIALIZE)
    assert rc2.root == 2


# -- order type database -------------------------------------------------------


def _pack8(recs):
    return b"".join(struct.pack("<" + "B" * (2 * len(r)), *[v for p in r for v in p])
                    for r in recs)


def test_read_order_types_synthetic():
    recs = [((0, 0), (255, 0), (0, 255), (90, 90)),
            ((0, 0), (10, 0), (0, 10), (3, 4)),
            ((1, 1), (20, 3), (5, 17), (9, 9))]
    data = _pack8(recs)
    records = list(iter_order_types(data, 4, 8))
    assert len(records) == 3
    assert records[0].coords == recs[0]
    assert [r.index for r in records] == [0, 1, 2]
    ps = records[0].point_set()
    chirotope_from_points(ps)  # valid general position


def test_read_order_types_rejects_truncated():
    data = _pack8([((0, 0), (255, 0), (0, 255), (90, 90))])
    with pytest.raises(MalformedFile):
        list(iter_order_types(data[:-1], 4, 8))


def test_read_order_types_collinear_handling():
    recs = [((0, 0), (255, 0), (0, 255), (90, 90)),
            ((0, 0), (1, 1), (2, 2), (5, 0))]
    data = _pack8(recs)
    with pytest.raises(GeneralPositionViolation):
        list(iter_order_types(data, 4, 8))
    skipped = []
    records = list(iter_order_types(data, 4, 8, lenient=True, skipped=skipped))
    assert len(records) == 1 and skipped == [1]


def test_order_types_roundtrip_16bit(tmp_path):
    rng = random.Random(131)
    recs = []
    while len(recs) < 2:
        ps = random_point_set(9, rng, span=700)
        recs.append(tuple((int(x), int(y)) for x, y in ps))
    data = b"".join(struct.pack("<18H", *[v for p in r for v in p]) for r in recs)
    path = tmp_path / "db9.bin"
    path.write_bytes(data)
    records, skipped = read_order_types(path, 9)  # defaults to 16-bit here
    assert not skipped and len(records) == 2
    assert serialize_order_types(records) == data
    # a coordinate that does not fit the width is refused, naming the record
    for bad, width in (((300, 1), 8), ((-1, 0), 8), ((0, 70000), 16)):
        recs = [OrderTypeRecord(0, 3, ((0, 0), (9, 1), (4, 7))),
                OrderTypeRecord(1, 3, ((0, 0), (9, 1), bad))]
        with pytest.raises(OutOfRange, match=f"record 1 .*width {width}"):
            serialize_order_types(recs, width)
    # the writer refuses a width the reader refuses, with the reader's message
    rec = [OrderTypeRecord(0, 3, ((0, 0), (9, 1), (4, 7)))]
    for width in (12, 0):
        message = f"width must be 8 or 16 bits, got {width}"
        with pytest.raises(OutOfRange, match=message):
            serialize_order_types(rec, width)
        with pytest.raises(OutOfRange, match=message):
            list(iter_order_types(bytes(12), 3, width))


@st.composite
def _order_type_records(draw):
    width = draw(st.sampled_from((8, 16)))
    n = draw(st.integers(3, 8))
    coord = st.integers(0, 2 ** width - 1)
    recs = draw(st.lists(st.lists(st.tuples(coord, coord), min_size=n,
                                  max_size=n), min_size=1, max_size=4))
    return width, [OrderTypeRecord(i, n, tuple(r)) for i, r in enumerate(recs)]


def _in_general_position(rec) -> bool:
    try:
        rec.point_set().validate_general_position()
    except GeneralPositionViolation:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(_order_type_records())
def test_order_types_roundtrip_random(width_recs):
    width, recs = width_recs
    data = serialize_order_types(recs, width)
    n = recs[0].n
    assert len(data) == len(recs) * n * 2 * (width // 8)
    skipped = []
    back = list(iter_order_types(data, n, width, lenient=True, skipped=skipped))
    assert back == [r for r in recs if _in_general_position(r)]
    assert skipped == [r.index for r in recs if not _in_general_position(r)]
    if not skipped:
        assert serialize_order_types(back, width) == data


# -- search harness -------------------------------------------------------------


def test_seed_score_count_metric_matches_oracle():
    # level-4 stage from a small seed is a self-meet; count it both ways
    seed = chi1()
    combined, _ = meet(seed, seed)
    expected = count_triangulations(combined.chi)
    assert seed_score(seed, levels=4, metric="count") == expected
    # weak metric equals the merged polynomial total
    assert seed_score(seed, levels=4, metric="weak") == \
        meet_P(brute_P(seed), brute_P(seed))(1, 1)


def test_seed_score_equals_the_unfolded_pipeline():
    # levels 7 and 8 build polynomials of hundreds of terms on the unfolded
    # route, so they run on the small seeds only; a count at level 8 builds
    # the level-8 polynomial on both routes (about 1 s from 6 points)
    rng = random.Random(397)
    for n in (5, 5, 6, 6, 7, 8, 9):
        rc = random_rooted(n, rng)
        for levels in range(4, 9 if n <= 6 else 7):
            metrics = ("weak", "count") if levels < 8 or n == 5 else ("weak",)
            for metric in metrics:
                assert seed_score(rc, levels, metric) == \
                    seed_score_unfolded(rc, levels, metric)


def test_seed_score_default_cap_is_the_oracle_cap():
    with pytest.raises(OracleTooLarge):
        seed_score(convex(13), levels=4)


def test_search_single_record():
    pts = ((0, 0), (40, 3), (23, 30), (17, 12))
    data = _pack8([pts])
    records = list(iter_order_types(data, 4, 8))
    rows = koch_variant_search(records, levels=4, metric="weak")
    chi = chirotope_from_points(records[0].point_set())
    assert len(rows) == len(chi.extreme_elements())
    assert all(r.record == 0 for r in rows)
    scores = [r.score for r in rows]
    assert scores == sorted(scores, reverse=True)


def test_rank_determinism_across_input_order():
    cands = [("a", 0, convex(6)), ("b", 0, chi1()),
             ("c", 2, RootedChirotope(convex(3).chi, 2))]
    base = rank_candidates(cands, levels=5, metric="weak")
    for order in itertools.permutations(cands):
        assert rank_candidates(order, levels=5, metric="weak") == base


# -- CLI -----------------------------------------------------------------------


def test_cli_count(capsys):
    assert run_cli(["count", "convex(7)", "--method", "brute"]) == 0
    assert capsys.readouterr().out.strip() == "42"
    assert run_cli(["count", "convex(7)", "--method", "poly"]) == 0
    assert capsys.readouterr().out.strip() == "42"
    assert run_cli(["count", "koch(3)", "--drop-root"]) == 0
    assert capsys.readouterr().out.strip() == "424"


def test_cli_poly(capsys):
    assert run_cli(["poly", "chik(2)", "--which", "Q"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"terms": [[2, "2"], [3, "2"], [4, "1"], [5, "1"]]}


def test_cli_dc_table(capsys):
    assert run_cli(["dc-table", "--kmax", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,exact,estimate,ratio"
    assert lines[-1].startswith("5,250,")
    assert run_cli(["dc-table", "--kmax", "4", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[-1]["exact"] == "30"


@pytest.mark.parametrize("dps", ["15", "20"])
def test_cli_kernel_report_low_precision(capsys, dps):
    assert run_cli(["--precision", dps, "kernel-report", "--x", "1/20"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert float(data["residuals"]["F"]) < 1e-10
    assert float(data["residuals"]["dF"]) < 1e-10


def test_cli_kernel_report(capsys):
    assert run_cli(["kernel-report", "--x", "1/20", "--terms", "60"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"x", "u1", "u2", "F_closed", "F_series",
                         "dF_closed", "dF_series", "residuals"}
    assert data["x"] == "1/20"
    assert float(data["residuals"]["F"]) < 1e-10


@pytest.mark.parametrize("argv, message", [
    (["--precision", "0", "kernel-report", "--x", "1/20"],
     "--precision must be at least 1"),
    (["--precision", "-5", "dc-table", "--kmax", "5"],
     "--precision must be at least 1"),
    (["kernel-report", "--x", "1/20", "--terms", "0"],
     "--terms must be at least 1"),
    (["kernel-report", "--x", "1/20", "--terms", "-3"],
     "--terms must be at least 1"),
], ids=["precision-0", "precision-neg", "terms-0", "terms-neg"])
def test_cli_rejects_nonpositive_precision_and_terms(capsys, argv, message):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_axioms(tmp_path, capsys):
    path = tmp_path / "c5.chi"
    path.write_text(write_chi(convex(5).chi))
    assert run_cli(["axioms", str(path)]) == 0
    assert "ok" in capsys.readouterr().out
    # flip the sign of the (1,2,4) triple; consecutive-vertex flips would
    # still describe a realizable order type and pass the scan
    bad = write_chi(convex(5).chi).replace("++++++++++", "+++++++-++")
    path.write_text(bad)
    assert run_cli(["axioms", str(path)]) == 1
    assert "violations" in capsys.readouterr().out
    # an 8-point set with three signs flipped: the first ten rows of each
    # list, in scan order
    pts = PointSet([(6, 13), (1, 15), (11, 18), (17, 6), (16, 13), (15, 11),
                    (13, 11), (0, 17)])
    flips = ((1, 5, 7), (2, 3, 7), (3, 5, 7))
    signs = [-s if t in flips else s
             for t, s in chirotope_from_points(pts).items()]
    path.write_text(write_chi(Chirotope(8, signs)))
    assert run_cli(["axioms", str(path)]) == 1
    assert capsys.readouterr().out == _BAD8_AXIOMS


_BAD8_AXIOMS = """\
interiority violations: 24
  (x,y,z,t)=(2, 3, 6, 7)
  (x,y,z,t)=(2, 6, 7, 3)
  (x,y,z,t)=(2, 7, 3, 6)
  (x,y,z,t)=(3, 2, 7, 6)
  (x,y,z,t)=(3, 5, 7, 6)
  (x,y,z,t)=(3, 6, 2, 7)
  (x,y,z,t)=(3, 6, 5, 7)
  (x,y,z,t)=(3, 7, 6, 2)
  (x,y,z,t)=(3, 7, 6, 5)
  (x,y,z,t)=(5, 3, 6, 7)
transitivity violations: 54
  (s,t,x,y,z)=(0, 1, 2, 7, 5)
  (s,t,x,y,z)=(0, 1, 4, 7, 5)
  (s,t,x,y,z)=(0, 1, 5, 2, 7)
  (s,t,x,y,z)=(0, 1, 5, 4, 7)
  (s,t,x,y,z)=(0, 1, 7, 5, 2)
  (s,t,x,y,z)=(0, 1, 7, 5, 4)
  (s,t,x,y,z)=(0, 7, 2, 3, 4)
  (s,t,x,y,z)=(0, 7, 2, 3, 6)
  (s,t,x,y,z)=(0, 7, 3, 4, 2)
  (s,t,x,y,z)=(0, 7, 3, 6, 2)
"""


def test_cli_search(tmp_path, capsys):
    pts = ((0, 0), (40, 3), (23, 30), (17, 12))
    path = tmp_path / "db.bin"
    path.write_bytes(_pack8([pts]))
    assert run_cli(["search", "--db", str(path), "--n", "4", "--width", "8",
                    "--levels", "4", "--top", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "record,root,score"
    assert len(lines) == 3
    # levels are checked before any record is read, so an empty database
    # fails like a database with a record to score
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    for db in (path, empty):
        assert run_cli(["search", "--db", str(db), "--n", "4", "--width", "8",
                        "--levels", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: levels must be in 4..8, got 3")


def test_cli_search_refuses_n_past_the_coordinate_grid(tmp_path, capsys):
    # the record size is computed, not built as a struct of 2n fields, so a
    # huge n ends in a typed error, and the empty file does not hide it
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    ten = tmp_path / "ten.bin"
    ten.write_bytes(bytes(10))
    too_many = ("no 100000000000 points with 16-bit coordinates are in "
                "general position; at most 131072 are")
    for db, n, width, message in (
            (empty, "100000000000", [], too_many),
            (ten, "100000000000", [], too_many),
            (empty, "513", ["--width", "8"],
             "no 513 points with 8-bit coordinates are in general position; "
             "at most 512 are"),
            (ten, "131072", [], "file size 10 is not a multiple of the record "
             "size 524288 (n=131072, width=16)")):
        assert run_cli(["search", "--db", str(db), "--n", n, "--levels", "4"]
                       + width) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    with pytest.raises(OutOfRange, match="at most 131072"):
        list(iter_order_types(b"", 10 ** 11))


def test_cli_dc_table_far_out_kmax_starts_the_table_without_a_list_of_k(
        monkeypatch):
    # every D(k) prints, so a far-out --kmax runs until interrupted; it
    # must get to the table without building the range of k as a list
    # (800 GB at 10^11; past 2^63 no list can have that length)
    from chirotri import doublecircle

    def stop(table, kmax):
        raise AssertionError(f"table to {kmax}")

    monkeypatch.setattr(doublecircle, "_table", stop)
    for kmax in (10 ** 11, 10 ** 22):
        with pytest.raises(AssertionError, match=f"table to {kmax - 1}$"):
            run_cli(["dc-table", "--kmax", str(kmax)])


def test_cli_search_rejects_negative_top(tmp_path, capsys):
    path = tmp_path / "db.bin"
    path.write_bytes(_pack8([((0, 0), (40, 3), (23, 30), (17, 12))]))
    assert run_cli(["search", "--db", str(path), "--n", "4", "--width", "8",
                    "--levels", "4", "--top", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --top must be at least 0\n"


def test_cli_exit_codes(capsys):
    assert run_cli(["count", "nonsense("]) == 1
    assert run_cli(["no-such-command"]) == 2
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


_COMMANDS = ("axioms", "count", "poly", "dc-table", "kernel-report", "search")
_SEARCH = ["search", "--db", "db.bin", "--n", "4", "--width", "8",
           "--levels", "4"]

# argv lists whose exit codes, stdout and stderr make the CLI's surface: a
# valid call of each command, help, abbreviations and usage errors
_USAGE_CASES = [
    ["axioms", "tri.pts"],
    ["count", "convex(7)"],
    ["count", "--drop-root", "--method", "brute", "convex(6)"],
    ["count", "--method", "poly", "chik(3)"],
    ["poly", "chik(2)", "--which", "Q"],
    ["dc-table", "--kmax", "5", "--format", "json"],
    ["kernel-report", "--x", "1/20", "--terms", "10"],
    [*_SEARCH, "--top", "2"],
    [], ["-h"], ["--help"], ["--he"],
    ["-h", "count"], ["count", "-h"], ["axioms", "tri.pts", "-h"],
    *([cmd, "--help"] for cmd in _COMMANDS),
    ["--prec", "20", "count", "convex(5)"],
    ["count", "--meth", "poly", "convex(6)"],
    ["--oracle-cap=5", "count", "convex(5)"],
    ["--", "count", "x"], ["bogus"], ["--precision", "20"],
    ["--bogus", "count", "convex(5)"], ["count", "convex(5)", "--bogus"],
    ["--precision", "x", "count", "convex(5)"], ["dc-table", "--kmax", "x"],
    ["count", "convex(5)", "--method", "fast"], [*_SEARCH, "--width", "12"],
    ["dc-table"], ["kernel-report"], ["count"], ["search", "--db", "db.bin"],
    ["count", "convex(5)", "extra"],
    ["--precision", "0", "count", "convex(5)"],
    [*_SEARCH, "--top", "-1"],
]

# sha256 over json [argv, exit code, stdout, stderr] of each case at
# COLUMNS=80. argparse's wording and its handling of "--" change between
# Python releases, so the digest holds on the releases it was computed on
_USAGE_DIGEST = "be44db49574335630cbd835db074481a4f4823dba09a43cc267435220b1be259"
_USAGE_PINNED_ON = ("3.10.13", "3.11.7", "3.12.1", "3.13.0")


def test_cli_usage_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    monkeypatch.chdir(tmp_path)
    Path("tri.pts").write_text("0 0\n4 0\n0 4\n1 1\n")
    Path("db.bin").write_bytes(_pack8([((0, 0), (40, 3), (23, 30), (17, 12))]))
    digest = hashlib.sha256()
    for argv in _USAGE_CASES:
        code = run_cli(argv)
        digest.update(json.dumps([argv, code, *capsys.readouterr()]).encode())
    version = ".".join(map(str, sys.version_info[:3]))
    if version not in _USAGE_PINNED_ON:
        pytest.skip(f"usage bytes not pinned on Python {version}; "
                    f"here they hash to {digest.hexdigest()}")
    assert digest.hexdigest() == _USAGE_DIGEST


def test_cli_builds_only_the_parser_of_the_command_it_runs(monkeypatch):
    built = []

    def spy(self, *args, _real=argparse.ArgumentParser.__init__, **kwargs):
        built.append(kwargs.get("prog"))
        _real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for argv, code, progs in (
            (["count", "convex(7)"], 0, ["chirotri", "chirotri count"]),
            (["count", "--help"], 0, ["chirotri", "chirotri count"]),
            (["--help"], 0, ["chirotri"]),
            (["bogus"], 2, ["chirotri"])):
        built.clear()
        assert run_cli(argv) == code
        assert built == progs, argv


def test_cli_generator_argument_out_of_range(capsys):
    # both evaluation modes reject what the generator rejects
    for src in ("chik(0)", "convex(2)", "convex(0)"):
        for argv in (["count", "--method", "poly", src],
                     ["count", "--method", "brute", src],
                     ["poly", src], ["poly", src, "--which", "Q"]):
            assert run_cli(argv) == 1, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: "), argv


def test_cli_numbers_past_the_str_digit_limit(capsys):
    # 2^20000 + 2, like a 5,000-digit literal, has more decimal digits than
    # Python converts between int and str by default
    for argv in (["count", "koch(20000)"],
                 ["--oracle-cap", "100000", "count", "koch(20000)"],
                 ["count", "convex(" + "9" * 5000 + ")"],
                 ["count", "convex(\u00b2)"]):
        assert run_cli(argv) == 1, argv[:3]
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv[:3]
    with pytest.raises(TooLarge, match=r"koch\(20000\) has 2\^20000 \+ 2 elements"):
        compose.koch(20000)


def _same_output_at_str_digit_limit_640(capsys, runs):
    # each run exits 0 at the default limit and again at 640, the lowest
    # int-to-str limit Python accepts, with byte-identical output
    want = []
    for argv in runs:
        assert run_cli(argv) == 0, argv
        want.append(capsys.readouterr())
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for argv, out in zip(runs, want):
            assert run_cli(argv) == 0, argv
            assert capsys.readouterr() == out, argv
    finally:
        sys.set_int_max_str_digits(limit)
    return want


def test_cli_poly_results_past_the_str_digit_limit(capsys):
    # koch(10)'s count and Q coefficients have more than 640 digits; they
    # print in full, and the lowered limit changes no byte of the output
    want = _same_output_at_str_digit_limit_640(capsys, (
        ["count", "--method", "poly", "koch(10)"],
        ["poly", "koch(10)", "--which", "Q"]))
    assert len(want[0].out) > 700
    assert max(map(len, want[1].out.split('"'))) > 640


def test_cli_dc_table_refuses_counts_past_the_print_limit(capsys):
    # no count is refused for its length: D(k) has more than 640 digits from
    # k = 599 on and prints in full, in CSV and JSON, at either limit; the
    # one refusal left is of a --kmax below 3
    want = _same_output_at_str_digit_limit_640(capsys, (
        ["dc-table", "--kmax", "700"],
        ["dc-table", "--kmax", "700", "--format", "json"]))
    assert len(want[0].out.splitlines()[-1]) > 700
    assert want[1].out.count('"exact":') == 698
    assert run_cli(["dc-table", "--kmax", "2"]) == 1
    assert capsys.readouterr() == ("", "error: --kmax must be at least 3\n")


@settings(max_examples=150, deadline=None)
@given(st.integers(1990, 3510).flatmap(
           lambda bits: st.integers(2 ** (bits - 1), 2 ** bits - 1)),
       st.integers(-60, 60), st.sampled_from([15, 50, 1000]),
       st.sampled_from([10, 12, 14]))
@example(int("9" * 700), 0, 15, 12)  # a carry through every printed digit
def test_dc_table_estimates_print_as_mpmath_prints_them(man, exp, dps, n):
    # from 2^2000 to 2^3500 mpmath writes a float's integer part with str();
    # the CLI takes its digits from exact_str, and must print the same text
    from chirotri.cli import _nstr
    with mp.workdps(dps):
        x = mp.ldexp(mp.mpf(man), exp) / 3
    assert _nstr(x, n) == mp.nstr(x, n)


def test_koch_past_the_cap_is_refused_without_building_its_count(capsys):
    # the level alone shows that 2^i + 2 is above the cap; building the count
    # of koch(10^8) would take about 12 MB per copy
    assert run_cli(["count", "koch(100000000)"]) == 1
    assert capsys.readouterr() == ("", (
        "error: materialized result has 2^100000000 + 2 elements, above the "
        "oracle cap 12; use the polynomial mode\n"))
    tree = parse_expr("koch(100000000)")
    for build in (lambda: compose.koch(10 ** 8),
                  lambda: eval_expr(tree, EvalMode.MATERIALIZE)):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=r"2\^100000000"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
    # a cap past Python's int-to-str digit limit prints in full
    with pytest.raises(TooLarge, match=(
            r"has 2\^20000 \+ 2 elements, above the oracle cap 10{4300}; use")):
        eval_expr(parse_expr("koch(20000)"), EvalMode.MATERIALIZE,
                  oracle_cap=10 ** 4300)


def test_cli_output_determinism(capsys):
    run_cli(["dc-table", "--kmax", "6"])
    first = capsys.readouterr().out
    run_cli(["dc-table", "--kmax", "6"])
    assert capsys.readouterr().out == first
    run_cli(["kernel-report", "--x", "1/30", "--terms", "40"])
    first = capsys.readouterr().out
    run_cli(["kernel-report", "--x", "1/30", "--terms", "40"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("make_argv", [
    lambda d: ["count", "--method", "poly",
               f'join(load("{d / "missing.pts"}", 0), koch(2))'],
    lambda d: ["axioms", str(d / "missing.chi")],
    lambda d: ["search", "--db", str(d / "missing.bin"), "--n", "4"],
    lambda d: ["count", "--method", "poly",
               f'join(load("{d / "latin1.pts"}", 0), koch(2))'],
    lambda d: ["axioms", str(d / "latin1.chi")],
], ids=["load-missing", "axioms-missing", "search-missing",
        "load-undecodable", "axioms-undecodable"])
def test_cli_unreadable_file_is_a_domain_error(tmp_path, capsys, make_argv):
    for name in ("latin1.pts", "latin1.chi"):
        (tmp_path / name).write_bytes(b"0 0\n\xff\xfe 1\n")
    assert run_cli(make_argv(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read ")
    assert "Traceback" not in captured.err


def test_cli_count_file_input(tmp_path, capsys):
    path = tmp_path / "c6.chi"
    path.write_text(write_chi(convex(6).chi, 0))
    assert run_cli(["count", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "14"


def test_cli_count_points_file_needs_no_root(tmp_path, capsys):
    ps = random_point_set(7, random.Random(7))
    path = tmp_path / "config.pts"
    path.write_text("".join(f"{x} {y}\n" for x, y in ps))
    expected = count_triangulations(chirotope_from_points(ps))
    assert run_cli(["count", str(path)]) == 0
    assert capsys.readouterr().out.strip() == str(expected)
    # dropping the root, or the polynomial route, needs a root the file lacks
    for extra in (["--drop-root"], ["--method", "poly"]):
        assert run_cli(["count", str(path), *extra]) == 1
        assert "no root given" in capsys.readouterr().err


def test_cli_bad_coordinate_error_is_one_short_line(tmp_path, capsys):
    # a coordinate past the int-from-str limit, or a line of three, is
    # echoed cut short, with its length and the limit as the reason; a
    # short bad one is echoed whole
    path = tmp_path / "big.pts"
    big = "9" * 5000
    for line, start, tail in (
            (f"{big} 1", "bad coordinate '9999", "(5000 characters): more "
             "digits than Python's int-from-str limit\n"),
            (f"1 2 {big}", "line 1: expected 'x y', got '1 2 99",
             "(5004 characters)\n"),
            ("1/x 1", "bad coordinate '1/x'", "'1/x'\n")):
        path.write_text(f"{line}\n0 1\n1 0\n")
        assert run_cli(["count", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: " + start), err[:80]
        assert err.endswith(tail) and err.count("\n") == 1
        assert len(err.encode()) < 200


def test_cli_echoed_user_text_is_cut_short(tmp_path, capsys):
    # every echo of user text goes through one clip: a long token prints its
    # first 40 characters and its length, a short one prints whole
    chi, pts = tmp_path / "bad.chi", tmp_path / "col.pts"
    long_n = "7" * 6000
    cases = [
        (chi, f"chirotope v1\nn {long_n}\ntriples\n+\n", ["count", str(chi)],
         "bad element count 'n 7777", "(6002 characters)"),
        (chi, "chirotope v1\nn x\ntriples\n+\n", ["count", str(chi)],
         "bad element count 'n x'", "'n x'"),
        (chi, f"chirotope v1\nn 3\nroot {long_n}\ntriples\n+\n",
         ["count", str(chi)], "bad root 'root 7777", "(6005 characters)"),
        (None, None, ["kernel-report", "--x", "1/" + "9" * 5000],
         "bad rational '1/9999", "(5002 characters)"),
        (None, None, ["kernel-report", "--x", "1/x"], "bad rational '1/x'",
         "'1/x'"),
        (None, None, ["count", "x" * 6000], "unknown identifier 'xxxx",
         "(6000 characters) (line 1, column 1)"),
        (None, None, ["count", "koch(2) " + "b" * 6000], "trailing input 'bbbb",
         "(6000 characters) (line 1, column 9)"),
        (None, None, ["count", "join(koch(2) " + "b" * 6000 + ")"],
         "expected ')', found 'bbbb", "(6000 characters) (line 1, column 14)"),
        (None, None, ["count", "koch(2) foo"], "trailing input 'foo'",
         "'foo' (line 1, column 9)"),
        # past the int-to-str limit: labels, and coordinates cut short
        (pts, "1e5000 0\n0 0\n2e5000 0\n", ["count", str(pts)],
         "labels (0, 1, 2): collinear points (1000000000000000... (5001 "
         "characters), 0), (0, 0), (2000000000000000...",
         "(5001 characters), 0)"),
        (pts, "1/3 0\n0 0\n2 0\n", ["axioms", str(pts)],
         "labels (0, 1, 2): collinear points (1/3, 0), (0, 0), (2, 0)", "")]
    for path, text, argv, start, tail in cases:
        if path is not None:
            path.write_text(text)
        assert run_cli(argv) == 1, argv[:2]
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: " + start), err[:80]
        assert err.endswith(tail + "\n") and err.count("\n") == 1
        assert len(err.encode()) < 200


def test_cli_count_poly_accepts_rooted_file(tmp_path, capsys):
    path = tmp_path / "chi2.chi"
    rc = meet(chi1(), convex(5))[0]
    path.write_text(write_chi(rc.chi, rc.root))
    assert run_cli(["count", str(path), "--method", "poly"]) == 0
    poly = capsys.readouterr().out
    assert run_cli(["count", str(path)]) == 0
    assert poly == capsys.readouterr().out == f"{count_triangulations(rc.chi)}\n"



def test_cli_count_drop_root_routes(tmp_path, capsys):
    # a rooted .chi file drops its root as the same expression does
    rc = compose.koch(3)
    path = tmp_path / "koch3.chi"
    path.write_text(write_chi(rc.chi, rc.root))
    assert run_cli(["count", str(path), "--drop-root"]) == 0
    assert capsys.readouterr().out == "424\n"
    # the polynomial route refuses --drop-root before it reads any input
    for source in ("convex(6)", str(tmp_path / "missing.chi")):
        assert run_cli(["count", source, "--method", "poly", "--drop-root"]) == 1
        assert capsys.readouterr() == (
            "", "error: --drop-root needs --method brute\n")

def _env_with_src():
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_python_m_chirotri_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "chirotri", "--precision", "15",
         "kernel-report", "--x", "1/20"],
        capture_output=True, env=_env_with_src(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["x"] == "1/20"


def test_import_leaves_numpy_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, chirotri; print('numpy' in sys.modules)"],
        capture_output=True, env=_env_with_src(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"


def test_mpmath_loads_with_the_first_double_circle_command():
    # the package and count leave mpmath out; dc-table and a double-circle
    # name from the package bring it in
    code = ("import sys, chirotri; from chirotri.cli import run_cli; "
            "seen = ['mpmath' in sys.modules]; run_cli(['count', 'convex(7)']); "
            "seen.append('mpmath' in sys.modules); "
            "run_cli(['dc-table', '--kmax', '3']); "
            "print(seen + ['mpmath' in sys.modules], file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=_env_with_src(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"42\n")
    assert proc.stderr == b"[False, False, True]\n"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, chirotri; chirotri.QkTable; "
         "print('mpmath' in sys.modules, chirotri.dc_count(5))"],
        capture_output=True, env=_env_with_src(), timeout=60)
    assert proc.stdout == b"True 250\n", proc.stderr


def test_cli_closed_pipe_exits_quietly():
    # stdout is a pipe whose read end is already closed, as in `... | head`
    env = _env_with_src()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "chirotri.cli", "poly", "chik(110)"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_cli_ctrl_c_exits_130_with_one_line():
    # koch(14) runs far longer than the test; SIGINT lands in its merges
    proc = subprocess.Popen(
        [sys.executable, "-m", "chirotri", "count", "--method", "poly",
         "koch(14)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env_with_src())
    try:
        time.sleep(1)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130
    assert err == b"interrupted\n"
    assert out == b""


def test_cli_poly_unwritable_out_is_a_domain_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.json"
    assert run_cli(["poly", "triangle", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}")
    assert "Traceback" not in captured.err


def test_cli_long_paths_print_one_short_error_line(tmp_path, capsys):
    # the OSError text repeats the path; the message writes it once, cut
    # from the left so that the file name stays
    name = "x" * 5990 + "-tail.chi"
    for argv in (["count", str(tmp_path / name)],
                 ["count", f'load("{tmp_path / name}", 0)'],
                 ["search", "--db", str(tmp_path / name), "--n", "8"],
                 ["poly", "triangle", "--out", str(tmp_path / name)]):
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot ")
        assert captured.err.count("\n") == 1
        assert len(captured.err.encode()) <= 200
        assert "x-tail.chi: " in captured.err


def test_deep_chain_hashes_without_recursion():
    node = Atom("triangle")
    for _ in range(5000):
        node = Join(node, Atom("triangle"))
    assert {node: 1}[node] == 1
    assert hash(Join(Atom("chi1"), Atom("chi1"))) == hash(parse_expr("chi1 v chi1"))


def test_deep_left_chains_evaluate_without_recursion():
    p = eval_expr(parse_expr("convex(1100)"), EvalMode.POLYNOMIAL)
    assert q_from_p(p)(1) == catalan(1098)
    chain = " v ".join(["triangle"] * 1100)
    p = eval_expr(parse_expr(chain), EvalMode.POLYNOMIAL)
    assert q_from_p(p)(1) == catalan(1100)
    assert parse_expr(chain) == parse_expr(chain)
    assert parse_expr(chain) != parse_expr("chi1" + chain[len("triangle"):])
    with pytest.raises(TooLarge):
        eval_expr(parse_expr(chain), EvalMode.MATERIALIZE)


def test_nesting_too_deep_to_parse_is_a_syntax_error(capsys):
    src = "twist(" * 1200 + "triangle" + ")" * 1200
    with pytest.raises(ExprSyntaxError):
        parse_expr(src)
    assert run_cli(["count", "--method", "poly", src]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: expression nested too deeply")
    # a call nests as deep as a parenthesis does, two stack frames a level
    for src in ("twist(" * 400 + "triangle" + ")" * 400,
                "join(triangle, " * 400 + "triangle" + ")" * 400,
                "(" * 400 + "triangle" + ")" * 400):
        assert isinstance(parse_expr(src), (Twist, Join, Atom))


@pytest.mark.parametrize("expr, count, p_digest, q_digest", [
    ("chik(110)",
     "69952563292416103082919701255499490854910230498089913883022973261478679"
     "69008252957174821217667911827548801971467408",
     "210a6a9804335b63", "9829288dfc8a09e0"),
    ("join(koch(4), meet(koch(3), twist(koch(4))))",
     "5004194335169437748192558227456", "87ffb56c32f48ac1", "667634b143c59bb6"),
], ids=["chik110", "shared-koch-tree"])
def test_poly_and_count_outputs_are_pinned(capsys, expr, count, p_digest, q_digest):
    assert run_cli(["count", expr, "--method", "poly"]) == 0
    assert capsys.readouterr().out.strip() == count
    for which, digest in (("P", p_digest), ("Q", q_digest)):
        assert run_cli(["poly", expr, "--which", which]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest()[:16] == digest
