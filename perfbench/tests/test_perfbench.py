"""Tests of the benchmark itself: generator, checker, fork runner, tracing."""

import dataclasses
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from chirotri import (EvalMode, PointSet, RootedChirotope, cli,  # noqa: E402
                      chirotope_from_points, compose, count_triangulations,
                      doublecircle, eval_expr, expr, koch, oracle, parse_expr,
                      polynomials, q_from_p, search)

from perfbench import checks, runner, tracing, workloads  # noqa: E402
from perfbench.workloads import Op  # noqa: E402


def _snapshot(decks, workdir):
    """Ops with the work directory stripped, plus every generated file."""
    ops = [str(dataclasses.asdict(op)).replace(str(workdir), "<dir>")
           for deck in decks for op in deck]
    files = {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir())}
    return ops, files


def test_generator_is_deterministic_per_seed(tmp_path):
    for name in workloads.DECK_BUILDERS:
        a = _snapshot(workloads.generate(name, 7, tmp_path / "a"), tmp_path / "a")
        b = _snapshot(workloads.generate(name, 7, tmp_path / "b"), tmp_path / "b")
        c = _snapshot(workloads.generate(name, 8, tmp_path / "c"), tmp_path / "c")
        assert a == b, name
        assert a != c, name
        for d in ("a", "b", "c"):
            for p in (tmp_path / d).iterdir():
                p.unlink()


def _cli(argv, check, **kw):
    return Op("cli", list(argv), check=check, **kw)


def test_checker_accepts_correct_and_rejects_corrupted_output(tmp_path):
    files = workloads.InputFiles(tmp_path)
    pts, root = files.pts(random.Random(1), 6)
    pts2, root2 = files.pts(random.Random(2), 5)
    ops = [
        _cli(["count", "--method", "poly", "koch(4)"],
             {"route": "koch", "level": 4, "output": "count"}),
        _cli(["poly", "chik(6)", "--which", "Q"],
             {"route": "qk", "k": 6, "output": "Q"}),
        _cli(["poly", f'join(load("{pts}", {root}), chi1)', "--which", "Q"],
             {"route": "oracle", "output": "Q",
              "expr": f'join(load("{pts}", {root}), chi1)'}),
        Op("verify", job={"a": pts, "ra": root, "b": pts2, "rb": root2,
                          "op": "meet"}, check={"route": "verify", "n3": 9}),
        _cli(["--precision", "30", "dc-table", "--kmax", "12"],
             {"route": "dc-table", "kmax": 12, "format": "csv"}),
        _cli(["--precision", "40", "kernel-report", "--x", "1/20", "--terms", "60"],
             {"route": "kernel", "p": 1, "q": 20, "terms": 60, "dps": 40}),
    ]
    checker = checks.Checker(ops)
    for op in ops:
        rec = runner.run_op(op)
        assert checker.outcome(op, rec) == ("ok", ""), (op, rec)
        bad = dict(rec)
        if op.kind == "verify":
            p3 = rec["result"]["p3"]
            bad["result"] = dict(rec["result"], p3=p3.replace('"1"', '"2"', 1))
        else:
            out = rec["stdout"]
            i = next(i for i, ch in enumerate(out) if ch in "123456789")
            bad["stdout"] = out[:i] + str(int(out[i]) - 1) + out[i + 1:]
        assert checker.outcome(op, bad)[0] == "wrong", op


def test_checker_classifies_errors_and_known_defects(tmp_path):
    missing = str(tmp_path / "missing.pts")
    defect = _cli(["count", "--method", "poly", f'load("{missing}", 0)'],
                  {"route": "error", "output": "count"}, valid=False,
                  defect="missing-file")
    syntax = _cli(["count", "--method", "poly", "koch(3"],
                  {"route": "error", "output": "count"}, valid=False)
    low = _cli(["--precision", "15", "kernel-report", "--x", "1/20"],
               {"route": "kernel", "p": 1, "q": 20, "terms": 80, "dps": 15},
               defect="low-precision")
    checker = checks.Checker([low])
    assert checker.outcome(syntax, runner.run_op(syntax)) == ("ok", "")
    for op in (defect, low):
        rec = runner.run_op(op)
        status, _ = checker.outcome(op, rec)
        # a later fix turns these into ordinary correct outcomes
        assert status in ("known-defect", "ok"), rec
        if status == "known-defect":
            undocumented = dataclasses.replace(op, defect=None)
            assert checker.outcome(undocumented, rec)[0] == "wrong"


def test_ops_run_in_distinct_processes_without_shared_caches():
    cache = polynomials._n_poly_terms
    cache.cache_clear()
    op = _cli(["count", "--method", "poly", "koch(5)"],
              {"route": "koch", "level": 5, "output": "count"})
    first, second = runner.run_op(op), runner.run_op(op)
    assert len({first["pid"], second["pid"], os.getpid()}) == 3
    # the children filled their own caches; the parent they fork from did not
    assert cache.cache_info().currsize == 0
    assert first["stdout"] == second["stdout"] == f"{checks.KOCH_COUNTS[5]}\n"


def test_koch_reference_counts():
    for level in (1, 2, 3):
        assert count_triangulations(koch(level).chi) == checks.KOCH_COUNTS[level]
    for level in range(1, 6):
        p = eval_expr(parse_expr(f"koch({level})"), EvalMode.POLYNOMIAL)
        assert q_from_p(p)(1) == checks.KOCH_COUNTS[level]


def _calls(capsys):
    """A spread of layer calls, made through module attributes so that the
    tracer's rebinding applies to the outermost calls too."""
    rc = RootedChirotope(chirotope_from_points(
        PointSet([(0, 0), (9, 1), (5, 7), (3, 2), (6, 3)])), 0)
    out = {
        "poly": expr.eval_expr(expr.parse_expr("(koch(2) v chi1) ^ koch(3)"),
                               EvalMode.POLYNOMIAL),
        "brute": oracle.brute_P(rc),
        "meet": compose.meet(rc, koch(2))[0].chi,
        "table": doublecircle.QkTable(40).totals,
        "roots": doublecircle.small_roots(Fraction(1, 20), dps=40),
        "score": search.seed_score(koch(3), 5),
        "exit": cli.run_cli(["count", "--method", "poly", "chik(12)"]),
    }
    out["stdout"] = capsys.readouterr().out
    return out


def test_traced_wrappers_return_identical_results(capsys):
    originals = (polynomials.join_P, compose.join, cli.run_cli)
    plain = _calls(capsys)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert polynomials.join_P is not originals[0]
        with tracer.span("op"):
            traced = _calls(capsys)
    assert (polynomials.join_P, compose.join, cli.run_cli) == originals
    assert traced == plain
    names = {s[0] for s in tracer.spans}
    assert {"polynomials.join_P", "oracle.brute_P", "compose.meet",
            "doublecircle.QkTable", "search.seed_score", "cli.run_cli"} <= names
    root = tracer.spans[0]
    values = tracing.aggregate([tracer.spans], root[3] - root[2], 0.0)
    assert set(values) == {name for name, _ in tracing.per_layer_metrics()}
    layer_s = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert 0 < layer_s <= root[3] - root[2]
    assert values["search.candidates"] == 1
    assert 0 < values["polynomials.split_ratio"] <= 1
