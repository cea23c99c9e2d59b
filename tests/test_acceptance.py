"""Acceptance suite: one test per criterion, one printed status line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
Criteria with stated runtime budgets assert them.
"""

import random
import time
from fractions import Fraction

import mpmath as mp

from chirotri import doublecircle
from chirotri import (EvalMode, QkTable, UnivarPoly,
                      brute_P, brute_Q, chirotope_from_points, constants,
                      convex, count_triangulations, dc_count,
                      double_circle, double_circle_points, eval_expr,
                      f_closed, f_series, df_series, join, join_P, koch, meet,
                      meet_P, parse_expr, q_from_p, rank_candidates,
                      small_roots, triangle, try_split, twist)

from helpers import (catalan, functional_equation_residual, qk_step_closedform,
                     random_rooted)


def _report(num, label, started):
    print(f"ACCEPTANCE {num:>2} PASS  {label}  ({time.perf_counter() - started:.1f}s)")


def test_criterion_01_catalan_baseline():
    t0 = time.perf_counter()
    for n in range(3, 9):
        expected = catalan(n - 2)
        brute = count_triangulations(convex(n).chi)
        poly = q_from_p(eval_expr(parse_expr(f"convex({n})"),
                                  EvalMode.POLYNOMIAL))(1)
        assert brute == expected == poly, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, "catalan baseline n=3..8, brute == polynomial", t0)


def test_criterion_02_meet_of_triangles():
    t0 = time.perf_counter()
    m, _ = meet(triangle(), triangle())
    assert brute_Q(m) == UnivarPoly({3: 1})
    via_poly = q_from_p(meet_P(brute_P(triangle()), brute_P(triangle())))
    assert via_poly == UnivarPoly({3: 1})
    _report(2, "meet(triangle, triangle) has Q = u^3 both ways", t0)


def test_criterion_03_recursion_vs_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20250808)
    sizes = [(a, b) for a in range(4, 9) for b in range(4, 9) if a + b - 2 <= 12]
    pairs = 200
    for i in range(pairs):
        n1, n2 = sizes[rng.randrange(len(sizes))]
        rc1 = random_rooted(n1, rng)
        rc2 = random_rooted(n2, rng)
        p1, p2 = brute_P(rc1), brute_P(rc2)
        if i % 2 == 0:
            combined, _ = join(rc1, rc2)
            assert join_P(p1, p2) == brute_P(combined), i
        else:
            combined, _ = meet(rc1, rc2)
            assert meet_P(p1, p2) == brute_P(combined), i
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(3, f"{pairs} randomized merges match the enumeration oracle exactly", t0)


def test_criterion_04_qk_table():
    t0 = time.perf_counter()
    table = QkTable(200)
    assert table.q(2) == UnivarPoly({5: 1, 4: 1, 3: 2, 2: 2})
    assert table.total(3) == 43
    assert table.total(4) == 352
    assert table.coeff2(4) == 102
    # one walk of the rows: q(k) rebuilds Q_k in k - 1 steps
    prev = None
    for k, (row, _, _) in enumerate(doublecircle._rows(200), start=1):
        q = UnivarPoly(dict(enumerate(row)))
        if prev is not None:
            # the closed-form step raises on any nonzero division remainder
            assert qk_step_closedform(prev) == q, k
        if k in (1, 2, 200):
            assert table.q(k) == q, k
        prev = q
    _report(4, "Q_k values and closed-form/convolution agreement to k=200", t0)


def test_criterion_05_double_circle_exact_counts():
    t0 = time.perf_counter()
    table = QkTable(4)
    for k, expected in ((3, 4), (4, 30), (5, 250)):
        assert dc_count(k, table) == expected
        chi = chirotope_from_points(double_circle_points(k))
        assert count_triangulations(chi) == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(5, "double-circle counts 4 / 30 / 250, recursion == brute force", t0)


def test_criterion_06_asymptotic_law():
    t0 = time.perf_counter()
    cs = constants(dps=50)
    # the prefactor is recomputed from its surd expression at 50 digits
    with mp.workdps(50):
        r21 = mp.sqrt(21)
        direct = 54 / (7 * mp.sqrt(mp.pi)) * r21 * (5 - r21) / (7 - r21) ** 2
        assert abs(cs.theorem_constant - direct) < mp.mpf(10) ** -45
        assert abs(cs.theorem_constant - mp.mpf("1.42463")) < 1e-4
        table = QkTable(399)
        ratios = {}
        for k in (100, 400):
            exact = dc_count(k, table)
            est = cs.theorem_constant * mp.mpf(12) ** (k - 2) * mp.mpf(k) ** mp.mpf("-1.5")
            ratios[k] = exact / est
        assert abs(ratios[100] - 1) < 0.10
        assert abs(ratios[400] - 1) < 0.03
        assert abs(ratios[400] - 1) < abs(ratios[100] - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(6, f"ratios {float(ratios[100]):.4f} @k=100, {float(ratios[400]):.4f} @k=400", t0)


def test_criterion_07_kernel_analytics():
    t0 = time.perf_counter()
    table = QkTable(80)
    x = Fraction(1, 20)
    f, df = f_closed(small_roots(x))
    assert abs(f - f_series(x, 80, table)) < 1e-10
    assert abs(df - df_series(x, 80, table)) < 1e-9
    pt = small_roots(Fraction(1, 12) - Fraction(1, 10 ** 10))
    with mp.workdps(50):
        assert abs(pt.u2 - (-3 + mp.sqrt(21)) / 2) < 1e-6
    worst = mp.mpf(0)
    for xi in (Fraction(i, 1000) for i in range(1, 11)):
        for uj in (Fraction(j, 10) for j in (1, 3, 5, 7, 9, 11, 13, 15, 17, 19)):
            worst = max(worst, functional_equation_residual(xi, uj, 80, table))
    assert worst < 1e-8
    _report(7, f"series vs closed forms, root limit, residual<= {float(worst):.1e}", t0)


def test_criterion_08_koch_replication():
    t0 = time.perf_counter()
    k3 = koch(3)
    chain, _ = k3.chi.restrict([x for x in range(k3.chi.n) if x != k3.root])
    assert count_triangulations(chain) == 424
    for level in range(1, 5):
        p = eval_expr(parse_expr(f"koch({level})"), EvalMode.POLYNOMIAL)
        assert try_split(p) is not None, level
    _report(8, "koch level 3 minus root has 424 triangulations; P splits to level 4", t0)


def test_criterion_09_search_harness():
    t0 = time.perf_counter()
    cands = [("koch3", koch(3).root, koch(3)),
             ("convex10", 0, convex(10)),
             ("dc5", 0, double_circle(5))]
    base = rank_candidates(cands, levels=6, metric="weak")
    assert base[0].record == "koch3"
    assert rank_candidates(cands[::-1], levels=6, metric="weak") == base
    _report(9, "koch(3) ranks first at levels=6; independent of input order", t0)


def test_criterion_10_axiom_and_structure_invariants():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    pool = [random_rooted(n, rng) for n in (4, 5, 6, 7) for _ in range(8)]
    for i in range(1000):
        op = i % 3
        a = pool[rng.randrange(len(pool))]
        if op == 2:
            out = twist(a)
            expected_n = a.chi.n
        else:
            b = pool[rng.randrange(len(pool))]
            out, _ = (join if op == 0 else meet)(a, b)
            expected_n = a.chi.n + b.chi.n - 2
        assert out.chi.n == expected_n
        # RootedChirotope construction already certifies the root is extreme
        assert out.chi.check_axioms().ok, i
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(10, "1000 randomized compositions: axioms, extreme roots, size laws", t0)
