"""Double-circle pipeline: recursion table, exact counts, kernel analytics."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from chirotri import doublecircle
from chirotri import (OutOfRange, QkTable, UnivarPoly, asymptotic_report,
                      brute_P, brute_Q, chain_P, chi1, chi_k,
                      chirotope_from_points, constants, count_triangulations,
                      dc_count, double_circle_points, f_closed, f_series,
                      df_series, join_Q, kernel, qk_step, small_roots,
                      try_split)
from chirotri.cli import run_cli

from helpers import (functional_equation_residual, qk_step_closedform,
                     small_roots_bisection)

U = UnivarPoly

TABLE = QkTable(60)


def test_qk_values():
    assert TABLE.q(1) == U({3: 1})
    assert TABLE.q(2) == U({5: 1, 4: 1, 3: 2, 2: 2})
    assert TABLE.q(3) == U({7: 1, 6: 2, 5: 5, 4: 9, 3: 13, 2: 13})
    assert TABLE.total(3) == 43
    assert TABLE.total(4) == 352
    assert TABLE.coeff2(4) == 102


def test_qk_matches_brute_force():
    for k in (1, 2, 3):
        assert TABLE.q(k) == brute_Q(chi_k(k))


def test_qk_step_variants_agree():
    q = U({3: 1})
    u3 = U({3: 1})
    assert qk_step_closedform(q) == qk_step(q) == join_Q(q, u3)
    for k in range(1, 41):
        nxt = TABLE.q(k + 1)
        assert qk_step_closedform(TABLE.q(k)) == nxt
    for k in range(1, 12):
        assert join_Q(TABLE.q(k), u3) == TABLE.q(k + 1)


def test_table_against_independent_routes():
    # the closed-form chain, plain coefficient sums and the public step, over
    # one walk of the rows; q(k) rebuilds Q_k in k - 1 steps, so it is checked
    # at the first two and the last k only
    table = QkTable(201)
    q = U({3: 1})
    prev = None
    for k, (row, _, _) in enumerate(doublecircle._rows(201), start=1):
        qk = U(dict(enumerate(row)))
        assert qk == q
        assert table.total(k) == sum(c for _, c in q.terms())
        assert table.deriv(k) == sum(e * c for e, c in q.terms())
        assert table.coeff2(k) == q.coeff(2)
        if prev is not None:
            assert qk_step(prev) == qk
        if k in (1, 2, 201):
            assert table.q(k) == qk
        prev = qk
        q = qk_step_closedform(q)


def test_rows_read_their_values_off_the_next_row():
    # every total and derivative but the last comes from two coefficients of
    # the next row; the sums over the row itself are the other route
    for row, total, deriv in doublecircle._rows(400):
        assert total == sum(row)
        assert deriv == sum(e * c for e, c in enumerate(row))


def test_chain_p_u_row_is_the_closed_form_chain():
    # chain_P and QkTable both step _merge_core, so chik(k)'s u-row is checked
    # against the closed-form step, which shares no code with polynomials.py
    chi1_p = brute_P(chi1())
    q = U({3: 1})
    for k in range(1, 121):
        assert try_split(chain_P(chi1_p, k))[0] == q
        q = qk_step_closedform(q)


def test_qk_degree_law_and_positivity():
    for k in range(1, 41):
        q = TABLE.q(k)
        assert q.max_exp == 2 * k + 1
        assert q.min_exp == (3 if k == 1 else 2)
        assert all(c > 0 for _, c in q.terms())


def test_second_slice_identity():
    for k in range(2, 41):
        assert TABLE.coeff2(k) == TABLE.deriv(k - 1) - TABLE.total(k - 1)


def test_dc_counts():
    assert dc_count(3, TABLE) == 4
    assert dc_count(4, TABLE) == 30
    assert dc_count(5, TABLE) == 250
    with pytest.raises(OutOfRange):
        dc_count(2)


def test_dc_counts_match_brute_force():
    # the geometric route reaches k = 8 (203,748 triangulations of 16
    # points) in under a second; k = 9 takes several seconds
    for k in range(3, 9):
        chi = chirotope_from_points(double_circle_points(k))
        assert count_triangulations(chi, cap=16) == dc_count(k, TABLE)


def test_kernel_exact_values():
    # exact rational evaluation of the three anchor values
    for x in (Fraction(1, 100), Fraction(1, 13), Fraction(3, 40)):
        assert kernel(x, Fraction(0)) == 1
        assert kernel(x, Fraction(1)) == -x
        assert kernel(x, Fraction(2)) == 1 - 12 * x


def test_small_roots_bracketing():
    for x in (Fraction(1, 1000), Fraction(1, 50), Fraction(1, 13)):
        pt = small_roots(x)
        assert 0 < pt.u2 < 1 < pt.u1 < 2
        with mp.workdps(50):
            assert abs(kernel(pt.x, pt.u1)) < mp.mpf(10) ** -30
            assert abs(kernel(pt.x, pt.u2)) < mp.mpf(10) ** -30
    with pytest.raises(OutOfRange):
        small_roots(Fraction(1, 12))
    with pytest.raises(OutOfRange):
        small_roots(0)
    with pytest.raises(OutOfRange):
        small_roots(Fraction(1, 20), dps=0)



def test_bad_x_or_dps_is_refused_before_any_table_is_built(monkeypatch, capsys):
    # a table of 1,500 rows takes over a second; a bad argument must not
    # wait for it
    built = []
    rows = doublecircle._rows
    monkeypatch.setattr(doublecircle, "_rows",
                        lambda kmax: built.append(kmax) or rows(kmax))
    for call in (lambda: asymptotic_report(range(3, 1500), dps=0),
                 lambda: f_series(Fraction(1, 20), 1500, dps=0),
                 lambda: df_series(Fraction(1, 20), 1500, dps=0)):
        with pytest.raises(OutOfRange, match="need dps >= 1, got 0"):
            call()
    assert run_cli(["kernel-report", "--x", "1/5", "--terms", "2000"]) == 1
    assert capsys.readouterr() == ("", "error: x=1/5 outside (0, 1/12)\n")
    assert built == []
    # the spy does see a table that is built
    f_series(Fraction(1, 20), 5, dps=15)
    assert built == [5]

def test_small_roots_near_zero():
    x = Fraction(1, 10 ** 8)
    pt = small_roots(x)
    s = mp.sqrt(mp.mpf(1) / 10 ** 8)
    assert abs((pt.u1 - 1) - s) / s < 1e-3
    assert abs((1 - pt.u2) - s) / s < 1e-3


def test_small_roots_near_singularity():
    x = Fraction(1, 12) - Fraction(1, 10 ** 10)
    pt = small_roots(x)
    target = (-3 + mp.sqrt(21)) / 2
    assert abs(pt.u2 - target) < 1e-6
    gap = mp.sqrt(mp.mpf(12) / 7) * mp.sqrt(1 - 12 * pt.x)
    assert abs((2 - pt.u1) / gap - 1) < 1e-3


@pytest.mark.parametrize("dps", [10, 15, 20, 30, 50, 100, 300])
def test_small_roots_residual_follows_precision(dps):
    # bisection runs to the working precision: the kernel vanishes at both
    # roots to within one unit of mp.eps, at every precision
    for x in (Fraction(1, 10 ** 8), Fraction(1, 20), Fraction(1, 13),
              Fraction(1, 12) - Fraction(1, 10 ** 10)):
        pt = small_roots(x, dps=dps)
        with mp.workdps(dps):
            assert abs(kernel(pt.x, pt.u1)) <= mp.eps
            assert abs(kernel(pt.x, pt.u2)) <= mp.eps
    # away from the singularity the roots are well conditioned: they agree
    # with a computation at twice the precision to a few units of mp.eps
    pt = small_roots(Fraction(1, 20), dps=dps)
    ref = small_roots(Fraction(1, 20), dps=2 * dps)
    with mp.workdps(dps):
        assert abs(pt.u1 - ref.u1) <= 4 * mp.eps
        assert abs(pt.u2 - ref.u2) <= 4 * mp.eps


def _seeded_abscissae(n, seed):
    rng = random.Random(seed)
    xs = []
    for _ in range(n):
        p = rng.randint(1, 12)
        xs.append(Fraction(p, rng.randint(12 * p + 1, 150)))
    return xs


SPEC_XS = (Fraction(1, 10 ** 8), Fraction(1, 1000), Fraction(1, 20),
           Fraction(1, 13), Fraction(1, 12) - Fraction(1, 10 ** 10),
           Fraction(1, 12) - Fraction(1, 10 ** 12), *_seeded_abscissae(8, 71))


def _spy_full_bisections(monkeypatch):
    """Record the calls of ``_bisect`` that halve a whole bracket to the
    working precision, i.e. that do not resume near the radical root."""
    full = []
    real = doublecircle._bisect

    def spy(f, lo, hi, steps):
        if isinstance(lo, mp.mpf) and steps == mp.mp.prec + 2:
            full.append((lo, hi))
        return real(f, lo, hi, steps)

    monkeypatch.setattr(doublecircle, "_bisect", spy)
    return full


@pytest.mark.parametrize("dps", [10, 15, 20, 30, 50, 100, 300, 1000])
def test_small_roots_match_bisection_spec(monkeypatch, dps):
    full = _spy_full_bisections(monkeypatch)
    xs = SPEC_XS if dps < 1000 else (Fraction(1, 20), SPEC_XS[4])
    for x in xs:
        pt = small_roots(x, dps=dps)
        assert (pt.u1, pt.u2) == small_roots_bisection(x, dps), x
    # the radicals, not the full bisection, find nearly every root
    assert len(full) <= 2


@pytest.mark.parametrize("x, dps", [(Fraction(11, 149), 300),
                                    (Fraction(8, 115), 15)])
def test_small_roots_fallback_matches_bisection_spec(monkeypatch, x, dps):
    # K evaluates to exactly 0 at an end of the cell that holds the radical
    # root, so the cell check fails and u1 comes from the full bisection
    full = _spy_full_bisections(monkeypatch)
    pt = small_roots(x, dps=dps)
    assert full == [(1, 2)]
    assert (pt.u1, pt.u2) == small_roots_bisection(x, dps)


def test_small_roots_flat_kernel_takes_the_full_bisection(monkeypatch):
    # at x = 10^-30 and 15 digits |K'| ~ 2 sqrt(x) leaves no cell depth
    # j >= 1, so both roots come from the full bisection
    full = _spy_full_bisections(monkeypatch)
    x = Fraction(1, 10 ** 30)
    pt = small_roots(x, dps=15)
    assert full == [(1, 2), (0, 1)]
    assert (pt.u1, pt.u2) == small_roots_bisection(x, 15)


def _radical_roots(monkeypatch, x, dps):
    """small_roots(x, dps) and the radical roots (u1, u2) it started from."""
    seen = {}
    real = doublecircle._kernel_root

    def spy(xm, a, b, u):
        seen[a] = u
        return real(xm, a, b, u)

    monkeypatch.setattr(doublecircle, "_kernel_root", spy)
    return small_roots(x, dps=dps), seen[1], seen[0]


@pytest.mark.parametrize("x, dps", [
    *((x, 30) for x in SPEC_XS),
    (Fraction(1, 12) - Fraction(1, 10 ** 30), 60),
    (Fraction(1, 10 ** 40), 60)])
def test_radical_roots_match_bisection_spec(monkeypatch, x, dps):
    # bisection resumed at the radical roots returns the spec's roots; the
    # radicals themselves lie within a few units of mp.eps of the roots of
    # K(pt.x, .), also near x = 0, where s^2 - 4p ~ 4x cancels and only the
    # guard bits keep them so
    pt, r1, r2 = _radical_roots(monkeypatch, x, dps)
    assert (pt.u1, pt.u2) == small_roots_bisection(x, dps)
    ref = small_roots(pt.x, dps=2 * dps)
    with mp.workdps(dps):
        assert abs(r1 - ref.u1) <= 4 * mp.eps, (r1, ref.u1)
        assert abs(r2 - ref.u2) <= 4 * mp.eps, (r2, ref.u2)


@pytest.mark.parametrize("x", [Fraction(1, 10 ** 6), Fraction(1, 1000),
                               Fraction(1, 20), Fraction(3, 40), Fraction(1, 13)])
def test_radical_roots_factor_the_kernel(monkeypatch, x):
    # K = -x (u^2 - s u + p)(u^2 - (1-s) u + q) with s = u1 + u2, p = u1 u2
    # and q = -1/(x p): the expanded coefficients are K's
    dps = 200
    _, r1, r2 = _radical_roots(monkeypatch, x, dps)
    with mp.workdps(dps):
        xm = mp.mpf(x.numerator) / x.denominator
        s, p = r1 + r2, r1 * r2
        q = -1 / (xm * p)
        first, second = (1, -s, p), (1, -(1 - s), q)
        coeffs = [-xm * mp.fsum(first[i] * second[k - i]
                               for i in range(max(0, k - 2), min(k, 2) + 1))
                  for k in range(5)]
        for got, want in zip(coeffs, (-xm, xm, 1 - xm, -2, 1)):
            assert abs(got - want) < mp.mpf(10) ** -190, (got, want)


def test_f_closed_against_series():
    x = Fraction(1, 20)
    f, df = f_closed(small_roots(x))
    assert abs(f - f_series(x, 80, TABLE)) < 1e-10
    assert abs(df - df_series(x, 80, TABLE)) < 1e-9


def test_f_limit_at_singularity():
    cs = constants()
    x = Fraction(1, 12) - Fraction(1, 10 ** 12)
    f, _ = f_closed(small_roots(x))
    assert abs(f - cs.c1) < 1e-5


def test_constants():
    cs = constants()
    assert abs(cs.c1 - mp.mpf("0.3093073")) < 1e-6
    assert abs(cs.c2 - mp.mpf("0.5611317")) < 1e-6
    assert abs(cs.d1 - mp.mpf("1.0720780")) < 1e-6
    # the prefactor simplifies two ways; both surd routes must coincide
    with mp.workdps(50):
        assert cs.d2 == 4 * cs.c2
        r21 = mp.sqrt(21)
        direct = 54 / (7 * mp.sqrt(mp.pi)) * r21 * (5 - r21) / (7 - r21) ** 2
        simplified = 6 * r21 / 49
        assert abs(cs.theorem_constant - direct) < mp.mpf(10) ** -45
        assert abs(cs.c2 - simplified) < mp.mpf(10) ** -45
    assert abs(cs.theorem_constant - mp.mpf("1.4246313")) < 1e-6


def test_functional_equation_residual_spot():
    for x, u in ((Fraction(1, 200), Fraction(3, 10)),
                 (Fraction(1, 100), Fraction(17, 10)),
                 (Fraction(1, 150), Fraction(1, 2))):
        assert functional_equation_residual(x, u, 80, TABLE) < 1e-8


def test_asymptotic_report_shape():
    from chirotri import asymptotic_report
    rows = asymptotic_report([5, 10], TABLE)
    assert [r.k for r in rows] == [5, 10]
    assert rows[0].exact == 250
    assert abs(rows[0].ratio - mp.mpf("1.1354")) < 1e-3
    assert rows[1].ratio < rows[0].ratio  # converging toward 1
