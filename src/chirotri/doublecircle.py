"""Exact double-circle triangulation counts and their asymptotic law.

The chirotopes obtained by repeatedly joining the one-interior-point
configuration onto itself carry triangulation polynomials Q_1, Q_2, ... whose
recursion only involves the recombination polynomials N(d, 3): Q_1 = u^3 and
Q_{k+1} = join_Q(Q_k, u^3), a chain in the sense of Rutschmann & Wettstein
(J. ACM 2023). The number of triangulations of the double circle with k
outer points is Q_{k-1}(1) - [u^2] Q_{k-1}. ``QkTable`` steps the chain on
``polynomials._merge_core``, the one merge of every join, holds one row at a
time and keeps three lists: each row's value at u = 1, u^2 coefficient and
derivative at u = 1, where the value and the derivative are read off the
next row.

The generating function F(z, u) = sum_k Q_k(u) z^k satisfies

    F(z,u) K(z,u) = z [ u^3 (u-1)^2 - (u^4 - u^3 + u^2) F(z,1)
                        - u^2 (u-1) dF/du(z,1) ]

with kernel K(z,u) = (u-1)^2 (1 - z u^2) - z u^3. Substituting the two small
kernel roots u2(x) in (0,1) and u1(x) in (1,2) eliminates F and yields closed
forms for F(x,1) and dF/du(x,1); their square-root singularity at x = 1/12
gives the asymptotic constant. All analytics here are numeric at configurable
precision and validated against the exact integer pipeline.

The same method, carried one step further, gives both small roots in
radicals (Bousquet-Melou & Jehanne, JCTB 2006). With s = u1 + u2, p = u1 u2,

    K(x,u) = -x (u^2 - s u + p) (u^2 - (1-s) u + q),   q = -1/(x p).

For w = s^2 - s and c = (s-2)/x, the u^2 and u coefficients give
p = (s (w+1) - c) / (2s-1) (Vieta), and p q = -1/x leaves the eliminant
factor x (s^2-s+1)^2 - (s^2-s-2) = x w^2 - (1-2x) w + x + 2. Its root w -> 2
(x -> 0) is (2x+4) / (1-2x+r), r = sqrt(1-12x); s = (1+t)/2, t = sqrt(1+4w);
c = 36 (2+x) / ((1+3x+r)(1-2x+r)(3+t)) without cancellation; and u1, u2 =
(s +- sqrt(s^2 - 4p)) / 2. As s^2 - 4p = (u1-u2)^2 ~ 4x cancels about
log2(1/x) bits of s^2 ~ 4, the radicals get that many guard bits plus 20.
``_kernel_root`` then makes each root the mpf that bisection returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import mpmath as mp

from .errors import NumericalInstability, OutOfRange
from .polynomials import DEFAULT_DPS, UnivarPoly, _merge_core


def _workdps(dps):
    """mp.workdps at dps significant digits, DEFAULT_DPS when dps is None."""
    if dps is None:
        dps = DEFAULT_DPS
    if dps < 1:
        raise OutOfRange(f"need dps >= 1, got {dps}")
    return mp.workdps(dps)


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


# -- exact integer pipeline ---------------------------------------------------


def qk_step(q: UnivarPoly) -> UnivarPoly:
    """One recursion step, Q_{k+1} = join_Q(Q_k, u^3): one ``_merge_core``
    step, which convolves the coefficients of q with N(d, 3)."""
    if q.is_zero() or q.min_exp < 2:
        raise OutOfRange("step input needs minimum exponent >= 2")
    return UnivarPoly.from_row(_merge_core(q.row(), [0, 0, 0, 1]))


def _rows(kmax: int):
    """Yield (Q_k as a dense list, Q_k(1), Q_k'(1)) for k = 1 .. kmax.

    Each row comes from the one before it through one ``_merge_core`` step
    with u^3, and its value and derivative at u = 1 are read off the next
    row. N(d, 3) = u^(d+2) + sum_{i=1}^{d-1} ((d-i) u^(i+1) + u^(i+2)), so
    with the suffix sums s_i = sum_{d>=i} c_d and t_i = sum_{j>=i} s_j of a
    row c (c_0 = c_1 = 0) the step is

        next = u^2 c(u) + sum_{i>=2} t_i u^i + s_i u^(i+1)
             = t_2 u^2 + sum_{e>=3} (c_{e-2} + t_{e-1}) u^e.

    Hence [u^2] next = t_2 and [u^4] next = c_2 + t_3 = c_2 + t_2 - s_2, so

        c(1)  = s_2 = c_2 + [u^2] next - [u^4] next,
        c'(1) = t_1 = s_1 + t_2 = c(1) + [u^2] next.

    The last row has no next row and sums itself. The generator holds one
    row at a time.
    """
    row = [0, 0, 0, 1]
    for _ in range(kmax - 1):
        nxt = _merge_core(row, [0, 0, 0, 1])
        total = row[2] + nxt[2] - nxt[4]
        yield row, total, total + nxt[2]
        row = nxt
    yield row, sum(row), sum(map(mul, range(len(row)), row))


class QkTable:
    """Totals, derivatives at u = 1 and u^2 coefficients of Q_1 .. Q_kmax.

    The table steps through the rows and keeps only these three lists of
    kmax ints, O(kmax^2) bits in all; a row itself is O(kmax^2) bits, so
    keeping every row would cost O(kmax^3). ``q(k)`` rebuilds Q_k from Q_1,
    which costs k - 1 steps.
    """

    def __init__(self, kmax: int):
        if kmax < 1:
            raise OutOfRange(f"need kmax >= 1, got {kmax}")
        self.kmax = kmax
        self.totals = []
        self.derivs = []
        self.coeffs2 = []
        for row, total, deriv in _rows(kmax):
            self.totals.append(total)
            self.derivs.append(deriv)
            self.coeffs2.append(row[2])

    def q(self, k: int) -> UnivarPoly:
        if not 1 <= k <= self.kmax:
            raise OutOfRange(f"k={k} outside 1..{self.kmax}")
        for row, _, _ in _rows(k):
            pass
        return UnivarPoly.from_row(row)

    def total(self, k: int) -> int:
        return self.totals[k - 1]

    def coeff2(self, k: int) -> int:
        return self.coeffs2[k - 1]

    def deriv(self, k: int) -> int:
        return self.derivs[k - 1]


def _table(table: QkTable | None, kmax: int) -> QkTable:
    """``table`` if it reaches Q_kmax, else a new QkTable(kmax)."""
    return table if table is not None and table.kmax >= kmax else QkTable(kmax)


def dc_count(k: int, table: QkTable | None = None) -> int:
    """Exact number of triangulations of the double circle with k outer points."""
    if k < 3:
        raise OutOfRange(f"need k >= 3, got {k}")
    table = _table(table, k - 1)
    return table.total(k - 1) - table.coeff2(k - 1)


# -- kernel analytics ---------------------------------------------------------


@dataclass(frozen=True)
class KernelPoint:
    """The two small kernel roots above a fixed x in (0, 1/12)."""

    x: object
    u1: object  # root in (1, 2)
    u2: object  # root in (0, 1)


@dataclass(frozen=True)
class AsymptoticConstants:
    """Singular-expansion constants and the asymptotic prefactor."""

    c1: object
    c2: object
    d1: object
    d2: object
    theorem_constant: object


def kernel(x, u):
    """K(x, u) = (u - 1)^2 (1 - x u^2) - x u^3, evaluated exactly as written."""
    return (u - 1) ** 2 * (1 - x * u * u) - x * u ** 3


def _kernel_du(x, u):
    """dK/du(x, u)."""
    return 2 * (u - 1) * (1 - x * u * u) - 2 * x * u * (u - 1) ** 2 - 3 * x * u * u


def _bisect(f, lo, hi, steps):
    flo = f(lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def _kernel_root(x, a: int, b: int, u):
    """The root of K(x, .) in (a, b) that ``_bisect`` returns after
    ``mp.prec + 2`` halvings of (a, b), resumed near the root u.

    The full bisection passes through the dyadic cell of depth
    j = prec + 2 - margin that holds the root: every midpoint outside it lies
    at least 2^-j from the root, where K exceeds its rounding error since
    margin grows with -log2 |K'(u)|. If the ends of the cell that holds u read like f(a)
    and its opposite, as bisection evaluates them, bisection resumes there
    for its last margin halvings. Otherwise (j < 1 where K is too flat, or
    an end where K is 0) it runs in full.
    """
    f = lambda v: kernel(x, v)
    steps = mp.mp.prec + 2
    # margin: 10 bits for K's rounding error of a few units of 2^-prec,
    # plus the bits a small |K'| loses (mag(K') >= log2 |K'| > mag(K') - 1)
    j = steps - 10 - max(0, 1 - mp.mag(_kernel_du(x, u)))
    if j >= 1:
        m = int(mp.floor(mp.ldexp(u - a, j)))  # u in [lo, hi)
        if 0 <= m < 2 ** j:
            lo, hi = a + mp.ldexp(m, -j), a + mp.ldexp(m + 1, -j)
            fa, flo, fhi = f(mp.mpf(a)), f(lo), f(hi)
            if flo and fhi and (flo > 0) == (fa > 0) != (fhi > 0):
                return _bisect(f, lo, hi, steps - j)
    return _bisect(f, mp.mpf(a), mp.mpf(b), steps)


def small_roots(x, dps: int | None = None) -> KernelPoint:
    """The kernel roots u2 in (0, 1) and u1 in (1, 2) above x: the radicals
    of the module docstring, then the last bisection steps, so each kernel
    residual is a few units of mp.eps whatever the precision."""
    with _workdps(dps):
        xm = _to_mpf(x)
        if not (0 < xm < mp.mpf(1) / 12):
            raise OutOfRange(f"x={x} outside (0, 1/12)")
        with mp.extraprec(max(0, -mp.mag(xm)) + 20):
            r = mp.sqrt(1 - 12 * xm)
            w = (2 * xm + 4) / (1 - 2 * xm + r)
            t = mp.sqrt(1 + 4 * w)
            s = (1 + t) / 2
            c = 36 * (2 + xm) / ((1 + 3 * xm + r) * (1 - 2 * xm + r) * (3 + t))
            p = (s * (w + 1) - c) / (2 * s - 1)
            d = mp.sqrt(s * s - 4 * p)
            u1, u2 = (s + d) / 2, (s - d) / 2
        u1, u2 = _kernel_root(xm, 1, 2, u1), _kernel_root(xm, 0, 1, u2)
        if max(abs(kernel(xm, u1)), abs(kernel(xm, u2))) > 4 * mp.eps:
            raise NumericalInstability("kernel root residual above tolerance")
        return KernelPoint(xm, u1, u2)


def f_closed(pt: KernelPoint, dps: int | None = None):
    """(F(x,1), dF/du(x,1)) from the closed forms in the two small roots.

    The denominator u1 + u2 - u1 u2 = 1 + (u1 - 1)(1 - u2) is at least 1.
    """
    with _workdps(dps):
        u1, u2 = pt.u1, pt.u2
        den = u1 + u2 - u1 * u2
        f = (u1 - 1) * (1 - u2) * (u1 + u2 - 1) / den
        df = (u1 * u2 * (u1 * u2 - u1 - u2 + 2)
              + u1 ** 2 + u2 ** 2 - 2 * u1 - 2 * u2 + 1) / den
        return f, df


def _series(coeff, terms: int, xm):
    """sum of coeff(k) * xm^k over k = 1..terms, summed by mp.fsum."""
    return mp.fsum(coeff(k) * xm ** k for k in range(1, terms + 1))


def f_series(x, terms: int, table: QkTable | None = None, dps: int | None = None):
    """Truncated series for F(x, 1), from the exact totals."""
    with _workdps(dps):  # checks dps before the table is built
        return _series(_table(table, terms).total, terms, _to_mpf(x))


def df_series(x, terms: int, table: QkTable | None = None, dps: int | None = None):
    """Truncated series for dF/du(x, 1), from the exact derivatives."""
    with _workdps(dps):  # checks dps before the table is built
        return _series(_table(table, terms).deriv, terms, _to_mpf(x))


def constants(dps: int | None = None) -> AsymptoticConstants:
    """High-precision values of the singular-expansion constants.

    c2 simplifies exactly to 6*sqrt(21)/49 and the asymptotic prefactor to
    9*c2 / (2*sqrt(pi)); both routes are evaluated from the surd expressions.
    """
    with _workdps(dps):
        r21 = mp.sqrt(21)
        c1 = (-13 + 3 * r21) / (7 - r21)
        c2 = mp.mpf(12) / 7 * r21 * (5 - r21) / (7 - r21) ** 2
        d1 = (53 - 11 * r21) / (7 - r21)
        d2 = 4 * c2
        theorem_constant = 9 * c2 / (2 * mp.sqrt(mp.pi))
        return AsymptoticConstants(c1, c2, d1, d2, theorem_constant)


@dataclass(frozen=True)
class AsymptoticRow:
    k: int
    exact: int
    estimate: object
    ratio: object


def asymptotic_report(ks, table: QkTable | None = None,
                      dps: int | None = None) -> list[AsymptoticRow]:
    """Exact counts against the estimate constant * 12^(k-2) * k^(-3/2)."""
    # a range is sorted already, and a long one is never built as a list
    ks = ks if isinstance(ks, range) and ks.step > 0 else sorted(ks)
    if not ks or ks[0] < 3:
        raise OutOfRange("report needs at least one k, each k >= 3")
    cs = constants(dps=dps)  # checks dps before the table is built
    table = _table(table, ks[-1] - 1)
    rows = []
    with _workdps(dps):
        twelve, power = mp.mpf(12), mp.mpf("-1.5")
        for k in ks:
            exact = dc_count(k, table)
            est = cs.theorem_constant * twelve ** (k - 2) * mp.mpf(k) ** power
            rows.append(AsymptoticRow(k, exact, est, exact / est))
    return rows
