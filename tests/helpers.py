"""Shared helpers: random realizable fixtures and small reference oracles."""

import json
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import mpmath as mp

from chirotri import (BivarPoly, Chirotope, InternalInvariantViolation,
                      OutOfRange, PointSet, QkTable, RootedChirotope,
                      UnivarPoly, brute_P, chirotope_from_points, df_series,
                      f_series, join_P, kernel, meet_P, q_from_p)
from chirotri.doublecircle import DEFAULT_DPS, _rows
from chirotri.oracle import _ground, _iter_maximal
from chirotri.polynomials import _merge_core, _n_poly_terms


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def random_point_set(n, rng, span=60) -> PointSet:
    """Random integer-grid points in general position (rejection sampling)."""
    while True:
        pts = [(rng.randrange(span), rng.randrange(span)) for _ in range(n)]
        if len(set(pts)) != n:
            continue
        ps = PointSet(pts)
        try:
            ps.validate_general_position()
        except Exception:
            continue
        return ps


def random_rooted(n, rng, span=60) -> RootedChirotope:
    chi = chirotope_from_points(random_point_set(n, rng, span))
    root = rng.choice(sorted(chi.extreme_elements()))
    return RootedChirotope(chi, root)


def table_sign(table, x, y, z):
    """Spec for ``Chirotope.sign``: the sign of the ordered triple (x, y, z)
    in a table keyed by sorted triples, times the parity of the sort."""
    s = 1
    if x > y:
        x, y, s = y, x, -s
    if y > z:
        y, z, s = z, y, -s
        if x > y:
            x, y, s = y, x, -s
    return s * table[(x, y, z)]


def with_flips(chi, flips, rng) -> Chirotope:
    """A copy of ``chi`` with ``flips`` distinct sorted triples negated; it
    is usually no longer a chirotope of any point set."""
    signs = [s for _, s in chi.items()]
    for i in rng.sample(range(len(signs)), flips):
        signs[i] = -signs[i]
    return Chirotope(chi.n, signs)


def chi1_fixture_points() -> PointSet:
    """Triangle (0,0), (4,0), (2,3) with interior point (2,1)."""
    return PointSet([(0, 0), (4, 0), (2, 3), (2, 1)])


def axiom_violations_spec(chi):
    """Spec for ``Chirotope.check_axioms``: (interiority, transitivity) rows,
    each axiom restated literally through ``chi.sign`` over ordered tuples of
    distinct labels, in lexicographic order.

    Interiority: sign(t,y,z) = sign(x,t,z) = sign(x,y,t) = 1 requires
    sign(x,y,z) = 1. Transitivity: sign(t,s,x) = sign(t,s,y) = sign(t,s,z) =
    sign(x,y,t) = sign(y,z,t) = 1 requires sign(x,z,t) = 1.
    """
    sign = chi.sign
    interiority = []
    for x, y, z, t in permutations(range(chi.n), 4):
        if (sign(t, y, z) == 1 and sign(x, t, z) == 1 and sign(x, y, t) == 1
                and sign(x, y, z) != 1):
            interiority.append((x, y, z, t))
    transitivity = []
    for s, t, x, y, z in permutations(range(chi.n), 5):
        if (sign(t, s, x) == 1 and sign(t, s, y) == 1 and sign(t, s, z) == 1
                and sign(x, y, t) == 1 and sign(y, z, t) == 1
                and sign(x, z, t) != 1):
            transitivity.append((s, t, x, y, z))
    return interiority, transitivity


def crossing_masks_pairwise(obj):
    """Spec for ``oracle._ground``: (segments, crossing masks, incidence
    masks) with every pair of segments tested for a crossing.

    A Chirotope is searched over its own labels, a RootedChirotope over its
    labels and the phantom v = n, with (x, y, v) oriented opposite to
    (x, y, root) and no triple holding both. masks[i] is the bitmask of the
    segments crossing segment i; inc[x] is that of the segments with
    endpoint x.
    """
    if isinstance(obj, Chirotope):
        n, table, r, v = obj.n, dict(obj.items()), -1, -1
    else:
        r, v = obj.root, obj.n
        n, table = v + 1, dict(obj.chi.items())
        for x, y in combinations(range(v), 2):
            if r not in (x, y):
                table[(x, y, v)] = -table_sign(table, x, y, r)
    segs = [p for p in combinations(range(n), 2) if p != (r, v)]
    m = len(segs)
    masks = [0] * m
    inc = [0] * n
    for i, (a, b) in enumerate(segs):
        inc[a] |= 1 << i
        inc[b] |= 1 << i
        for j in range(i + 1, m):
            c, d = segs[j]
            if a == c or a == d or b == c or b == d:
                continue
            if r in (a, b, c, d) and v in (a, b, c, d):
                continue  # root-side and phantom-side segments never cross
            if (table_sign(table, a, b, c) != table_sign(table, a, b, d)
                    and table_sign(table, c, d, a) != table_sign(table, c, d, b)):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return segs, masks, inc


def hull_witnesses_spec(chi, x):
    """Spec for ``Chirotope._witnesses``: (ys with sign(x, y, z) = +1 for
    every z, ys with sign(x, y, z) = -1 for every z), each ascending, the
    signs read one by one through ``chi.sign``."""
    others = [y for y in range(chi.n) if y != x]
    return tuple([y for y in others
                  if all(chi.sign(x, y, z) == s for z in others if z != y)]
                 for s in (1, -1))


def iter_maximal_unpruned(masks):
    """Spec for ``oracle._iter_maximal``: the plain backtracking it refines.

    Depth-first over segment indices with the include branch first; a skipped
    segment stays pending, and a leaf is yielded only if no segment is still
    pending there. The pruned core must yield the same sequence.
    """
    m = len(masks)
    all_bits = (1 << m) - 1
    suffix = [(all_bits >> i) << i for i in range(m + 1)]
    stack = [(0, 0, 0, 0)]  # (index, dominated, pending, chosen)
    while stack:
        i, dom, pend, chosen = stack.pop()
        while i < m and (dom >> i) & 1:
            i += 1
        if i == m:
            if pend == 0:
                yield chosen
            continue
        bit = 1 << i
        if masks[i] & suffix[i + 1] & ~dom:
            stack.append((i + 1, dom, pend | bit, chosen))
        stack.append((i + 1, dom | masks[i], pend & ~masks[i], chosen | bit))


def search_order_spec(masks):
    """Spec for the order of ``oracle._search_order``: maximum cardinality
    search written out. Each step takes, among the unplaced segments, the one
    with the most crossers already placed, ties to fewer crossers, then to
    the lower index; segments without crossers come last. Returns the
    segment indices in that order."""
    order, placed, left = [], 0, set(range(len(masks)))
    while left:
        i = max(left, key=lambda i: ((masks[i] & placed).bit_count(),
                                     masks[i] != 0, -masks[i].bit_count(),
                                     -i))
        order.append(i)
        left.remove(i)
        placed |= 1 << i
    return order


def lexicographic_tallies(rc):
    """Spec for ``oracle.brute_P``, ``brute_Q`` and ``count_triangulations``:
    (P, Q, triangulation count) of ``rc``, each tallied over the masks of
    ``oracle._ground`` as they are, so searched in label order."""
    _, masks, inc = _ground(rc, None)
    p = {}
    for leaf in _iter_maximal(masks):
        key = ((leaf & inc[rc.root]).bit_count(),
               (leaf & inc[rc.chi.n]).bit_count())
        p[key] = p.get(key, 0) + 1
    _, masks, inc = _ground(rc.chi, None)
    q = {}
    for leaf in _iter_maximal(masks):
        d = (leaf & inc[rc.root]).bit_count()
        q[d] = q.get(d, 0) + 1
    return BivarPoly(p), UnivarPoly(q), sum(q.values())


def small_roots_bisection(x, dps):
    """Spec for ``doublecircle.small_roots``: (u1, u2) by bisection alone.

    Each bracket, (1, 2) for u1 and (0, 1) for u2, is halved ``mp.prec + 2``
    times at dps digits. The roots ``small_roots`` returns must be the same
    mpf values.
    """
    with mp.workdps(dps):
        xm = mp.mpf(x.numerator) / x.denominator
        f = lambda u: (u - 1) ** 2 * (1 - xm * u * u) - xm * u ** 3
        roots = []
        for lo, hi in ((mp.mpf(1), mp.mpf(2)), (mp.mpf(0), mp.mpf(1))):
            flo = f(lo)
            for _ in range(mp.mp.prec + 2):
                mid = (lo + hi) / 2
                fm = f(mid)
                if fm == 0:
                    lo = hi = mid
                    break
                if (fm > 0) == (flo > 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            roots.append((lo + hi) / 2)
        return tuple(roots)


class UnivarSpec:
    """Spec for ``UnivarPoly``: a dict {exponent: coefficient} holding no
    zero coefficient, with every operation written out term by term."""

    def __init__(self, coeffs):
        self.c = {e: c for e, c in coeffs.items() if c}

    def __add__(self, other):
        out = dict(self.c)
        for e, c in other.c.items():
            out[e] = out.get(e, 0) + c
        return UnivarSpec(out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return UnivarSpec({e: c * other for e, c in self.c.items()})
        out = {}
        for e1, c1 in self.c.items():
            for e2, c2 in other.c.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return UnivarSpec(out)

    def shift(self, k):
        """None where some exponent would go negative."""
        if any(e + k < 0 for e in self.c):
            return None
        return UnivarSpec({e + k: c for e, c in self.c.items()})

    def coeff(self, e):
        return self.c.get(e, 0)

    def terms(self):
        return sorted(self.c.items())

    def deriv_at_one(self):
        return sum(e * c for e, c in self.c.items())

    def __call__(self, x):
        return sum(c * x ** e for e, c in self.c.items())


class BivarSpec:
    """Spec for ``BivarPoly``: a dict {(u-exponent, v-exponent): coefficient}
    holding no zero coefficient, with every read written out term by term."""

    def __init__(self, coeffs):
        self.c = {k: c for k, c in coeffs.items() if c}

    def terms(self):
        return sorted(self.c.items())

    def to_json(self):
        return json.dumps({"terms": [[a, b, str(c)] for (a, b), c in
                                     self.terms()]}, separators=(",", ":"))

    def swap(self):
        return BivarSpec({(b, a): c for (a, b), c in self.c.items()})

    def min_u(self):
        return min(a for a, _ in self.c)

    def min_v(self):
        return min(b for _, b in self.c)

    def q(self):
        """{u-exponent: coefficient} of the terms of lowest v-exponent."""
        low = self.min_v()
        return {a: c for (a, b), c in self.c.items() if b == low}

    def u_slices(self):
        out = {}
        for (a, b), c in self.c.items():
            out.setdefault(a, {})[b] = c
        return out

    def rank_one(self):
        """Nonzero, and every 2x2 minor of the coefficient matrix is 0."""
        us = sorted({a for a, _ in self.c})
        vs = sorted({b for _, b in self.c})
        get = self.c.get
        return bool(self.c) and all(
            get((a1, b1), 0) * get((a2, b2), 0) == get((a1, b2), 0) * get((a2, b1), 0)
            for a1, a2 in combinations(us, 2) for b1, b2 in combinations(vs, 2))

    def __call__(self, u, v):
        return sum(c * u ** a * v ** b for (a, b), c in self.c.items())


def n_poly(d1: int, d2: int) -> UnivarPoly:
    """Recombination polynomial for merging root degrees d1 and d2; spec for
    ``polynomials._merge_core``.

    One term u^(d1+d2-1) for the merge that keeps the shared hull segment,
    plus a binomial-weighted term u^(i1+i2) for every way of re-hanging the
    remaining root neighbors across the merge.
    """
    return UnivarPoly(dict(_n_poly_terms(d1, d2)))


def seed_score_unfolded(rc, levels, metric="weak", cap=None) -> int:
    """Spec for ``search.seed_score``: every level from the seed built in
    full with ``join_P`` (odd levels) and ``meet_P`` (even levels). The weak
    count of the last level is ``_merge_core`` of the level before it,
    summed: its row sums feed a join, its column sums a meet. The count
    metric builds the last level too and reads its triangulation slice."""
    p = brute_P(rc, cap=cap)
    last = levels if metric == "count" else levels - 1
    for level in range(4, last + 1):
        p = join_P(p, p) if level % 2 else meet_P(p, p)
    if metric == "count":
        return q_from_p(p)(1)
    sums = {}
    for (a, b), c in p.terms():
        d = a if levels % 2 else b  # the root degree of the last merge
        sums[d] = sums.get(d, 0) + c
    totals = [sums.get(d, 0) for d in range(max(sums) + 1)]
    return sum(_merge_core(totals, totals))


def _divide_by_u_minus_1(coeffs: list) -> tuple[list, int]:
    """Synthetic division by (u - 1); returns (quotient coeffs, remainder)."""
    n = len(coeffs)
    out = [0] * (n - 1)
    carry = 0
    for e in range(n - 1, 0, -1):
        carry += coeffs[e]
        out[e - 1] = carry
    return out, carry + coeffs[0]


def qk_step_closedform(q: UnivarPoly) -> UnivarPoly:
    """One recursion step via the summation-free rational form; spec for
    ``doublecircle.qk_step``.

    Builds (q(u) - q(1)) * (u^4 - u^3 + u^2) - q'(1) * u^2 (u - 1) in
    ``UnivarSpec`` arithmetic and divides exactly by (u - 1)^2; a nonzero
    remainder means the input was not a valid step polynomial.
    """
    spec = UnivarSpec(dict(q.terms()))
    if not spec.c or min(spec.c) < 2:
        raise OutOfRange("step input needs minimum exponent >= 2")
    mult = UnivarSpec({4: 1, 3: -1, 2: 1})
    num = ((spec - UnivarSpec({0: spec(1)})) * mult
           - UnivarSpec({3: 1, 2: -1}) * spec.deriv_at_one())
    dense = [num.coeff(e) for e in range(max(num.c) + 1)]
    for _ in range(2):
        dense, rem = _divide_by_u_minus_1(dense)
        if rem != 0:
            raise InternalInvariantViolation(
                "closed-form step: division by (u-1)^2 left a remainder")
    return UnivarPoly(UnivarSpec(dict(enumerate(dense))).c)


def functional_equation_residual(x, u, terms: int = 80,
                                 table: QkTable | None = None,
                                 dps: int | None = None):
    """|F K - z(u^3 (u-1)^2 - (u^4-u^3+u^2) F(z,1) - u^2 (u-1) dF(z,1))|.

    F(z, 1) and dF/du(z, 1) are ``f_series`` and ``df_series``; F(z, u)
    sums the rows of ``doublecircle._rows``, each evaluated at u as a
    ``UnivarSpec``. All three series are truncated at the same order, so the
    residual is the truncation tail only.
    """
    if table is None or table.kmax < terms:
        table = QkTable(terms)
    f1 = f_series(x, terms, table, dps=dps)
    df1 = df_series(x, terms, table, dps=dps)
    with mp.workdps(DEFAULT_DPS if dps is None else dps):
        xm, um = (mp.mpf(t.numerator) / t.denominator
                  if isinstance(t, Fraction) else mp.mpf(t) for t in (x, u))
        fu = mp.fsum(UnivarSpec(dict(enumerate(row)))(um) * xm ** k
                     for k, (row, _, _) in enumerate(_rows(terms), 1))
        lhs = fu * kernel(xm, um)
        rhs = xm * (um ** 3 * (um - 1) ** 2
                    - (um ** 4 - um ** 3 + um ** 2) * f1
                    - um ** 2 * (um - 1) * df1)
        return abs(lhs - rhs)
