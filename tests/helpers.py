"""Shared helpers: random realizable fixtures and small reference oracles."""

import json
from itertools import combinations, permutations
from math import comb

import mpmath as mp

from chirotri import Chirotope, PointSet, RootedChirotope, chirotope_from_points


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
    table = dict(chi.items())
    for t in rng.sample(sorted(table), flips):
        table[t] = -table[t]
    return Chirotope(chi.n, table)


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
