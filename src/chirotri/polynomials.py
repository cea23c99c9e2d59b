"""Sparse exact polynomials and the recursive triangulation-counting calculus.

Coefficients are Python ints (arbitrary precision) keyed by exponent; no zero
coefficient is ever stored. The merge recursion combines the weak
triangulation polynomials of two rooted chirotopes: terms of root degrees
(d1, d2) recombine into root degrees given by the polynomial N(d1, d2), and
the phantom-degree product is divided by the phantom variable exactly once
because the shared segment from the phantom to the merged hull point is
counted on both sides.

All merges run through one lattice-path recurrence (``_merge_core``) that
costs O(D1*D2) operations for operand root degrees up to D1 and D2. A merge
of two operands that factor as (polynomial in u) * (polynomial in v) returns
a BivarPoly that keeps those two factors and expands its coefficients only
when something reads them.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd
from operator import add

from .errors import EmptyInput, InternalInvariantViolation, OutOfRange


def _clean(d):
    return {e: c for e, c in d.items() if c != 0}


class UnivarPoly:
    """Univariate polynomial with integer coefficients, exponents >= 0."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict | None = None):
        coeffs = coeffs or {}
        for e in coeffs:
            if not isinstance(e, int) or e < 0:
                raise OutOfRange(f"bad exponent {e!r}")
        self._c = _clean(coeffs)

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def terms(self):
        """(exponent, coefficient) pairs, exponent-ascending."""
        return sorted(self._c.items())

    def is_zero(self) -> bool:
        return not self._c

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise EmptyInput("zero polynomial has no exponents")
        return min(self._c)

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise EmptyInput("zero polynomial has no exponents")
        return max(self._c)

    def __add__(self, other):
        out = dict(self._c)
        for e, c in other._c.items():
            out[e] = out.get(e, 0) + c
        return UnivarPoly(out)

    def __sub__(self, other):
        out = dict(self._c)
        for e, c in other._c.items():
            out[e] = out.get(e, 0) - c
        return UnivarPoly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return UnivarPoly({e: c * other for e, c in self._c.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                k = e1 + e2
                out[k] = out.get(k, 0) + c1 * c2
        return UnivarPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, UnivarPoly) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __call__(self, x):
        return sum(c * x ** e for e, c in self._c.items())

    def deriv_at_one(self) -> int:
        return sum(e * c for e, c in self._c.items())

    def shift(self, k: int) -> "UnivarPoly":
        if k < 0 and any(e + k < 0 for e in self._c):
            raise InternalInvariantViolation("negative exponent after shift")
        return UnivarPoly({e + k: c for e, c in self._c.items()})

    def __repr__(self):
        if not self._c:
            return "0"
        bits = []
        for e, c in sorted(self._c.items(), reverse=True):
            term = "1" if (c == 1 and e == 0) else (
                f"{c}" if e == 0 else (f"u^{e}" if c == 1 else f"{c}*u^{e}"))
            bits.append(term)
        return " + ".join(bits)

    def to_json(self) -> str:
        terms = [[e, str(c)] for e, c in self.terms()]
        return json.dumps({"terms": terms}, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "UnivarPoly":
        data = json.loads(text)
        return cls({int(e): int(c) for e, c in data["terms"]})


class BivarPoly:
    """Bivariate polynomial in (u, v), integer coefficients, exponents >= 0.

    A polynomial built by ``_from_factors`` holds only its factors
    (U(u), V(v)), at the scale its merge produced them, until its
    coefficient dict ``_c`` is first read; ``try_split``, ``q_from_p``,
    ``swap_vars``, ``is_zero``, ``min_u_exp`` and ``min_v_exp`` work on the
    factors alone.
    """

    __slots__ = ("_coeffs", "_factors")

    def __init__(self, coeffs: dict | None = None):
        coeffs = coeffs or {}
        for (a, b) in coeffs:
            if a < 0 or b < 0:
                raise OutOfRange(f"bad exponent pair ({a}, {b})")
        self._coeffs = _clean(coeffs)
        self._factors = None

    @classmethod
    def _from_factors(cls, u_part: UnivarPoly, v_part: UnivarPoly) -> "BivarPoly":
        """u_part(u) * v_part(v), kept factored as the two given factors."""
        if u_part.is_zero() or v_part.is_zero():
            return cls()
        p = cls.__new__(cls)
        p._coeffs = None
        p._factors = (u_part, v_part)
        return p

    @property
    def _c(self) -> dict:
        """The coefficient dict {(u-exp, v-exp): coefficient}."""
        if self._coeffs is None:
            u_part, v_part = self._factors
            self._coeffs = {(a, b): cu * cv for a, cu in u_part.terms()
                            for b, cv in v_part.terms()}
        return self._coeffs

    def terms(self):
        """((u-exp, v-exp), coefficient) pairs in lexicographic order."""
        return sorted(self._c.items())

    def is_zero(self) -> bool:
        return self._factors is None and not self._coeffs

    def u_slices(self) -> dict[int, dict[int, int]]:
        """u-exponent -> {v-exponent: coefficient}."""
        out: dict[int, dict[int, int]] = {}
        for (a, b), c in self._c.items():
            out.setdefault(a, {})[b] = c
        return out

    def min_u_exp(self) -> int:
        if self._factors is not None:
            return self._factors[0].min_exp
        if not self._c:
            raise EmptyInput("zero polynomial has no exponents")
        return min(a for a, _ in self._c)

    def min_v_exp(self) -> int:
        if self._factors is not None:
            return self._factors[1].min_exp
        if not self._c:
            raise EmptyInput("zero polynomial has no exponents")
        return min(b for _, b in self._c)

    def __eq__(self, other):
        return isinstance(other, BivarPoly) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __call__(self, u, v):
        return sum(c * u ** a * v ** b for (a, b), c in self._c.items())

    def __repr__(self):
        if not self._c:
            return "0"
        bits = []
        for (a, b), c in sorted(self._c.items(), reverse=True):
            term = "" if c == 1 and (a or b) else str(c)
            if a:
                term += ("*" if term else "") + f"u^{a}"
            if b:
                term += ("*" if term else "") + f"v^{b}"
            bits.append(term or "1")
        return " + ".join(bits)

    def to_json(self) -> str:
        terms = [[a, b, str(c)] for (a, b), c in self.terms()]
        return json.dumps({"terms": terms}, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "BivarPoly":
        data = json.loads(text)
        return cls({(int(a), int(b)): int(c) for a, b, c in data["terms"]})


# -- the counting calculus ---------------------------------------------------


# perfbench/tests inspects this cache (cache_clear, cache_info); no merge
# calls the function, so outside the tests the cache stays empty
@lru_cache(maxsize=None)
def _n_poly_terms(d1: int, d2: int) -> tuple:
    """Terms of N(d1, d2) written out one by one; the merges use _merge_core."""
    if d1 < 2 or d2 < 2:
        raise OutOfRange(f"degrees must be >= 2, got ({d1}, {d2})")
    acc = {d1 + d2 - 1: 1}
    for i1 in range(1, d1):
        for i2 in range(1, d2):
            e = i1 + i2
            acc[e] = acc.get(e, 0) + comb(d1 - i1 + d2 - i2 - 2, d1 - i1 - 1)
    return tuple(sorted(acc.items()))


def n_poly(d1: int, d2: int) -> UnivarPoly:
    """Recombination polynomial for merging root degrees d1 and d2.

    One term u^(d1+d2-1) for the merge that keeps the shared hull segment,
    plus a binomial-weighted term u^(i1+i2) for every way of re-hanging the
    remaining root neighbors across the merge.
    """
    return UnivarPoly(dict(_n_poly_terms(d1, d2)))


def _merge_core(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Coefficients of sum over (d1, d2) of a[d1] * b[d2] * N(d1, d2).

    ``a`` and ``b`` map root degrees >= 2 to int entries. Put j = d - i - 1;
    the binomial C(j1 + j2, j1) in N counts monotone lattice paths, so

        G(i1, i2) = sum_{d1>i1, d2>i2} a[d1] b[d2] C(d1-i1-1 + d2-i2-1, d1-i1-1)

    satisfies G(i1, i2) = a[i1+1] b[i2+1] + G(i1+1, i2) + G(i1, i2+1). The
    coefficient of u^e is the sum of G(i1, i2) over i1 + i2 = e plus the
    products a[d1] b[d2] with d1 + d2 - 1 = e. Rows of G are built from
    i1 = max(a) - 1 down to 1, so the whole merge costs O(D1*D2) products
    and additions. N(d1, d2) = N(d2, d1), so the operand of lower degree
    indexes the rows and each row is one long vectorized step.
    """
    if max(a) > max(b):
        a, b = b, a
    top1, top2 = max(a), max(b)
    width = top2 - 1
    b_row = [b.get(d, 0) for d in range(2, top2 + 1)]  # b[i2 + 1], i2 = 1..
    out = [0] * (top1 + top2)
    g = [0] * width  # G(i1 + 1, i2), i2 = 1..top2-1
    for i1 in range(top1 - 1, 0, -1):
        c1 = a.get(i1 + 1, 0)
        prods = [c1 * c2 for c2 in b_row]
        # a[i1+1] b[i2+1] lands at u^(i1+i2+1); G(i1, i2) at u^(i1+i2)
        out[i1 + 2:i1 + 2 + width] = map(add, out[i1 + 2:i1 + 2 + width], prods)
        g = list(accumulate(map(add, reversed(prods), reversed(g))))[::-1]
        out[i1 + 1:i1 + 1 + width] = map(add, out[i1 + 1:i1 + 1 + width], g)
    return {e: c for e, c in enumerate(out) if c}


def join_Q(q1: UnivarPoly, q2: UnivarPoly) -> UnivarPoly:
    """Triangulation polynomial of a join from the operand polynomials."""
    for q in (q1, q2):
        if q.is_zero() or q.min_exp < 2:
            raise OutOfRange("operand polynomials need minimum exponent >= 2")
    return UnivarPoly(_merge_core(q1._c, q2._c))


def _pack_rows(p: BivarPoly, low: int, k: int) -> dict[int, int]:
    """u-exponent -> its v-polynomial over v^low, evaluated at v = 2^k."""
    rows: dict[int, int] = {}
    for (a, b), c in p._c.items():
        rows[a] = rows.get(a, 0) + (c << (k * (b - low)))
    return rows


def _unpack(x: int, k: int, slots: int) -> dict[int, int]:
    """Coefficients c_j, |c_j| < 2^(k-1), of x = sum_{j < slots} c_j 2^(k*j).

    Adding 2^(k-1) to every slot makes each one a nonnegative k-bit digit
    that can be read off the bytes of the sum; k is a multiple of 8.
    """
    width = k // 8
    half = 1 << (k - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    raw = (x + bias).to_bytes(width * slots, "little")
    out = {}
    for j in range(slots):
        c = int.from_bytes(raw[j * width:(j + 1) * width], "little") - half
        if c:
            out[j] = c
    return out


def join_P(p1: BivarPoly, p2: BivarPoly) -> BivarPoly:
    """Weak-triangulation polynomial of a join from the operand polynomials.

    The phantom-degree product v^(b1+b2) is shifted down by one; the shift
    must be exact because the segment from the phantom to the merged hull
    point occurs in both operands.

    When both operands factor into a u-part times a v-part (chains do), the
    result factors the same way: its u-part is the join of the u-parts, and
    it is returned in factored form. Otherwise the merge runs on the
    v-polynomials of each root degree, packed into integers at v = 2^k with
    k large enough that no coefficient of the result overflows a slot.
    """
    if p1.is_zero() or p2.is_zero():
        raise EmptyInput("zero operand polynomial")
    if p1.min_u_exp() < 2 or p2.min_u_exp() < 2:
        raise OutOfRange("operand polynomials need minimum u-exponent >= 2")
    split1 = try_split(p1)
    split2 = try_split(p2)
    if split1 is not None and split2 is not None:
        up1, vp1 = split1
        up2, vp2 = split2
        return BivarPoly._from_factors(join_Q(up1, up2),
                                       (vp1 * vp2).shift(-1))
    low1, low2 = p1.min_v_exp(), p2.min_v_exp()
    slots = (max(b for _, b in p1._c) - low1
             + max(b for _, b in p2._c) - low2 + 1)
    # every result coefficient is at most C(D1+D2-2, D1-1) * S1 * S2 in
    # absolute value, with S the sum of absolute operand coefficients
    top1 = max(a for a, _ in p1._c)
    top2 = max(a for a, _ in p2._c)
    bound = (comb(top1 + top2 - 2, top1 - 1)
             * sum(map(abs, p1._c.values())) * sum(map(abs, p2._c.values())))
    k = -(-(bound.bit_length() + 1) // 8) * 8
    merged = _merge_core(_pack_rows(p1, low1, k), _pack_rows(p2, low2, k))
    acc = {(e, low1 + low2 + j): c for e, x in merged.items()
           for j, c in _unpack(x, k, slots).items()}
    if any(b < 1 for _, b in acc):
        raise InternalInvariantViolation(
            "phantom-degree product has an exponent-0 term; operands are not "
            "weak-triangulation polynomials")
    return BivarPoly({(a, b - 1): c for (a, b), c in acc.items()})


def swap_vars(p: BivarPoly) -> BivarPoly:
    """Transpose the roles of the two variables."""
    if p._factors is not None:
        u_part, v_part = p._factors
        return BivarPoly._from_factors(v_part, u_part)
    return BivarPoly({(b, a): c for (a, b), c in p._c.items()})


def meet_P(p1: BivarPoly, p2: BivarPoly) -> BivarPoly:
    """Weak-triangulation polynomial of a meet: the join with roles swapped."""
    return swap_vars(join_P(swap_vars(p1), swap_vars(p2)))


def q_from_p(p: BivarPoly) -> UnivarPoly:
    """Slice of the weak polynomial at the minimal phantom degree.

    Weak triangulations of minimal phantom degree are exactly the extensions
    of true triangulations, so this recovers the triangulation polynomial.
    """
    if p.is_zero():
        raise EmptyInput("zero polynomial")
    if p._factors is not None:
        u_part, v_part = p._factors
        return u_part * v_part.coeff(v_part.min_exp)
    m = p.min_v_exp()
    return UnivarPoly({a: c for (a, b), c in p._c.items() if b == m})


def count_weak_join(p1: BivarPoly, p2: BivarPoly, kind: str = "join") -> int:
    """Total weak-triangulation count of a join or meet, by marginals only.

    Equals the full merged polynomial evaluated at (1, 1) but never builds
    it: only the per-root-degree totals of each operand are needed. When
    both operands are the same object, its totals are taken once.
    """
    same = p2 is p1
    if kind == "meet":
        p1 = swap_vars(p1)
        p2 = p1 if same else swap_vars(p2)
    elif kind != "join":
        raise OutOfRange(f"kind must be 'join' or 'meet', got {kind!r}")
    s1 = p1.u_slices()
    s2 = s1 if same else p2.u_slices()
    if not s1 or not s2:
        raise EmptyInput("zero operand polynomial")
    if min(s1) < 2 or min(s2) < 2:
        raise OutOfRange("operand polynomials need minimum u-exponent >= 2")
    # the full merge at (1, 1) sums a[d1] b[d2] N(d1, d2)(1), and _merge_core
    # of the marginals spreads that same sum over the root degrees
    a = {d: sum(vs.values()) for d, vs in s1.items()}
    b = a if same else {d: sum(vs.values()) for d, vs in s2.items()}
    return sum(_merge_core(a, b).values())


def try_split(p: BivarPoly):
    """Factor p as (polynomial in u) * (polynomial in v), if possible.

    Returns factors (U, V) whose outer product is p, or None when the
    coefficient matrix has rank above one. Chains always split. A factored
    polynomial returns the factors it holds; an expanded one is factored
    with V divided by the gcd of its lowest-u row, so U comes out exact.
    """
    if p.is_zero():
        return None
    if p._factors is not None:
        return p._factors
    slices = p.u_slices()
    a0 = min(slices)
    row0 = slices[a0]
    b0 = min(row0)
    g = 0
    for c in row0.values():
        g = gcd(g, c)
    v_part = {b: c // g for b, c in row0.items()}
    u_part = {}
    for a, row in slices.items():
        lead = row.get(b0)
        if lead is None or lead % v_part[b0] != 0:
            return None
        u_part[a] = lead // v_part[b0]
    # verify the outer product reproduces p exactly
    prod: dict[tuple[int, int], int] = {}
    for a, cu in u_part.items():
        for b, cv in v_part.items():
            prod[(a, b)] = cu * cv
    if _clean(prod) != p._c:
        return None
    return UnivarPoly(u_part), UnivarPoly(v_part)
