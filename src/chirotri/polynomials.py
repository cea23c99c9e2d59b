"""Exact polynomials and the recursive triangulation-counting calculus.

Coefficients are Python ints (arbitrary precision). A UnivarPoly is its
lowest exponent plus the dense row of its coefficients from there, with no
zero at either end; a BivarPoly maps (u-exponent, v-exponent) pairs to
nonzero coefficients. The merge recursion combines the weak
triangulation polynomials of two rooted chirotopes: terms of root degrees
(d1, d2) recombine into root degrees given by the polynomial N(d1, d2), and
the phantom-degree product is divided by the phantom variable exactly once
because the shared segment from the phantom to the merged hull point is
counted on both sides.

All merges run through one lattice-path recurrence (``_merge_core``) on
lists indexed by root degree, which costs O(D1*D2) operations for operand
root degrees up to D1 and D2. A merge of two operands that factor as
(polynomial in u) * (polynomial in v) returns a BivarPoly that keeps those
two factors and expands its coefficients only when something reads them.
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
    """Univariate polynomial with integer coefficients, exponents >= 0.

    Stored as its lowest exponent ``_lo`` and the dense row ``_r`` of its
    coefficients from there on, with no zero at either end; the zero
    polynomial is the empty row. A stored row is never changed, so
    polynomials may share one.
    """

    __slots__ = ("_lo", "_r")

    def __init__(self, coeffs: dict | None = None):
        coeffs = coeffs or {}
        for e in coeffs:
            if not isinstance(e, int) or e < 0:
                raise OutOfRange(f"bad exponent {e!r}")
        live = [e for e, c in coeffs.items() if c]
        self._lo = min(live, default=0)
        self._r = [0] * (max(live) - self._lo + 1) if live else []
        for e in live:
            self._r[e - self._lo] = coeffs[e]

    @classmethod
    def from_row(cls, row: list, lo: int = 0) -> "UnivarPoly":
        """The polynomial sum of row[i] * u^(lo + i). The list is kept, not
        copied, so the caller must not change it afterwards."""
        if lo < 0:
            raise OutOfRange(f"bad exponent {lo!r}")
        end = len(row)
        while end and not row[end - 1]:
            end -= 1
        start = 0
        while start < end and not row[start]:
            start += 1
        p = cls.__new__(cls)
        p._lo = lo + start if end else 0
        p._r = row if start == 0 and end == len(row) else row[start:end]
        return p

    def row(self) -> list:
        """The coefficients as a new list indexed by exponent from 0."""
        return [0] * self._lo + self._r

    def coeff(self, e: int) -> int:
        i = e - self._lo
        return self._r[i] if 0 <= i < len(self._r) else 0

    def terms(self):
        """(exponent, coefficient) pairs, exponent-ascending."""
        lo = self._lo
        return [(lo + i, c) for i, c in enumerate(self._r) if c]

    def is_zero(self) -> bool:
        return not self._r

    @property
    def min_exp(self) -> int:
        if not self._r:
            raise EmptyInput("zero polynomial has no exponents")
        return self._lo

    @property
    def max_exp(self) -> int:
        if not self._r:
            raise EmptyInput("zero polynomial has no exponents")
        return self._lo + len(self._r) - 1

    def _plus(self, lo2: int, r2: list) -> "UnivarPoly":
        """self + sum of r2[i] * u^(lo2 + i)."""
        if not r2:
            return self
        if not self._r:
            return UnivarPoly.from_row(r2, lo2)
        lo1, r1 = self._lo, self._r
        lo = min(lo1, lo2)
        out = [0] * (max(lo1 + len(r1), lo2 + len(r2)) - lo)
        out[lo1 - lo:lo1 - lo + len(r1)] = r1
        i = lo2 - lo
        out[i:i + len(r2)] = map(add, out[i:i + len(r2)], r2)
        return UnivarPoly.from_row(out, lo)

    def __add__(self, other):
        return self._plus(other._lo, other._r)

    def __sub__(self, other):
        return self._plus(other._lo, [-c for c in other._r])

    def __mul__(self, other):
        if isinstance(other, int):
            return UnivarPoly.from_row([c * other for c in self._r], self._lo)
        short, long = ((self, other) if len(self._r) <= len(other._r)
                       else (other, self))
        if not short._r:
            return short
        lr = long._r
        width = len(lr)
        out = [0] * (len(short._r) + width - 1)
        for i, c in enumerate(short._r):
            if c:
                out[i:i + width] = map(add, out[i:i + width],
                                       map(c.__mul__, lr))
        return UnivarPoly.from_row(out, short._lo + long._lo)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, UnivarPoly) and self._lo == other._lo
                and self._r == other._r)

    def __hash__(self):
        return hash((self._lo, tuple(self._r)))

    def __call__(self, x):
        return sum(c * x ** e for e, c in self.terms())

    def deriv_at_one(self) -> int:
        return sum(e * c for e, c in self.terms())

    def shift(self, k: int) -> "UnivarPoly":
        if not self._r:
            return self
        if self._lo + k < 0:
            raise InternalInvariantViolation("negative exponent after shift")
        return UnivarPoly.from_row(self._r, self._lo + k)

    def __repr__(self):
        if not self._r:
            return "0"
        bits = []
        for e, c in reversed(self.terms()):
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


def _merge_core(a: list, b: list) -> list:
    """Coefficients of sum over (d1, d2) of a[d1] * b[d2] * N(d1, d2).

    ``a`` and ``b`` are lists indexed by root degree, zero below degree 2,
    and so is the result, indexed by exponent. Put j = d - i - 1; the
    binomial C(j1 + j2, j1) in N counts monotone lattice paths, so

        G(i1, i2) = sum_{d1>i1, d2>i2} a[d1] b[d2] C(d1-i1-1 + d2-i2-1, d1-i1-1)

    satisfies G(i1, i2) = a[i1+1] b[i2+1] + G(i1+1, i2) + G(i1, i2+1). The
    coefficient of u^e is the sum of G(i1, i2) over i1 + i2 = e plus the
    products a[d1] b[d2] with d1 + d2 - 1 = e. Rows of G are built from
    i1 = top1 - 1 down to 1, so the whole merge costs O(D1*D2) products
    and additions. N(d1, d2) = N(d2, d1), so the operand of lower degree
    indexes the rows and each row is one long vectorized step; a zero entry
    of that operand adds no products to its row.
    """
    if len(a) > len(b):
        a, b = b, a
    top1, top2 = len(a) - 1, len(b) - 1
    width = top2 - 1
    b_row = b[2:]  # b[i2 + 1], i2 = 1..top2-1
    out = [0] * (top1 + top2)
    g = [0] * width  # G(i1 + 1, i2), i2 = 1..top2-1
    for i1 in range(top1 - 1, 0, -1):
        c1 = a[i1 + 1]
        if c1:
            prods = b_row if c1 == 1 else [c1 * c2 for c2 in b_row]
            # a[i1+1] b[i2+1] lands at u^(i1+i2+1); G(i1, i2) at u^(i1+i2)
            out[i1 + 2:i1 + 2 + width] = map(add, out[i1 + 2:i1 + 2 + width],
                                             prods)
            g = list(accumulate(map(add, reversed(prods), reversed(g))))[::-1]
        else:
            g = list(accumulate(reversed(g)))[::-1]
        out[i1 + 1:i1 + 1 + width] = map(add, out[i1 + 1:i1 + 1 + width], g)
    return out


def join_Q(q1: UnivarPoly, q2: UnivarPoly) -> UnivarPoly:
    """Triangulation polynomial of a join from the operand polynomials."""
    for q in (q1, q2):
        if q.is_zero() or q.min_exp < 2:
            raise OutOfRange("operand polynomials need minimum exponent >= 2")
    return UnivarPoly.from_row(_merge_core(q1.row(), q2.row()))


def _pack_rows(p: BivarPoly, low: int, k: int) -> list:
    """Row over u-exponents of the v-polynomials over v^low, each evaluated
    at v = 2^k."""
    rows = [0] * (max(a for a, _ in p._c) + 1)
    for (a, b), c in p._c.items():
        rows[a] += c << (k * (b - low))
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
    acc = {(e, low1 + low2 + j): c for e, x in enumerate(merged) if x
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
    if p1.is_zero() or p2.is_zero():
        raise EmptyInput("zero operand polynomial")
    if p1.min_u_exp() < 2 or p2.min_u_exp() < 2:
        raise OutOfRange("operand polynomials need minimum u-exponent >= 2")
    # the full merge at (1, 1) sums a[d1] b[d2] N(d1, d2)(1), and _merge_core
    # of the marginals (the rows packed at v = 2^0) spreads that same sum
    # over the root degrees
    a = _pack_rows(p1, 0, 0)
    b = a if same else _pack_rows(p2, 0, 0)
    return sum(_merge_core(a, b))


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
