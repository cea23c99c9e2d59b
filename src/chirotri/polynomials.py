"""Exact polynomials and the recursive triangulation-counting calculus.

Coefficients are Python ints (arbitrary precision). A UnivarPoly is its
lowest exponent plus the dense row of its coefficients from there, with no
zero at either end. A BivarPoly is its lowest u- and v-exponents plus dense
rows: one row of v-coefficients per u-exponent, all of one width, with no
all-zero row or column at either end. The merge recursion combines the
weak triangulation polynomials of two rooted chirotopes: terms of root
degrees (d1, d2) recombine into root degrees given by the polynomial
N(d1, d2), and the phantom-degree product is divided by the phantom
variable exactly once because the shared segment from the phantom to the
merged hull point is counted on both sides.

All merges run through one lattice-path recurrence (``_merge_core``) on
lists indexed by root degree, which costs O(D1*D2) operations for operand
root degrees up to D1 and D2. A weak merge packs each row into one integer
for it and unpacks each merged integer into a row of the result; a meet
transposes the rows. Whether a BivarPoly factors as (polynomial in u) *
(polynomial in v) is decided when it is built. A merge of two operands that
factor returns a BivarPoly that keeps the two factors of the result and
builds its rows only when something reads them.

A zero entry of the shorter operand adds nothing of its own: its row
telescopes with the live row above it into one addition. So a merge with a
sparse short operand costs little more than its prefix sums: with u^2 (a
step of a convex chain) one prefix sum and no addition, with u^3 (a step of
the double circle) two prefix sums and one addition.

A Koch chain merges a polynomial with itself at every level, and every
caller passes such a self-merge on as one object. The recurrence is then
symmetric, so ``_merge_core`` builds only the rows' half on and above the
diagonal, and the product of the two v-parts (u-parts for a meet) is a
square, which ``UnivarPoly`` computes as one big-integer square (Kronecker
substitution).

A weak count needs only totals. The coefficients of N(d1, d2) sum to the
number of lattice paths C(d1+d2-2, d1-1), so the count of a merge is the
binomial form of the operands' totals per root degree (``binomial_form``,
one running sum per degree and no rows), and the totals of a self-merge
per exponent of the other variable are the same form over its packed rows,
one integer unpacked once (``self_merge_totals``). The search pipeline
reads its last level from the level two below it that way.

A generator chain, ``chik(k)`` or ``convex(n)``, joins k copies of one leaf
that factors, and ``chain_P`` evaluates it as one row recurrence: k - 1
steps of ``_merge_core`` on the leaf's u-row and one power of its v-part,
with no BivarPoly per link. A chain written out by hand takes ``join_P``
link by link, the general path and a second route to the same factors.
chi1's u-row is u^3, so the u-part of ``chik(k)`` is the double circle's
Q_k, and ``doublecircle.QkTable`` steps the same chain on the same core.
"""

from __future__ import annotations

import json
from decimal import Decimal
from functools import lru_cache
from itertools import accumulate, chain, pairwise
from math import comb, gcd
from operator import add, ne

from .errors import (EmptyInput, InternalInvariantViolation, MalformedFile,
                     OutOfRange)


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
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
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
        if other is self:
            return self._square()
        short, long = ((self, other) if len(self._r) <= len(other._r)
                       else (other, self))
        if not short._r:
            return short
        sr, lr = short._r, long._r
        width = len(lr)
        # the first row is assigned; a unit coefficient adds the long row
        # as it is
        c = sr[0]
        out = (lr if c == 1 else [c * x for x in lr]) + [0] * (len(sr) - 1)
        for i in range(1, len(sr)):
            c = sr[i]
            if c:
                out[i:i + width] = map(add, out[i:i + width],
                                       lr if c == 1 else map(c.__mul__, lr))
        return UnivarPoly.from_row(out, short._lo + long._lo)

    def _square(self) -> "UnivarPoly":
        """self * self by one big-integer square (Kronecker substitution):
        the row is packed at u = 2^k, with k large enough that no coefficient
        of the square, at most len * max|c|^2 in absolute value, overflows a
        slot, and the square is unpacked into the row of the result."""
        r = self._r
        if not r:
            return self
        bits = 2 * max(c.bit_length() for c in r) + len(r).bit_length() + 1
        k = -(-bits // 8) * 8
        x = _pack_row(r, k)
        return UnivarPoly.from_row(list(_unpacker(k, 2 * len(r) - 1)(x * x)),
                                   2 * self._lo)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UnivarPoly":
        """self^n for n >= 1, by repeated squaring: one ``_square`` per bit
        of n after the first, and one product with self per further set
        bit."""
        if not isinstance(n, int) or n < 1:
            raise OutOfRange(f"bad power {n!r}")
        out = self
        for bit in bin(n)[3:]:
            out = out._square()
            if bit == "1":
                out = out * self
        return out

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
        terms = [[e, exact_str(c)] for e, c in self.terms()]
        return json.dumps({"terms": terms}, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "UnivarPoly":
        return cls({e: c for (e,), c in _terms_from_json(text, 1).items()})


class BivarPoly:
    """Bivariate polynomial in (u, v), integer coefficients, exponents >= 0.

    Stored as its lowest exponents ``_u0`` and ``_v0`` and the dense rows
    ``_rows``: one tuple of v-coefficients per u-exponent from ``_u0`` on,
    all of one width, each from v^_v0 on. No row or column at either end
    is all zero; the zero polynomial has no rows. Stored rows are never
    changed, so polynomials may share them. A polynomial thus holds as many
    coefficients as the product of its u- and v-exponent spans, however
    few of them are nonzero.

    Whether the polynomial has rank one is decided when it is built:
    ``_factors`` holds factors (U(u), V(v)) whose product it is, or None.
    A polynomial built by ``_from_factors`` holds only its factors, at the
    scale its merge produced them, until its rows are first read.
    """

    __slots__ = ("_u0", "_v0", "_rows", "_factors", "_coeffs")

    def __init__(self, coeffs: dict | None = None):
        coeffs = coeffs or {}
        for key in coeffs:
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(isinstance(e, int) and not isinstance(e, bool)
                            and e >= 0 for e in key)):
                raise OutOfRange(f"bad exponent pair {key!r}")
        live = [(a, b, c) for (a, b), c in coeffs.items() if c]
        rows, u0, v0 = [], 0, 0
        if live:
            us, vs, _ = zip(*live)
            u0, v0 = min(us), min(vs)
            rows = [[0] * (max(vs) - v0 + 1) for _ in range(max(us) - u0 + 1)]
            for a, b, c in live:
                rows[a - u0][b - v0] = c
        self._set_rows(rows, u0, v0)

    @classmethod
    def from_rows(cls, rows: list, u0: int = 0, v0: int = 0) -> "BivarPoly":
        """The polynomial sum of rows[i][j] * u^(u0 + i) * v^(v0 + j), for
        rows of one width; zero rows and columns at the ends are dropped."""
        if u0 < 0 or v0 < 0:
            raise OutOfRange(f"bad exponent pair ({u0}, {v0})")
        p = cls.__new__(cls)
        p._set_rows(rows, u0, v0)
        return p

    def _set_rows(self, rows, u0, v0):
        end = len(rows)
        while end and not any(rows[end - 1]):
            end -= 1
        start = 0
        while start < end and not any(rows[start]):
            start += 1
        rows = rows[start:end]
        self._coeffs = None
        if not rows:
            self._u0 = self._v0 = 0
            self._rows = ()
            self._factors = None
            return
        left, right = 0, len(rows[0])
        while not any(row[left] for row in rows):
            left += 1
        while not any(row[right - 1] for row in rows):
            right -= 1
        if left or right < len(rows[0]):
            rows = [row[left:right] for row in rows]
        self._u0, self._v0 = u0 + start, v0 + left
        self._rows = tuple(map(tuple, rows))
        self._factors = _rank_one(self._rows, self._u0, self._v0)

    @classmethod
    def _from_factors(cls, u_part: UnivarPoly, v_part: UnivarPoly) -> "BivarPoly":
        """u_part(u) * v_part(v), kept factored as the two given factors."""
        if u_part.is_zero() or v_part.is_zero():
            return cls()
        p = cls.__new__(cls)
        p._u0, p._v0 = u_part.min_exp, v_part.min_exp
        p._rows = p._coeffs = None
        p._factors = (u_part, v_part)
        return p

    def _grid(self) -> tuple:
        """The rows, built from the factors when first read."""
        if self._rows is None:
            u_part, v_part = self._factors
            v_row = v_part._r
            zero = (0,) * len(v_row)
            self._rows = tuple(tuple(map(c.__mul__, v_row)) if c else zero
                               for c in u_part._r)
        return self._rows

    @property
    def _c(self) -> dict:
        """The coefficient dict {(u-exp, v-exp): coefficient}, built when
        first read; a factored polynomial builds it from its factors and
        still holds no rows.

        Only the benchmark tracer reads it, three times per traced join_P.
        The cache and the build from the factors keep that cheap: built
        from ``terms()`` each time, traced poly-compose ran at about three
        times its overhead, and cached but built from ``terms()`` (which
        builds the rows) at about one and a half times.
        """
        if self._coeffs is None:
            if self._rows is None:
                u_part, v_part = self._factors
                self._coeffs = {(a, b): cu * cv for a, cu in u_part.terms()
                                for b, cv in v_part.terms()}
            else:
                self._coeffs = dict(self.terms())
        return self._coeffs

    def terms(self):
        """((u-exp, v-exp), coefficient) pairs in lexicographic order."""
        u0, v0 = self._u0, self._v0
        return [((u0 + i, v0 + j), c) for i, row in enumerate(self._grid())
                for j, c in enumerate(row) if c]

    def is_zero(self) -> bool:
        return self._factors is None and not self._rows

    def min_u_exp(self) -> int:
        if self.is_zero():
            raise EmptyInput("zero polynomial has no exponents")
        return self._u0

    def min_v_exp(self) -> int:
        if self.is_zero():
            raise EmptyInput("zero polynomial has no exponents")
        return self._v0

    def __eq__(self, other):
        return (isinstance(other, BivarPoly) and self._u0 == other._u0
                and self._v0 == other._v0 and self._grid() == other._grid())

    def __hash__(self):
        return hash((self._u0, self._v0, self._grid()))

    def __call__(self, u, v):
        if self._factors is not None:
            u_part, v_part = self._factors
            return u_part(u) * v_part(v)
        return sum(c * u ** a * v ** b for (a, b), c in self.terms())

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for (a, b), c in reversed(self.terms()):
            term = "" if c == 1 and (a or b) else str(c)
            if a:
                term += ("*" if term else "") + f"u^{a}"
            if b:
                term += ("*" if term else "") + f"v^{b}"
            bits.append(term or "1")
        return " + ".join(bits)

    def to_json(self) -> str:
        terms = [[a, b, exact_str(c)] for (a, b), c in self.terms()]
        return json.dumps({"terms": terms}, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "BivarPoly":
        return cls(_terms_from_json(text, 2))


# significant digits of the double-circle analytics when none is asked for;
# kept here, beside ``exact_str``, so that the CLI reads it without mpmath
DEFAULT_DPS = 50


def exact_str(n: int) -> str:
    """n in decimal at any length, with no global setting changed.

    Past Python's int-to-str digit limit (4,300 digits by default) ``str``
    refuses n, and a Decimal built from n, which that limit does not bind,
    writes it. Below the limit ``str`` writes it: the first Decimal built
    in a process forked after import raised its peak RSS by about 0.5 MB.
    """
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _read_exact(text) -> int:
    """The int that ``exact_str`` wrote as ``text``, at any size."""
    digits = text.removeprefix("-") if type(text) is str else ""
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(Decimal(text))


def _terms_from_json(text: str, arity: int) -> dict:
    """{exponent tuple: coefficient} from the text ``to_json`` writes, with
    ``arity`` exponents per term, each a JSON integer; MalformedFile for
    any other text. A negative exponent reaches the constructor, which
    refuses it with OutOfRange."""
    try:
        terms = json.loads(text)["terms"]
        out = {tuple(t[:arity]): _read_exact(t[arity]) for t in terms
               if type(t) is list and len(t) == arity + 1
               and all(type(e) is int for e in t[:arity])}
        if len(out) < len(terms):
            raise ValueError("a term is malformed or repeats exponents")
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedFile(f"malformed polynomial text: {exc}") from None
    return out


def _rank_one(rows: tuple, u0: int, v0: int):
    """Factors (U, V) whose product is the polynomial of these rows, or None
    when its coefficient matrix has rank above one.

    Every row must be a rational multiple of the first, checked by cross
    products against the first row's leading entry; a mismatch usually
    shows in the first entries of the second row. V is the first row over
    the gcd of its entries, so every multiple is an integer and U is exact.
    """
    first = rows[0]
    j = next(i for i, c in enumerate(first) if c)
    lead = first[j]
    for row in rows[1:]:
        c = row[j]
        if any(map(ne, map(lead.__mul__, row), map(c.__mul__, first))):
            return None
    g = gcd(*first)
    v_row = [c // g for c in first]
    return (UnivarPoly.from_row([row[j] // v_row[j] for row in rows], u0),
            UnivarPoly.from_row(v_row, v0))


# -- the counting calculus ---------------------------------------------------


# no merge calls this: perfbench/tests reads its cache until ROADMAP item 1
# rewrites that test. n_poly, built on it, is in tests/helpers.py
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


def _merge_core(a: list, b: list) -> list:
    """Coefficients of sum over (d1, d2) of a[d1] * b[d2] * N(d1, d2).

    ``a`` and ``b`` are lists indexed by root degree, zero below degree 2,
    and so is the result, indexed by exponent. Put j = d - i - 1; the
    binomial C(j1 + j2, j1) in N counts monotone lattice paths, so

        G(i1, i2) = sum_{d1>i1, d2>i2} a[d1] b[d2] C(d1-i1-1 + d2-i2-1, d1-i1-1)

    satisfies G(i1, i2) = a[i1+1] b[i2+1] + G(i1+1, i2) + G(i1, i2+1). The
    coefficient of u^e is the sum of G(i1, i2) over i1 + i2 = e plus the
    products a[d1] b[d2] with d1 + d2 - 1 = e. Rows of G are built from the
    top live row of ``a`` down to i1 = 1, so the whole merge costs O(D1*D2)
    products and additions. N(d1, d2) = N(d2, d1), so the operand of lower
    degree indexes the rows and each row is one long vectorized step.

    Row i1 is the suffix sum over i2 of x(i2) = a[i1+1] b[i2+1] + G(i1+1, i2),
    and x(i2) is also the whole contribution at u^(i1+i2+1) of the products
    of row i1 and of G on row i1 + 1; so each row adds x once into the
    result, and G's last row is added as the x of a row i1 = 0 without
    products. Rows run with i2 descending, so the suffix sum is a prefix
    sum, and the result is built from its top exponent down: each row adds
    into what the rows above it wrote and appends its one new exponent,
    never adding into a zero. A unit entry of ``a`` multiplies nothing.

    A zero entry of ``a`` adds nothing of its own: that row's x is the
    prefix sum g of the x above it, and x at its place plus g one place on
    is g at x's place plus g's last entry once more. So the x of a live
    row waits until the next row is known, and a zero row below it
    telescopes the two into one addition, or into a copy where the live
    row is the first; a zero row below a zero row is added at its place.
    Row 0 is always zero: a merge with u^2 (a step of a convex chain) costs
    one prefix sum and no addition, and one with u^3 (``qk_step``) two
    prefix sums and one addition. When ``a`` and ``b`` are one list, the
    merge is symmetric and ``_merge_self`` builds half of G.
    """
    if a is b:
        return _merge_self(a)
    if len(a) > len(b):
        a, b = b, a
    size = len(a) + len(b) - 2
    top1 = len(a) - 1
    while top1 > 1 and not a[top1]:
        top1 -= 1
    b_rev = b[:1:-1]  # b[i2 + 1] for i2 = top2 - 1 down to 1
    if top1 < 2 or not b_rev:
        return [0] * size
    c1 = a[top1]
    x = b_rev if c1 == 1 else [c1 * c2 for c2 in b_rev]  # row top1 - 1
    # the result from its top exponent down: acc[q] is the coefficient of
    # u^(top1 + top2 - 1 - q), and the row at place n adds its x at acc[n:]
    acc = []
    # rows top1 - 2 down to 1, then 0, each with the entry of the row above
    for n, (above, c1) in enumerate(pairwise(a[top1:1:-1] + [0]), 1):
        g = list(accumulate(x))  # G of the row above
        if above or not c1:
            # the x of a live row goes in at its place n - 1 once the next
            # row is known, and a zero row below it telescopes into g there;
            # a zero row below a zero row adds g at its own place
            y, p = x if c1 else g, n - 1 if above else n
            acc[p:] = map(add, acc[p:], y)
            acc += y[-1:] if acc else y  # the first row fills acc
            if above and not c1:
                acc.append(g[-1])  # g's last entry once more
        x = (list(map(add, g, b_rev if c1 == 1 else map(c1.__mul__, b_rev)))
             if c1 else g)
    acc += (0, 0)
    acc.reverse()
    acc += [0] * (size - len(acc))
    return acc


def _merge_self(a: list) -> list:
    """``_merge_core(a, a)``, from the half i2 >= i1 of G.

    G(i1, i2) = G(i2, i1), so row i1 holds G(i1, i2) for i2 > i1 as the
    suffix sum of x(i2) = a[i1+1] a[i2+1] + G(i1+1, i2), where G(i1+1, i1+1)
    is the diagonal of the row above, and then its own diagonal
    G(i1, i1) = a[i1+1]^2 + 2 G(i1, i1+1). The result accumulates each x
    as ``_merge_core`` does: every product a[d1] a[d2] with d1 < d2 and
    every G(i1, i2) with i1 < i2 once, each diagonal G once. The ordered
    sum counts the first two twice, so the sums are doubled once at the
    end; then each diagonal G is taken back once, and each square a[d]^2
    is added once at u^(2d - 1).
    """
    size = 2 * len(a) - 2
    top = len(a) - 1
    while top > 1 and not a[top]:
        top -= 1
    if top < 2:
        return [0] * size
    a_rev = a[top:1:-1]  # a[i2 + 1] for i2 = top - 1 down to 1
    squares = [c * c for c in a_rev]
    # acc[q] is the coefficient of u^(2 top - 1 - q); row top - 1 of G is
    # its diagonal alone, and u^(2 top - 1) gets only the square a[top]^2
    x, acc, diagonal = [], [0], []
    for n, c1 in enumerate(a_rev[1:] + [0], 1):  # row top - 1 - n
        g = list(accumulate(x))  # G of the row above, then its diagonal
        sq = squares[n - 1]
        g.append(sq + 2 * g[-1] if g else sq)
        diagonal.append(g[-1])
        x = (list(map(add, g, a_rev if c1 == 1 else map(c1.__mul__, a_rev)))
             if c1 else g)
        acc[n:] = map(add, acc[n:], x)
        acc += x[len(acc) - n:]
    # u^(2i + 1) gets a[i+1]^2 and u^(2i) gets G(i, i), i = top - 1 down to 1
    acc[0::2] = [s + s + c for s, c in zip(acc[0::2], squares)]
    acc[1::2] = [s + s - d for s, d in zip(acc[1::2], diagonal)]
    acc += (0, 0)
    acc.reverse()
    return acc + [0] * (size - len(acc))


def binomial_form(a: list, b: list) -> int:
    """sum over (d1, d2) of C(d1+d2-2, d1-1) * a[d1] * b[d2], which is
    ``sum(_merge_core(a, b))``: the coefficients of N(d1, d2) count the
    monotone lattice paths across a (d1-1) x (d2-1) grid, C(d1+d2-2, d1-1)
    in all. Entries below degree 2 must be zero.

    With i = d1 - 1 and j = d2 - 1, the sum over j of C(i+j, i) b[j+1] is
    the first entry of the (i+1)-fold suffix sum of b, so the form takes
    one running sum over b per degree of a and one product per live entry
    of a.
    """
    if len(a) > len(b):
        a, b = b, a
    s = b[:0:-1]  # b[d2] for d2 = top down to 1
    total = 0
    for c in a[1:]:  # d1 = 1, 2, ...
        s = list(accumulate(s))
        if c:
            total += c * s[-1]
    return total


def join_Q(q1: UnivarPoly, q2: UnivarPoly) -> UnivarPoly:
    """Triangulation polynomial of a join from the operand polynomials."""
    for q in (q1, q2):
        if q.is_zero() or q.min_exp < 2:
            raise OutOfRange("operand polynomials need minimum exponent >= 2")
    row = q1.row()
    return UnivarPoly.from_row(_merge_core(row, row if q2 is q1 else q2.row()))


def _pack_row(row, k: int) -> int:
    """sum of row[j] * 2^(k*j), for k a multiple of 8 and all |row[j]| < 2^k:
    the k-bit digits of the positive entries less those of the negative."""
    if min(row) < 0:
        return (_pack_row([max(c, 0) for c in row], k)
                - _pack_row([max(-c, 0) for c in row], k))
    return int.from_bytes(b"".join([c.to_bytes(k // 8, "little") for c in row]),
                          "little")


def _pack(rows: tuple, u0: int, k: int) -> list:
    """Each row evaluated at v = 2^k, in a list indexed by u-exponent from 0."""
    return [0] * u0 + [_pack_row(row, k) for row in rows]


def _unpacker(k: int, slots: int):
    """The function that gives the coefficients c_j, |c_j| < 2^(k-1), of
    x = sum_{j < slots} c_j 2^(k*j), as a tuple.

    Adding 2^(k-1) to every slot makes each one a nonnegative k-bit digit
    that can be read off the bytes of the sum; k is a multiple of 8.
    """
    width = k // 8
    half = 1 << (k - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    cuts = range(0, width * slots, width)
    read = int.from_bytes

    def unpack(x):
        raw = (x + bias).to_bytes(width * slots, "little")
        return tuple([read(raw[i:i + width], "little") - half for i in cuts])
    return unpack


def join_P(p1: BivarPoly, p2: BivarPoly) -> BivarPoly:
    """Weak-triangulation polynomial of a join from the operand polynomials.

    The phantom-degree product v^(b1+b2) is shifted down by one; the shift
    must be exact because the segment from the phantom to the merged hull
    point occurs in both operands.

    When both operands factor into a u-part times a v-part (chains do), the
    result factors the same way: its u-part is the join of the u-parts, and
    it is returned in factored form. Otherwise the merge runs on the rows:
    each row, a v-polynomial, is packed into one integer at v = 2^k, with k
    large enough that no coefficient of the result overflows a slot, and
    each merged integer is unpacked into a row of the result. When both
    operands are one object, its factors or its packed rows are passed on
    as one object, so the merge takes the symmetric path.
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
    rows1, rows2 = p1._grid(), p2._grid()
    slots = len(rows1[0]) + len(rows2[0]) - 1
    k = _slot_bits(p1, p2)
    packed = _pack(rows1, p1._u0, k)
    merged = _merge_core(packed,
                         packed if p2 is p1 else _pack(rows2, p2._u0, k))
    unpack = _unpacker(k, slots)
    zero = (0,) * slots
    rows = [unpack(x) if x else zero for x in merged]
    v0 = p1._v0 + p2._v0 - 1
    if v0 < 0:  # both operands have terms free of v
        if any(row[0] for row in rows):
            raise InternalInvariantViolation(
                "phantom-degree product has an exponent-0 term; operands are "
                "not weak-triangulation polynomials")
        rows, v0 = [row[1:] for row in rows], 0
    return BivarPoly.from_rows(rows, 0, v0)


def _slot_bits(p1: BivarPoly, p2: BivarPoly) -> int:
    """Bits per packed slot for a weak merge of p1 and p2: a multiple of 8
    that holds, with its sign, every coefficient of the merge and every sum
    of its coefficients over the u-exponents."""
    rows1, rows2 = p1._grid(), p2._grid()
    # each such number is at most C(D1+D2-2, D1-1) * S1 * S2 in absolute
    # value, with S the sum of absolute operand coefficients: the total of
    # N(d1, d2)'s coefficients, C(d1+d2-2, d1-1), grows with d1 and d2
    top1 = p1._u0 + len(rows1) - 1
    top2 = p2._u0 + len(rows2) - 1
    bound = (comb(top1 + top2 - 2, top1 - 1) * sum(map(abs, chain(*rows1)))
             * sum(map(abs, chain(*rows2))))
    return -(-(bound.bit_length() + 1) // 8) * 8


def chain_P(p: BivarPoly, links: int) -> BivarPoly:
    """Weak-triangulation polynomial of the chain join(p, p, ..., p) of
    ``links`` copies of p, folded to the left, for a p that factors into
    U(u) * V(v), as the triangle and chi1 do.

    The chain is one row recurrence: its u-part is U's row merged with U's
    row ``links`` - 1 times, each a ``_merge_core`` step on plain lists,
    and its v-part is V^links shifted down by links - 1, one shared phantom
    segment per join. These are the factors, at the same scale, that
    ``join_P`` builds link by link, without a BivarPoly, a split read or a
    v-part product per link.
    """
    if not isinstance(links, int) or links < 1:
        raise OutOfRange(f"a chain needs at least one link, got {links!r}")
    if links == 1:
        return p
    split = try_split(p)
    if split is None:
        raise OutOfRange("a chain needs a polynomial that factors into a "
                         "u-part times a v-part")
    if p.min_u_exp() < 2:
        raise OutOfRange("operand polynomials need minimum u-exponent >= 2")
    u_part, v_part = split
    row = g = u_part.row()
    for _ in range(links - 1):
        row = _merge_core(row, g)
    return BivarPoly._from_factors(UnivarPoly.from_row(row),
                                   (v_part ** links).shift(1 - links))


def swap_vars(p: BivarPoly) -> BivarPoly:
    """Transpose the roles of the two variables."""
    q = BivarPoly.__new__(BivarPoly)
    q._u0, q._v0 = p._v0, p._u0
    q._rows = None if p._rows is None else tuple(zip(*p._rows))
    q._factors = None if p._factors is None else p._factors[::-1]
    q._coeffs = None
    return q


def meet_P(p1: BivarPoly, p2: BivarPoly) -> BivarPoly:
    """Weak-triangulation polynomial of a meet: the join with roles swapped.

    A self-meet swaps its operand once, so the join sees one object twice.
    """
    s1 = swap_vars(p1)
    return swap_vars(join_P(s1, s1 if p2 is p1 else swap_vars(p2)))


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
    return UnivarPoly.from_row([row[0] for row in p._rows], p._u0)


def _totals(p: BivarPoly, by_v: bool) -> list:
    """Coefficient sums of p per u-exponent, or per v-exponent if ``by_v``,
    in a list indexed by exponent from 0."""
    if by_v:
        return [0] * p._v0 + list(map(sum, zip(*p._grid())))
    return [0] * p._u0 + list(map(sum, p._grid()))


def count_weak_join(p1: BivarPoly, p2: BivarPoly, kind: str = "join") -> int:
    """Total weak-triangulation count of a join or meet, by marginals only.

    Equals the full merged polynomial evaluated at (1, 1) but never builds
    it: N(d1, d2)(1) = C(d1+d2-2, d1-1), so the count is ``binomial_form``
    of the per-root-degree totals of the operands, the row sums for a join
    and the column sums for a meet, where the roles of the variables are
    swapped. When both operands are the same object, its totals are taken
    once.
    """
    if kind not in ("join", "meet"):
        raise OutOfRange(f"kind must be 'join' or 'meet', got {kind!r}")
    if p1.is_zero() or p2.is_zero():
        raise EmptyInput("zero operand polynomial")
    by_v = kind == "meet"
    low = (min(p1.min_v_exp(), p2.min_v_exp()) if by_v
           else min(p1.min_u_exp(), p2.min_u_exp()))
    if low < 2:
        raise OutOfRange(f"operand polynomials need minimum "
                         f"{'v' if by_v else 'u'}-exponent >= 2")
    a = _totals(p1, by_v)
    return binomial_form(a, a if p2 is p1 else _totals(p2, by_v))


def self_merge_totals(p: BivarPoly, kind: str) -> list:
    """Coefficient sums of the join (or meet) of p with itself over its root
    degree, per exponent of the other variable, in a list indexed by
    exponent from 0: the totals that ``count_weak_join`` reads of that merge
    when it is merged by the other kind. The merge itself is never built.

    A join's rows, packed at v = 2^k as ``join_P`` packs them, are summed
    over the root degrees by one ``binomial_form`` into one integer, which
    is unpacked once; a meet packs the columns. Both exponents of p must be
    at least 2: the merge needs it of the root degree, and the next merge
    of the other one, whose lowest exponent doubles less one.
    """
    if kind not in ("join", "meet"):
        raise OutOfRange(f"kind must be 'join' or 'meet', got {kind!r}")
    if p.is_zero():
        raise EmptyInput("zero operand polynomial")
    if p.min_u_exp() < 2 or p.min_v_exp() < 2:
        raise OutOfRange("operand polynomials need minimum u- and "
                         "v-exponents >= 2")
    q = p if kind == "join" else swap_vars(p)
    rows = q._grid()
    k = _slot_bits(q, q)
    packed = _pack(rows, q._u0, k)
    total = _unpacker(k, 2 * len(rows[0]) - 1)(binomial_form(packed, packed))
    return [0] * (2 * q._v0 - 1) + list(total)


def try_split(p: BivarPoly):
    """Factor p as (polynomial in u) * (polynomial in v), if possible.

    Returns factors (U, V) whose outer product is p, or None when p is zero
    or its coefficient matrix has rank above one. Chains always split. The
    factors are decided when p is built, so this only reads them, at the
    scale they were made: by the merge that returned p, or, for p built
    from coefficients, with V the lowest-u row over the gcd of its entries.
    """
    return p._factors
