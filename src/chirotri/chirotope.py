"""Abstract chirotopes: exact orientation signs over triples of labels.

A chirotope on n elements is stored as its side masks: for each ordered pair
(a, b), the bitmask of the labels c with sign(a, b, c) = +1. The constructor
takes one sign per sorted triple (i < j < k) and fills the masks in one pass;
a sign query reads one bit, so the alternating symmetry holds by
construction. Axiom checking (interiority and transitivity) is an exhaustive
scan over the masks, and a hull witness of x is a y whose mask holds every
other label (+) or none (-).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import lcm

from .errors import (GeneralPositionViolation, InvalidTriple, MalformedFile,
                     NotARootedChirotope, SharedEndpoint, TooSmall, clip)
from .geometry import PointSet, det, points_text


def sorted_triples(n: int):
    """All label triples (i < j < k) in lexicographic order."""
    return combinations(range(n), 3)


def _bits(mask):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Chirotope:
    """Immutable chirotope on 0..n-1, stored as its side masks."""

    __slots__ = ("n", "_pos")

    def __init__(self, n: int, signs):
        """``signs``: one +1 or -1 per sorted triple, in lexicographic order
        (the order of ``items()``), as any iterable."""
        if n < 3:
            raise TooSmall(f"need at least 3 elements, got {n}")
        signs = list(signs)
        expected = n * (n - 1) * (n - 2) // 6
        if len(signs) != expected:
            raise InvalidTriple(f"got {len(signs)} signs, expected {expected}")
        self.n = n
        # _pos[a][b]: the bitmask of the c with sign(a, b, c) = +1; it never
        # holds a or b
        pos = [[0] * n for _ in range(n)]
        for (i, j, k), s in zip(sorted_triples(n), signs):
            if s != 1:
                if s != -1:
                    raise InvalidTriple(f"sign of {(i, j, k)} must be +1 or "
                                        f"-1, got {s}")
                i, j = j, i
            pos[i][j] |= 1 << k
            pos[j][k] |= 1 << i
            pos[k][i] |= 1 << j
        self._pos = pos

    # -- queries ---------------------------------------------------------

    def sign(self, x: int, y: int, z: int) -> int:
        """Orientation of the ordered triple (x, y, z), with parity semantics."""
        n = self.n
        if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
            raise InvalidTriple(f"label out of range in ({x}, {y}, {z})")
        if x == y or y == z or x == z:
            raise InvalidTriple(f"repeated label in ({x}, {y}, {z})")
        return self._sign(x, y, z)

    def _sign(self, x, y, z):
        return 1 if self._pos[x][y] >> z & 1 else -1

    def items(self):
        """(sorted triple, sign) pairs in lexicographic order."""
        pos = self._pos
        for t in sorted_triples(self.n):
            i, j, k = t
            yield t, 1 if pos[i][j] >> k & 1 else -1

    def __eq__(self, other):
        return (isinstance(other, Chirotope) and self.n == other.n
                and self._pos == other._pos)

    def __repr__(self):
        return f"Chirotope(n={self.n})"

    # -- structure -------------------------------------------------------

    def flipped(self) -> "Chirotope":
        """Chirotope with every orientation reversed."""
        return Chirotope(self.n, [-s for _, s in self.items()])

    def restrict(self, keep) -> tuple["Chirotope", dict]:
        """Restriction to a label subset, relabeled densely in increasing order.

        Returns the restricted chirotope and the old-label -> new-label map.
        """
        kept = sorted(set(keep))
        if len(kept) < 3:
            raise TooSmall(f"restriction needs at least 3 labels, got {len(kept)}")
        if kept[0] < 0 or kept[-1] >= self.n:
            raise InvalidTriple(f"labels out of range in {kept}")
        signs = [self._sign(kept[a], kept[b], kept[c])
                 for a, b, c in sorted_triples(len(kept))]
        return Chirotope(len(kept), signs), {old: new for new, old in enumerate(kept)}

    def extreme_elements(self) -> frozenset:
        """Labels x admitting a witness y with sign(x, y, z) constant over z."""
        return frozenset(x for x in range(self.n) if any(self._witnesses(x)))

    def _witnesses(self, x) -> tuple[list, list]:
        """(ys with sign(x, y, z) = +1 for every z, ys with constant sign -1),
        read from row x of the side masks: pos[x][y] holds every label but x
        and y, or none.

        Each list holds at most one label, since sign(x, y1, y2) =
        -sign(x, y2, y1); both are empty unless x is extreme.
        """
        rest = ((1 << self.n) - 1) ^ (1 << x)
        plus, minus = [], []
        for y, mask in enumerate(self._pos[x]):
            if y != x:
                if mask == rest ^ (1 << y):
                    plus.append(y)
                elif not mask:
                    minus.append(y)
        return plus, minus

    # -- axiom scan ------------------------------------------------------

    def check_axioms(self) -> "AxiomReport":
        """Exhaustive interiority and transitivity scan over the side masks,
        rows in lexicographic order; no mask holds its own pair, so no
        degenerate tuple is produced.
        """
        n = self.n
        pos = self._pos

        # interiority over ordered (x, y, z, t), z in pos[y][x] (sign(x,y,z) = -1):
        #   sign(t,y,z) = sign(x,t,z) = sign(x,y,t) = 1  requires  sign(x,y,z) = 1
        interiority = [(x, y, z, t) for x in range(n) for y in range(n)
                       for z in _bits(pos[y][x])
                       for t in _bits(pos[y][z] & pos[z][x] & pos[x][y])]

        # transitivity over ordered (s, t, x, y, z):
        #   sign(t,s,x) = sign(t,s,y) = sign(t,s,z) = sign(x,y,t) = sign(y,z,t) = 1
        #   requires sign(x,z,t) = 1; with A = pos[t] and P = A[s], the x are
        #   P, the y are P & A[x], and the z are P & A[y] outside A[x]
        transitivity = []
        for s in range(n):
            for t in range(n):
                A = pos[t]
                P = A[s]
                for x in _bits(P):
                    for y in _bits(P & A[x]):
                        if bad := P & A[y] & ~A[x]:
                            transitivity.extend((s, t, x, y, z)
                                                for z in _bits(bad))
        return AxiomReport(interiority, transitivity)


@dataclass
class AxiomReport:
    """Violation lists from an exhaustive axiom scan; empty lists mean valid.

    interiority rows are ordered tuples (x, y, z, t); transitivity rows are
    ordered tuples (s, t, x, y, z), matching the quantifier order of the scan.
    """

    interiority: list = field(default_factory=list)
    transitivity: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.interiority and not self.transitivity


@dataclass(frozen=True)
class RootedChirotope:
    """A chirotope with a distinguished extreme element (the root)."""

    chi: Chirotope
    root: int

    def __post_init__(self):
        if not (0 <= self.root < self.chi.n):
            raise NotARootedChirotope(f"root {self.root} out of range")
        if not any(self.chi._witnesses(self.root)):
            raise NotARootedChirotope(f"root {self.root} is not extreme")

    @property
    def n(self) -> int:
        return self.chi.n

    def hull_neighbors(self) -> tuple[int, int]:
        """(successor, predecessor) of the root in counterclockwise hull order.

        The successor is the unique y with sign(root, y, z) = +1 for every z;
        the predecessor is the unique y with constant sign -1.
        """
        plus, minus = self.chi._witnesses(self.root)
        if not plus or not minus:
            raise NotARootedChirotope("missing hull neighbor witness")
        return plus[0], minus[0]


def chirotope_from_points(ps: PointSet) -> Chirotope:
    """Orientation chirotope of an exact-rational point set in general position."""
    n = len(ps)
    if n < 3:
        raise TooSmall(f"need at least 3 points, got {n}")
    # scaling every coordinate by one positive integer multiplies each
    # determinant by its square, so integer determinants give the signs
    scale = lcm(*(c.denominator for p in ps for c in p))
    pts = [(x.numerator * (scale // x.denominator),
            y.numerator * (scale // y.denominator)) for x, y in ps]
    signs = []
    for i, j, k in sorted_triples(n):
        d = det(pts[i], pts[j], pts[k])
        if d == 0:
            raise GeneralPositionViolation(
                f"labels ({i}, {j}, {k}): collinear points "
                f"{points_text(ps[i], ps[j], ps[k])}")
        signs.append(1 if d > 0 else -1)
    return Chirotope(n, signs)


def segments_cross(chi: Chirotope, a, b) -> bool:
    """Whether segments a = (x, y) and b = (z, t) cross in the chirotope.

    Endpoints must be pairwise distinct; a shared endpoint raises
    SharedEndpoint so the caller decides (touching is never "crossing").
    """
    x, y = a
    z, t = b
    if x == y or z == t:
        raise InvalidTriple(f"degenerate segment in {a}, {b}")
    if len({x, y, z, t}) != 4:
        raise SharedEndpoint(f"segments {a} and {b} share an endpoint")
    return (chi.sign(x, y, z) != chi.sign(x, y, t)
            and chi.sign(z, t, x) != chi.sign(z, t, y))


# -- .chi text format ------------------------------------------------------

_CHI_HEADER = "chirotope v1"
_SIGN_OF = {"+": 1, "-": -1, "−": -1}  # the unicode minus reads as '-'


def write_chi(chi: Chirotope, root=None) -> str:
    """Serialize to the ``.chi`` text format; one +/- char per sorted triple."""
    lines = [_CHI_HEADER, f"n {chi.n}"]
    if root is not None:
        lines.append(f"root {root}")
    lines.append("triples")
    signs = "".join("+" if s == 1 else "-" for _, s in chi.items())
    lines.extend(signs[i:i + 60] for i in range(0, len(signs), 60))
    return "\n".join(lines) + "\n"


def read_chi(text: str) -> tuple[Chirotope, int | None]:
    """Parse the ``.chi`` text format; returns (chirotope, root or None)."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or lines[0] != _CHI_HEADER:
        raise MalformedFile("missing 'chirotope v1' header")
    if len(lines) < 2 or not lines[1].startswith("n "):
        raise MalformedFile("missing 'n <N>' line")
    try:
        n = int(lines[1][2:])
    except ValueError as exc:
        raise MalformedFile(f"bad element count {clip(lines[1])}") from exc
    pos = 2
    root = None
    if pos < len(lines) and lines[pos].startswith("root "):
        try:
            root = int(lines[pos][5:])
        except ValueError as exc:
            raise MalformedFile(f"bad root {clip(lines[pos])}") from exc
        pos += 1
    if pos >= len(lines) or lines[pos] != "triples":
        raise MalformedFile("missing 'triples' line")
    blob = "".join(lines[pos + 1:])
    blob = "".join(blob.split())
    expected = n * (n - 1) * (n - 2) // 6
    if len(blob) != expected:
        raise MalformedFile(f"expected {expected} sign characters, got {len(blob)}")
    try:
        signs = [_SIGN_OF[ch] for ch in blob]
    except KeyError as exc:
        raise MalformedFile(f"bad sign character {exc.args[0]!r}") from None
    return Chirotope(n, signs), root
