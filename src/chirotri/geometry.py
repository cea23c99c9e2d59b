"""Exact rational planar geometry: orientation predicate, point sets, convex hull.

All coordinates are ``fractions.Fraction`` values, so sign decisions are
bit-exact. Floating point never enters any predicate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import GeneralPositionViolation, MalformedFile, clip
from .polynomials import exact_str

Point = tuple[Fraction, Fraction]


def det(p, q, r):
    """The orientation determinant (q - p) x (r - p): positive when (p, q, r)
    turns counterclockwise, negative when clockwise, zero when collinear."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def orient(p, q, r) -> int:
    """Orientation of the ordered triple (p, q, r).

    Returns +1 if counterclockwise, -1 if clockwise. Raises
    GeneralPositionViolation on a collinear (or degenerate) triple.
    """
    d = det(p, q, r)
    if d == 0:
        raise GeneralPositionViolation(f"collinear points {points_text(p, q, r)}")
    return 1 if d > 0 else -1


def _coord_str(c) -> str:
    """An exact coordinate as ``a`` or ``a/b``, at any length."""
    c = Fraction(c)
    if c.denominator == 1:
        return exact_str(c.numerator)
    return f"{exact_str(c.numerator)}/{exact_str(c.denominator)}"


def points_text(*points) -> str:
    """Points for an error line, each coordinate exact and cut short."""
    return ", ".join(f"({clip(_coord_str(x), 16, quote=False)}, "
                     f"{clip(_coord_str(y), 16, quote=False)})"
                     for x, y in points)


def _parse_coord(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        # int() names this limit in its message; Fraction passes it on
        reason = ("" if "integer string conversion" not in str(exc) else
                  ": more digits than Python's int-from-str limit")
        raise MalformedFile(f"bad coordinate {clip(tok)}{reason}") from exc


class PointSet:
    """Labeled planar points; label = index into the point sequence."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = tuple((Fraction(x), Fraction(y)) for x, y in points)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return isinstance(other, PointSet) and self.points == other.points

    def __repr__(self):
        return f"PointSet({len(self.points)} points)"

    def validate_general_position(self):
        """Raise GeneralPositionViolation if any three points are collinear."""
        for i, j, k in combinations(range(len(self.points)), 3):
            orient(self.points[i], self.points[j], self.points[k])

    def relabeled(self, perm) -> "PointSet":
        """New PointSet where new label i holds the point of old label perm[i]."""
        return PointSet(self.points[perm[i]] for i in range(len(self.points)))

    @classmethod
    def from_text(cls, text: str) -> "PointSet":
        """Parse the ``.pts`` format: one ``x y`` pair per line.

        Coordinates are decimal integers or fractions ``a/b``. Blank lines and
        ``#`` comments are ignored. Labels are zero-based line indices of the
        surviving lines.
        """
        pts = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) != 2:
                raise MalformedFile(f"line {lineno}: expected 'x y', got "
                                    f"{clip(raw)}")
            pts.append((_parse_coord(toks[0]), _parse_coord(toks[1])))
        return cls(pts)

    def to_text(self) -> str:
        return "\n".join(f"{_coord_str(x)} {_coord_str(y)}"
                         for x, y in self.points) + "\n"


def convex_hull_labels(ps: PointSet) -> list[int]:
    """Labels of the convex hull vertices in counterclockwise order.

    Monotone chain on exact coordinates; assumes general position. The cycle
    is rotated to start at the smallest participating label, for determinism.
    """
    n = len(ps)
    if n < 3:
        return sorted(range(n))
    order = sorted(range(n), key=lambda i: ps[i])

    def half(idxs):
        out = []
        for i in idxs:
            # drop clockwise or straight turns
            while len(out) >= 2 and det(ps[out[-2]], ps[out[-1]], ps[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = half(order)
    upper = half(reversed(order))
    hull = lower[:-1] + upper[:-1]
    start = hull.index(min(hull))
    return hull[start:] + hull[:start]
