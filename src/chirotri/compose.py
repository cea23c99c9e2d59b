"""Join, twist and meet of rooted chirotopes, plus the generator families.

The join merges two rooted chirotopes at their roots and identifies the left
root's hull predecessor with the right root's hull successor; the merged
ground set keeps the left block first, then the right block, then the shared
point x0, then the new root last. A triple on one operand's side takes that
operand's sign. Of the four mixed shapes, (left, right, root) is +1 and the
other three take one operand's sign with its root standing in for the
element from the other side. The meet is the same merge with those three
negated; it also equals the twist/join/twist composition
twist(join(twist(b), twist(a))), which the tests compare against it triple
for triple.

The generators check their own argument ranges, so both evaluation modes of
the expression language fail alike. The double circle is built once, at a
fixed pull-in factor, and validated; nothing is retried.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .chirotope import Chirotope, RootedChirotope, chirotope_from_points
from .errors import (ConstructionFailed, GeneralPositionViolation, OutOfRange,
                     TooLarge, TooSmall)
from .geometry import PointSet, det

KOCH_MATERIALIZE_CAP = 5  # level cap: koch(i) has 2**i + 2 elements


@dataclass(frozen=True)
class LabelMap:
    """How operand labels land in a merged chirotope.

    from_left / from_right map every operand label (roots included) to a
    result label. Exactly two merges happen: both roots map to new_root, and
    the left predecessor / right successor pair maps to x0.
    """

    from_left: dict
    from_right: dict
    x0: int
    new_root: int


def _merge(rc1: RootedChirotope, rc2: RootedChirotope, negate_mixed: bool):
    chi1, r1 = rc1.chi, rc1.root
    chi2, r2 = rc2.chi, rc2.root
    if chi1.n < 3 or chi2.n < 3:
        raise TooSmall("both operands need at least 3 elements")
    _, um1 = rc1.hull_neighbors()
    up2, _ = rc2.hull_neighbors()

    # result labels: left block, right block, x0, root; m1 / m2 give each
    # its operand-1 / operand-2 label, None off that operand's side
    left = [x for x in range(chi1.n) if x != r1 and x != um1]
    right = [x for x in range(chi2.n) if x != r2 and x != up2]
    nl = len(left)
    x0 = nl + len(right)
    root3 = x0 + 1
    n3 = root3 + 1  # == n1 + n2 - 2
    m1 = left + [None] * len(right) + [um1, r1]
    m2 = [None] * nl + right + [up2, r2]

    s1 = chi1._sign
    s2 = chi2._sign
    mix = -1 if negate_mixed else 1

    signs = []
    for a, b, c in combinations(range(n3), 3):
        if a >= nl:  # a is right or x0: all on side 2
            s = s2(m2[a], m2[b], m2[c])
        elif m1[c] is not None and m1[b] is not None:  # all on side 1
            s = s1(m1[a], m1[b], m1[c])
        elif b < nl:  # (left, left, right)
            s = mix * s1(m1[a], m1[b], r1)
        elif c == root3:  # (left, right, root)
            s = 1
        elif c == x0:  # (left, right, x0)
            s = -mix * s1(m1[a], um1, r1)
        else:  # (left, right, right)
            s = mix * s2(r2, m2[b], m2[c])
        signs.append(s)

    rc = RootedChirotope(Chirotope(n3, signs), root3)
    from_left = {x: i for i, x in enumerate(m1) if x is not None}
    from_right = {x: i for i, x in enumerate(m2) if x is not None}
    return rc, LabelMap(from_left, from_right, x0, root3)


def join(rc1: RootedChirotope, rc2: RootedChirotope):
    """Join of two rooted chirotopes. Returns (result, label map)."""
    return _merge(rc1, rc2, negate_mixed=False)


def twist(rc: RootedChirotope) -> RootedChirotope:
    """Replace the root by its opposite phantom element, in place label-wise.

    Signs among non-root elements are unchanged; every triple involving the
    root is negated. Applying twist twice restores the original.
    """
    r = rc.root
    signs = [-s if r in t else s for t, s in rc.chi.items()]
    return RootedChirotope(Chirotope(rc.chi.n, signs), r)


def meet(rc1: RootedChirotope, rc2: RootedChirotope):
    """Meet of two rooted chirotopes. Returns (result, label map).

    Built directly as the merge with both mixed-block cases negated.
    """
    return _merge(rc1, rc2, negate_mixed=True)


# -- generator families ------------------------------------------------------


def convex(n: int) -> RootedChirotope:
    """Counterclockwise-labeled convex n-gon, rooted at label 0."""
    if n < 3:
        raise TooSmall(f"convex position needs n >= 3, got {n}")
    return RootedChirotope(Chirotope(n, [1] * comb(n, 3)), 0)


def triangle() -> RootedChirotope:
    return convex(3)


def chi1() -> RootedChirotope:
    """Four points with one interior: the meet of two rooted triangles."""
    return meet(triangle(), triangle())[0]


def chi_k(k: int) -> RootedChirotope:
    """The k-th iterated join of the one-interior-point configuration.

    chi_k(1) is chi1 itself; each step joins chi1 on the right; the result has
    2k + 2 elements.
    """
    if k < 1:
        raise OutOfRange(f"need k >= 1, got {k}")
    rc = chi1()
    for _ in range(k - 1):
        rc = join(rc, chi1())[0]
    return rc


def koch(i: int) -> RootedChirotope:
    """Level-i rooted Koch chain: alternately self-join (odd i) and self-meet.

    Level 0 is the rooted triangle; level i has 2**i + 2 elements. Levels
    above the materialization cap must go through the polynomial pipeline.
    """
    if i < 0:
        raise OutOfRange(f"need i >= 0, got {i}")
    if i > KOCH_MATERIALIZE_CAP:
        raise TooLarge(
            f"koch({i}) has 2^{i} + 2 elements; materialization is capped at "
            f"level {KOCH_MATERIALIZE_CAP} - use the polynomial pipeline")
    rc = triangle()
    for level in range(1, i + 1):
        op = join if level % 2 == 1 else meet
        rc = op(rc, rc)[0]
    return rc


def double_circle_points(k: int) -> PointSet:
    """2k exact-rational points: k outer in convex position, k just inside.

    Outer points sit on the rational unit circle; inner point j is the
    midpoint of hull edge (j, j+1) pulled toward the centroid by the factor
    2^-20 * (100k + j + 1) / (100k), distinct per point to break accidental
    mirror symmetries. The result must be in general position, have the
    outer labels as its extreme set, and keep every orientation that is
    nonzero in the midpoint limit; this holds for every k in 3..12, and a
    failure raises ConstructionFailed.
    """
    if not 3 <= k <= 12:
        raise OutOfRange(f"need 3 <= k <= 12, got {k}")
    ts = [Fraction(2 * j - (k - 1), 2) for j in range(k)]
    outer = [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
    cx = sum(p[0] for p in outer) / k
    cy = sum(p[1] for p in outer) / k
    mids = [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
            for p, q in zip(outer, outer[1:] + outer[:1])]
    inner = []
    for j, (mx, my) in enumerate(mids):
        e = Fraction(100 * k + j + 1, 100 * k * 2 ** 20)
        inner.append((mx + e * (cx - mx), my + e * (cy - my)))
    ps = PointSet(outer + inner)
    try:
        chi = chirotope_from_points(ps)
    except GeneralPositionViolation as exc:
        raise ConstructionFailed(f"double circle k={k}: {exc}") from exc
    if chi.extreme_elements() != frozenset(range(k)):
        raise ConstructionFailed(f"double circle k={k}: inner point on the hull")
    # inner points collapsed onto their edge midpoints
    limit = outer + mids
    for a, b, c in combinations(range(2 * k), 3):
        if c < k:
            continue
        d = det(limit[a], limit[b], limit[c])
        if d != 0 and (d > 0) != (chi._sign(a, b, c) > 0):
            raise ConstructionFailed(
                f"double circle k={k}: orientation ({a}, {b}, {c}) differs "
                f"from its midpoint limit")
    return ps


def double_circle(k: int) -> RootedChirotope:
    """Double-circle chirotope rooted at outer label 0."""
    return RootedChirotope(chirotope_from_points(double_circle_points(k)), 0)
