"""Brute-force enumeration of triangulations and weak triangulations.

Triangulations are the inclusion-maximal families of pairwise non-crossing
segments; they are found by deterministic backtracking over segments against
precomputed crossing bitmasks, built from the side masks the chirotope
stores. A weak triangulation adds the phantom element opposite the root; its
side masks follow from the root's, in extended copies of the stored rows. A
segment that crosses nothing is in every family and is chosen before the
search starts. A segment may only be skipped if some chosen segment crosses
it, so every maximal family is produced exactly once. A branch is abandoned
as soon as a skipped segment has no crosser left that could still be
chosen; such a branch yields nothing, so the output sequence is that of the
unpruned search, order included.

Listing (``enumerate_triangulations``, ``enumerate_weak``) searches the
segments in lexicographic label order. Counting (``count_triangulations``,
``brute_Q``, ``brute_P``) searches them in the order of a maximum
cardinality search of the crossing graph, so its cost does not follow the
labels; it tallies the same families.

This module is the ground truth that every recursive counting formula in the
package is tested against; it is deliberately simple and size-capped.
"""

from __future__ import annotations

from itertools import combinations

from .chirotope import Chirotope, RootedChirotope, _bits
from .errors import OracleTooLarge
from .polynomials import BivarPoly, UnivarPoly, exact_str

DEFAULT_ORACLE_CAP = 12


def _ground(obj, cap):
    """(segments, crossing masks, incidence masks) for one oracle search.

    A Chirotope is searched over its own labels, a RootedChirotope over its
    labels and the phantom v = n opposite its root, without the segment
    (root, v). masks[i] is the bitmask of the segments crossing segment i;
    inc[x] is that of the segments with endpoint x.
    """
    limit = DEFAULT_ORACLE_CAP if cap is None else cap
    if obj.n > limit:
        raise OracleTooLarge(
            f"{obj.n} elements exceeds the oracle cap {exact_str(limit)}; "
            f"pass a larger cap to override")
    if isinstance(obj, Chirotope):
        pos, r, v = obj._pos, -1, -1
    else:
        # Side masks extended by v, where sign(x, y, v) = -sign(x, y, root),
        # in new rows, so the chirotope's own masks stay as they are: v is in
        # pos[a][b] iff b is in pos[a][root], for a, b != root;
        # pos[a][v] = pos[root][a] and pos[v][a] = pos[a][root]; and no mask
        # at the root gets v, since triples holding both are undefined. The
        # masks never hold their own pair, so the first identity adds v to
        # no mask at the root.
        own, r, v = obj.chi._pos, obj.root, obj.n
        vbit = 1 << v
        pos = [[m | vbit if row[r] >> b & 1 else m for b, m in enumerate(row)]
               + [own[r][a]] for a, row in enumerate(own)]
        pos.append([row[r] for row in own] + [0])
    n = len(pos)
    segs = [p for p in combinations(range(n), 2) if p != (r, v)]
    inc = [0] * n
    for i, (a, b) in enumerate(segs):
        inc[a] |= 1 << i
        inc[b] |= 1 << i
    # lo[S & half] | hi[S >> h]: the segments at the points of the set S
    h = n // 2
    half, lo, hi = (1 << h) - 1, [0], [0]
    for x in range(n):
        table = lo if x < h else hi
        table += [mask | inc[x] for mask in table]
    # left[x]: the segments (c, d) with x on their left; those at c, d > c,
    # start at index first[c], one less past (root, v)
    first = [c * (2 * n - c - 1) // 2 - (0 <= r < c) for c in range(n)]
    left = [sum(row[c] >> c + 1 << first[c] for c in range(n)) for row in pos]
    # Two segments cross when each splits the other: (a, b) splits those at
    # points on both of its sides and is split by those with exactly one of
    # a, b on their left. Undefined triples are in no mask, so root-side and
    # phantom-side segments never cross.
    masks = [(lo[pos[a][b] & half] | hi[pos[a][b] >> h])
             & (lo[pos[b][a] & half] | hi[pos[b][a] >> h])
             & (left[a] ^ left[b]) for a, b in segs]
    return segs, masks, inc


def _iter_maximal(masks):
    """Yield every maximal independent set of the crossing graph as a bitmask.

    Depth-first over segment indices, lowest first, with the include branch
    explored first, so the output order is deterministic. A segment that
    crosses nothing is in every set, so it is chosen up front. ``free`` holds
    the undecided segments that no chosen segment crosses. A segment may be
    skipped only while a crosser of it is free; it then stays pending until a
    chosen segment crosses it. A branch ends as soon as a pending segment has
    no free crosser left, since nothing below it is maximal. Every live node
    thus has a free crosser for each pending segment, and one with nothing
    free is a maximal set. The pruning removes only branches without output:
    the sequence equals that of the unpruned search, order included.
    """
    crossers = {}  # bit of a crossed segment -> mask of its crossers
    uncrossed = 0
    for i, cross in enumerate(masks):
        if cross:
            crossers[1 << i] = cross
        else:
            uncrossed |= 1 << i
    stack = [(((1 << len(masks)) - 1) ^ uncrossed, 0, uncrossed)]
    while stack:  # (free, pending, chosen)
        free, pend, chosen = stack.pop()
        while free:
            bit = free & -free
            free ^= bit
            cross = crossers[bit]
            lost = cross & free
            if lost:  # otherwise no crosser is free and the include is forced
                # skip bit only if each pending segment it crosses keeps a
                # free crosser once it is skipped
                left = pend & cross
                while left and crossers[left & -left] & free:
                    left &= left - 1
                if not left:
                    stack.append((free, pend | bit, chosen))
                free ^= lost
            chosen |= bit
            pend &= ~cross
            if lost:  # the include took free crossers away
                left = pend
                while left and crossers[left & -left] & free:
                    left &= left - 1
                if left:
                    break
        else:
            yield chosen


def _search_order(masks, *ends):
    """``masks`` and ``ends`` relabeled into maximum cardinality search
    order: next the segment with the most crossers already placed, ties to
    fewer crossers, then to the lower index; uncrossed segments last. The
    placed-crosser counts are bit-sliced, bit k of each in planes[k], so a
    step takes a few mask operations; a crossing is read singly once, when
    its later segment is placed, to set it in the relabeled masks."""
    tiers = {}  # crosser count -> those segments
    for i, cross in enumerate(masks):
        tiers[cross.bit_count()] = tiers.get(cross.bit_count(), 0) | 1 << i
    uncrossed = tiers.pop(0, 0)
    tiers = [tiers[d] for d in sorted(tiers)]
    free, where, out = sum(tiers), {}, []
    planes = [0] * len(masks).bit_length()
    while free:
        best = free
        for plane in reversed(planes):
            best = best & plane or best
        if best & (best - 1):
            for tier in tiers:
                if best & tier:
                    best &= tier
                    break
        bit = best & -best
        free ^= bit
        p = where[bit] = len(out)
        cross, row = masks[bit.bit_length() - 1], 0
        done = cross & ~free
        while done:
            low = done & -done
            done ^= low
            row |= 1 << where[low]
            out[where[low]] |= 1 << p
        out.append(row)
        carry, k = cross & free, 0
        while carry:  # add one to the count of each free crosser
            planes[k], carry, k = planes[k] ^ carry, planes[k] & carry, k + 1
    for i in _bits(uncrossed):
        where[1 << i] = len(out)
        out.append(0)
    return (out, *(sum(1 << where[1 << i] for i in _bits(e)) for e in ends))


def _families(obj, cap):
    segs, masks, _ = _ground(obj, cap)
    for mask in _iter_maximal(masks):
        yield tuple(segs[i] for i in range(len(segs)) if (mask >> i) & 1)


def enumerate_triangulations(chi: Chirotope, cap: int | None = None):
    """Stream every triangulation of the chirotope as a sorted segment tuple."""
    return _families(chi, cap)


def enumerate_weak(rc: RootedChirotope, cap: int | None = None):
    """Stream every weak triangulation (over the phantom-extended ground set)."""
    return _families(rc, cap)


def count_triangulations(chi: Chirotope, cap: int | None = None) -> int:
    masks, = _search_order(_ground(chi, cap)[1])
    return sum(1 for _ in _iter_maximal(masks))


def _tally(masks, ends):
    """Leaves per key, the key being a maximal family's segments in ``ends``;
    a caller takes the degrees once per key, not once per leaf."""
    tally: dict[int, int] = {}
    for mask in _iter_maximal(masks):
        key = mask & ends
        tally[key] = tally.get(key, 0) + 1
    return tally


def brute_Q(rc: RootedChirotope, cap: int | None = None) -> UnivarPoly:
    """Triangulation polynomial by root degree, from direct enumeration."""
    _, masks, inc = _ground(rc.chi, cap)
    masks, root_mask = _search_order(masks, inc[rc.root])
    acc: dict[int, int] = {}
    for key, count in _tally(masks, root_mask).items():
        d = key.bit_count()
        acc[d] = acc.get(d, 0) + count
    return UnivarPoly(acc)


def brute_P(rc: RootedChirotope, cap: int | None = None) -> BivarPoly:
    """Weak-triangulation polynomial by (root degree, phantom degree)."""
    _, masks, inc = _ground(rc, cap)
    n = rc.chi.n
    masks, root_mask, v_mask = _search_order(masks, inc[rc.root], inc[n])
    # rows[root degree][phantom degree]; both degrees are below n
    rows = [[0] * n for _ in range(n)]
    for key, count in _tally(masks, root_mask | v_mask).items():
        rows[(key & root_mask).bit_count()][(key & v_mask).bit_count()] += count
    return BivarPoly.from_rows(rows)
