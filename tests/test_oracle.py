"""Brute-force enumeration: counts, weak triangulations, ground-truth polys."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirotri import (BivarPoly, Chirotope, OracleTooLarge, RootedChirotope,
                      UnivarPoly, brute_P, brute_Q, chi1, chi_k,
                      chirotope_from_points, convex, convex_hull_labels,
                      count_triangulations, double_circle,
                      enumerate_triangulations, enumerate_weak, q_from_p,
                      segments_cross)
from chirotri.oracle import _ground, _iter_maximal, _search_order

from helpers import (catalan, crossing_masks_pairwise, iter_maximal_unpruned,
                     lexicographic_tallies, random_point_set, random_rooted,
                     search_order_spec, with_flips)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_triangulations(convex(4).chi)) == 2
    assert sum(1 for _ in enumerate_triangulations(chi1().chi)) == 1
    assert sum(1 for _ in enumerate_triangulations(convex(7).chi)) == 42


def test_enumeration_is_deterministic_and_distinct():
    runs = [list(enumerate_triangulations(convex(6).chi)) for _ in range(2)]
    assert runs[0] == runs[1]
    assert len(set(runs[0])) == len(runs[0]) == 14


def test_triangulations_are_maximal_non_crossing():
    rng = random.Random(67)
    chi = chirotope_from_points(random_point_set(7, rng))
    all_segs = list(combinations(range(7), 2))
    for tri in enumerate_triangulations(chi):
        for a, b in combinations(tri, 2):
            if len({*a, *b}) == 4:
                assert not segments_cross(chi, a, b)
        for s in all_segs:
            if s in tri:
                continue
            # maximality: s crosses some member
            assert any(len({*s, *t}) == 4 and segments_cross(chi, s, t)
                       for t in tri)


def test_cardinality_constancy_and_euler_count():
    rng = random.Random(71)
    for n in (5, 6, 7, 8):
        ps = random_point_set(n, rng)
        chi = chirotope_from_points(ps)
        h = len(convex_hull_labels(ps))
        sizes = {len(t) for t in enumerate_triangulations(chi)}
        assert sizes == {3 * n - h - 3}


def test_count_bound():
    rng = random.Random(73)
    for n in (5, 7, 9):
        chi = chirotope_from_points(random_point_set(n, rng))
        assert sum(1 for _ in enumerate_triangulations(chi)) <= 30 ** n


def test_oracle_cap():
    with pytest.raises(OracleTooLarge):
        list(enumerate_triangulations(convex(13).chi))
    # override flag
    assert sum(1 for _ in enumerate_triangulations(convex(13).chi, cap=13)) == catalan(11)


def test_weak_triangle():
    t2 = RootedChirotope(convex(3).chi, 2)
    weaks = list(enumerate_weak(t2))
    assert len(weaks) == 1
    assert len(weaks[0]) == 5  # every admissible segment, none cross


def test_weak_chi1():
    weaks = list(enumerate_weak(chi1()))
    assert len(weaks) == 2
    assert len({len(w) for w in weaks}) == 1  # equal cardinality


def test_weak_cardinality_constancy_random():
    rng = random.Random(79)
    for _ in range(6):
        rc = random_rooted(rng.randrange(4, 8), rng)
        sizes = {len(w) for w in enumerate_weak(rc)}
        assert len(sizes) == 1


def test_every_triangulation_extends_uniquely_convex5():
    rc = convex(5)
    v = rc.chi.n
    tris = list(enumerate_triangulations(rc.chi))
    weaks = list(enumerate_weak(rc))
    min_v_deg = min(sum(1 for s in w if v in s) for w in weaks)
    minimal = [w for w in weaks if sum(1 for s in w if v in s) == min_v_deg]
    # the v-minimal weak triangulations restrict to exactly the triangulations
    stripped = sorted(tuple(s for s in w if v not in s) for w in minimal)
    assert stripped == sorted(tris)
    assert len(minimal) == len(tris)


def test_brute_Q_examples():
    assert brute_Q(RootedChirotope(convex(3).chi, 2)) == UnivarPoly({2: 1})
    assert brute_Q(chi1()) == UnivarPoly({3: 1})
    assert brute_Q(chi_k(2)) == UnivarPoly({5: 1, 4: 1, 3: 2, 2: 2})


def test_brute_Q_degree_floor():
    rng = random.Random(83)
    for _ in range(8):
        q = brute_Q(random_rooted(rng.randrange(4, 8), rng))
        assert q.min_exp >= 2


def test_brute_P_examples():
    assert brute_P(RootedChirotope(convex(3).chi, 2)) == BivarPoly({(2, 2): 1})
    assert brute_P(chi1()) == BivarPoly({(3, 2): 1, (3, 3): 1})


def test_q_from_p_matches_brute_Q():
    rng = random.Random(89)
    for _ in range(30):
        rc = random_rooted(rng.randrange(4, 9), rng)
        assert q_from_p(brute_P(rc)) == brute_Q(rc)


def test_brute_P_exponent_floor():
    rng = random.Random(97)
    for _ in range(8):
        p = brute_P(random_rooted(rng.randrange(4, 8), rng))
        assert all(a >= 2 and b >= 2 for (a, b), _ in p.terms())


def test_ground_matches_pairwise_spec():
    rng = random.Random(101)
    rooted = [chi1(), convex(6), double_circle(3), double_circle(4)]
    for n in range(4, 11):
        for _ in range(2):
            chi = chirotope_from_points(random_point_set(n, rng))
            rooted += [RootedChirotope(chi, r)
                       for r in sorted(chi.extreme_elements())]
    # tables with three signs flipped, rooted at each extreme element
    for n in range(5, 10):
        for _ in range(3):
            chi = with_flips(chirotope_from_points(random_point_set(n, rng)),
                             3, rng)
            rooted += [RootedChirotope(chi, r)
                       for r in sorted(chi.extreme_elements())]
    for rc in rooted:
        assert _ground(rc.chi, 12) == crossing_masks_pairwise(rc.chi)
        assert _ground(rc, 12) == crossing_masks_pairwise(rc)


def test_brute_P_tallies_its_own_leaves():
    rng = random.Random(103)
    for _ in range(12):
        ps = random_point_set(rng.randrange(5, 9), rng)
        chi = chirotope_from_points(ps)
        rc = RootedChirotope(chi, rng.choice(sorted(chi.extreme_elements())))
        v = chi.n
        weaks = list(enumerate_weak(rc))
        tally = {}
        for w in weaks:
            key = (sum(rc.root in s for s in w), sum(v in s for s in w))
            tally[key] = tally.get(key, 0) + 1
        assert brute_P(rc) == BivarPoly(tally)
        # a segment that crosses nothing is in every family
        segs, masks, _ = _ground(rc, None)
        uncrossed = {s for s, cross in zip(segs, masks) if not cross}
        assert all(uncrossed <= set(w) for w in weaks)
        segs, masks, _ = _ground(chi, None)
        uncrossed = {s for s, cross in zip(segs, masks) if not cross}
        hull = convex_hull_labels(ps)
        assert {tuple(sorted(e)) for e in zip(hull, hull[1:] + hull[:1])} <= uncrossed
        assert all(uncrossed <= set(t) for t in enumerate_triangulations(chi))


@st.composite
def _graphs(draw):
    """Adjacency bitmasks of a random symmetric graph on at most 14 vertices."""
    m = draw(st.integers(0, 14))
    masks = [0] * m
    for i, j in combinations(range(m), 2):
        if draw(st.booleans()):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


def _maximal_independent_sets(masks):
    """Every subset tried: independent, and no vertex outside can be added."""
    m = len(masks)
    out = set()
    for s in range(1 << m):
        members = [i for i in range(m) if (s >> i) & 1]
        if any(masks[i] & s for i in members):
            continue
        if all(masks[i] & s for i in range(m) if not (s >> i) & 1):
            out.add(s)
    return out


@settings(max_examples=150, deadline=None)
@given(_graphs())
def test_iter_maximal_matches_subset_search_and_unpruned_order(masks):
    got = list(_iter_maximal(masks))
    assert got == list(iter_maximal_unpruned(masks))
    assert len(set(got)) == len(got)
    assert set(got) == _maximal_independent_sets(masks)


def _digest(seq):
    return len(seq), hashlib.sha256(repr(seq).encode()).hexdigest()[:16]


def test_enumeration_sequences_are_pinned():
    assert list(enumerate_triangulations(chi1().chi)) == [
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    assert list(enumerate_weak(chi1())) == [
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)),
        ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4))]
    # (count, sha256 prefix of the sequence's repr) of triangulations, weak
    pinned = [
        (convex(6), (14, "17dae85538593d39"), (14, "a0f6eb32c5d6e5e9")),
        (random_rooted(8, random.Random(2024)),
         (72, "236a55f6ae1b1c42"), (181, "a4299f150b21be07")),
    ]
    for rc, tris, weaks in pinned:
        assert _digest(list(enumerate_triangulations(rc.chi))) == tris
        assert _digest(list(enumerate_weak(rc))) == weaks


def _relabeled(chi, rng):
    """``chi`` with its labels permuted at random, and the permutation."""
    perm = list(range(chi.n))
    rng.shuffle(perm)
    inverse = [0] * chi.n
    for old, new in enumerate(perm):
        inverse[new] = old
    signs = (chi.sign(inverse[a], inverse[b], inverse[c])
             for a, b, c in combinations(range(chi.n), 3))
    return Chirotope(chi.n, signs), perm


def test_counts_in_search_order_equal_the_label_order_spec():
    rng = random.Random(241)
    for n in [*range(4, 11)] * 2:
        chi = chirotope_from_points(random_point_set(n, rng))
        shuffled, perm = _relabeled(chi, rng)
        for root in sorted(chi.extreme_elements()):
            want = lexicographic_tallies(RootedChirotope(chi, root))
            for c, r in ((chi, root), (shuffled, perm[root])):
                rc = RootedChirotope(c, r)
                assert lexicographic_tallies(rc) == want
                assert brute_P(rc) == want[0]
                assert brute_Q(rc) == want[1]
                assert count_triangulations(c) == want[2]


def _check_search_order(masks):
    m = len(masks)
    got = _search_order(masks, *(1 << i for i in range(m)))
    out, image = got[0], got[1:]
    # each segment goes to one new index, and no two to the same one
    assert all(bit.bit_count() == 1 for bit in image)
    assert sum(image) == (1 << m) - 1
    where = [bit.bit_length() - 1 for bit in image]
    assert sorted(range(m), key=where.__getitem__) == search_order_spec(masks)
    for i, cross in enumerate(masks):
        assert out[where[i]] == sum(1 << where[j] for j in range(m)
                                    if cross >> j & 1)
    # the relabeled crossing graph is symmetric, without loops
    for p, row in enumerate(out):
        assert not row >> p & 1
        assert all(out[q] >> p & 1 for q in range(m) if row >> q & 1)


@settings(max_examples=150, deadline=None)
@given(_graphs())
def test_search_order_is_a_permutation_of_the_spec_order(masks):
    _check_search_order(masks)


def test_search_order_of_oracle_grounds():
    rng = random.Random(243)
    for n in range(4, 11):
        rc = random_rooted(n, rng)
        _check_search_order(_ground(rc, None)[1])
        _check_search_order(_ground(rc.chi, None)[1])
