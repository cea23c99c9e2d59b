"""Join / twist / meet operations and the generator families."""

import hashlib
import random
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chirotri import (GeneralPositionViolation, OutOfRange, PointSet,
                      RootedChirotope, TooLarge, TooSmall, UnivarPoly,
                      brute_P, brute_Q, chi1, chi_k, chirotope_from_points,
                      convex, count_triangulations, double_circle,
                      double_circle_points, join, koch, meet, swap_vars,
                      twist, write_chi)

from helpers import catalan, random_rooted


def tri_rooted_2():
    return RootedChirotope(convex(3).chi, 2)


def test_join_of_triangles_is_convex_quadrilateral():
    j, lmap = join(tri_rooted_2(), tri_rooted_2())
    assert j.chi.n == 4 and j.root == 3 and lmap.x0 == 2
    assert brute_Q(j) == UnivarPoly({3: 1, 2: 1})
    assert count_triangulations(j.chi) == 2
    # explicit realization of the same labeled chirotope
    fixture = chirotope_from_points(PointSet([(-2, 0), (2, 0), (0, -1), (0, 5)]))
    assert fixture == j.chi


@st.composite
def _realizable_rooted(draw):
    """A rooted chirotope of 4 to 7 grid points in general position."""
    pts = draw(st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)),
                        min_size=4, max_size=7, unique=True))
    ps = PointSet(pts)
    try:
        ps.validate_general_position()
    except GeneralPositionViolation:
        assume(False)
    chi = chirotope_from_points(ps)
    root = draw(st.sampled_from(sorted(chi.extreme_elements())))
    return RootedChirotope(chi, root)


@settings(max_examples=50, deadline=None)
@given(_realizable_rooted(), _realizable_rooted())
def test_join_size_law_random(rc1, rc2):
    j, _ = join(rc1, rc2)
    assert j.chi.n == rc1.chi.n + rc2.chi.n - 2
    m, _ = meet(rc1, rc2)
    assert m.chi.n == j.chi.n
    assert twist(rc1).chi.n == rc1.chi.n


def test_join_label_map_covers_and_merges():
    rc1 = random_rooted(6, random.Random(43))
    rc2 = random_rooted(5, random.Random(44))
    j, lmap = join(rc1, rc2)
    assert set(lmap.from_left.keys()) == set(range(rc1.chi.n))
    assert set(lmap.from_right.keys()) == set(range(rc2.chi.n))
    images = set(lmap.from_left.values()) | set(lmap.from_right.values())
    assert images == set(range(j.chi.n))
    assert lmap.from_left[rc1.root] == lmap.new_root == j.root
    assert lmap.from_right[rc2.root] == lmap.new_root
    _, um1 = rc1.hull_neighbors()
    up2, _ = rc2.hull_neighbors()
    assert lmap.from_left[um1] == lmap.x0 == lmap.from_right[up2]


def test_join_well_defined_at_x0():
    # both defining clauses of the mixed case force +1 at the shared point
    rng = random.Random(47)
    for _ in range(10):
        rc1 = random_rooted(rng.randrange(4, 7), rng)
        rc2 = random_rooted(rng.randrange(4, 7), rng)
        _, um1 = rc1.hull_neighbors()
        up2, _ = rc2.hull_neighbors()
        j, lmap = join(rc1, rc2)
        for xl, xr in ((x, lmap.from_left[x]) for x in range(rc1.chi.n)
                       if x not in (rc1.root, um1)):
            for zl, zr in ((z, lmap.from_right[z]) for z in range(rc2.chi.n)
                           if z not in (rc2.root, up2)):
                assert j.chi.sign(xr, lmap.x0, zr) == 1
                assert rc1.chi.sign(xl, um1, rc1.root) == 1
                assert rc2.chi.sign(rc2.root, up2, zl) == 1


def test_join_too_small():
    with pytest.raises(TooSmall):
        join(tri_rooted_2(), tri_rooted_2())  # fine
        raise TooSmall  # pragma: no cover
    # actual too-small operand cannot even be built as a chirotope; the guard
    # is reachable through koch/chik arguments instead
    with pytest.raises(OutOfRange):
        chi_k(0)


def test_twist_involution_and_triangle():
    rng = random.Random(53)
    for _ in range(10):
        rc = random_rooted(rng.randrange(4, 8), rng)
        back = twist(twist(rc))
        assert back.chi == rc.chi and back.root == rc.root
    t = tri_rooted_2()
    tw = twist(t)
    assert tw.chi.sign(0, 1, 2) == -t.chi.sign(0, 1, 2)
    up, um = t.hull_neighbors()
    tup, tum = tw.hull_neighbors()
    assert (tup, tum) == (um, up)  # twisting swaps successor and predecessor


def test_twist_swaps_polynomial_variables():
    c1 = chi1()
    assert brute_P(twist(c1)) == swap_vars(brute_P(c1))


def test_meet_of_triangles_is_one_interior_point():
    m, lmap = meet(tri_rooted_2(), tri_rooted_2())
    assert m.chi.n == 4
    assert m.chi.extreme_elements() == frozenset({0, 1, 3})
    assert lmap.x0 == 2  # the merged point went interior
    assert brute_Q(m) == UnivarPoly({3: 1})
    assert m.chi.check_axioms().ok


def test_meet_construction_paths_agree_random():
    # the direct meet equals twist(join(twist(rc2), twist(rc1))) triple for
    # triple; the twist route takes the operands in the opposite slots, since
    # twisting swaps each root's hull successor and predecessor
    rng = random.Random(59)
    for _ in range(25):
        rc1 = random_rooted(rng.randrange(4, 8), rng)
        rc2 = random_rooted(rng.randrange(4, 8), rng)
        m, lmap = meet(rc1, rc2)
        j, jmap = join(twist(rc2), twist(rc1))
        via_twists = twist(j)
        perm = {new: jmap.from_right[old] for old, new in lmap.from_left.items()}
        perm.update({new: jmap.from_left[old]
                     for old, new in lmap.from_right.items()})
        assert perm[m.root] == via_twists.root
        for (a, b, c), s in m.chi.items():
            assert via_twists.chi.sign(perm[a], perm[b], perm[c]) == s, (a, b, c)
        assert m.chi.check_axioms().ok


def test_merge_outputs_are_pinned():
    # sha256 prefix over the join and meet tables and label maps of 50 seeded
    # random operand pairs of 3 to 8 points
    rng = random.Random(211)
    h = hashlib.sha256()
    for _ in range(50):
        rc1 = random_rooted(rng.randrange(3, 9), rng)
        rc2 = random_rooted(rng.randrange(3, 9), rng)
        for op in (join, meet):
            rc, lmap = op(rc1, rc2)
            h.update(write_chi(rc.chi, rc.root).encode())
            h.update(repr((sorted(lmap.from_left.items()),
                           sorted(lmap.from_right.items()),
                           lmap.x0, lmap.new_root)).encode())
    assert h.hexdigest()[:16] == "5ac2ed8e8464e175"


def test_compose_axiom_preservation_randomized():
    rng = random.Random(61)
    for _ in range(30):
        rc1 = random_rooted(rng.randrange(4, 7), rng)
        rc2 = random_rooted(rng.randrange(4, 7), rng)
        out, _ = (join if rng.random() < 0.5 else meet)(rc1, rc2)
        assert out.chi.check_axioms().ok  # root extremeness checked on build


def test_convex_counts():
    assert count_triangulations(convex(3).chi) == 1
    assert count_triangulations(convex(5).chi) == 5
    assert count_triangulations(convex(8).chi) == 132
    with pytest.raises(TooSmall):
        convex(2)


def test_chi_k():
    assert brute_Q(chi_k(1)) == UnivarPoly({3: 1})
    k2 = chi_k(2)
    assert k2.chi.n == 6
    assert brute_Q(k2)(1) == 6
    k3 = chi_k(3)
    assert k3.chi.n == 8
    assert brute_Q(k3)(1) == 43
    with pytest.raises(OutOfRange):
        chi_k(0)


def test_chi2_equals_double_circle_minus_two_consecutive_inner():
    # remove the inner points beside edges (0,1) and (1,2); outer 1 is then
    # the hull vertex with no interior neighbor and serves as the root
    dc4 = chirotope_from_points(double_circle_points(4))
    sub, lmap = dc4.restrict([0, 1, 2, 3, 6, 7])
    k2 = chi_k(2)
    root_img = k2.root
    # some relabeling fixing the root must equate the tables
    others = [x for x in range(6) if x != lmap[1]]
    found = False
    for p in permutations(others):
        perm = {}
        src = [x for x in range(6) if x != root_img]
        for a, b in zip(src, p):
            perm[a] = b
        perm[root_img] = lmap[1]
        if all(sub.sign(perm[a], perm[b], perm[c]) == s
               for (a, b, c), s in k2.chi.items()):
            found = True
            break
    assert found


def test_koch_levels():
    assert koch(0).chi.n == 3
    assert koch(1).chi.n == 4
    assert koch(2).chi.n == 6
    assert koch(3).chi.n == 10
    k2 = koch(2)
    assert k2.chi.check_axioms().ok
    with pytest.raises(TooLarge):
        koch(6)
    with pytest.raises(OutOfRange):
        koch(-1)


def test_koch3_restriction_has_424_triangulations():
    k3 = koch(3)
    chain, _ = k3.chi.restrict([x for x in range(k3.chi.n) if x != k3.root])
    assert chain.n == 9
    assert count_triangulations(chain) == 424


def test_double_circle_points():
    # one construction, validated, for the whole domain 3..12
    for k in range(3, 13):
        ps = double_circle_points(k)
        assert len(ps) == 2 * k
        chi = chirotope_from_points(ps)
        assert chi.extreme_elements() == frozenset(range(k))
        if k <= 5:
            assert count_triangulations(chi) == {3: 4, 4: 30, 5: 250}[k]
    with pytest.raises(OutOfRange):
        double_circle_points(2)


def test_double_circle_rooted():
    rc = double_circle(4)
    assert rc.root == 0 and rc.chi.n == 8


def test_join_of_convex_is_convex():
    # counts follow the Catalan sequence, matching a convex-position result
    for a, b in ((3, 4), (4, 4), (5, 3)):
        j, _ = join(convex(a), convex(b))
        assert count_triangulations(j.chi) == catalan(a + b - 4)
