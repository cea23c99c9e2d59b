"""Core chirotope structure: orientation, axioms, extremes, crossing, formats."""

import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chirotri import (Chirotope, GeneralPositionViolation, InvalidTriple,
                      MalformedFile, NotARootedChirotope, PointSet,
                      RootedChirotope, SharedEndpoint, TooSmall, brute_P,
                      chirotope_from_points, convex, convex_hull_labels,
                      count_triangulations, enumerate_weak, orient, read_chi,
                      segments_cross, twist, write_chi)
from chirotri.chirotope import sorted_triples

from helpers import (axiom_violations_spec, chi1_fixture_points,
                     hull_witnesses_spec, random_point_set, table_sign,
                     with_flips)


def test_orient_basic():
    assert orient((0, 0), (1, 0), (0, 1)) == 1
    assert orient((0, 0), (0, 1), (1, 0)) == -1
    with pytest.raises(GeneralPositionViolation):
        orient((0, 0), (1, 0), (2, 0))


def test_chirotope_from_points_triangle_and_square():
    tri = chirotope_from_points(PointSet([(0, 0), (4, 0), (0, 4)]))
    assert dict(tri.items()) == {(0, 1, 2): 1}
    sq = chirotope_from_points(PointSet([(0, 0), (1, 0), (1, 1), (0, 1)]))
    assert sq.sign(0, 1, 2) == 1 and sq.sign(0, 2, 3) == 1
    assert all(s == 1 for _, s in sq.items())


def test_chirotope_from_points_requires_general_position_and_size():
    with pytest.raises(GeneralPositionViolation):
        chirotope_from_points(PointSet([(0, 0), (1, 1), (2, 2), (0, 1)]))
    with pytest.raises(TooSmall):
        chirotope_from_points(PointSet([(0, 0), (1, 0)]))


def test_chirotope_from_points_rational_signs_and_message():
    # the signs come from integer determinants of the scaled coordinates;
    # the oracle is orient on the exact fractions
    rng = random.Random(17)
    for _ in range(20):
        pts = [(Fraction(rng.randrange(-50, 50), rng.randrange(1, 12)),
                Fraction(rng.randrange(-50, 50), rng.randrange(1, 12)))
               for _ in range(7)]
        ps = PointSet(pts)
        try:
            ps.validate_general_position()
        except GeneralPositionViolation:
            continue
        chi = chirotope_from_points(ps)
        for t in sorted_triples(7):
            assert chi.sign(*t) == orient(ps[t[0]], ps[t[1]], ps[t[2]])
    ps = PointSet([(0, 0), (Fraction(1, 3), 1), (Fraction(1, 2), 0),
                   (Fraction(2, 3), 2)])
    with pytest.raises(GeneralPositionViolation) as info:
        chirotope_from_points(ps)
    assert str(info.value) == ("labels (0, 1, 3): collinear points "
                               "(0, 0), (1/3, 1), (2/3, 2)")


def test_chi1_fixture_axioms_and_interior_point():
    ps = chi1_fixture_points()
    chi = chirotope_from_points(ps)
    # oracle: recompute expected signs straight from the coordinates
    for t in sorted_triples(4):
        assert chi.sign(*t) == orient(ps[t[0]], ps[t[1]], ps[t[2]])
    assert chi.check_axioms().ok
    assert 3 not in chi.extreme_elements()
    assert chi.extreme_elements() == frozenset({0, 1, 2})


def test_sign_parity_semantics():
    tri = convex(3).chi
    assert tri.sign(0, 1, 2) == 1
    assert tri.sign(0, 2, 1) == -1
    rng = random.Random(5)
    chi = chirotope_from_points(random_point_set(7, rng))
    for _ in range(100):
        x, y, z = rng.sample(range(7), 3)
        assert chi.sign(x, y, z) == -chi.sign(y, x, z)
        assert chi.sign(x, y, z) == chi.sign(y, z, x)
        assert chi.sign(x, y, z) == -chi.sign(x, z, y)


def test_sign_rejects_bad_triples():
    chi = convex(4).chi
    with pytest.raises(InvalidTriple):
        chi.sign(0, 0, 1)
    with pytest.raises(InvalidTriple):
        chi.sign(0, 1, 4)


def test_constructor_takes_one_sign_per_sorted_triple():
    assert Chirotope(4, [1, -1, 1, 1]) == Chirotope(4, (1, -1, 1, 1))
    # any iterable, a generator too
    assert Chirotope(4, (s for s in [1, -1, 1, 1])).sign(0, 1, 3) == -1
    # a wrong length, a sign outside +/-1, and a dict, whose keys are no signs
    for bad, match in (([1, 1, 1], "got 3 signs, expected 4"),
                       ([1] * 5, "got 5 signs, expected 4"),
                       ([1, 0, 1, 1], r"sign of \(0, 1, 3\) must be \+1 or -1"),
                       ([1, 1, 1, "+"], r"sign of \(1, 2, 3\)"),
                       ({t: 1 for t in sorted_triples(4)}, r"got \(0, 1, 2\)")):
        with pytest.raises(InvalidTriple, match=match):
            Chirotope(4, bad)
    with pytest.raises(TooSmall):
        Chirotope(2, [])


def test_sign_vector_round_trips_on_point_sets():
    rng = random.Random(61)
    for n in range(3, 13):
        ps = random_point_set(n, rng)
        chi = chirotope_from_points(ps)
        assert Chirotope(n, [s for _, s in chi.items()]) == chi
        assert read_chi(write_chi(chi)) == (chi, None)
        assert [s for _, s in chi.items()] == [
            orient(ps[i], ps[j], ps[k]) for i, j, k in sorted_triples(n)]


def test_axioms_hold_for_random_realizable():
    rng = random.Random(11)
    for n in range(4, 10):
        chi = chirotope_from_points(random_point_set(n, rng))
        report = chi.check_axioms()
        assert report.ok


def test_axioms_convex6_and_mutated_convex5():
    assert convex(6).chi.check_axioms().ok
    signs = [-1 if t == (1, 2, 4) else 1 for t in sorted_triples(5)]
    report = Chirotope(5, signs).check_axioms()
    assert not report.ok
    assert report.interiority or report.transitivity


def test_check_axioms_matches_nested_loop_spec():
    # the same rows in the same order, on valid tables and on tables with
    # three or half of their signs flipped
    rng = random.Random(29)
    tables = []
    for n in range(4, 10):
        chi = chirotope_from_points(random_point_set(n, rng))
        tables.append(chi)
        if n > 8:
            continue
        for flips in (3, comb(n, 3) // 2):
            tables.append(with_flips(chi, flips, rng))
    tables.append(Chirotope(5, [-1 if t == (1, 2, 4) else 1
                                for t in sorted_triples(5)]))
    seen_bad = 0
    for chi in tables:
        report = chi.check_axioms()
        assert (report.interiority, report.transitivity) == \
            axiom_violations_spec(chi), chi.n
        seen_bad += not report.ok
    assert seen_bad >= 8


def test_extreme_elements_convex_and_double_circle():
    assert convex(5).chi.extreme_elements() == frozenset(range(5))
    from chirotri import double_circle_points
    chi = chirotope_from_points(double_circle_points(4))
    assert chi.extreme_elements() == frozenset(range(4))


def test_extremes_match_geometric_hull():
    rng = random.Random(13)
    for n in (5, 6, 7, 8):
        ps = random_point_set(n, rng)
        chi = chirotope_from_points(ps)
        hull = convex_hull_labels(ps)
        assert chi.extreme_elements() == frozenset(hull)
        # hull_neighbors agrees with ccw hull adjacency at every hull vertex
        h = len(hull)
        for pos, v in enumerate(hull):
            rc = RootedChirotope(chi, v)
            up, um = rc.hull_neighbors()
            assert up == hull[(pos + 1) % h]
            assert um == hull[(pos - 1) % h]


def test_hull_witnesses_match_literal_spec():
    # the side-mask row test against sign-by-sign reads, on valid tables and
    # on tables with three signs flipped, where an extreme element can lack
    # one of its two witnesses
    rng = random.Random(31)
    tables = []
    for n in range(3, 10):
        for _ in range(3):
            chi = chirotope_from_points(random_point_set(n, rng))
            tables.append(chi)
            if n >= 5:
                tables.append(with_flips(chi, 3, rng))
    one_sided = 0
    for chi in tables:
        spec = {x: hull_witnesses_spec(chi, x) for x in range(chi.n)}
        assert all(chi._witnesses(x) == spec[x] for x in range(chi.n))
        assert chi.extreme_elements() == {x for x in spec if any(spec[x])}
        for x in chi.extreme_elements():
            plus, minus = spec[x]
            rc = RootedChirotope(chi, x)
            if plus and minus:
                assert rc.hull_neighbors() == (plus[0], minus[0])
            else:
                one_sided += 1
                with pytest.raises(NotARootedChirotope):
                    rc.hull_neighbors()
    assert one_sided > 0


def test_hull_neighbors_examples():
    assert RootedChirotope(convex(5).chi, 0).hull_neighbors() == (1, 4)
    assert RootedChirotope(convex(3).chi, 2).hull_neighbors() == (0, 1)
    chi = chirotope_from_points(chi1_fixture_points())
    up, um = RootedChirotope(chi, 2).hull_neighbors()
    assert {up, um} == {0, 1}  # interior point 3 is never a neighbor


def test_hull_neighbors_missing_witness():
    # sign(0, y, z) = +1 reads "y beats z": 1 beats 2, 3 and 4, which beat
    # each other in a cycle, so 0 has a successor but no predecessor; a
    # non-realizable table that only a .chi file can carry
    signs = [-1 if t == (0, 2, 4) else 1 for t in sorted_triples(5)]
    rc = RootedChirotope(Chirotope(5, signs), 0)
    with pytest.raises(NotARootedChirotope, match="missing hull neighbor"):
        rc.hull_neighbors()


def test_rooted_requires_extreme_root():
    chi = chirotope_from_points(chi1_fixture_points())
    with pytest.raises(NotARootedChirotope):
        RootedChirotope(chi, 3)


def test_segments_cross_convex4():
    chi = convex(4).chi
    assert segments_cross(chi, (0, 2), (1, 3))
    assert not segments_cross(chi, (0, 1), (2, 3))
    with pytest.raises(SharedEndpoint):
        segments_cross(chi, (0, 1), (1, 2))


def test_segments_cross_symmetry():
    rng = random.Random(17)
    chi = chirotope_from_points(random_point_set(8, rng))
    for _ in range(60):
        x, y, z, t = rng.sample(range(8), 4)
        c = segments_cross(chi, (x, y), (z, t))
        assert segments_cross(chi, (z, t), (x, y)) == c
        assert segments_cross(chi, (y, x), (z, t)) == c
        assert segments_cross(chi, (x, y), (t, z)) == c


def test_restrict():
    sub, lmap = convex(6).chi.restrict({0, 1, 2})
    assert sub == convex(3).chi
    assert lmap == {0: 0, 1: 1, 2: 2}
    rng = random.Random(19)
    chi = chirotope_from_points(random_point_set(6, rng))
    same, lmap = chi.restrict(range(6))
    assert same == chi and all(lmap[i] == i for i in range(6))
    with pytest.raises(TooSmall):
        chi.restrict({0, 1})


def test_flip():
    rng = random.Random(23)
    chi = chirotope_from_points(random_point_set(6, rng))
    assert chi.flipped().flipped() == chi
    assert convex(3).chi.flipped().sign(0, 1, 2) == -1
    from chirotri import chi1, enumerate_triangulations
    c1 = chi1().chi
    # crossing is invariant under a global sign flip, so the triangulation
    # families coincide exactly
    assert list(enumerate_triangulations(c1.flipped())) == list(enumerate_triangulations(c1))
    assert count_triangulations(c1.flipped()) == count_triangulations(c1)


def test_relabeling_invariance():
    rng = random.Random(29)
    ps = random_point_set(7, rng)
    chi = chirotope_from_points(ps)
    perm = list(range(7))
    rng.shuffle(perm)
    ps2 = ps.relabeled(perm)
    chi2 = chirotope_from_points(ps2)
    assert chi2.check_axioms().ok
    assert count_triangulations(chi2) == count_triangulations(chi)
    # new label i holds old label perm[i]
    assert chi2.extreme_elements() == frozenset(
        perm.index(x) for x in chi.extreme_elements())


@st.composite
def _sign_tables(draw):
    """Any +/-1 table over the sorted triples; the format needs no axioms."""
    n = draw(st.integers(3, 9))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=comb(n, 3),
                          max_size=comb(n, 3)))
    return Chirotope(n, signs)


_CHI7 = chirotope_from_points(random_point_set(7, random.Random(31)))


@settings(max_examples=150, deadline=None)
@given(_sign_tables(), st.none() | st.integers(0, 99))
@example(_CHI7, None)
@example(_CHI7, 4)
def test_chi_format_roundtrip(chi, root):
    text = write_chi(chi, root=root)
    back, got_root = read_chi(text)
    assert back == chi and got_root == root
    # comments and unicode minus are tolerated
    commented = text.replace("triples", "triples  # signs follow")
    assert read_chi(commented)[0] == chi
    assert read_chi(text.replace("-", "−"))[0] == chi


@pytest.mark.parametrize("header, message", [
    ("n +4\nroot 0_0", "bad element count 'n +4'"),
    ("n 4\nroot 0_0", "bad root 'root 0_0'"),
    ("n 0_3", "bad element count 'n 0_3'"),
    ("n -4", "bad element count 'n -4'"),
    ("n  4", "bad element count 'n  4'"),
    ("n \u0664", "bad element count 'n \u0664'"),
    ("n 4\nroot -1", "bad root 'root -1'"),
    ("n 4\nroot +0", "bad root 'root +0'"),
    ("root 0\nn 4", "missing 'n <N>' line"),
    ("n4", "missing 'n <N>' line")])
def test_read_chi_header_numbers_are_decimal_digits(header, message):
    # int() would read a sign, an underscore or a leading space, so that
    # 'n +4' and 'root 0_0' read as a rooted 4-gon
    assert read_chi("chirotope v1\nn 4\nroot 0\ntriples\n++++\n") == (
        convex(4).chi, 0)
    with pytest.raises(MalformedFile, match=re.escape(message)):
        read_chi(f"chirotope v1\n{header}\ntriples\n++++\n")


_coord = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                      max_denominator=10 ** 6)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_coord, _coord), max_size=12))
@example([(0, 0), (1, 0), ("1/2", "3/4")])
def test_pts_format_roundtrip(points):
    ps = PointSet(points)
    assert PointSet.from_text(ps.to_text()) == ps
    parsed = PointSet.from_text("0 0\n# comment\n2 3\n1/3 2\n")
    assert len(parsed) == 3


def test_side_masks_answer_like_the_input_table():
    # the stored side masks against the sorted-triple table they were built
    # from, on valid tables and on tables with three signs flipped (drawn as
    # with_flips draws them, keeping the input table)
    rng = random.Random(53)
    tables = []
    for n in range(3, 10):
        for _ in range(3):
            ps = random_point_set(n, rng)
            table = {(i, j, k): orient(ps[i], ps[j], ps[k])
                     for i, j, k in sorted_triples(n)}
            tables.append((n, table))
            if n >= 4:
                flipped = dict(table)
                for t in rng.sample(sorted(table), 3):
                    flipped[t] = -flipped[t]
                tables.append((n, flipped))
    rooted = 0
    for n, table in tables:
        chi = Chirotope(n, [table[t] for t in sorted_triples(n)])
        assert list(chi.items()) == sorted(table.items())
        assert all(chi.sign(*p) == table_sign(table, *p)
                   for p in permutations(range(n), 3))
        assert dict(chi.flipped().items()) == {t: -s for t, s in table.items()}
        keep = sorted(rng.sample(range(n), rng.randint(3, n)))
        sub, _ = chi.restrict(keep)
        assert dict(sub.items()) == {
            (a, b, c): table[(keep[a], keep[b], keep[c])]
            for a, b, c in combinations(range(len(keep)), 3)}
        count_triangulations(chi)
        for root in sorted(chi.extreme_elements()):
            rc = RootedChirotope(chi, root)
            assert dict(twist(rc).chi.items()) == {
                t: -s if root in t else s for t, s in table.items()}
            brute_P(rc)
            list(enumerate_weak(rc))
            rooted += 1
        # the oracle extends copies of the masks, never the stored ones
        assert chi == Chirotope(n, [table[t] for t in sorted_triples(n)])
    assert rooted > 100


def test_chirotope_retains_only_its_side_masks():
    # 60 elements: 3,600 masks of up to 60 bits, about 0.3 MB; a dict of its
    # 34,220 signs keyed by sorted triple takes about 1.4 MB, and a set of
    # those triples about 4 MB
    rng = random.Random(59)
    signs = [rng.choice((1, -1)) for _ in range(comb(60, 3))]
    tracemalloc.start()
    try:
        chi = Chirotope(60, signs)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chi.n == 60
    assert retained < 1_000_000
    assert peak < 1_000_000


def test_permutation_storage_consistency():
    # querying any permutation of a stored triple returns stored sign * parity
    chi = convex(4).chi
    base = {t: chi.sign(*t) for t in sorted_triples(4)}
    for t, s in base.items():
        for p in permutations(t):
            inv = sum(1 for i, j in combinations(range(3), 2) if p[i] > p[j])
            assert chi.sign(*p) == s * (-1) ** inv
