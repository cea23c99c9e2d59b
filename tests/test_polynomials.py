"""Polynomial calculus: recombination, merge recursion, marginals."""

import json
import random
import sys
import tracemalloc
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chirotri import (BivarPoly, EmptyInput, InternalInvariantViolation,
                      MalformedFile, OutOfRange, UnivarPoly, brute_P, brute_Q,
                      chain_P, chi1, chi_k, convex, count_weak_join,
                      enumerate_weak, join, join_P, join_Q, meet, meet_P,
                      q_from_p, swap_vars, try_split, twist)
from chirotri import polynomials
from chirotri.polynomials import (_merge_core, binomial_form, exact_str,
                                  self_merge_totals)

from helpers import BivarSpec, UnivarSpec, n_poly, random_rooted

U = UnivarPoly
B = BivarPoly


def n_d3_reference(d):
    """Independent evaluation of the single-sum form of n_poly(d, 3)."""
    acc = {d + 2: 1}
    for i in range(1, d):
        acc[i + 1] = acc.get(i + 1, 0) + (d - i)
        acc[i + 2] = acc.get(i + 2, 0) + 1
    return U(acc)


def test_n_poly_small_values():
    assert n_poly(2, 2) == U({3: 1, 2: 1})
    assert n_poly(3, 3) == U({5: 1, 4: 1, 3: 2, 2: 2})
    with pytest.raises(OutOfRange):
        n_poly(1, 3)


def test_n_poly_d3_agrees_with_single_sum_form():
    for d in range(2, 9):
        assert n_poly(d, 3) == n_d3_reference(d)


def test_n_poly_symmetry():
    for d1 in range(2, 11):
        for d2 in range(2, 11):
            assert n_poly(d1, d2) == n_poly(d2, d1)


def test_n_poly_at_one_is_binomial():
    for d1 in range(2, 9):
        for d2 in range(2, 9):
            assert n_poly(d1, d2)(1) == comb(d1 + d2 - 2, d1 - 1)


def test_join_P_examples():
    assert join_P(B({(2, 2): 1}), B({(2, 2): 1})) == B({(3, 3): 1, (2, 3): 1})
    p_chi1 = B({(3, 2): 1, (3, 3): 1})
    expected = {}
    for e, cu in U({5: 1, 4: 1, 3: 2, 2: 2}).terms():
        for f, cv in U({3: 1, 4: 2, 5: 1}).terms():
            expected[(e, f)] = cu * cv
    assert join_P(p_chi1, p_chi1) == B(expected)
    assert join_P(p_chi1, p_chi1) == brute_P(chi_k(2))


def test_join_P_total_matches_weak_enumeration():
    from chirotri import RootedChirotope
    rc1 = RootedChirotope(convex(3).chi, 2)
    combined, _ = join(rc1, chi1())
    total = join_P(brute_P(rc1), brute_P(chi1()))(1, 1)
    assert total == sum(1 for _ in enumerate_weak(combined))


def test_join_P_rejects_bad_operands():
    with pytest.raises(OutOfRange):
        join_P(B({(1, 2): 1}), B({(2, 2): 1}))
    with pytest.raises(EmptyInput):
        join_P(B({}), B({(2, 2): 1}))
    with pytest.raises(InternalInvariantViolation):
        join_P(B({(2, 0): 1}), B({(2, 0): 1}))


def test_swap_vars():
    assert swap_vars(B({(3, 2): 1})) == B({(2, 3): 1})
    rng = random.Random(101)
    p = B({(rng.randrange(8), rng.randrange(8)): rng.randrange(1, 9)
           for _ in range(10)})
    assert swap_vars(swap_vars(p)) == p
    assert swap_vars(brute_P(chi1())) == brute_P(twist(chi1()))


def test_meet_P_examples():
    m = meet_P(B({(2, 2): 1}), B({(2, 2): 1}))
    assert m == B({(3, 3): 1, (3, 2): 1})
    assert m == brute_P(chi1())
    assert q_from_p(m) == U({3: 1})


def test_meet_P_oracle_equivalence_small():
    rc1 = convex(3)
    rc2 = convex(4)
    combined, _ = meet(rc1, rc2)
    assert meet_P(brute_P(rc1), brute_P(rc2)) == brute_P(combined)


def test_q_from_p():
    assert q_from_p(B({(3, 2): 1, (3, 3): 1})) == U({3: 1})
    assert q_from_p(B({(2, 2): 1})) == U({2: 1})
    with pytest.raises(EmptyInput):
        q_from_p(B({}))


def test_join_Q_examples():
    assert join_Q(U({2: 1}), U({2: 1})) == n_poly(2, 2)
    assert join_Q(U({3: 1}), U({3: 1})) == n_poly(3, 3)
    with pytest.raises(OutOfRange):
        join_Q(U({1: 1}), U({2: 1}))


def test_recursion_matches_oracle_random():
    rng = random.Random(103)
    for i in range(12):
        rc1 = random_rooted(rng.randrange(4, 7), rng)
        rc2 = random_rooted(rng.randrange(4, 7), rng)
        if i % 2 == 0:
            combined, _ = join(rc1, rc2)
            assert join_P(brute_P(rc1), brute_P(rc2)) == brute_P(combined)
            assert join_Q(brute_Q(rc1), brute_Q(rc2)) == brute_Q(combined)
        else:
            combined, _ = meet(rc1, rc2)
            assert meet_P(brute_P(rc1), brute_P(rc2)) == brute_P(combined)


def test_slice_consistency():
    rng = random.Random(107)
    for _ in range(10):
        p1 = brute_P(random_rooted(rng.randrange(4, 7), rng))
        p2 = brute_P(random_rooted(rng.randrange(4, 7), rng))
        assert q_from_p(join_P(p1, p2)) == join_Q(q_from_p(p1), q_from_p(p2))


def test_coefficients_nonnegative():
    rng = random.Random(109)
    for _ in range(6):
        p1 = brute_P(random_rooted(5, rng))
        p2 = brute_P(random_rooted(6, rng))
        assert all(c > 0 for _, c in join_P(p1, p2).terms())


def test_count_weak_join():
    assert count_weak_join(B({(2, 2): 1}), B({(2, 2): 1}), "join") == 2
    rng = random.Random(113)
    for kind in ("join", "meet"):
        p1 = brute_P(random_rooted(5, rng))
        p2 = brute_P(random_rooted(6, rng))
        full = join_P(p1, p2) if kind == "join" else meet_P(p1, p2)
        assert count_weak_join(p1, p2, kind) == full(1, 1)
    with pytest.raises(OutOfRange):
        count_weak_join(B({(2, 2): 1}), B({(2, 2): 1}), "bogus")


def test_binomial_form_is_the_total_of_n_poly():
    for d1 in range(2, 31):
        for d2 in range(2, 31):
            a, b = [0] * d1 + [1], [0] * d2 + [1]
            assert binomial_form(a, b) == n_poly(d1, d2)(1) == \
                comb(d1 + d2 - 2, d1 - 1)
    rng = random.Random(149)
    for _ in range(300):
        a = [0, 0] + [rng.randint(-50, 50) for _ in range(rng.randint(0, 12))]
        b = a if rng.random() < 0.3 else \
            [0, 0] + [rng.randint(-50, 50) for _ in range(rng.randint(0, 12))]
        assert binomial_form(a, b) == binomial_form(b, a) == \
            sum(_merge_core(a, b))


def test_self_merge_totals_are_the_merge_totals():
    rng = random.Random(151)
    ps = [brute_P(random_rooted(n, rng)) for n in (4, 5, 6, 7, 8)]
    ps += [meet_P(ps[2], ps[2]), join_P(ps[3], ps[3]),
           chain_P(brute_P(chi1()), 4),
           B({(2, 2): -3, (2, 5): 7, (4, 3): 1, (6, 2): -2})]
    for p in ps:
        for kind in ("join", "meet"):
            merged = join_P(p, p) if kind == "join" else meet_P(p, p)
            want = {}
            for (a, b), c in merged.terms():
                e = b if kind == "join" else a
                want[e] = want.get(e, 0) + c
            got = self_merge_totals(p, kind)
            assert got == [want.get(e, 0) for e in range(len(got))]
            assert got[-1] and len(got) == max(want) + 1
    with pytest.raises(OutOfRange):
        self_merge_totals(ps[0], "bogus")
    with pytest.raises(EmptyInput):
        self_merge_totals(B({}), "join")
    for low in ({(1, 2): 1, (2, 2): 1}, {(2, 1): 1, (2, 2): 1}):
        for kind in ("join", "meet"):
            with pytest.raises(OutOfRange):
                self_merge_totals(B(low), kind)


def test_count_weak_join_same_operand_once(monkeypatch):
    rng = random.Random(127)
    seeds = [brute_P(random_rooted(n, rng)) for n in (5, 6, 7)]
    for p in seeds + [join_P(seeds[0], seeds[1]), meet_P(seeds[1], seeds[2])]:
        copy = B(dict(p._c))
        calls = []
        real = polynomials._totals

        def counted(q, by_v):
            calls.append(q)
            return real(q, by_v)

        for kind in ("join", "meet"):
            monkeypatch.setattr(polynomials, "_totals", counted)
            calls.clear()
            got = count_weak_join(p, p, kind)
            assert len(calls) == 1
            monkeypatch.setattr(polynomials, "_totals", real)
            assert got == count_weak_join(p, copy, kind)
            full = join_P(p, copy) if kind == "join" else meet_P(p, copy)
            assert got == full(1, 1)


def test_try_split():
    assert try_split(B({(3, 2): 1, (3, 3): 1})) == (U({3: 1}), U({2: 1, 3: 1}))
    assert try_split(B({(2, 2): 1, (3, 3): 1})) is None
    got = try_split(B({(2, 2): 2, (2, 3): 4, (5, 2): 3, (5, 3): 6}))
    assert got is not None
    u, v = got
    assert B({(a, b): cu * cv for a, cu in u.terms() for b, cv in v.terms()}) \
        == B({(2, 2): 2, (2, 3): 4, (5, 2): 3, (5, 3): 6})
    assert try_split(B({})) is None


def general_join_P_reference(p1, p2):
    """The merge double sum written out directly, as an independent oracle."""
    from chirotri.polynomials import _n_poly_terms
    acc = {}
    for d1, va in BivarSpec(dict(p1.terms())).u_slices().items():
        for d2, vb in BivarSpec(dict(p2.terms())).u_slices().items():
            prod = {}
            for b1, c1 in va.items():
                for b2, c2 in vb.items():
                    prod[b1 + b2] = prod.get(b1 + b2, 0) + c1 * c2
            for e, cn in _n_poly_terms(d1, d2):
                for b, c in prod.items():
                    acc[(e, b)] = acc.get((e, b), 0) + cn * c
    return B({(a, b - 1): c for (a, b), c in acc.items() if c})


def test_join_P_split_fast_path_matches_double_sum():
    rng = random.Random(137)
    for _ in range(15):
        def rank1():
            us = {rng.randrange(2, 9): rng.randrange(1, 5) for _ in range(3)}
            vs = {rng.randrange(2, 9): rng.randrange(1, 5) for _ in range(3)}
            return B({(a, b): c * d for a, c in us.items() for b, d in vs.items()})
        p1, p2 = rank1(), rank1()
        assert try_split(p1) is not None
        assert join_P(p1, p2) == general_join_P_reference(p1, p2)


# operands with both minimum exponents >= 2, so that join and meet both
# apply; coefficients of either sign exercise every slot of the packed merge
_coeff = st.one_of(st.integers(-6, 12),
                   st.integers(-10 ** 40, 10 ** 40)).filter(bool)
_univar = st.dictionaries(st.integers(2, 10), _coeff, min_size=1, max_size=5)
_general = st.dictionaries(st.tuples(st.integers(2, 9), st.integers(2, 7)),
                           _coeff, min_size=1, max_size=14).map(B)
_rank1 = st.tuples(_univar, _univar).map(
    lambda uv: B({(a, b): cu * cv for a, cu in uv[0].items()
                  for b, cv in uv[1].items()}))
_bivar = st.one_of(_general, _rank1)


@settings(max_examples=150, deadline=None)
@given(_univar, _univar)
def test_join_Q_matches_n_poly_double_sum(q1, q2):
    expected = U({})
    for d1, c1 in q1.items():
        for d2, c2 in q2.items():
            expected = expected + n_poly(d1, d2) * (c1 * c2)
    assert join_Q(U(q1), U(q2)) == expected


# live entries: units of either sign, small signed and big signed ones
_live = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9).filter(bool),
                  st.integers(-10 ** 30, 10 ** 30).filter(bool))


@st.composite
def _sparse_pair(draw):
    """A shorter operand with a run of 1-4 zeros at its bottom (from degree
    2), in its middle or at its top (right under its top live entry), maybe
    zeros past that entry, and an operand at least as long, maybe equal to
    it as another list."""
    run = [0] * draw(st.integers(1, 4))
    where = draw(st.sampled_from(["bottom", "middle", "top"]))
    below = [] if where == "bottom" else draw(
        st.lists(_live, min_size=1, max_size=3))
    above = [] if where == "top" else draw(
        st.lists(_live, min_size=int(where == "middle"), max_size=3))
    a = [0, 0, *below, *run, *above, draw(_live),
         *[0] * draw(st.integers(0, 2))]
    b = draw(st.one_of(
        st.just(list(a)),
        st.lists(st.one_of(st.just(0), _live), min_size=len(a) - 2,
                 max_size=len(a) + 3).map(lambda r: [0, 0, *r])))
    return a, b


@settings(max_examples=300, deadline=None)
@given(_sparse_pair())
@example(([0, 0, 0, 1], [0, 0, 0, 1]))  # the first double-circle step
@example(([0, 0, 0, 1], [0, 0, 13, 13, 9, 5, 2, 1]))  # Q_3 to Q_4
@example(([0, 0, 1], [0, 0, 1, 1, 1]))  # a convex chain's step
@example(([0, 0, 0, 0, 0, 0, -1], [0, 0, 5, 0, 0, 0, 0, 7]))
def test_merge_core_telescopes_zero_rows(pair):
    # a zero row of the shorter operand folds into the row above it; the
    # result is still the n_poly double sum, in either argument order
    a, b = pair
    expected = U({})
    for d1, c1 in enumerate(a):
        for d2, c2 in enumerate(b):
            if c1 and c2:
                expected = expected + n_poly(d1, d2) * (c1 * c2)
    want = [expected.coeff(e) for e in range(len(a) + len(b) - 2)]
    assert _merge_core(a, b) == want
    assert _merge_core(b, a) == want


@settings(max_examples=150, deadline=None)
@given(_bivar, _bivar)
def test_join_and_meet_P_match_double_sum(p1, p2):
    assert join_P(p1, p2) == general_join_P_reference(p1, p2)
    expected_meet = swap_vars(general_join_P_reference(swap_vars(p1),
                                                       swap_vars(p2)))
    assert meet_P(p1, p2) == expected_meet


def _outer(split):
    """The product U(u) * V(v) of a ``try_split`` result, as coefficients."""
    u, v = split
    return {(a, b): cu * cv for a, cu in u.terms() for b, cv in v.terms()}


def _factor_view(p):
    """What a factored polynomial answers from its factors alone.

    The scale of a split is free, so splits are compared by their product.
    """
    return {
        "is_zero": p.is_zero(),
        "min_u_exp": p.min_u_exp(),
        "min_v_exp": p.min_v_exp(),
        "try_split": _outer(try_split(p)),
        "q_from_p": q_from_p(p),
        "swap_split": _outer(try_split(swap_vars(p))),
        "swap_q": q_from_p(swap_vars(p)),
    }


def _coefficient_view(p):
    return {
        "terms": p.terms(),
        "to_json": p.to_json(),
        "hash": hash(p),
        "swap_terms": swap_vars(p).terms(),
        "repr": repr(p),
        "at": p(2, 3),
        "weak_counts": (count_weak_join(p, p, "join"),
                        count_weak_join(p, p, "meet")),
    }


@settings(max_examples=60, deadline=None)
@given(_rank1, _rank1)
def test_factored_result_agrees_with_its_expansion(p1, p2):
    factored = join_P(p1, p2)
    if factored.is_zero():
        return
    lazy = _factor_view(factored)
    assert factored._rows is None  # nothing above expanded it
    expanded = B(dict(factored._c))
    assert expanded._rows is not None
    assert _factor_view(expanded) == lazy
    assert _coefficient_view(expanded) == _coefficient_view(factored)
    assert factored == expanded and expanded == factored
    assert swap_vars(factored) == swap_vars(expanded)


def test_koch_pipeline_marginal_equals_full():
    from chirotri import koch
    p = brute_P(koch(3))
    for level in (4, 5):
        kind = "join" if level % 2 == 1 else "meet"
        full = join_P(p, p) if kind == "join" else meet_P(p, p)
        assert count_weak_join(p, p, kind) == full(1, 1)
        p = full


def test_koch_level8_weak_count_runs():
    from chirotri import EvalMode, eval_expr, koch, parse_expr, seed_score
    score = seed_score(koch(3), levels=8, metric="weak")
    # the expression route builds the level-8 polynomial in full
    koch8 = eval_expr(parse_expr("koch(8)"), EvalMode.POLYNOMIAL)
    assert score == koch8(1, 1)


def test_serialization_roundtrip():
    q = U({5: 1, 2: 10 ** 40})
    assert q.to_json() == '{"terms":[[2,"10000000000000000000000000000000000000000"],[5,"1"]]}'
    assert U.from_json(q.to_json()) == q
    p = B({(2, 3): -7, (0, 0): 5})
    assert B.from_json(p.to_json()) == p
    assert p.to_json() == '{"terms":[[0,0,"5"],[2,3,"-7"]]}'


# Python's default int-to-str limit is 4,300 digits; these ints pass it.
# Each is built from a few small draws: a leading digit, a digit count, an
# offset and a sign. Drawn whole, one took about 2.5 KB of entropy, and an
# example of six could fail hypothesis's data-size health check.
_huge = st.builds(lambda lead, digits, offset, sign:
                  sign * (lead * 10 ** (digits - 1) + offset),
                  st.integers(1, 9), st.integers(4301, 6000),
                  st.integers(0, 10 ** 12), st.sampled_from((1, -1)))


def _str_without_limit(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=60, deadline=None)
@given(st.integers() | _huge)
def test_exact_str_is_str_at_any_size(n):
    assert exact_str(n) == _str_without_limit(n)


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.integers(0, 6), _huge, min_size=1, max_size=3),
       st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), _huge,
                       min_size=1, max_size=3),
       st.integers(2, 5))
def test_json_roundtrips_coefficients_past_the_str_digit_limit(du, db, small):
    for p, cls in ((U(du), U), (B(db), B),
                   (B({(a, b): c * small for a, c in du.items()
                       for b in range(2)}), B)):
        text = p.to_json()
        assert cls.from_json(text) == p
        assert max(map(len, (t[-1] for t in json.loads(text)["terms"]))) > 4300


_MALFORMED_JSON = ["garbage", "{}", "[1]", '{"terms": 5}', '{"terms": [[1]]}',
                   '{"terms": [[1, 2, "x"]]}', '{"terms": [[1, "1e5"]]}',
                   '{"terms": [[1, " 5"]]}', '{"terms": [[1, "NaN"]]}',
                   '{"terms": [[1, "--5"]]}', '{"terms": [[1, 5]]}']


# an exponent is a JSON integer: not a float, a boolean or a string
_NOT_INTEGER_JSON = {
    U: ['{"terms":[[1.5,"2"]]}', '{"terms":[[true,"2"]]}',
        '{"terms":[["3","2"]]}', '{"terms":[[2.0,"2"]]}'],
    B: ['{"terms":[[2.7,3,"2"]]}', '{"terms":[[2,true,"2"]]}',
        '{"terms":[["2",3,"2"]]}', '{"terms":[[2,3.0,"2"]]}']}


@pytest.mark.parametrize("cls, repeated, negative", [
    (U, '{"terms":[[2,"1"],[2,"5"]]}', '{"terms":[[-1,"1"]]}'),
    (B, '{"terms":[[2,3,"1"],[2,3,"5"]]}', '{"terms":[[2,-1,"1"]]}')])
def test_from_json_refuses_malformed_text(cls, repeated, negative):
    for text in _MALFORMED_JSON + [repeated] + _NOT_INTEGER_JSON[cls]:
        with pytest.raises(MalformedFile, match="malformed polynomial text"):
            cls.from_json(text)
    with pytest.raises(OutOfRange):
        cls.from_json(negative)


_sparse_dict = st.one_of(
    st.dictionaries(st.integers(0, 40), _coeff, max_size=8),
    st.tuples(st.integers(0, 10 ** 6), _coeff).map(lambda ec: dict([ec])))


def _check_against_spec(got, want, x):
    """Every read of ``got`` answers as the dict spec ``want`` does."""
    assert got.terms() == want.terms()
    assert got == U(want.c) and hash(got) == hash(U(want.c))
    assert got.is_zero() == (not want.c)
    if want.c:
        assert (got.min_exp, got.max_exp) == (min(want.c), max(want.c))
    else:
        for attr in ("min_exp", "max_exp"):
            with pytest.raises(EmptyInput):
                getattr(got, attr)
    for e in {0, *want.c, *(e + 1 for e in want.c)}:
        assert got.coeff(e) == want.coeff(e)
    assert got.deriv_at_one() == want.deriv_at_one()
    assert got(x) == want(x)
    assert got.to_json() == json.dumps(
        {"terms": [[e, str(c)] for e, c in want.terms()]}, separators=(",", ":"))
    assert U.from_json(got.to_json()) == got


@settings(max_examples=80, deadline=None)
@given(_sparse_dict, _sparse_dict, st.one_of(_coeff, st.just(0)),
       st.integers(0, 10 ** 6), st.integers(-2, 2))
def test_univar_poly_matches_dict_spec(d1, d2, m, k, x):
    p, q = U(d1), U(d2)
    sp, sq = UnivarSpec(d1), UnivarSpec(d2)
    assert (p == q) == (sp.c == sq.c)
    for got, want in ((p, sp), (q, sq), (p + q, sp + sq), (p - q, sp - sq),
                      (p * q, sp * sq), (p * m, sp * m), (m * p, sp * m)):
        _check_against_spec(got, want, x)
    low = min(sp.c, default=0)
    for j in (k, -k, -low, -low - 1):
        want = sp.shift(j)
        if want is None:
            with pytest.raises(InternalInvariantViolation):
                p.shift(j)
        else:
            _check_against_spec(p.shift(j), want, x)


_bivar_dict = st.one_of(
    st.just({}),
    st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 40)), _coeff,
                    max_size=6),
    st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 4)),
                    st.one_of(_coeff, st.just(0)), max_size=14),
    _rank1.map(lambda p: dict(p.terms())))


def _check_bivar_against_spec(got, want, x, y):
    """Every read of ``got`` answers as the dict spec ``want`` does."""
    assert got.terms() == want.terms()
    assert got.to_json() == want.to_json()
    back = B.from_json(got.to_json())
    assert back == got and got == back and hash(back) == hash(got)
    assert got == B(want.c) and hash(got) == hash(B(want.c))
    assert got(x, y) == want(x, y)
    assert got.is_zero() == (not want.c)
    split = try_split(got)
    if not want.c:
        for read in (got.min_u_exp, got.min_v_exp, lambda: q_from_p(got)):
            with pytest.raises(EmptyInput):
                read()
        assert split is None
        return
    assert (got.min_u_exp(), got.min_v_exp()) == (want.min_u(), want.min_v())
    assert q_from_p(got) == U(want.q())
    assert (split is not None) == want.rank_one()
    if split is not None:
        assert _outer(split) == want.c


@settings(max_examples=150, deadline=None)
@given(_bivar_dict, _bivar_dict, st.integers(-3, 3), st.integers(-3, 3))
def test_bivar_poly_matches_dict_spec(d1, d2, x, y):
    p, q = B(d1), B(d2)
    sp, sq = BivarSpec(d1), BivarSpec(d2)
    assert (p == q) == (sp.c == sq.c)
    for got, want in ((p, sp), (q, sq), (swap_vars(p), sp.swap()),
                      (swap_vars(swap_vars(p)), sp)):
        _check_bivar_against_spec(got, want, x, y)
        split = try_split(got)
        if split is not None:  # the same polynomial, held as its factors
            factored = B._from_factors(*split)
            _check_bivar_against_spec(factored, want, x, y)
            _check_bivar_against_spec(swap_vars(factored), want.swap(), x, y)


@pytest.mark.parametrize("key", [1.5, True, False, "3", -1, None])
def test_univar_poly_refuses_bad_exponents(key):
    with pytest.raises(OutOfRange, match="bad exponent"):
        U({key: 5})


@pytest.mark.parametrize("key", [(1.5, 2), (True, 2), (2, False), ("a", 2),
                                 (-1, 0), (0, -3), 5, (1, 2, 3), None])
def test_bivar_poly_refuses_bad_exponent_pairs(key):
    with pytest.raises(OutOfRange, match="bad exponent pair"):
        B({key: 1})


def test_univar_shift_keeps_one_row():
    # a row from exponent 0 would hold 2 * 10**6 slots, about 16 MB
    tracemalloc.start()
    try:
        p = U({10 ** 6: 1}).shift(10 ** 6)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert p.terms() == [(2 * 10 ** 6, 1)]
    assert retained < 1024


def test_polynomial_basics():
    assert U({2: 0}) == U({})
    assert U({2: 3})(2) == 12
    assert U({3: 2}).deriv_at_one() == 6
    assert (U({1: 1}) * U({1: 1})) == U({2: 1})
    assert B({(2, 1): 5})(1, 1) == 5
    with pytest.raises(OutOfRange):
        U({-1: 2})


# -- self-merges: one object as both operands ----------------------------------

# rows indexed by root degree, zero below degree 2: signed and zero entries,
# top degree 2 included
_core_row = st.lists(st.one_of(st.just(0), st.integers(-3, 3), _coeff),
                     min_size=1, max_size=14).map(lambda r: [0, 0] + r)


@settings(max_examples=300, deadline=None)
@given(_core_row)
@example([0, 0, 1])
@example([0, 0, 0])
@example([0, 0, 3, 0, 0])
def test_symmetric_merge_core_matches_the_general_one(a):
    from chirotri.polynomials import _merge_core
    assert _merge_core(a, a) == _merge_core(a, list(a))


def _self_merge_operands():
    """Koch levels (factored) and brute_P of seeded point sets (mostly not)."""
    from chirotri import EvalMode, eval_expr, parse_expr
    ops = [eval_expr(parse_expr(f"koch({i})"), EvalMode.POLYNOMIAL)
           for i in range(1, 7)]
    assert all(try_split(p) is not None for p in ops)
    rng = random.Random(131)
    seeded = [brute_P(random_rooted(n, rng)) for n in (4, 5, 6, 7, 7)]
    seeded += [join_P(seeded[0], seeded[1]), meet_P(seeded[2], seeded[3])]
    assert sum(try_split(p) is None for p in seeded) >= 3
    return ops + seeded


def test_self_merges_equal_merges_with_a_copy():
    for p in _self_merge_operands():
        copy = B.from_rows(p._grid(), p._u0, p._v0)
        assert copy is not p and copy == p
        assert join_P(p, p) == join_P(p, copy)
        assert meet_P(p, p) == meet_P(p, copy)
        for kind in ("join", "meet"):
            assert count_weak_join(p, p, kind) == count_weak_join(p, copy, kind)


def test_self_merges_reach_the_symmetric_paths(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(polynomials, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(polynomials, name, wrapped)
    spy("_merge_self")
    spy("_pack")
    squares = []
    real_square = U._square
    monkeypatch.setattr(U, "_square",
                        lambda q: squares.append(q) or real_square(q))
    q = U({2: 3, 4: -1})
    join_Q(q, q)
    assert calls == ["_merge_self"]
    general = brute_P(random_rooted(6, random.Random(7)))
    assert try_split(general) is None
    for merge in (join_P, meet_P):
        calls.clear()
        merge(general, general)
        assert calls == ["_pack", "_merge_self"]
    factored = B({(2, 2): 1, (2, 3): 2, (3, 2): 3, (3, 3): 6})
    for merge in (join_P, meet_P):
        calls.clear()
        squares.clear()
        merge(factored, factored)
        assert calls == ["_merge_self"] and len(squares) == 1


# signed coefficients with gaps, shifted so the lowest exponent is above 0
_gapped = st.tuples(st.dictionaries(st.integers(0, 30),
                                    st.one_of(st.just(0), _coeff),
                                    min_size=1, max_size=8),
                    st.integers(1, 10 ** 6)).map(lambda dk: U(dk[0]).shift(dk[1]))


@settings(max_examples=200, deadline=None)
@given(_gapped)
@example(U({}))
@example(U({3: 1, 9: -1}))
@example(U({e: 2 ** 64 - 1 for e in range(1, 9)}))  # the slot bound is tight
@example(U({e: (-1) ** e * (2 ** 64 - 1) for e in range(1, 9)}))
def test_square_matches_the_product_with_a_copy(q):
    copy = U(dict(q.terms()))
    assert copy is not q
    spec = UnivarSpec(dict(q.terms()))
    _check_against_spec(q * q, spec * spec, 2)
    assert q * q == q * copy


def _signed_row(k):
    """(k, a row of entries below 2^(k-1) in absolute value): zeros, the two
    extremes and anything between."""
    top = 2 ** (k - 1) - 1
    entry = st.one_of(st.just(0), st.sampled_from([top, -top]),
                      st.integers(-top, top))
    return st.tuples(st.just(k), st.lists(entry, min_size=1, max_size=40))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([8, 16, 64, 136]).flatmap(_signed_row))
@example((8, [0]))
@example((8, [127, -127, 0, 127]))
@example((136, [-(2 ** 135 - 1)] * 40))
def test_packed_rows_unpack_to_themselves(k_row):
    k, row = k_row
    packed = polynomials._pack_row(row, k)
    assert polynomials._unpacker(k, len(row))(packed) == tuple(row)


def test_factored_evaluation_reads_the_factors():
    for p in _self_merge_operands()[:6]:
        for merged in (join_P(p, p), meet_P(p, p)):
            terms = merged.terms()
            lazy = B._from_factors(*try_split(merged))
            for u, v in ((1, 1), (2, 3), (-1, 2), (3, -2)):
                assert lazy(u, v) == sum(c * u ** a * v ** b
                                         for (a, b), c in terms)
            assert lazy._rows is None  # evaluated from the factors alone



@settings(max_examples=60, deadline=None)
@given(_rank1, st.integers(1, 7))
@example(brute_P(chi1()), 9)
@example(brute_P(join(convex(3), convex(3))[0]), 6)
def test_chain_p_is_the_fold_of_join_p(p, links):
    # the row recurrence gives the left fold of join_P, factors and scale
    # included
    fold = p
    for _ in range(links - 1):
        fold = join_P(fold, p)
    chain = chain_P(p, links)
    assert chain == fold
    assert try_split(chain) == try_split(fold)


def test_chain_p_refuses_what_join_p_refuses():
    for links in (0, -1, 2.0):
        with pytest.raises(OutOfRange, match="at least one link"):
            chain_P(brute_P(chi1()), links)
    with pytest.raises(OutOfRange, match="minimum u-exponent"):
        chain_P(B({(1, 2): 1}), 2)
    for p in (B({}), B({(2, 2): 1, (3, 3): 1})):  # neither factors
        with pytest.raises(OutOfRange, match="factors into"):
            chain_P(p, 2)
        assert chain_P(p, 1) is p


@settings(deadline=None)
@given(_gapped, st.integers(1, 12))
def test_power_is_the_repeated_product(q, n):
    product = q
    for _ in range(n - 1):
        product = product * q
    assert q ** n == product
    with pytest.raises(OutOfRange, match="bad power"):
        q ** 0
