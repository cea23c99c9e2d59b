"""Polynomial calculus: recombination, merge recursion, marginals."""

import json
import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirotri import (BivarPoly, EmptyInput, InternalInvariantViolation,
                      OutOfRange, UnivarPoly, brute_P, brute_Q, chi1,
                      chi_k, convex, count_weak_join, enumerate_weak, join,
                      join_P, join_Q, meet, meet_P, n_poly, q_from_p,
                      swap_vars, try_split, twist)
from chirotri import polynomials

from helpers import BivarSpec, UnivarSpec, random_rooted

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
    for d1, va in p1.u_slices().items():
        for d2, vb in p2.u_slices().items():
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
        "u_slices": p.u_slices(),
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
    assert got.u_slices() == want.u_slices()
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
