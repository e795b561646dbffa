import cmath
import heapq
import itertools
import operator
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmchar.laurent import (PRIME, DimMismatch, LaurentPoly, NotDivisible,
                             PoleAtPoint, RationalChar, ZeroWeight,
                             congruent_mod_edge, divide_exact, eval_mod,
                             eval_numeric, render_poly)
from gkmchar.randomgen import random_pole_free_point, random_ring_element

X10 = LaurentPoly.monomial((1, 0))
X01 = LaurentPoly.monomial((0, 1))
ONE = LaurentPoly.one(2)


def test_add_cancels_to_monomial():
    assert (ONE + X10) + LaurentPoly.constant(2, -1) == X10


def test_difference_of_squares():
    prod = (ONE - X10) * (ONE + X10)
    assert prod == ONE - LaurentPoly.monomial((2, 0))


def test_multiplicative_identity(rng):
    for _ in range(20):
        a = random_ring_element(2, rng, terms=5, exp_bound=3)
        assert a * ONE == a


def test_render_canonical_form():
    p = LaurentPoly(2, {(0, 1): -1, (1, -2): 2})
    assert render_poly(p) == "-1*x^(0,1) + 2*x^(1,-2)"
    assert render_poly(ONE + X10) == "1 + 1*x^(1,0)"
    assert render_poly(LaurentPoly.zero(2)) == "0"


def test_shift_rejects_exponent_of_wrong_length():
    # a shift by x^exp is a product with the monomial, which must not cut a
    # longer exponent to the polynomial's length
    for p in (ONE + X10, LaurentPoly.zero(2)):
        for exp in [(1,), (1, 0, 0), ()]:
            with pytest.raises(DimMismatch):
                p * LaurentPoly.monomial(exp)


def test_divide_exact_geometric():
    p = ONE - LaurentPoly.monomial((2, 0))
    assert divide_exact(p, (1, 0)) == ONE + X10


def test_divide_exact_unit_fails():
    with pytest.raises(NotDivisible):
        divide_exact(ONE, (1, 0))


def test_divide_exact_refuses_a_quotient_outside_the_box():
    # x^(2,0) - x^(1,2) is not divisible by 1 - x^(0,-1) (at x^(0,1) = 1
    # it is x1^2 - x1), and its quotient series runs out of the box of p
    p = LaurentPoly(2, {(1, 2): -1, (2, 0): 1})
    with pytest.raises(NotDivisible) as exc:
        divide_exact(p, (0, -1))
    assert str(exc.value) == "the quotient leaves the box of p"


def test_divide_exact_shifted_geometric():
    p = LaurentPoly.monomial((0, 1)) - LaurentPoly.monomial((3, 1))
    q = divide_exact(p, (1, 0))
    one_minus = ONE - X10
    assert q * one_minus == p
    expected = LaurentPoly(2, {(0, 1): 1, (1, 1): 1, (2, 1): 1})
    assert q == expected


def test_divide_exact_zero_weight():
    with pytest.raises(ZeroWeight):
        divide_exact(ONE, (0, 0))


def test_divide_exact_rejects_weight_of_wrong_length():
    for p in (ONE + X10, LaurentPoly.zero(2)):
        for gamma in [(1,), (1, 0, 0), (0, 0, 0)]:
            with pytest.raises(DimMismatch):
                divide_exact(p, gamma)
            # any bad length among several, even after a zero weight
            for gammas in [((1, 0), gamma), (gamma, (0, 1)), ((0, 0), gamma)]:
                with pytest.raises(DimMismatch):
                    divide_exact(p, *gammas)


def test_rational_char_refuses_a_zero_or_misfit_weight():
    with pytest.raises(ZeroWeight):
        RationalChar(ONE, ((1, 0), (0, 0)))
    with pytest.raises(DimMismatch):
        RationalChar(ONE, ((1, 0, 0),))


def test_congruence_refuses_a_zero_weight_or_mixed_dimensions():
    with pytest.raises(ZeroWeight):
        congruent_mod_edge(ONE, X10, (0, 0))
    with pytest.raises(DimMismatch):
        congruent_mod_edge(ONE, LaurentPoly.one(3), (1, 0))


def test_divide_exact_zero_weight_among_several():
    p = (ONE - X10) * (ONE - X01)
    with pytest.raises(ZeroWeight):
        divide_exact(p, (1, 0), (0, 0))


def test_divide_exact_without_weights_returns_p():
    for p in (ONE + X10, LaurentPoly.zero(2)):
        assert divide_exact(p) == p


@pytest.mark.parametrize("p", [
    ONE + LaurentPoly.monomial((0, 10**6)),
    ONE + LaurentPoly.monomial((10**6, 1)),
])
def test_divide_exact_far_apart_terms_raise_at_once(p):
    # a quotient run along (1, 0) would need 10^6 terms; the run bounds
    # reject it before filling any
    tracemalloc.start()
    try:
        with pytest.raises(NotDivisible):
            divide_exact(p, (1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _divide_by_grades(p, gamma):
    """Reference single division, independent of divide_exact: synthetic
    division graded by the pairing with gamma.  The lowest-grade term
    c*x^mu moves to the quotient and c*x^(mu+gamma) is added back; a term
    left above max-grade(p) - |gamma|^2 means p is not divisible."""
    gg = sum(x * x for x in gamma)
    rest = dict(p.terms)
    heap = [(sum(map(operator.mul, e, gamma)), e) for e in rest]
    heapq.heapify(heap)
    top = max((g for g, _ in heap), default=0)
    quotient = {}
    while heap:
        g, mu = heapq.heappop(heap)
        c = rest.pop(mu, 0)
        if not c:
            continue
        if g > top - gg:
            raise NotDivisible(mu)
        quotient[mu] = c
        nu = tuple(map(operator.add, mu, gamma))
        if nu in rest:
            rest[nu] += c
            if not rest[nu]:
                del rest[nu]
        else:
            rest[nu] = c
            heapq.heappush(heap, (g + gg, nu))
    return LaurentPoly(p.dim, quotient)


def _chained(divide, p, gammas):
    """The quotient of p by each gamma in turn, or None when some step
    raises NotDivisible."""
    try:
        for g in gammas:
            p = divide(p, g)
    except NotDivisible:
        return None
    return p


@st.composite
def division_cases(draw):
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(-1000, 1000)] * n)
    q = LaurentPoly(n, draw(st.dictionaries(exps, st.integers(-5, 5),
                                            min_size=1, max_size=5)))
    weight = st.tuples(*[st.integers(-4, 4)] * n).filter(any)
    gammas = draw(st.lists(weight, min_size=1, max_size=4))
    p = q
    for g in gammas:
        p = p * LaurentPoly(n, {(0,) * n: 1, g: -1})
    if draw(st.booleans()):
        p = p + LaurentPoly(n, {draw(exps): draw(st.integers(-3, 3))})
    return p, gammas


@settings(max_examples=300, deadline=None)
@given(division_cases())
def test_divide_exact_by_many_equals_chained_divisions(case):
    p, gammas = case
    want = _chained(_divide_by_grades, p, gammas)
    assert _chained(divide_exact, p, gammas) == want
    try:
        got = divide_exact(p, *gammas)
    except NotDivisible:
        got = None
    assert got == want
    if got is not None:
        _assert_clean(got, p.dim)
        back = got
        for g in gammas:
            back = back * LaurentPoly(p.dim, {(0,) * p.dim: 1, g: -1})
        assert back == p


def _assert_clean(r, n):
    # the invariant the public constructor enforces, on a result built
    # without it
    assert r.dim == n
    assert all(c != 0 for c in r.terms.values())
    assert all(type(e) is tuple and len(e) == n for e in r.terms)
    assert r == LaurentPoly(n, dict(r.terms))


def test_divide_exact_round_trip_random(rng):
    for _ in range(100):
        n = rng.randint(1, 3)
        gamma = tuple(rng.randint(-3, 3) for _ in range(n))
        if all(x == 0 for x in gamma):
            continue
        q = random_ring_element(n, rng, terms=5, exp_bound=3)
        one_minus = LaurentPoly(n, {(0,) * n: 1, gamma: -1})
        one_plus = LaurentPoly(n, {(0,) * n: 1, gamma: 1})
        p = q * one_minus
        r = divide_exact(p, gamma)
        assert r * one_minus == p
        # (1 - x^g)(1 + x^g) cancels the middle terms; a + (-a) cancels all
        for got in (p, r, one_minus * one_plus, q + (-q), p + (-p),
                    p + q * LaurentPoly(n, {gamma: 1})):
            _assert_clean(got, n)
        assert (q + (-q)).is_zero()
        assert one_minus * one_plus == LaurentPoly(
            n, {(0,) * n: 1, tuple(2 * x for x in gamma): -1})


def test_iterated_division_order_independent(rng):
    # divisibility by pairwise independent binomials: any division order
    # succeeds with the same quotient
    betas = [(1, 0), (0, 1), (1, 1)]
    q = random_ring_element(2, rng, terms=4, exp_bound=2)
    p = q
    for b in betas:
        p = p * (ONE - LaurentPoly.monomial(b))
    results = set()
    for perm in itertools.permutations(betas):
        r = p
        for b in perm:
            r = divide_exact(r, b)
        results.add(r)
    assert results == {q}


def test_congruence_same_direction():
    assert congruent_mod_edge(X10, LaurentPoly.monomial((3, 0)), (1, 0))


def test_congruence_different_residue():
    assert not congruent_mod_edge(X10, X01, (1, 0))


def test_congruence_multiset():
    p = LaurentPoly(2, {(1, 1): 1, (0, 2): 1})
    q = LaurentPoly(2, {(-1, 1): 1, (2, 2): 1})
    assert congruent_mod_edge(p, q, (1, 0))


def test_congruence_agrees_with_division(rng):
    for _ in range(50):
        n = rng.randint(1, 3)
        gamma = tuple(rng.randint(-2, 2) for _ in range(n))
        if all(x == 0 for x in gamma):
            continue
        p = random_ring_element(n, rng, terms=4, exp_bound=2)
        q = random_ring_element(n, rng, terms=4, exp_bound=2)
        try:
            divide_exact(p - q, gamma)
            divisible = True
        except NotDivisible:
            divisible = False
        assert congruent_mod_edge(p, q, gamma) == divisible


def test_eval_poly_at_half():
    from fractions import Fraction
    assert abs(eval_numeric(ONE + X10, (Fraction(1, 2), 0))) < 1e-12


def test_eval_rational_pole():
    f = RationalChar(ONE, ((1, 0),))
    with pytest.raises(PoleAtPoint):
        eval_numeric(f, (0, 0))


def test_eval_rational_at_half():
    from fractions import Fraction
    f = RationalChar(ONE, ((1, 0),))
    assert abs(eval_numeric(f, (Fraction(1, 2), 0)) - 0.5) < 1e-12


def test_eval_does_not_depend_on_term_insertion_order():
    # a float sum depends on its order; summing in exponent order makes the
    # value a function of the polynomial alone
    exps = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    items = [(e, 1 + i % 3) for i, e in enumerate(exps)]
    forward = LaurentPoly(2, dict(items))
    backward = LaurentPoly(2, dict(reversed(items)))
    assert list(forward.terms) != list(backward.terms)
    assert forward == backward
    for f, g in [(forward, backward),
                 (RationalChar(forward, ((1, 1),)),
                  RationalChar(backward, ((1, 1),)))]:
        a = eval_numeric(f, (Fraction(1, 7), Fraction(2, 5)))
        b = eval_numeric(g, (Fraction(1, 7), Fraction(2, 5)))
        assert (a.real, a.imag) == (b.real, b.imag)


def test_eval_is_ring_homomorphism(rng):
    for _ in range(20):
        a = random_ring_element(2, rng, terms=4, exp_bound=3)
        b = random_ring_element(2, rng, terms=4, exp_bound=3)
        g = random_pole_free_point([], 2, rng)
        lhs = eval_numeric(a * b, g)
        rhs = eval_numeric(a, g) * eval_numeric(b, g)
        assert abs(lhs - rhs) < 1e-10


def _fraction_phase_eval(f, point):
    """Reference evaluation with every phase summed as a Fraction and
    rounded once by float(Fraction), the terms added in sorted exponent
    order as eval_numeric adds them."""
    def unit(exp):
        phase = sum(Fraction(x) * t for x, t in zip(exp, point))
        return cmath.exp(2j * cmath.pi * float(phase))

    if isinstance(f, RationalChar):
        den = 1.0 + 0j
        for g in f.denominator:
            factor = 1 - unit(g)
            if abs(factor) <= 1e-9:
                raise PoleAtPoint(g)
            den *= factor
        return _fraction_phase_eval(f.numerator, point) / den
    total = 0j
    for e in sorted(f.terms):
        total += f.terms[e] * unit(e)
    return total


@st.composite
def characters_and_points(draw):
    dim = draw(st.integers(1, 4))
    coord = st.integers(-50, 50) | st.integers(-10**7, 10**7)
    exps = st.tuples(*[coord] * dim)
    terms = draw(st.dictionaries(exps, st.integers(-5, 5), max_size=6))
    den = draw(st.lists(exps.filter(any), max_size=3))
    point = tuple(draw(st.just(0) | st.builds(
        lambda q, a: Fraction(a % q, q), st.integers(1, 10**6),
        st.integers(0, 10**6))) for _ in range(dim))
    poly = LaurentPoly(dim, terms)
    return (RationalChar(poly, tuple(den)) if den else poly), point


@settings(max_examples=400, deadline=None)
@given(characters_and_points())
def test_eval_numeric_matches_fraction_phases_exactly(case):
    f, point = case
    try:
        want = _fraction_phase_eval(f, point)
    except PoleAtPoint:
        with pytest.raises(PoleAtPoint):
            eval_numeric(f, point)
        return
    got = eval_numeric(f, point)
    assert (got.real, got.imag) == (want.real, want.imag)


@st.composite
def polys_and_prime_points(draw):
    """Two Laurent polynomials of one dimension, with negative exponents
    and coefficients past p, and a point of (F_p^*)^n, p = 2^61 - 1."""
    dim = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(-40, 40)] * dim)
    coeffs = st.integers(-5, 5) | st.integers(-2**70, 2**70)
    a, b = (LaurentPoly(dim, draw(st.dictionaries(exps, coeffs, max_size=6)))
            for _ in range(2))
    point = tuple(draw(st.integers(1, PRIME - 1)) for _ in range(dim))
    return a, b, point


@settings(max_examples=300, deadline=None)
@given(polys_and_prime_points())
def test_eval_mod_preserves_sums_and_products(case):
    a, b, point = case
    va, vb = eval_mod(a, point), eval_mod(b, point)
    assert 0 <= va < PRIME and 0 <= vb < PRIME
    assert eval_mod(a + b, point) == (va + vb) % PRIME
    assert eval_mod(a * b, point) == va * vb % PRIME
    assert eval_mod(a - a, point) == 0
    assert eval_mod(LaurentPoly.one(a.dim), point) == 1


def test_eval_mod_takes_inverses_for_negative_exponents():
    # in F_7, 2^-1 = 4 and 3^-2 = 5^2 = 4
    assert eval_mod(LaurentPoly.monomial((-1, 0)), (2, 3), 7) == 4
    assert eval_mod(LaurentPoly.monomial((-1, -2)), (2, 3), 7) == 16 % 7
    assert eval_mod(LaurentPoly(2, {(1, 0): 3, (0, -1): -1}), (2, 3), 7) \
        == (3 * 2 - 5) % 7


def test_eval_mod_refuses_a_point_off_the_torus():
    with pytest.raises(DimMismatch):
        eval_mod(ONE, (1, 2, 3))
    for point in [(0, 1), (1, PRIME), (-PRIME, 5)]:
        with pytest.raises(ValueError):
            eval_mod(X10 + X01, point)
