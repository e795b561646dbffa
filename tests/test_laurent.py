import cmath
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmchar.laurent import (LaurentPoly, NotDivisible, PoleAtPoint,
                             RationalChar, ZeroWeight, congruent_mod_edge,
                             divide_exact, eval_numeric,
                             pushforward_quotient, render_poly, ring_arith)
from gkmchar.randomgen import random_ring_element, random_torus_point

X10 = LaurentPoly.monomial((1, 0))
X01 = LaurentPoly.monomial((0, 1))
ONE = LaurentPoly.one(2)


def test_add_cancels_to_monomial():
    assert ring_arith(ONE + X10, LaurentPoly.constant(2, -1), "add") == X10


def test_difference_of_squares():
    prod = ring_arith(ONE - X10, ONE + X10, "mul")
    assert prod == ONE - LaurentPoly.monomial((2, 0))


def test_multiplicative_identity(rng):
    for _ in range(20):
        a = random_ring_element(2, rng, terms=5, exp_bound=3)
        assert ring_arith(a, ONE, "mul") == a


def test_render_canonical_form():
    p = LaurentPoly(2, {(0, 1): -1, (1, -2): 2})
    assert render_poly(p) == "-1*x^(0,1) + 2*x^(1,-2)"
    assert render_poly(ONE + X10) == "1 + 1*x^(1,0)"
    assert render_poly(LaurentPoly.zero(2)) == "0"


def test_divide_exact_geometric():
    p = ONE - LaurentPoly.monomial((2, 0))
    assert divide_exact(p, (1, 0)) == ONE + X10


def test_divide_exact_unit_fails():
    with pytest.raises(NotDivisible):
        divide_exact(ONE, (1, 0))


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


def test_divide_exact_round_trip_random(rng):
    for _ in range(100):
        n = rng.randint(1, 3)
        gamma = tuple(rng.randint(-3, 3) for _ in range(n))
        if all(x == 0 for x in gamma):
            continue
        q = random_ring_element(n, rng, terms=5, exp_bound=3)
        one_minus = LaurentPoly(n, {(0,) * n: 1, gamma: -1})
        p = q * one_minus
        assert divide_exact(p, gamma) * one_minus == p


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


def test_pushforward_trivial_group(rng):
    p = random_ring_element(2, rng, terms=5, exp_bound=3)
    assert pushforward_quotient(p, (1, 1), 1) == p


def test_pushforward_kills_odd_pairing():
    p = X10 + X01
    assert pushforward_quotient(p, (0, 1), 2) == X10


def test_pushforward_keeps_divisible_pairing():
    p = LaurentPoly.monomial((2, 4), 3)
    assert pushforward_quotient(p, (1, 1), 3) == p


def test_pushforward_module_property(rng):
    xi, m = (1, 2), 3
    for _ in range(20):
        p = random_ring_element(2, rng, terms=5, exp_bound=3)
        q = random_ring_element(2, rng, terms=5, exp_bound=3)
        q = pushforward_quotient(q, xi, m)  # supported on the invariant set
        assert pushforward_quotient(p * q, xi, m) == \
            pushforward_quotient(p, xi, m) * q


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


def test_eval_is_ring_homomorphism(rng):
    for _ in range(20):
        a = random_ring_element(2, rng, terms=4, exp_bound=3)
        b = random_ring_element(2, rng, terms=4, exp_bound=3)
        g = random_torus_point(2, rng)
        lhs = eval_numeric(a * b, g)
        rhs = eval_numeric(a, g) * eval_numeric(b, g)
        assert abs(lhs - rhs) < 1e-10


def _fraction_phase_eval(f, point):
    """Reference evaluation with every phase summed as a Fraction and
    rounded once by float(Fraction)."""
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
    for e, c in f.terms.items():
        total += c * unit(e)
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
