import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gkmchar.lattice import complete_to_basis, dot, primitive_part, vadd
from gkmchar.laurent import (DimMismatch, LaurentPoly, RationalChar,
                             eval_numeric)
from gkmchar.characters import NotGeneric
from gkmchar.residues import fiber_average_numeric, res_T, to_z_form
from gkmchar.randomgen import (random_class, random_generic_xi,
                               random_pole_free_point, random_vertex_star,
                               standard_fixtures)


def _simple(num_exp, den):
    return RationalChar(LaurentPoly.monomial(num_exp), tuple(den))


def test_to_z_form_basic():
    f = _simple((-1, 0), [(1, 0)])
    z = to_z_form(f, (1, 0))
    assert z.numer == ((1, (0,), -1),)
    assert z.factors == (((0,), 1),)


def test_to_z_form_rejects_zero_pairing():
    f = _simple((0, 0), [(0, 1)])
    with pytest.raises(NotGeneric):
        to_z_form(f, (1, 0))


def test_to_z_form_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        to_z_form(_simple((0, 0), [(1, 0)]), (1, 0, 0))


def test_to_z_form_annihilator_monomial():
    f = RationalChar(LaurentPoly.monomial((0, 5)), ())
    z = to_z_form(f, (1, 0))
    ((c, beta, k),) = z.numer
    assert c == 1 and k == 0
    assert z.factors == ()


def test_res_half_cp1_p_summand():
    rv = res_T(_simple((-1, 0), [(1, 0)]), (1, 0))
    assert rv.minus == LaurentPoly.one(2)
    assert rv.plus.is_zero()


def test_res_half_cp1_q_summand():
    rv = res_T(_simple((1, 0), [(-1, 0)]), (1, 0))
    assert rv.minus.is_zero()
    assert rv.plus == LaurentPoly.one(2)


def test_res_half_pure_monomial_vanishes():
    rv = res_T(RationalChar(LaurentPoly.monomial((3, 1)), ()), (1, 0))
    assert rv.minus.is_zero()
    assert rv.plus.is_zero()


def test_res_T_cp1_summands():
    p = res_T(_simple((-1, 0), [(1, 0)]), (1, 0))
    assert p.total == LaurentPoly.constant(2, -1)
    q = res_T(_simple((1, 0), [(-1, 0)]), (1, 0))
    assert q.total == LaurentPoly.one(2)


def test_res_T_polynomial_input_is_zero():
    f = RationalChar(LaurentPoly(2, {(1, 2): 3, (0, 1): -1}), ())
    rv = res_T(f, (1, 0))
    # both contours hold the level-zero part
    assert rv.plus == rv.minus == LaurentPoly(2, {(0, 1): -1})
    assert rv.total.is_zero()


def test_res_T_lands_in_annihilator(rng):
    for _ in range(20):
        star, xi = random_vertex_star(rng.choice([2, 3]), rng.randint(1, 3),
                                      rng)
        rv = res_T(star, xi)
        for e in rv.total.terms:
            assert dot(e, xi) == 0


def test_res_T_sign_flips_with_direction(rng):
    for _ in range(10):
        star, xi = random_vertex_star(2, rng.randint(1, 3), rng)
        a = res_T(star, xi).total
        b = res_T(star, tuple(-x for x in xi)).total
        assert a == -b


def test_res_T_with_passed_basis_matches_own_basis(rng):
    for _ in range(100):
        star, xi = random_vertex_star(rng.choice([2, 3, 4]),
                                      rng.randint(1, 4), rng)
        basis = complete_to_basis(xi)
        assert to_z_form(star, xi, basis=basis) == to_z_form(star, xi)
        assert res_T(star, xi, basis=basis) == res_T(star, xi)


def test_res_T_rejects_basis_of_another_direction(rng):
    for _ in range(20):
        star, xi = random_vertex_star(rng.choice([2, 3]), rng.randint(1, 3),
                                      rng)
        e0 = (1,) + (0,) * (len(xi) - 1)
        for other in {tuple(-x for x in xi), e0} - {xi}:
            basis = complete_to_basis(other)
            with pytest.raises(ValueError, match="basis completes"):
                res_T(star, xi, basis=basis)
            with pytest.raises(ValueError, match="basis completes"):
                to_z_form(star, xi, basis=basis)


def test_res_T_linear_in_numerator(rng):
    den = ((1, 0), (1, 1))
    f = RationalChar(LaurentPoly(2, {(0, 1): 2, (1, -1): -3}), den)
    parts = LaurentPoly.zero(2)
    for e, c in f.numerator.terms.items():
        parts = parts + res_T(RationalChar(LaurentPoly.monomial(e, c), den),
                              (1, 0)).total
    assert parts == res_T(f, (1, 0)).total


def test_vanishing_laws_per_monomial(rng):
    # a random vertex star's numerator is one monomial x^mu, of z-degree
    # k = mu . xi; its factors have z-degrees w . xi
    for _ in range(100):
        star, xi = random_vertex_star(rng.choice([2, 3]), rng.randint(1, 3),
                                      rng)
        (mu,) = star.numerator.terms
        k = dot(mu, xi)
        degrees = [dot(w, xi) for w in star.denominator]
        neg_sum = sum(-s for s in degrees if s < 0)
        pos_sum = sum(s for s in degrees if s > 0)
        has_neg = any(s < 0 for s in degrees)
        has_pos = any(s > 0 for s in degrees)
        rv = res_T(star, xi)
        if k > -neg_sum:
            assert rv.minus.is_zero()
        if k < pos_sum:
            assert rv.plus.is_zero()
        if k > 0:
            assert rv.minus.is_zero()
        if k < 0:
            assert rv.plus.is_zero()
        if k == 0 and has_neg:
            assert rv.minus.is_zero()
        if k == 0 and has_pos:
            assert rv.plus.is_zero()


def test_total_residue_vanishes_on_fixtures(rng):
    for name, (action, sym) in standard_fixtures().items():
        f = random_class(action, sym, rng)
        xi = random_generic_xi(action, rng)
        total = LaurentPoly.zero(action.n)
        for v in action.vertices:
            term = RationalChar(f[v], action.out_weights[v])
            total = total + res_T(term, xi).total
        assert total.is_zero(), name


def test_fiber_average_of_constant(rng):
    f = RationalChar(LaurentPoly.one(2), ())
    g = random_pole_free_point([], 2, rng)
    assert abs(fiber_average_numeric(f, (3, 1), (1, 0), g) - 1) < 1e-10


def test_fiber_average_kills_nondivisible_pairing(rng):
    alpha, xi = (2, 0), (1, 0)  # order 2 fiber
    f = RationalChar(LaurentPoly.monomial((1, 3)), ())  # pairing 1, odd
    g = random_pole_free_point([], 2, rng)
    assert abs(fiber_average_numeric(f, alpha, xi, g)) < 1e-10


def test_fiber_average_zero_pairing_rejected(rng):
    f = RationalChar(LaurentPoly.one(2), ())
    g = random_pole_free_point([], 2, rng)
    with pytest.raises(NotGeneric):
        fiber_average_numeric(f, (0, 1), (1, 0), g)


def test_fiber_average_refuses_inputs_of_the_wrong_length():
    # a 3-point would otherwise read as its first two coordinates
    f = RationalChar(LaurentPoly.monomial((1, 0)), ((0, 1),))
    point = (Fraction(1, 3), Fraction(1, 5))
    for args in [((1, 0), (1, 2), point + (Fraction(1, 7),)),
                 ((1, 0), (1, 2), point[:1]),
                 ((1, 0, 0), (1, 2), point), ((1, 0), (1,), point)]:
        with pytest.raises(DimMismatch):
            fiber_average_numeric(f, *args)


def test_residue_equals_signed_fiber_average_sum(rng):
    for _ in range(10):
        star, xi = random_vertex_star(2, rng.randint(2, 3), rng)
        rv = res_T(star, xi)
        g = random_pole_free_point([star], 2, rng)
        lhs = eval_numeric(rv.total, g)
        rhs = 0j
        for j, w in enumerate(star.denominator):
            rest = tuple(u for i, u in enumerate(star.denominator) if i != j)
            hat = RationalChar(star.numerator, rest)
            sign = 1 if dot(w, xi) < 0 else -1
            rhs += sign * fiber_average_numeric(hat, w, xi, g)
        assert abs(lhs - rhs) < 1e-6


@st.composite
def wide_vertex_stars(draw):
    """A random vertex star (n 2..4, 1..4 denominator weights, a direction
    generic for them, so the z-degrees k_i mix signs) whose numerator is
    widened to several monomials, so that many leaves have z-degree zero."""
    n = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    star, xi = random_vertex_star(n, draw(st.integers(1, 4)), rng,
                                  exp_bound=draw(st.integers(1, 3)))
    exps = draw(st.lists(st.tuples(*[st.integers(-6, 6)] * n),
                         min_size=1, max_size=4))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(exps),
                           max_size=len(exps)))
    numer = LaurentPoly(n, dict(zip(exps, coeffs)))
    return RationalChar(numer, star.denominator), xi


def _polarized_slice(star, xi):
    """The xi-level-0 terms of the expansion of star with every weight
    turned to pair positively with xi, in the original lattice: no basis,
    no z-form.  1/(1 - x^w) with w . xi < 0 is -x^-w / (1 - x^-w); every
    series exponent runs over its whole range while the level stays at
    most 0, and a term counts when its level is exactly 0."""
    sign, prefix, steps = 1, (0,) * star.dim, []
    for w in star.denominator:
        if dot(w, xi) < 0:
            sign, w = -sign, tuple(-x for x in w)
            prefix = vadd(prefix, w)
        steps.append(w)
    out = {}

    def walk(idx, exp, c):
        while dot(exp, xi) <= 0:
            if idx == len(steps):
                if dot(exp, xi) == 0:
                    out[exp] = out.get(exp, 0) + c
                return
            walk(idx + 1, exp, c)
            exp = vadd(exp, steps[idx])

    for mu, c in star.numerator.terms.items():
        walk(0, vadd(mu, prefix), sign * c)
    return LaurentPoly(star.dim, out)


@settings(max_examples=300, deadline=None)
@given(wide_vertex_stars())
def test_res_T_matches_basis_free_polarized_slices(case):
    """minus and plus are the level-0 slices of the expansions polarized
    by xi and by -xi, enumerated in the original lattice without a
    z-form."""
    star, xi = case
    rv = res_T(star, xi)
    assert rv.minus == _polarized_slice(star, xi)
    assert rv.plus == _polarized_slice(star, tuple(-x for x in xi))
    assert rv.total == rv.plus - rv.minus


def _pairwise_vertex_star(n, d, rng, exp_bound=2):
    """random_vertex_star as drawn with the pairwise 2 x 2 minor test for
    parallel weights."""
    def proportional(a, b):
        return all(a[i] * b[j] == a[j] * b[i]
                   for i, j in combinations(range(len(a)), 2))

    while True:
        weights = []
        while len(weights) < d:
            w = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(n))
            if all(x == 0 for x in w):
                continue
            if any(proportional(w, u) for u in weights):
                continue
            weights.append(w)
        mu = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(n))
        star = RationalChar(LaurentPoly.monomial(mu), tuple(weights))
        xi = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(x != 0 for x in xi):
            xi, _ = primitive_part(xi)
            if all(dot(w, xi) != 0 for w in weights):
                return star, xi


def test_vertex_star_draws_as_the_pairwise_test():
    for seed in range(200):
        n, d = 2 + seed % 2, 2 + seed % 3
        rng, ref = random.Random(seed), random.Random(seed)
        star, xi = random_vertex_star(n, d, rng)
        want, want_xi = _pairwise_vertex_star(n, d, ref)
        assert (star.numerator, star.denominator, xi) == \
            (want.numerator, want.denominator, want_xi)
        assert rng.random() == ref.random()
