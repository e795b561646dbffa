import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkmchar.lattice import dot, primitive_part
from gkmchar.laurent import LaurentPoly, eval_numeric
from gkmchar.graphs import KClass, constant_class, gen_cp1_in_plane, \
    gen_product, gen_projective, symplectic_class
from gkmchar.characters import (CharacterResult, NotGeneric,
                                character_expand,
                                character_oracle, hull_report, hull_vertices,
                                in_convex_hull, kostant_count,
                                localization_terms, multiplicity, polarize,
                                support_bound)
from gkmchar.randomgen import (random_class, random_generic_xi,
                               random_pole_free_point, standard_fixtures)


@pytest.fixture(scope="module")
def cp1():
    return gen_cp1_in_plane()


def test_polarize_cp1(cp1):
    action, _ = cp1
    pol = polarize(action, (1, 0))
    assert pol.sigma["p"] == 0
    assert pol.sigma["q"] == 1
    assert pol.two_delta["p"] == (1, 0)
    assert pol.two_delta_sharp["p"] == (1, 0)
    assert pol.two_delta["q"] == (1, 0)
    assert pol.two_delta_sharp["q"] == (-1, 0)
    assert pol.shift("p") == (0, 0)
    assert pol.shift("q") == (-1, 0)


def test_polarize_rejects_degenerate_direction(cp1):
    action, _ = cp1
    with pytest.raises(NotGeneric):
        polarize(action, (0, 1))


def test_polarize_projective2():
    action, _ = gen_projective(2)
    pol = polarize(action, (1, 2))
    pairings = sorted(abs(dot(action.axial[e.eid], (1, 2)))
                      for e in action.geometric_edges())
    assert pairings == [1, 1, 2]
    for v in action.vertices:
        assert len(pol.pos_edges[v]) == action.d


def test_kostant_basis_case():
    assert kostant_count([(1, 0), (0, 1)], (2, 3)) == 1


def test_kostant_two_decompositions():
    assert kostant_count([(1, 0), (0, 1), (1, 1)], (1, 1)) == 2


def test_kostant_empty_sum():
    assert kostant_count([(1, 0), (0, 1), (1, 1)], (0, 0)) == 1
    assert kostant_count([(2, 1)], (0, 0)) == 1


def test_multiplicity_cp1(cp1):
    action, sym = cp1
    pol = polarize(action, (1, 0))
    assert multiplicity(sym, pol, (0, 0)) == 1
    assert multiplicity(sym, pol, (2, 0)) == 0
    assert multiplicity(sym, pol, (1, 0)) == 1
    assert multiplicity(sym, pol, (-1, 0)) == 1


def test_character_cp1_both_routes(cp1):
    action, sym = cp1
    expected = LaurentPoly(2, {(-1, 0): 1, (0, 0): 1, (1, 0): 1})
    for xi in [(1, 0), (-1, 0), (2, 1), (1, -3)]:
        assert character_expand(sym.base, polarize(action, xi)).poly == expected
    assert character_oracle(sym.base) == expected


def test_character_zero_class(cp1):
    action, _ = cp1
    zero = KClass(action, {v: LaurentPoly.zero(2) for v in action.vertices})
    assert character_expand(zero, polarize(action, (1, 0))).poly.is_zero()
    assert character_oracle(zero).is_zero()


def test_character_projective2_default():
    action, sym = gen_projective(2)
    expected = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert character_expand(sym.base, polarize(action, (1, 2))).poly == expected
    assert character_oracle(sym.base) == expected


def test_character_trivial_class_cp1(cp1):
    action, _ = cp1
    assert character_oracle(constant_class(action, 1)) == LaurentPoly.one(2)


def test_character_xi_independence(rng):
    for name, (action, sym) in standard_fixtures().items():
        f = random_class(action, sym, rng)
        polys = {character_expand(f, polarize(action,
                                              random_generic_xi(action, rng))).poly
                 for _ in range(5)}
        assert len(polys) == 1
        assert character_oracle(f) == polys.pop()


def test_character_module_morphism(rng):
    action, sym = gen_projective(2)
    f = random_class(action, sym, rng)
    g = random_class(action, sym, rng)
    pol = polarize(action, (1, 2))
    chi = lambda h: character_expand(h, pol).poly
    assert chi(f + g) == chi(f) + chi(g)
    assert chi(constant_class(action, 3) * f) == 3 * chi(f)


# The term budgets below are far under the expansion the xi cut alone needs
# at these steep directions (over 500 000 terms on projective 3-space at
# (1,1000,1000000)); the dual-cone cuts keep each vertex within its share
# of the answer.
@pytest.mark.parametrize("xi", [(1, 50, 2500), (1, 1000, 1000000)])
def test_steep_expansion_projective3_within_small_budget(xi):
    action, sym = gen_projective(3)
    got = character_expand(sym.base, polarize(action, xi), term_budget=64)
    assert got.poly == character_oracle(sym.base)


def test_steep_expansion_cube_product_within_small_budget():
    p1 = gen_projective(1)
    action, sym = p1
    for _ in range(5):
        action, sym = gen_product(action, sym, *p1)
    pol = polarize(action, (1, 3, 9, 27, 81, 243))
    got = character_expand(sym.base, pol, term_budget=256)
    assert got.poly == character_oracle(sym.base)


def test_steep_expansion_below_full_rank_within_small_budget(cp1):
    # one positive weight per vertex in a 2-torus (d < n): the partial dual
    # basis cuts each series, where xi alone allowed about 2 * 10^6 terms
    action, _ = cp1
    f = LaurentPoly(2, {(0, 1): 1, (0, -1): 1})
    kclass = KClass(action, {"p": f, "q": f})
    for xi in [(1, 1000000), (1, -1000000), (-1, 1000000)]:
        got = character_expand(kclass, polarize(action, xi), term_budget=8)
        assert got.poly == f


@st.composite
def class_and_directions(draw, fixtures):
    """A fixture, a random class on it, a generic primitive xi with entries
    up to 10^4 and a direction eta that is often a coordinate axis, so that
    it pairs to zero with some edges."""
    name = draw(st.sampled_from(sorted(fixtures)))
    action, sym = fixtures[name]
    f = random_class(action, sym, random.Random(draw(st.integers(0, 2**32))))
    xi = draw(st.tuples(*[st.integers(-10**4, 10**4)] * action.n))
    assume(any(xi))
    xi, _ = primitive_part(xi)
    assume(all(dot(action.axial[e.eid], xi) != 0 for e in action.edges))
    axes = [tuple(s * int(i == j) for j in range(action.n))
            for i in range(action.n) for s in (1, -1)]
    eta = draw(st.sampled_from(axes)
               | st.tuples(*[st.integers(-3, 3)] * action.n))
    return f, xi, eta


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_expansion_matches_oracle_and_support_bound_holds(fixtures, data):
    f, xi, eta = data.draw(class_and_directions(fixtures))
    want = character_oracle(f)
    assert character_expand(f, polarize(f.action, xi)).poly == want
    bound = support_bound(f, eta)
    assert all(dot(mu, eta) <= bound for mu in want.terms)


def test_numeric_localization(rng):
    for name, (action, sym) in standard_fixtures().items():
        f = random_class(action, sym, rng)
        chi = character_oracle(f)
        terms = list(localization_terms(f).values())
        for _ in range(5):
            g = random_pole_free_point(terms, action.n, rng)
            raw = sum(eval_numeric(t, g) for t in terms)
            assert abs(raw - eval_numeric(chi, g)) < 1e-6


def test_hull_membership_exact():
    tri = [(0, 0), (1, 0), (0, 1)]
    assert in_convex_hull((0, 0), tri)
    assert in_convex_hull((0, 1), tri)
    assert not in_convex_hull((1, 1), tri)
    assert not in_convex_hull((-1, 0), tri)


def test_hull_vertices_square():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    assert sorted(hull_vertices(pts)) == [(0, 0), (0, 2), (2, 0), (2, 2)]


def _enumerated_hull_membership(point, points):
    """Reference membership test: by Caratheodory, point is in the hull iff
    it is a convex combination of some at most n+1 of the points, so try
    every such subset and solve it exactly.  Exponential in the number of
    points; only used for n <= 3."""
    point = tuple(point)
    pts = [tuple(p) for p in points]
    if point in pts:
        return True
    n = len(point)
    for size in range(1, min(len(pts), n + 1) + 1):
        for subset in combinations(pts, size):
            if _convex_combination(point, subset):
                return True
    return False


def _convex_combination(point, subset):
    """Solve sum(l_i * p_i) = point, sum(l_i) = 1, l_i >= 0 exactly."""
    n = len(point)
    m = len(subset)
    a = [[Fraction(subset[j][i]) for j in range(m)] for i in range(n)]
    a.append([Fraction(1)] * m)
    b = [Fraction(point[i]) for i in range(n)] + [Fraction(1)]
    sol = _solve_exact(a, b, m)
    return sol is not None and all(x >= 0 for x in sol)


def _solve_exact(a, b, m):
    """Gaussian elimination for a possibly overdetermined rational system;
    free variables are set to zero and the candidate is checked directly."""
    rows = [row[:] + [rhs] for row, rhs in zip(a, b)]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if any(rows[i][m] != 0 for i in range(r, nrows)):
        return None
    sol = [Fraction(0)] * m
    for i, c in enumerate(pivots):
        sol[c] = rows[i][m]
    for row, rhs in zip(a, b):
        if sum(x * s for x, s in zip(row, sol)) != rhs:
            return None
    return sol


COORD = st.integers(-3, 3)


@st.composite
def hull_queries(draw):
    """A query point and 1-7 points in [-3, 3]^n, n <= 3, often with
    duplicates, often on a common line or plane with the query on it too."""
    n = draw(st.integers(1, 3))
    raw = draw(st.lists(st.tuples(*[COORD] * n), min_size=1, max_size=7))
    raw += raw[:draw(st.integers(0, 7 - len(raw)))]
    query = draw(st.tuples(*[COORD] * n))
    # every coordinate after the first `free` ones is a constant, a copy of
    # the first coordinate or its negation: a line (free = 1) or a plane
    free = draw(st.integers(1, n))
    rules = draw(st.lists(st.sampled_from(("const", "copy", "neg")),
                          min_size=n - free, max_size=n - free))
    consts = draw(st.lists(COORD, min_size=n - free, max_size=n - free))

    def flatten(p):
        tail = [c if rule == "const" else p[0] if rule == "copy" else -p[0]
                for rule, c in zip(rules, consts)]
        return tuple(p[:free]) + tuple(tail)

    points = [flatten(p) for p in raw]
    if draw(st.booleans()):
        query = flatten(query)
    return query, points


@settings(max_examples=400, deadline=None)
@given(hull_queries())
def test_hull_membership_matches_enumeration(case):
    query, points = case
    assert in_convex_hull(query, points) == \
        _enumerated_hull_membership(query, points)


@pytest.mark.parametrize("m", [4, 5])
def test_hull_report_cube_products(m):
    # subset enumeration would need C(2^m, m+1) exact solves per query here
    action, sym = gen_projective(1)
    p1 = (action, sym)
    for _ in range(m - 1):
        action, sym = gen_product(action, sym, *p1)
    corners = list(sym.alphas.values())
    assert set(corners) == set(product((0, 1), repeat=m))
    char = CharacterResult(LaurentPoly(m, {c: 1 for c in corners}))
    report = hull_report(sym, char)
    assert report.ok
    assert list(report.hull_vertices) == corners


def test_hull_report_big_cube_product():
    # (P1)^3 scaled by 10^6: the integer tableau carries pivots of order
    # 10^6 and products of them, each divided exactly by the previous pivot
    big = 10**6
    action, sym = gen_projective(1)
    p1 = (action, sym)
    for _ in range(2):
        action, sym = gen_product(action, sym, *p1)
    sym = symplectic_class(action, {v: tuple(big * x for x in a)
                                    for v, a in sym.alphas.items()})
    corners = list(sym.alphas.values())
    inside = [(big // 2,) * 3, (1, big - 1, 7), (big, 0, big - 3)]
    outside = (big + 1, 0, 0)
    char = CharacterResult(LaurentPoly(3, {mu: 1 for mu in
                                           corners + inside + [outside]}))
    report = hull_report(sym, char)
    assert len(corners) == 8
    assert list(report.hull_vertices) == corners
    assert report.support_violations == (outside,)
    assert not report.coeff_violations


def test_hull_report_cp1(cp1):
    action, sym = cp1
    char = character_expand(sym.base, polarize(action, (1, 0)))
    report = hull_report(sym, char)
    assert report.ok
    assert sorted(report.hull_vertices) == [(-1, 0), (1, 0)]


def test_hull_report_projective2():
    action, sym = gen_projective(2)
    char = character_expand(sym.base, polarize(action, (1, 2)))
    report = hull_report(sym, char)
    assert report.ok
    assert sorted(report.hull_vertices) == [(0, 0), (0, 1), (1, 0)]
    # every hull vertex carries coefficient one
    for v in report.hull_vertices:
        assert char.poly.coeff(v) == 1


def test_support_outside_hull_has_zero_coefficient(cp1):
    action, sym = cp1
    char = character_expand(sym.base, polarize(action, (1, 0)))
    assert char.poly.coeff((2, 0)) == 0
    assert char.poly.coeff((0, 1)) == 0


def test_multiplicity_matches_coefficients_on_box(rng):
    action, sym = gen_projective(2)
    xi = (1, 2)
    pol = polarize(action, xi)
    char = character_expand(sym.base, pol)
    for a in range(-2, 4):
        for b in range(-2, 4):
            assert multiplicity(sym, pol, (a, b)) == char.poly.coeff((a, b))
