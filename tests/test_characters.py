import functools
import math
import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkmchar import characters, graphs, laurent, lattice
from gkmchar.lattice import NotPrimitive, dot, primitive_part, vadd, vneg, \
    vscale, vsub
from gkmchar.laurent import LaurentPoly, RationalChar, eval_numeric
from gkmchar.graphs import Edge, GkmAction, KClass, SymplecticClass, \
    constant_class, gen_cp1_in_plane, gen_product, gen_projective, \
    gen_weyl_orbit, positive_roots, symplectic_class, validate_action
from gkmchar.characters import (CharacterResult, HullReport,
                                InternalDivisionFailure, NotGeneric,
                                TruncationOverflow, character_expand,
                                character_oracle, hull_report, hull_vertices,
                                in_convex_hull, kostant_count, multiplicity,
                                polarize)
from gkmchar.randomgen import (flag_fixtures, random_class,
                               random_generic_xi, random_pole_free_point,
                               random_restriction,
                               random_symplectic, standard_fixtures)
from gkmchar.reduction import moment_map, qr_check


def _support_bound(f: KClass, eta) -> int | None:
    """B(eta): every weight mu in the support of the character of f has
    eta . mu <= B(eta); None when f is zero.

    B(eta) = max over vertices v with f_v != 0 of
    max_{mu in f_v} eta . mu - sum over the out-weights u at v of
    max(eta . u, 0).  For generic eta this is the largest eta-pairing in
    the expansion polarized by -eta, which sums to the same character;
    for any eta it is the limit of that bound at eta + xi/N, N -> infinity,
    xi generic.

    character_expand computes the same bound from the polarized weights
    and the shifted values x^prefix * f_v: turning out-weights u into w,
    with the turned ones summing to prefix, sum_u max(eta . u, 0) =
    sum_w max(eta . w, 0) - eta . prefix, and the shift by prefix adds
    eta . prefix to every term's pairing.
    """
    action = f.action
    bounds = [max(dot(mu, eta) for mu in f[v].terms)
              - sum(max(dot(u, eta), 0) for u in action.out_weights[v])
              for v in action.vertices if f[v].terms]
    return max(bounds, default=None)


def _slice(p: LaurentPoly, xi, level) -> LaurentPoly:
    """The terms of p at xi-level level."""
    return LaurentPoly(p.dim, {e: c for e, c in p.terms.items()
                               if dot(e, xi) == level})


@pytest.fixture(scope="module")
def cp1():
    return gen_cp1_in_plane()


def test_polarize_cp1(cp1):
    action, _ = cp1
    pol = polarize(action, (1, 0))
    assert pol.weights == {"p": ((1, 0),), "q": ((1, 0),)}
    assert pol.sign == {"p": 1, "q": -1}
    assert pol.prefix == {"p": (0, 0), "q": (1, 0)}


def test_polarize_rejects_degenerate_direction(cp1):
    action, _ = cp1
    with pytest.raises(NotGeneric):
        polarize(action, (0, 1))


def test_polarize_rejects_a_non_primitive_direction(cp1):
    action, _ = cp1
    with pytest.raises(NotPrimitive):
        polarize(action, (2, 2))


def test_kostant_count_refuses_a_weight_not_positive_on_xi():
    # one weight pairs negatively with xi, and one to zero; each target
    # lies below level 0, where the count would otherwise read 0
    for weights in ([(1, 0), (0, -1)], [(1, -1)]):
        with pytest.raises(NotGeneric):
            kostant_count(weights, (-1, -1), (1, 1))


def test_polarize_and_moment_map_name_the_first_zero_edge():
    # (1, 1) pairs to zero only with the edge P1 -> P2, which comes after
    # both edges leaving P0; the message names it in its stored orientation
    action, _ = gen_projective(2)
    want = "edge P1->P2 pairs to zero with (1, 1)"
    with pytest.raises(NotGeneric, match=re.escape(want)):
        polarize(action, (1, 1))
    with pytest.raises(NotGeneric, match=re.escape(want)):
        moment_map(action, (1, 1))


def test_polarize_projective2():
    action, _ = gen_projective(2)
    pol = polarize(action, (1, 2))
    pairings = sorted(abs(dot(e.weight, (1, 2)))
                      for e in action.geometric_edges())
    assert pairings == [1, 1, 2]
    for v in action.vertices:
        assert len(pol.weights[v]) == len(action.out_index[v])


@functools.cache
def _standard_and_flag_fixtures():
    return standard_fixtures(), flag_fixtures()


@st.composite
def polarized_inputs(draw, skip=()):
    """A standard or flag fixture not named in skip, or a random
    restriction of a standard fixture to a 2-torus, with its symplectic
    class, and a random generic primitive direction."""
    standard, flags = _standard_and_flag_fixtures()
    name = draw(st.sampled_from([name for name in sorted(standard)
                                 + sorted(flags) if name not in skip]))
    action, sym = standard.get(name) or flags[name]
    rng = random.Random(draw(st.integers(0, 10**6)))
    if name in standard and draw(st.booleans()):
        _, action, sym = random_restriction(action, sym, rng)
    return action, sym, random_generic_xi(action, rng, bound=20)


@settings(max_examples=60, deadline=None)
@given(polarized_inputs())
def test_polarize_turns_each_out_weight_toward_xi(case):
    action, _, xi = case
    pol = polarize(action, xi)
    assert pol.xi == xi
    for v in action.vertices:
        outs = action.out_weights[v]
        ws = pol.weights[v]
        assert len(ws) == len(outs)
        assert all(w in (u, vneg(u)) and dot(w, xi) > 0
                   for w, u in zip(ws, outs))
        turned = [w for w, u in zip(ws, outs) if w != u]
        assert pol.sign[v] == (-1) ** len(turned)
        assert pol.prefix[v] == tuple(map(sum, zip((0,) * action.n,
                                                   *turned)))


def test_kostant_basis_case():
    assert kostant_count([(1, 0), (0, 1)], (2, 3), (1, 1)) == 1


def test_kostant_two_decompositions():
    assert kostant_count([(1, 0), (0, 1), (1, 1)], (1, 1), (1, 1)) == 2


def test_kostant_empty_sum():
    assert kostant_count([(1, 0), (0, 1), (1, 1)], (0, 0), (1, 1)) == 1
    assert kostant_count([(2, 1)], (0, 0), (1, 0)) == 1


def test_kostant_refuses_a_target_of_the_wrong_length():
    # ([], (0, 0, 0), (1, 2)) would otherwise count the empty sum
    for weights, target in [([], (0, 0, 0)), ([(1, 0)], (0,))]:
        with pytest.raises(laurent.DimMismatch, match="xi"):
            kostant_count(weights, target, (1, 2))


def test_kostant_refuses_a_weight_of_the_wrong_length():
    # a short or a long weight would otherwise fail in the xi-pairing with
    # a plain ValueError from lattice.dot that names no weight
    for weights, bad in [([(1, 0, 0)], (1, 0, 0)),
                         ([(1, 0), (1,)], (1,))]:
        with pytest.raises(laurent.DimMismatch,
                           match=re.escape(f"weight {bad} has length")):
            kostant_count(weights, (1, 0), (1, 0))


def test_multiplicity_cp1(cp1):
    action, sym = cp1
    pol = polarize(action, (1, 0))
    assert multiplicity(sym, pol, (0, 0)) == 1
    assert multiplicity(sym, pol, (2, 0)) == 0
    assert multiplicity(sym, pol, (1, 0)) == 1
    assert multiplicity(sym, pol, (-1, 0)) == 1


def test_multiplicity_refuses_a_weight_of_the_wrong_length():
    # (0, 0, 5) would otherwise read as (0, 0), and (0,) fail inside dot
    action, sym = gen_projective(2)
    pol = polarize(action, (1, 2))
    for alpha in [(0, 0, 5), (0,)]:
        with pytest.raises(laurent.DimMismatch, match="expected 2"):
            multiplicity(sym, pol, alpha)


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


@pytest.mark.parametrize("xi", [(1, 2, 3, 4), (1, 3, 9, 27), (2, -1, 3, 1),
                                (1, 10, 100, 1000)])
def test_expansion_within_answer_size_budget(xi):
    # projective 4-space scaled by 6 has a 210-term character; cutting each
    # vertex by every dual direction that pairs nonnegatively with all its
    # weights keeps every partial expansion within that size
    action, sym = gen_projective(4)
    sym = symplectic_class(action, {v: tuple(6 * x for x in a)
                                    for v, a in sym.alphas.items()})
    want = character_oracle(sym.base)
    assert len(want) == 210
    got = character_expand(sym.base, polarize(action, xi), term_budget=210)
    assert got.poly == want


def test_division_numerator_size_counts_the_terms_multiplied_out():
    # projective n-space meets n of its C(n + 1, 2) weight classes at each
    # vertex, so each vertex multiplies in 2^C(n, 2) terms; a G/B graph
    # meets every class (a root) at every vertex and multiplies in none
    for n in range(1, 9):
        action, sym = gen_projective(n)
        assert characters.division_numerator_size(sym.base) == \
            (n + 1) << (n * (n - 1) // 2)
        assert characters.division_numerator_size(
            constant_class(action, 0)) == 0
    for name, (action, sym) in flag_fixtures().items():
        if name == "g2-quadric":    # a G/P
            continue
        f = sym.base * sym.base + constant_class(action, 1)
        assert characters.division_numerator_size(f) == \
            sum(len(f[v].terms) for v in action.vertices) != 0


@settings(max_examples=100, deadline=None)
@given(polarized_inputs(), st.data())
def test_identity_test_passes_the_character_and_fails_a_changed_one(case,
                                                                    data):
    action, sym, xi = case
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = random_class(action, sym, rng) if data.draw(st.booleans()) \
        else sym.base
    chi = character_expand(f, polarize(action, xi)).poly
    assert characters.localization_identity_test(f, chi, rng)
    # one coefficient changed: a term of chi, or a new one at xi
    exp = data.draw(st.sampled_from(sorted(chi.terms) + [xi]))
    delta = data.draw(st.integers(-3, 3).filter(bool))
    wrong = chi + LaurentPoly(action.n, {exp: delta})
    assert not characters.localization_identity_test(f, wrong, rng)


def test_identity_test_refuses_a_character_of_another_rank():
    action, sym = gen_projective(2)
    with pytest.raises(laurent.DimMismatch, match="rank 3, expected 2"):
        characters.localization_identity_test(
            sym.base, LaurentPoly.one(3), random.Random(0))


def test_oracle_division_reads_within_budget(monkeypatch):
    # projective 5-space scaled by 6 has a 462-term character.  The oracle
    # divides its 720-term numerator by all 15 direction binomials in one
    # divide_exact call.  The 5 own weights of each vertex give one
    # monomial, the sign and shift of its negated weights, so each vertex
    # makes one product, its monomial f_v times that one; the binomials of
    # the 10 weights absent at a vertex never go through LaurentPoly.__mul__.
    action, sym = gen_projective(5)
    sym = symplectic_class(action, {v: tuple(6 * x for x in a)
                                    for v, a in sym.alphas.items()})
    calls = []
    products = []

    def counting(p, *gammas):
        calls.append((len(p), len(gammas)))
        return laurent.divide_exact(p, *gammas)

    def multiplying(a, b, mul=LaurentPoly.__mul__):
        products.append((len(a), len(b)))
        return mul(a, b)

    monkeypatch.setattr(characters, "divide_exact", counting)
    monkeypatch.setattr(LaurentPoly, "__mul__", multiplying)
    got = character_oracle(sym.base)
    monkeypatch.undo()
    assert calls == [(720, 15)]
    assert products == [(1, 1)] * 6
    assert len(got) == 462
    assert got == character_expand(sym.base,
                                   polarize(action, (1, 2, 3, 4, 5))).poly


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
    assume(all(dot(e.weight, xi) != 0 for e in action.edges))
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
    bound = _support_bound(f, eta)
    assert all(dot(mu, eta) <= bound for mu in want.terms)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_level_slice_is_the_filtered_character(fixtures, data):
    name = data.draw(st.sampled_from(sorted(fixtures)))
    action, sym = fixtures[name]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        f = random_class(action, sym, rng)
    else:
        f = random_symplectic(action, sym, rng).base
    scale = data.draw(st.sampled_from([3, 30, 1000]))
    xi = data.draw(st.tuples(*[st.integers(-scale, scale)] * action.n))
    assume(any(xi))
    xi, _ = primitive_part(xi)
    assume(all(dot(e.weight, xi) != 0 for e in action.edges))
    pol = polarize(action, xi)
    full = character_expand(f, pol).poly
    top = _support_bound(f, xi) or 0
    levels = sorted({dot(mu, xi) for mu in full.terms}) or [0]
    level = data.draw(st.sampled_from(levels)               # in the support
                      | st.integers(levels[0] - 5, top + 5)  # around it
                      | st.integers(top + 1, top + 10**4))   # above B(xi)
    got = character_expand(f, pol, level=level).poly
    assert got == _slice(full, xi, level)


def test_level_slice_of_a_point():
    # no edges, so no series to solve on: the slice filters the value
    action = validate_action(2, ["p"], [])
    f = KClass(action, {"p": LaurentPoly(2, {(1, 0): 1, (0, 1): 2,
                                             (2, -1): 3})})
    pol = polarize(action, (1, 2))
    for level, want in [(0, {(2, -1): 3}), (1, {(1, 0): 1}),
                        (2, {(0, 1): 2}), (3, {})]:
        assert character_expand(f, pol, level=level).poly.terms == want


@pytest.mark.parametrize("xi", [(1, 2, 3, -5), (1, -3, 9, -4), (2, -1, 3, -3),
                                (1, 10, -100, 50), (3, -2, 5, -7)])
def test_level_zero_slice_fits_where_the_full_expansion_overflows(xi):
    # projective 4-space scaled by 6, moved so that the interior lattice
    # point (1,1,1,1) is the origin: the full expansion needs 210 terms at
    # these directions, its slice at xi-level zero at most 81
    action, sym = gen_projective(4)
    sym = symplectic_class(action, {v: tuple(6 * x - 1 for x in a)
                                    for v, a in sym.alphas.items()})
    pol = polarize(action, xi)
    with pytest.raises(TruncationOverflow):
        character_expand(sym.base, pol, term_budget=100)
    got = character_expand(sym.base, pol, term_budget=100, level=0).poly
    want = _slice(character_oracle(sym.base), xi, 0)
    assert got == want
    assert qr_check(sym, xi).ok


def test_numeric_localization(rng):
    for name, (action, sym) in standard_fixtures().items():
        f = random_class(action, sym, rng)
        chi = character_oracle(f)
        terms = [RationalChar(f[v], action.out_weights[v])
                 for v in action.vertices]
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
    # the centroid: eta = 0, so only the LP can answer
    assert in_convex_hull((1, 1), [(0, 0), (3, 0), (0, 3)])


def test_hull_vertices_square():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    assert sorted(hull_vertices(pts)) == [(0, 0), (0, 2), (2, 0), (2, 2)]


def test_hull_points_of_mixed_length_raise():
    # zip would read (5, 0, 1) as (5, 0) and (3,) as a 1-vector
    tri = [(0, 0), (2, 0), (0, 2)]
    for query in [(3,), (5, 0, 1), (1,)]:
        with pytest.raises(laurent.DimMismatch):
            in_convex_hull(query, tri)
    with pytest.raises(laurent.DimMismatch):
        in_convex_hull((0, 0), tri + [(1, 0, 0)])
    with pytest.raises(laurent.DimMismatch):
        hull_vertices([(0, 0), (1, 0, 0), (0, 1)])


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


# --- the hull certificates against an LP-only reference -------------------


def _lp_member(point, points):
    """Membership by the phase-1 LP alone, with no certificate or shortcut."""
    pts = list(dict.fromkeys(tuple(p) for p in points))
    if not pts:
        return False
    rows = [[p[i] for p in pts] + [x] for i, x in enumerate(point)]
    rows.append([1] * (len(pts) + 1))
    return characters._phase1_feasible(rows)


def _lp_hull_vertices(points):
    pts = list(dict.fromkeys(tuple(p) for p in points))
    return [p for p in pts
            if not _lp_member(p, [q for q in pts if q != p])]


def _lp_hull_report(sym, char):
    """hull_report as it reads with every support point sent to the LP."""
    alphas = list(sym.alphas.values())
    verts = tuple(_lp_hull_vertices(alphas))
    bad = tuple(mu for mu in sorted(char.poly.terms)
                if not _lp_member(mu, alphas))
    coeff = tuple((v, char.poly.coeff(v)) for v in verts
                  if char.poly.coeff(v) != 1)
    return HullReport(not bad and not coeff, verts, bad, coeff)


def _point_class(points, directions):
    """A stand-in symplectic class for hull_report, which reads only the
    vertex weights and the edge weights of the action: each direction
    labels a loop at vertex 0, paired with its reverse."""
    edges = []
    for u in directions:
        edges += (Edge(len(edges), 0, 0, u),
                  Edge(len(edges) + 1, 0, 0, vneg(u)))
    action = GkmAction(n=len(points[0]), vertices=tuple(range(len(points))),
                       edges=tuple(edges))
    return SymplecticClass(action, dict(enumerate(points)), {})


WIDE = st.integers(-5, 5)


@st.composite
def sphere_points(draw):
    """Lattice points on one sphere about their centroid, so that several
    tie for the farthest: the corners of a box, the signed permutations of
    a vector, or the Weyl orbit of a weight of A2 or B2; then 0-3 extra
    points, rounded midpoints of two of them or anywhere in [-5, 5]^n, in
    a drawn order."""
    kind = draw(st.sampled_from(("box", "signed", "A2", "B2")))
    if kind == "box":
        n = draw(st.integers(1, 3))
        sides = [(lo, lo + draw(st.integers(1, 3)))
                 for lo in draw(st.lists(COORD, min_size=n, max_size=n))]
        points = list(product(*sides))
    elif kind == "signed":
        n = draw(st.integers(1, 3))
        v = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        points = list(dict.fromkeys(
            tuple(s * x for s, x in zip(signs, perm))
            for perm in permutations(v) for signs in product((1, -1),
                                                             repeat=n)))
    else:
        n = 3 if kind == "A2" else 2
        lam = draw(st.tuples(*[COORD] * n))
        _, sym = gen_weyl_orbit(positive_roots(kind[0], 2), lam)
        points = list(sym.alphas.values())
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
            points.append(tuple((x + y) // 2 for x, y in zip(a, b)))
        else:
            points.append(draw(st.tuples(*[WIDE] * n)))
    return draw(st.permutations(points))


@st.composite
def hull_cases(draw):
    """Points as in hull_queries (duplicates, lines, planes) or as in
    sphere_points (ties for the farthest point); queries that are points
    of the set, midpoints of two of them (rounded down), or anywhere in
    [-5, 5]^n, so some lie outside the bounding box and some inside the
    box but outside the hull; edge directions that are unit vectors or
    primitive differences of two points."""
    if draw(st.booleans()):
        points = draw(sphere_points())
    else:
        _, points = draw(hull_queries())
    n = len(points[0])
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("point", "midpoint", "free")))
        if kind == "point":
            queries.append(draw(st.sampled_from(points)))
        elif kind == "midpoint":
            a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
            queries.append(tuple((x + y) // 2 for x, y in zip(a, b)))
        else:
            queries.append(draw(st.tuples(*[WIDE] * n)))
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    diffs = [primitive_part(vsub(a, b))[0] for a in points for b in points
             if a != b]
    directions = draw(st.lists(st.sampled_from(units + diffs), min_size=1,
                               max_size=6))
    return points, queries, directions


@settings(max_examples=300, deadline=None)
@given(hull_cases())
def test_hull_certificates_match_lp_only(case):
    points, queries, directions = case
    for q in queries:
        assert in_convex_hull(q, points) == _lp_member(q, points), q
    assert hull_vertices(points) == _lp_hull_vertices(points)
    # the support: the queries, and the points too, with coefficient 2 at
    # every other point so that coeff_violations is not always empty
    terms = {q: 1 for q in queries}
    terms.update((p, 1 + i % 2) for i, p in enumerate(points))
    sym = _point_class(points, directions)
    char = CharacterResult(LaurentPoly(len(points[0]), terms))
    assert hull_report(sym, char) == _lp_hull_report(sym, char)


def test_hull_report_with_outside_terms_matches_lp_only(rng):
    # symplectic classes of every fixture, their characters with terms
    # injected outside the weight hull, inside it and outside its box
    for name, (action, sym) in standard_fixtures().items():
        s2 = random_symplectic(action, sym, rng)
        char = character_oracle(s2.base)
        assert hull_report(s2, CharacterResult(char)) == \
            _lp_hull_report(s2, CharacterResult(char))
        for _ in range(5):
            extra = {tuple(rng.randint(-6, 6) for _ in range(action.n)):
                     rng.choice((-1, 1, 2)) for _ in range(rng.randint(1, 4))}
            poly = char + LaurentPoly(action.n, extra)
            got = hull_report(s2, CharacterResult(poly))
            assert got == _lp_hull_report(s2, CharacterResult(poly)), name


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts the phase-1 LPs that in_convex_hull solves."""
    calls = []
    solve = characters._phase1_feasible

    def counted(rows):
        calls.append(len(rows))
        return solve(rows)
    monkeypatch.setattr(characters, "_phase1_feasible", counted)
    return calls


@pytest.fixture
def hull_calls(monkeypatch):
    """Counts the in_convex_hull queries."""
    calls = []
    query = characters.in_convex_hull

    def counted(point, points):
        calls.append(tuple(point))
        return query(point, points)
    monkeypatch.setattr(characters, "in_convex_hull", counted)
    return calls


@pytest.mark.parametrize("kind, rank, lam", [
    ("A", 4, range(5)),
    ("A", 5, range(6)),
    ("B", 3, (3, 2, 1)),
    ("D", 4, (3, 2, 1, 0)),
])
def test_weyl_orbit_hulls_need_no_query(hull_calls, kind, rank, lam):
    # every point of an orbit is farthest from its centroid
    _, sym = gen_weyl_orbit(positive_roots(kind, rank), lam)
    alphas = list(sym.alphas.values())
    assert hull_vertices(alphas) == alphas
    assert hull_calls == []


def test_thin_triangle_still_reaches_the_lp(lp_calls):
    # (1, 1) is inside, is no midpoint of two corners, and is the centroid,
    # so the separation direction is zero and no certificate settles it
    tri = [(0, 0), (2, 1), (1, 2)]
    assert in_convex_hull((1, 1), tri)
    assert len(lp_calls) == 1
    assert hull_vertices(tri + [(1, 1)]) == tri


def test_hull_vertices_drop_the_points_shown_inside(monkeypatch):
    # a cloud with many interior points: each one shown inside leaves the
    # later queries, so the sets queried sum to less than testing every
    # point that is not farthest against all the m - 1 others
    rng = random.Random(1)
    cloud = [tuple(rng.randint(-20, 20) for _ in range(3))
             for _ in range(60)]
    sizes = []
    query = characters.in_convex_hull

    def counted(point, points):
        sizes.append(len(points))
        return query(point, points)
    monkeypatch.setattr(characters, "in_convex_hull", counted)
    got = hull_vertices(cloud)
    monkeypatch.undo()
    assert got == _lp_hull_vertices(cloud)
    m = len(set(cloud))
    k = m - len(sizes)          # the farthest points are not queried
    assert len(got) < m - 10
    assert sum(sizes) < (m - k) * (m - 1)


def test_certificates_settle_the_cube_report(lp_calls, hull_calls):
    # (P1)^3 scaled by 2: every corner is farthest from the centroid and
    # is an alpha, and every other support point is a midpoint along an
    # edge, so no point is queried and no LP is solved
    action, sym = gen_projective(1)
    p1 = (action, sym)
    for _ in range(2):
        action, sym = gen_product(action, sym, *p1)
    sym = symplectic_class(action, {v: vscale(a, 2)
                                    for v, a in sym.alphas.items()})
    char = CharacterResult(LaurentPoly(3, {mu: 1 for mu in
                                           product(range(3), repeat=3)}))
    report = hull_report(sym, char)
    assert report.ok and len(report.hull_vertices) == 8
    assert lp_calls == [] and hull_calls == []


# --- coadjoint orbits G/P: d > n - 1 ------------------------------------------


def _flag(m, lam=None):
    """The type-A orbit of lam in Z^m: Fl(m) at rho, the default."""
    return gen_weyl_orbit(positive_roots("A", m - 1),
                          range(m) if lam is None else lam)


# the Weyl-group checks below use no gkmchar code
def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _reflect(mu, b):
    return tuple(x - 2 * _dot(mu, b) // _dot(b, b) * y for x, y in zip(mu, b))


def _weyl_dimension(roots, lam):
    """prod over positive roots b of (lam + rho, b) / (rho, b), lam moved
    into the dominant chamber by reflections."""
    while any(_dot(lam, b) < 0 for b in roots):
        lam = _reflect(lam, next(b for b in roots if _dot(lam, b) < 0))
    rho2 = tuple(map(sum, zip(*roots)))          # 2 rho
    num = den = 1
    for b in roots:
        num *= 2 * _dot(lam, b) + _dot(rho2, b)
        den *= _dot(rho2, b)
    assert num % den == 0
    return num // den


def _check_weyl_dimension(roots, lam, dim):
    # the character of G/P through lam is the irreducible one of highest
    # weight lam made dominant: Weyl's dimension formula, and invariant
    # under every root reflection
    _, sym = gen_weyl_orbit(roots, lam)
    chi = character_oracle(sym.base)
    assert _weyl_dimension(roots, lam) == dim
    assert sum(chi.terms.values()) == dim
    assert all(chi.coeff(_reflect(mu, b)) == c
               for mu, c in chi.terms.items() for b in roots)


@pytest.mark.parametrize("m, lam, dim", [
    (3, (0, 1, 2), 8),
    (4, (0, 1, 2, 3), 64),
    (4, (0, 2, 4, 6), 729),
    (4, (3, 0, 2, 1), 64),
    (5, (0, 1, 2, 3, 4), 1024),
])
def test_flag_character_has_weyl_dimension(m, lam, dim):
    _check_weyl_dimension(positive_roots("A", m - 1), lam, dim)


@pytest.mark.parametrize("kind, rank, lam, dim", [
    ("A", 3, (1, 1, 0, 0), 6),
    ("B", 2, (2, 1), 35),
    ("B", 2, (1, 0), 5),
    ("B", 2, (1, 1), 10),
    ("C", 2, (2, 1), 16),
    ("C", 2, (1, 0), 4),
    ("C", 2, (1, 1), 5),
    ("G", 2, (1, 0, -1), 7),
    ("G", 2, (1, 1, -2), 14),
    ("G", 2, (2, 1, -3), 64),
    ("B", 3, (3, 2, 1), 1617),
    ("C", 3, (3, 2, 1), 512),
    ("D", 4, (3, 2, 1, 0), 4096),
    ("D", 4, (1, 1, 0, 0), 28),
])
def test_orbit_character_has_weyl_dimension(kind, rank, lam, dim):
    _check_weyl_dimension(positive_roots(kind, rank), lam, dim)


def test_type_c_with_primitive_weights_has_the_wrong_dimension():
    # the same C2 graph at (2, 1) with the long roots 2e_i replaced by
    # their primitive parts still validates, but its character has
    # dimension 35, where Weyl's formula gives 16
    roots = positive_roots("C", 2)
    action, sym = gen_weyl_orbit(roots, (2, 1))
    pairs = [(e.src, e.dst, primitive_part(e.weight)[0])
             for e in action.geometric_edges()]
    primitive = validate_action(2, list(action.vertices), pairs)
    wrong = symplectic_class(primitive, sym.alphas)
    assert sum(character_oracle(wrong.base).terms.values()) == 35
    assert sum(character_oracle(sym.base).terms.values()) == 16 == \
        _weyl_dimension(roots, (2, 1))


@pytest.mark.parametrize("m", [3, 4])
def test_flag_expansion_matches_oracle(m):
    _, sym = _flag(m)
    xi = (1, 3, 7, 15)[:m]
    assert character_expand(sym.base, polarize(sym.action, xi)).poly == \
        character_oracle(sym.base)


@pytest.mark.parametrize("name", ["b2", "c2", "g2-quadric"])
def test_rank_two_orbit_expansion_matches_oracle(name):
    # at a random direction and at a steep one
    _, sym = flag_fixtures()[name]
    want = character_oracle(sym.base)
    rng = random.Random(name)
    steep = (1, 1000) if sym.action.n == 2 else (1, 100, 10**4)
    for xi in (random_generic_xi(sym.action, rng, bound=20), steep):
        got = character_expand(sym.base, polarize(sym.action, xi),
                               term_budget=8 * len(want))
        assert got.poly == want


@pytest.mark.parametrize("m, lam", [
    (3, (0, 1, 2)),
    (3, (0, 2, 4)),
    (3, (0, 2, 5)),
    (4, (0, 1, 2, 3)),
])
def test_flag_multiplicity_matches_oracle(monkeypatch, m, lam):
    # d > n - 1: every vertex has more positive weights than the rank, so
    # each partition count runs over a dependent weight list; checked on
    # the support and on every weight one root step outside it
    action, sym = _flag(m, lam)
    pol = polarize(action, (1, 3, 7, 15)[:m])
    chi = character_oracle(sym.base)
    roots = {primitive_part(e.weight)[0] for e in action.edges}
    outside = {vadd(mu, r) for mu in chi.terms for r in roots} - set(chi.terms)
    assert outside
    calls = _recorded_kostant_calls(monkeypatch)
    for mu in [*chi.terms, *sorted(outside)]:
        assert multiplicity(sym, pol, mu) == chi.coeff(mu)
    for weights, target in calls:
        assert all(dot(eta, target) >= 0
                   for eta in action.dual_cone(weights)[0]), (weights, target)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_flag_hull_report(m):
    _, sym = _flag(m)
    report = hull_report(sym, CharacterResult(character_oracle(sym.base)))
    assert report.ok
    assert set(report.hull_vertices) == set(permutations(range(m)))
    assert len(report.hull_vertices) == len(sym.alphas)


def _p1_power(k):
    action, sym = gen_projective(1)
    for _ in range(k - 1):
        action, sym = gen_product(action, sym, *gen_projective(1))
    return action, sym


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_restriction_oracle_is_the_pushed_forward_character(fixtures, data):
    # restricting to a subtorus maps every weight through P, so the
    # character of the restriction is the original one with its exponents
    # mapped through P; with 2 < d these are d > n inputs
    name = data.draw(st.sampled_from(["proj3", "p1xp2", "(P1)^4"]))
    action, sym = _p1_power(4) if name == "(P1)^4" else fixtures[name]
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    sym = random_symplectic(action, sym, rng)
    P, raction, rsym = random_restriction(action, sym, rng)
    assert raction.n == 2 < len(raction.out_index[raction.vertices[0]])
    pushed = {}
    for e, c in character_oracle(sym.base).terms.items():
        image = tuple(dot(row, e) for row in P)
        pushed[image] = pushed.get(image, 0) + c
    assert character_oracle(rsym.base) == LaurentPoly(2, pushed)


def test_restriction_oracle_with_a_shifted_geometric_sum(fixtures):
    # seed 1 restricts projective 3-space so that some vertex has a negated
    # weight -mult * prim whose class also holds a larger multiplicity: the
    # weight keeps its own binomial 1 - x^(mult * prim), next to the one
    # of the larger multiplicity, and the vertex takes its sign and shift
    # -x^(mult * prim)
    action, sym = fixtures["proj3"]
    P, raction, rsym = random_restriction(action, sym, random.Random(1))
    parts = [primitive_part(e.weight) for e in raction.edges]
    lcms = {}
    for prim, mult in parts:
        # the class of prim is named by whichever of +-prim is larger
        key = max(prim, vneg(prim))
        lcms[key] = math.lcm(lcms.get(key, 1), mult)
    assert any(prim < vneg(prim) and mult < lcms[vneg(prim)]
               for prim, mult in parts)
    pushed = {}
    for e, c in character_oracle(sym.base).terms.items():
        image = tuple(dot(row, e) for row in P)
        pushed[image] = pushed.get(image, 0) + c
    assert character_oracle(rsym.base) == LaurentPoly(2, pushed)


def _multiplicities(action):
    """Direction class u -> the multiplicities of the edges in it."""
    mults = {}
    for u, _, mult in action.direction:
        mults.setdefault(u, set()).add(mult)
    return mults


def test_oracle_divides_by_each_multiplicity_of_a_class(fixtures,
                                                        monkeypatch):
    # P sends e1 to (1, 0) and e3 - e2 to (2, 0): the disjoint edges P0-P1
    # and P2-P3 share the class (1, 0) with multiplicities 1 and 2.  Each
    # is its own binomial of the common denominator, taken with the other
    # distinct weights (up to sign) in the order the vertices meet them
    action, sym = fixtures["proj3"]
    raction, rsym = graphs.restrict(action, sym, [(1, 0, 2), (0, 1, 1)])
    assert {u: m for u, m in _multiplicities(raction).items()
            if len(m) > 1} == {(1, 0): {1, 2}}
    calls = []

    def recording(p, *gammas):
        calls.append(gammas)
        return laurent.divide_exact(p, *gammas)

    monkeypatch.setattr(characters, "divide_exact", recording)
    got = character_oracle(rsym.base)
    monkeypatch.undo()
    # of w and -w, the one with its first nonzero entry positive
    met = dict.fromkeys(max(e.weight, vneg(e.weight))
                        for v in raction.vertices
                        for e in raction.out_index[v])
    assert calls == [tuple(met)]
    assert {(1, 0), (2, 0)} <= set(met)
    rng = random.Random(26)
    assert got == character_expand(
        rsym.base, polarize(raction, random_generic_xi(raction, rng))).poly
    for f in [random_class(raction, rsym, rng) for _ in range(6)]:
        xi = random_generic_xi(raction, rng)
        assert character_oracle(f) == \
            character_expand(f, polarize(raction, xi)).poly


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_oracle_equals_the_expansion_with_two_multiplicities_in_a_class(
        fixtures, seed):
    # of the standard fixtures only projective 3-space restricts to a
    # 2-torus with two multiplicities in one class (the other graphs make
    # such weights meet at a vertex); each edge of that class also runs
    # backwards, so some vertex meets a negated weight there
    rng = random.Random(seed)
    action, sym = fixtures["proj3"]
    sym = random_symplectic(action, sym, rng)
    for _ in range(100):
        _, raction, rsym = random_restriction(action, sym, rng)
        mults = _multiplicities(raction)
        if any(sign < 0 and len(mults[u]) > 1
               for u, sign, _ in raction.direction):
            break
    else:
        pytest.fail("no restriction has two multiplicities in a class")
    pol = polarize(raction, random_generic_xi(raction, rng))
    for f in [rsym.base, *(random_class(raction, rsym, rng)
                           for _ in range(2))]:
        assert character_oracle(f) == character_expand(f, pol).poly


# --- d > n inputs, cut by the dual-cone rays of every vertex -----------------


@functools.cache
def _d_above_n_graphs():
    return {
        "fl4": _flag(4),
        "fl4-2rho": _flag(4, (0, 2, 4, 6)),
        "fl5": _flag(5),
        "(P1)^4|T2": random_restriction(*_p1_power(4), random.Random(0))[1:],
    }


# No vertex of these graphs has independent weights, so without its own
# rays only xi cuts it: then all but the (P1)^4 restriction at (7, 3) need
# more than 8 times the answer's terms, and Fl(4) at rho at the steep xi
# more than 500 000.
@pytest.mark.parametrize("graph, xi", [
    ("fl4", (1, 3, 7, 15)),
    ("fl4", (1, 100, 10**4, 10**6)),
    ("fl4-2rho", (1, 3, 7, 15)),
    ("fl4-2rho", (1, 100, 10**4, 10**6)),
    ("fl5", (1, 3, 7, 15, 31)),
    ("fl5", (1, 10, 100, 1000, 10**4)),
    ("(P1)^4|T2", (7, 3)),
    ("(P1)^4|T2", (1000, 3)),
    ("(P1)^4|T2", (100000, 7)),
])
def test_d_above_n_expansion_within_answer_size_budget(graph, xi):
    action, sym = _d_above_n_graphs()[graph]
    assert len(action.out_index[action.vertices[0]]) > action.n
    want = character_oracle(sym.base)
    got = character_expand(sym.base, polarize(action, xi),
                           term_budget=8 * len(want))
    assert got.poly == want


@pytest.mark.parametrize("k, m", [(2, 4), (2, 5), (3, 6)])
def test_grassmannian_character_is_the_sum_over_subsets(k, m):
    # the k-th exterior power of C^m: x^(e_S) once for each k-subset S
    action, sym = _flag(m, (1,) * k + (0,) * (m - k))
    assert len(action.out_index[action.vertices[0]]) > action.n - 1
    want = LaurentPoly(m, {a: 1 for a in sym.alphas.values()})
    assert len(want) == math.comb(m, k)
    assert character_oracle(sym.base) == want
    xi = tuple(100 ** i for i in range(m))
    got = character_expand(sym.base, polarize(action, xi),
                           term_budget=8 * len(want))
    assert got.poly == want


def test_cone_rays_are_eliminated_once_per_weight_set(monkeypatch):
    calls = []

    def counting(weights, n):
        calls.append(weights)
        return lattice.dual_cone(weights, n)

    monkeypatch.setattr(graphs, "dual_cone", counting)
    # every vertex of Fl(4) turns its weights into the same positive roots,
    # and every vertex of a cube into the same signed axes: one weight set,
    # whose rays and span normals come from one elimination
    for action, sym in [_flag(4), _p1_power(3)]:
        calls.clear()
        xi = (1, 3, 7, 15)[:action.n]
        pol = polarize(action, xi)
        first = character_expand(sym.base, pol).poly
        assert len({tuple(sorted(ws)) for ws in pol.weights.values()}) == 1
        assert len(calls) == 1
        # multiplicity reads the same cone, and later calls on the same
        # graph, by any entry point, eliminate nothing
        for mu in sorted(first.terms)[:5]:
            assert multiplicity(sym, pol, mu) == first.coeff(mu)
        assert character_expand(sym.base, polarize(action, xi)).poly == first
        character_expand(sym.base * sym.base, polarize(action, xi), level=1)
        assert len(calls) == 1


@st.composite
def restricted_classes(draw):
    """A random restriction of a standard or flag fixture to a 2-torus, its
    symplectic class or a random class, and a generic direction with
    entries up to 5 or up to 10^5."""
    standard, flags = _standard_and_flag_fixtures()
    name = draw(st.sampled_from(sorted(standard) + sorted(flags)))
    action, sym = standard.get(name) or flags[name]
    rng = random.Random(draw(st.integers(0, 10**6)))
    _, action, sym = random_restriction(action, sym, rng)
    f = random_class(action, sym, rng) if draw(st.booleans()) else sym.base
    bound = draw(st.sampled_from([5, 10**5]))
    return f, random_generic_xi(action, rng, bound)


# A vertex's expansion fills its cone cut by the rays' bounds, and when the
# cone is nearly a half-plane that region holds many more lattice points
# than the answer: the restriction of Fl(4) drawn by random.Random(1), at
# xi = (-2, 5), needs 1 064 terms for a 38-term answer (28 times), and
# cutting also by every facet normal of the answer's hull leaves 1 064.
# So the budget is 64 times the answer.
@settings(max_examples=100, deadline=None)
@given(restricted_classes())
def test_restricted_expansion_matches_oracle_within_answer_size_budget(case):
    f, xi = case
    want = character_oracle(f)
    got = character_expand(f, polarize(f.action, xi),
                           term_budget=max(64, 64 * len(want)))
    assert got.poly == want


# --- the packed keys of character_expand at the limits of their fields ------


@st.composite
def wide_field_cases(draw):
    """A class and a generic direction drawn to stretch the fields of
    character_expand's packed keys: the class translated by up to 10^6 in
    each entry, and a direction with entries up to 10^6.  The graphs are a
    point (d = 0), cp1 in a 2-torus (d < n), the standard and flag
    fixtures, and random restrictions of them to a 2-torus (d > n)."""
    standard, flags = _standard_and_flag_fixtures()
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["point", "cp1", "standard", "flag",
                                 "restricted"]))
    if kind == "point":
        action = validate_action(2, ["p"], [])
        value = {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.choice([-2, 1])
                 for _ in range(3)}
        f = KClass(action, {"p": LaurentPoly(2, value)})
    else:
        if kind == "cp1":
            action, sym = gen_cp1_in_plane()
        else:
            pool = {"standard": standard, "flag": flags}.get(
                kind, {**standard, **flags})
            action, sym = pool[draw(st.sampled_from(sorted(pool)))]
            if kind == "restricted":
                _, action, sym = random_restriction(action, sym, rng)
        mixed = kind != "flag" and draw(st.booleans())
        f = random_class(action, sym, rng) if mixed else sym.base
    shift = draw(st.tuples(*[st.integers(-10**6, 10**6)] * action.n))
    f = KClass(action, {v: f[v] * LaurentPoly.monomial(shift)
                        for v in action.vertices})
    bound = draw(st.sampled_from([3, 10**6]))
    return f, random_generic_xi(action, rng, bound)


@settings(max_examples=150, deadline=None)
@given(wide_field_cases(), st.data())
def test_packed_expansion_at_the_limits_of_its_fields(case, data):
    # the levels lie in the support, just around it, and 10^9 away from
    # it or from the origin, so that |level| alone sets the fields' width
    f, xi = case
    want = character_oracle(f)
    levels = sorted({dot(mu, xi) for mu in want.terms}) or [0]
    level = data.draw(st.sampled_from([
        None, st.sampled_from(levels),
        st.integers(levels[0] - 3, levels[-1] + 3),
        st.sampled_from([levels[0] - 10**9, -10**9]),
        st.sampled_from([levels[-1] + 10**9, 10**9])]))
    if level is not None:
        level = data.draw(level)
    got = character_expand(f, polarize(f.action, xi), level=level).poly
    if level is not None:
        want = _slice(want, xi, level)
    assert got == want


@pytest.mark.parametrize("graph", ["cp1", "projective line"])
def test_levels_far_below_the_support_on_one_weight_per_vertex(graph):
    # one weight per vertex: only xi and one ray cut.  The class is small
    # and barely moved, so |level| alone sets the fields' width: a key
    # whose xi field did not fit would often pass both cuts by chance
    action, sym = gen_cp1_in_plane() if graph == "cp1" else gen_projective(1)
    rng = random.Random(graph)
    for _ in range(40):
        xi = random_generic_xi(action, rng, 3)
        shift = tuple(rng.randint(-3, 3) for _ in range(action.n))
        f = KClass(action, {v: sym.base[v] * LaurentPoly.monomial(shift)
                            for v in action.vertices})
        want = character_oracle(f)
        pol = polarize(action, xi)
        low = min(dot(mu, xi) for mu in want.terms)
        for level in (low - 10**9, low - 10**4, -10**9):
            got = character_expand(f, pol, level=level).poly
            assert got == _slice(want, xi, level)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_bounds_and_cuts_equal_the_plain_ones(data):
    # the SWAR max and the masked sums of character_expand's set-up give
    # _support_bound for xi and every ray, and the AND of a vertex's weights
    # marks exactly the directions that pair nonnegatively with all of them
    standard, flags = _standard_and_flag_fixtures()
    pool = {**standard, **flags}
    action, sym = pool[data.draw(st.sampled_from(sorted(pool)))]
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = random_class(action, sym, rng)
    xi = random_generic_xi(action, rng,
                           bound=data.draw(st.sampled_from([5, 10**4])))
    pol = polarize(action, xi)
    rows = [((f[v] * LaurentPoly.monomial(pol.prefix[v])).terms,
             pol.weights[v])
            for v in action.vertices if f[v].terms]
    assume(rows)
    dirs = characters._cut_directions(action, xi, rows)
    F, W, _, _, bound, masks = characters._pack(rows, dirs, 0, 1)
    fields = range(0, W * len(dirs), W)
    assert [(bound >> s & (1 << W) - 1) - (1 << F) for s in fields] == \
        [_support_bound(f, d) for d in dirs]
    for (_, ws), (cut, rest) in zip(rows, masks):
        assert [cut >> s + F & 1 for s in fields] == \
            [int(all(dot(d, w) >= 0 for w in ws)) for d in dirs]
        assert [rest >> s + F & 1 for s in fields] == \
            [int(any(dot(d, w) < 0 for w in ws)) for d in dirs]


def test_oracle_rejects_a_corrupted_class():
    action, sym = gen_projective(2)
    values = dict(sym.base.values)
    v = action.vertices[0]
    values[v] = values[v] * 2
    with pytest.raises(InternalDivisionFailure):
        character_oracle(KClass(action, values))


def _kostka(shape, content):
    """Number of semistandard tableaux of the given shape (a partition) and
    content: the last letter fills a horizontal strip of shape / inner,
    inner_i between shape_(i+1) and shape_i."""
    @functools.cache
    def count(shape, k):
        if k == 0:
            return 0 if any(shape) else 1
        ranges = [range(low, high + 1)
                  for high, low in zip(shape, shape[1:] + (0,))]
        return sum(count(inner, k - 1) for inner in product(*ranges)
                   if sum(shape) - sum(inner) == content[k - 1])
    return count(tuple(shape), len(content))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@pytest.mark.parametrize("name", [name for name in sorted(flag_fixtures())
                                  if name.startswith("fl")])
def test_flag_character_is_given_by_kostka_numbers(name):
    # Fl(m) with the orbit of lam carries the irreducible GL(m) character
    # of highest weight lam sorted descending, whose multiplicity at mu is
    # the Kostka number K_(lam, mu)
    _, sym = flag_fixtures()[name]
    lam = tuple(sorted(next(iter(sym.alphas.values())), reverse=True))
    want = {}
    for mu in _compositions(sum(lam), len(lam)):
        k = _kostka(lam, mu)
        if k:
            want[mu] = k
    assert character_oracle(sym.base).terms == want


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


def _recorded_kostant_calls(monkeypatch):
    """Wrap characters.kostant_count; the list it returns collects the
    (weights, target) of every call."""
    calls = []
    count = characters.kostant_count

    def recording(weights, target, xi):
        calls.append((tuple(weights), tuple(target)))
        return count(weights, target, xi)

    monkeypatch.setattr(characters, "kostant_count", recording)
    return calls


def _padded_box(poly, pad):
    """The lattice points of the bounding box of poly's support, widened
    by pad on every side."""
    sides = [range(min(c) - pad, max(c) + pad + 1)
             for c in zip(*poly.terms)]
    return list(product(*sides))


@settings(max_examples=30, deadline=None)
@given(polarized_inputs(skip=("fl4-2rho",)), st.integers(0, 2**32))
def test_multiplicity_counts_only_targets_inside_the_cones(case, seed):
    # over the support's box padded by 2, multiplicity is the division
    # route's coefficient, and a vertex whose target pairs negatively with
    # one of its dual-cone rays, or off the span of its weights (count 0
    # either way), never reaches kostant_count.  The whole support is
    # checked, and 100 random points of the box.
    action, sym, xi = case
    pol = polarize(action, xi)
    want = character_oracle(sym.base)
    box = _padded_box(want, 2)
    points = sorted({*random.Random(seed).sample(box, min(len(box), 100)),
                     *want.terms})
    with pytest.MonkeyPatch.context() as mp:
        calls = _recorded_kostant_calls(mp)
        for mu in points:
            assert multiplicity(sym, pol, mu) == want.coeff(mu), mu
    assert calls
    for weights, target in calls:
        rays, normals = action.dual_cone(weights)
        assert all(dot(eta, target) >= 0 for eta in rays), (weights, target)
        assert not any(dot(nu, target) for nu in normals), (weights, target)


@settings(max_examples=20, deadline=None)
@given(polarized_inputs(skip=("fl4-2rho",)), st.integers(0, 2**32))
def test_one_polarization_keeps_a_table_per_class(case, seed):
    # one polarization serves two classes queried in turn, then a third
    # built after one of them is dropped, so that it may take the dropped
    # class's id.  Every answer is the one of a fresh polarization and the
    # division route's coefficient.
    action, sym, xi = case
    rng = random.Random(seed)
    pol = polarize(action, xi)

    def queries(cls):
        want = character_oracle(cls.base)
        box = _padded_box(want, 1)
        points = rng.sample(box, min(len(box), 8))
        points += rng.sample(sorted(want.terms), min(len(want), 4))
        return [(cls, mu, want.coeff(mu)) for mu in points]

    def check(cls, mu, coeff):
        got = multiplicity(cls, pol, mu)
        assert got == multiplicity(cls, polarize(action, xi), mu) == coeff, \
            (cls.alphas, mu)

    def two_classes():
        # returns the second class only: the first is dropped on return
        first, second = (random_symplectic(action, sym, rng)
                         for _ in range(2))
        for pair in zip(queries(first), queries(second)):
            for query in pair:
                check(*query)
        return second

    second = two_classes()
    for query in queries(random_symplectic(action, sym, rng)) \
            + queries(second):
        check(*query)


def test_multiplicity_off_the_span_counts_no_partitions(monkeypatch):
    # every weight of Fl(4) is a root, in the hyperplane of coordinate sum
    # 0, and so is every vertex target of a weight with the support's
    # coordinate sum.  A weight off that hyperplane has multiplicity 0, and
    # each vertex finds its target off the span of its weights without
    # counting a partition.
    action, sym = flag_fixtures()["fl4"]
    pol = polarize(action, (-20, 19, -2, 18))
    support = character_oracle(sym.base).terms
    assert len(support) == 38
    off = {vadd(mu, step) for mu in support
           for step in ((1, 0, 0, 0), (0, 0, 0, -1))}
    calls = _recorded_kostant_calls(monkeypatch)
    for mu in sorted(off):
        assert multiplicity(sym, pol, mu) == 0, mu
    assert len(off) == 76
    assert calls == []


def test_multiplicity_cost_is_the_targets_inside_their_cones(monkeypatch):
    # projective 2-space scaled by 3 at xi = (1, 2), over its support's box
    # padded by 2: kostant_count runs once per vertex whose target
    # alpha - alpha_v - prefix_v is a nonnegative real combination of its
    # two weights, found here by Cramer's rule, and not at any other: 64 of
    # the 192 vertex targets of the box.  The cones are read once per
    # vertex, on the first query, and the rest of the sweep reads none.
    action, sym = gen_projective(2)
    sym = symplectic_class(action, {v: vscale(a, 3)
                                    for v, a in sym.alphas.items()})
    pol = polarize(action, (1, 2))
    want = character_oracle(sym.base)
    box = _padded_box(want, 2)
    inside = 0
    for mu in box:
        for v in action.vertices:
            t = vsub(vsub(mu, sym.alphas[v]), pol.prefix[v])
            (a, b), (c, d) = pol.weights[v]
            det = a * d - b * c
            inside += (t[0] * d - t[1] * c) * det >= 0 \
                and (a * t[1] - b * t[0]) * det >= 0
    calls = _recorded_kostant_calls(monkeypatch)
    reads = []
    cone = GkmAction.dual_cone

    def reading(self, weights):
        reads.append(weights)
        return cone(self, weights)

    monkeypatch.setattr(GkmAction, "dual_cone", reading)
    for i, mu in enumerate(box):
        assert multiplicity(sym, pol, mu) == want.coeff(mu)
        if i == 0:
            assert reads == [pol.weights[v] for v in action.vertices]
    assert len(box) == 64
    assert len(calls) == inside == 64
    assert len(reads) == len(action.vertices) == 3
