import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkmchar.characters import polarize
from gkmchar.lattice import (NotPrimitive, ZeroVector, bareiss,
                             complete_to_basis, direction, dot, dual_cone,
                             is_primitive, primitive_part)
from gkmchar.randomgen import random_generic_xi


def test_primitive_part_coprime():
    assert primitive_part((2, 3)) == ((2, 3), 1)


def test_primitive_part_with_gcd():
    assert primitive_part((4, 6)) == ((2, 3), 2)


def test_primitive_part_zero_vector():
    with pytest.raises(ZeroVector):
        primitive_part((0, 0))


def test_direction_of_the_zero_vector():
    with pytest.raises(ZeroVector):
        direction((0, 0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4).filter(any),
       st.integers(-3, 3).filter(bool))
def test_direction_names_the_class_of_a_weight(w, k):
    w = tuple(w)
    u, sign, mult = direction(w)
    assert tuple(sign * mult * x for x in u) == w
    assert is_primitive(u) and next(x for x in u if x) > 0
    assert sign in (1, -1) and mult > 0
    # a nonzero multiple is in the same class, with the sign of k
    ku, ksign, kmult = direction(tuple(k * x for x in w))
    assert (ku, ksign, kmult) == (u, sign * (1 if k > 0 else -1),
                                  abs(k) * mult)


def test_primitive_part_scaling():
    for v in [(1, -2), (3, 5, 7), (-4, 6)]:
        prim, mult = primitive_part(v)
        for k in range(1, 5):
            kp, km = primitive_part(tuple(k * x for x in v))
            assert kp == prim
            assert km == k * mult


def test_complete_to_basis_standard_vector():
    b = complete_to_basis((0, 1))
    assert b.xi == (0, 1)
    assert abs(bareiss(b.matrix)[0]) == 1


def test_complete_to_basis_general():
    b = complete_to_basis((2, 3))
    assert b.xi == (2, 3)
    assert abs(bareiss(b.matrix)[0]) == 1
    # inverse really inverts
    n = b.n
    for i in range(n):
        for j in range(n):
            s = sum(b.matrix[i][k] * b.inverse[k][j] for k in range(n))
            assert s == (1 if i == j else 0)


def test_complete_to_basis_rejects_imprimitive():
    with pytest.raises(NotPrimitive):
        complete_to_basis((2, 4))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6)
       .filter(any))
def test_random_basis_round_trips(v):
    # xi stays the last column, and the inverse is exact both ways, so
    # every weight round trips through the basis coordinates: the pairing
    # with the last column is the pairing with xi, and the inverse
    # columns rebuild the weight
    xi, _ = primitive_part(v)
    b = complete_to_basis(xi)
    n = len(xi)
    assert b.n == n and b.xi == xi
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert [[dot(row, col) for col in b.inverse_columns]
            for row in b.matrix] == identity
    assert [[dot(row, col) for col in b.columns]
            for row in b.inverse] == identity


def test_primitive_vectors_pair_to_one_with_some_dual_row(rng):
    # a vector is primitive iff some lattice functional pairs to 1 with it;
    # the inverse basis rows provide a witness
    for _ in range(50):
        n = rng.randint(2, 4)
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if all(x == 0 for x in v):
            continue
        prim, _ = primitive_part(v)
        b = complete_to_basis(prim)
        assert any(dot(row, prim) == 1 for row in b.inverse)


def _cofactor_det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1:]
                                                    for row in m[1:]])
               for j in range(len(m)))


@st.composite
def square_matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        # often singular: one row a combination of two others
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % (n - 1)])]
    return rows


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_det_matches_cofactor_expansion(m):
    assert bareiss(m)[0] == _cofactor_det(m)


def _reference_dual_basis(weights):
    """Reference dual basis by the Gram adjugate: None for dependent
    weights, weights of unequal length or more weights than n."""
    d = len(weights)
    if d == 0:
        return []
    n = len(weights[0])
    if d > n or any(len(w) != n for w in weights):
        return None
    g, red = bareiss([[dot(u, w) for w in weights] + list(u)
                      for u in weights])
    if g == 0:
        return None
    return [primitive_part(row[d:])[0] for row in red]


@settings(max_examples=300, deadline=None)
@given(square_matrices(), st.integers(0, 3))
def test_dual_cone_rays_of_independent_weights_diagonalize(m, drop):
    # the first d = n - drop rows of m are the weights w_1..w_d in Z^n
    m = m[:max(len(m) - drop, 1)]
    gram = [[dot(u, w) for w in m] for u in m]
    assume(_cofactor_det(gram) != 0)
    etas = dual_cone([tuple(row) for row in m], len(m[0]))[0]
    assert etas == _reference_dual_basis([tuple(row) for row in m])
    assert len(etas) == len(m)
    for i, eta in enumerate(etas):
        assert is_primitive(eta)
        for j, w in enumerate(m):
            pairing = dot(eta, tuple(w))
            assert pairing > 0 if i == j else pairing == 0


def test_dual_cone_rays_of_fewer_independent_weights():
    assert dual_cone([(1, 0, 0), (0, 1, 0)], 3)[0] == [(1, 0, 0), (0, 1, 0)]
    assert dual_cone([(2, 1, 0)], 3)[0] == [(2, 1, 0)]
    assert dual_cone([(1, 1)], 2)[0] == [(1, 1)]
    assert dual_cone([], 2)[0] == []


def test_dual_cone_rays_of_dependent_weights():
    # a cone on one line: its one ray, inside the span
    assert dual_cone([(1, 2), (2, 4)], 2)[0] == [(1, 2)]
    assert dual_cone([(1, 2, 0), (2, 4, 0)], 3)[0] == [(1, 2, 0)]
    # (1, 1) lies inside the cone of (1, 0) and (0, 1)
    assert dual_cone([(1, 0), (0, 1), (1, 1)], 2)[0] == [(0, 1), (1, 0)]
    # the positive roots of A2 in Z^3: the fundamental coweights, in the
    # plane x + y + z = 0, primitive
    roots = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    assert sorted(dual_cone(roots, 3)[0]) == [(1, 1, -2), (2, -1, -1)]
    # a cone that is not pointed: the normal (1, 0) of the face spanned by
    # (0, 1) pairs with both signs and drops
    assert dual_cone([(1, 0), (-1, 0), (0, 1)], 2)[0] == [(0, 1)]


def _rank(vectors):
    """Rank by the Gram determinants of a greedy independent subset."""
    basis = []
    for w in vectors:
        if bareiss([[dot(u, x) for x in basis + [w]]
                    for u in basis + [w]])[0]:
            basis.append(w)
    return len(basis)


@st.composite
def pointed_weight_sets(draw):
    """Up to 6 nonzero weights in Z^2..Z^4 that pair positively with a
    direction xi, so they span a pointed cone; often more than n."""
    n = draw(st.integers(2, 4))
    xi = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    assume(any(xi))
    vecs = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    ws = draw(st.lists(vecs, min_size=1, max_size=6))
    ws = [w if dot(w, xi) > 0 else tuple(-x for x in w)
          for w in ws if dot(w, xi) != 0]
    assume(ws)
    return ws


@settings(max_examples=300, deadline=None)
@given(pointed_weight_sets())
def test_dual_cone_rays_are_extreme_and_cut_every_weight(ws):
    rays = dual_cone(ws, len(ws[0]))[0]
    r = _rank(ws)
    assert len(set(rays)) == len(rays) >= r
    assert _rank(rays) == r
    for eta in rays:
        assert is_primitive(eta)
        assert _rank(ws + [eta]) == r               # inside the span
        pairs = [dot(eta, w) for w in ws]
        assert min(pairs) >= 0
        # extreme: the weights it annihilates span a facet, rank r - 1
        assert _rank([w for w, p in zip(ws, pairs) if p == 0]) == r - 1
    for w in ws:
        assert any(dot(eta, w) > 0 for eta in rays)


@settings(max_examples=300, deadline=None)
@given(pointed_weight_sets())
def test_span_normals_complete_the_span(ws):
    # n - r independent primitive normals, each pairing to zero with every
    # weight: together with the span they fill Z^n up to finite index
    n = len(ws[0])
    normals = dual_cone(ws, n)[1]
    assert len(normals) == n - _rank(ws)
    assert _rank(ws + normals) == n
    for nu in normals:
        assert is_primitive(nu)
        assert not any(dot(nu, w) for w in ws)


def test_span_normals_of_few_weights():
    assert dual_cone([(1, 0, 0), (0, 1, 0)], 3)[1] == [(0, 0, 1)]
    assert dual_cone([(1, 2, 3, 4), (2, 4, 6, 8)], 4)[1] == \
        [(4, 0, 0, -1), (0, 2, 0, -1), (0, 0, 4, -3)]
    assert dual_cone([(1, 0), (0, 1), (1, 1)], 2)[1] == []
    assert dual_cone([], 2)[1] == [(1, 0), (0, 1)]


def test_dual_cone_rays_match_the_dual_basis_on_toric_vertices(fixtures):
    rng = random.Random(2024)
    for action, _ in fixtures.values():
        for _ in range(4):
            pol = polarize(action, random_generic_xi(action, rng, 20))
            for ws in pol.weights.values():
                assert dual_cone(ws, action.n)[0] == \
                    _reference_dual_basis(list(ws))


def test_dot_rejects_length_mismatch():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))
