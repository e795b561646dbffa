import pytest
from hypothesis import assume, given, settings, strategies as st

from gkmchar.lattice import (NotPrimitive, ZeroVector, complete_to_basis,
                             cyclic_fiber_order, det, dot, dual_basis,
                             is_primitive, primitive_part, weight_from_basis,
                             weight_in_basis)


def test_primitive_part_coprime():
    assert primitive_part((2, 3)) == ((2, 3), 1)


def test_primitive_part_with_gcd():
    assert primitive_part((4, 6)) == ((2, 3), 2)


def test_primitive_part_zero_vector():
    with pytest.raises(ZeroVector):
        primitive_part((0, 0))


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
    assert abs(det(b.matrix)) == 1


def test_complete_to_basis_general():
    b = complete_to_basis((2, 3))
    assert b.xi == (2, 3)
    assert abs(det(b.matrix)) == 1
    # inverse really inverts
    n = b.n
    for i in range(n):
        for j in range(n):
            s = sum(b.matrix[i][k] * b.inverse[k][j] for k in range(n))
            assert s == (1 if i == j else 0)


def test_complete_to_basis_rejects_imprimitive():
    with pytest.raises(NotPrimitive):
        complete_to_basis((2, 4))


def test_weight_in_basis_standard():
    b = complete_to_basis((0, 1))
    beta, k = weight_in_basis((5, 7), b)
    assert k == 7
    assert weight_from_basis(beta, k, b) == (5, 7)


def test_weight_in_basis_annihilator_gives_k_zero():
    b = complete_to_basis((2, 3))
    alpha = (3, -2)  # pairs to zero with (2,3)
    beta, k = weight_in_basis(alpha, b)
    assert k == 0
    assert weight_from_basis(beta, 0, b) == alpha


def test_weight_in_basis_round_trip():
    b = complete_to_basis((2, 3))
    beta, k = weight_in_basis((1, 0), b)
    assert k == dot((1, 0), (2, 3)) == 2
    assert weight_from_basis(beta, k, b) == (1, 0)


def test_cyclic_fiber_order():
    assert cyclic_fiber_order((1, 0), (0, 1)) == 0
    assert cyclic_fiber_order((3, 1), (1, 0)) == 3
    assert cyclic_fiber_order((-2, 5), (1, 1)) == 3


def test_random_basis_round_trips(rng):
    for _ in range(100):
        n = rng.randint(1, 4)
        v = tuple(rng.randint(-20, 20) for _ in range(n))
        if all(x == 0 for x in v):
            continue
        xi, _ = primitive_part(v)
        b = complete_to_basis(xi)
        assert abs(det(b.matrix)) == 1
        assert b.xi == xi
        for _ in range(10):
            alpha = tuple(rng.randint(-30, 30) for _ in range(n))
            beta, k = weight_in_basis(alpha, b)
            assert k == dot(alpha, xi)
            assert weight_from_basis(beta, k, b) == alpha


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
    assert det(m) == _cofactor_det(m)


@settings(max_examples=300, deadline=None)
@given(square_matrices(), st.integers(0, 3))
def test_dual_basis_diagonalizes(m, drop):
    # the first d = n - drop rows of m are the weights w_1..w_d in Z^n
    m = m[:max(len(m) - drop, 1)]
    gram = [[dot(u, w) for w in m] for u in m]
    assume(_cofactor_det(gram) != 0)
    etas = dual_basis([tuple(row) for row in m])
    assert len(etas) == len(m)
    for i, eta in enumerate(etas):
        assert is_primitive(eta)
        for j, w in enumerate(m):
            pairing = dot(eta, tuple(w))
            assert pairing > 0 if i == j else pairing == 0


def test_dual_basis_of_fewer_independent_weights():
    assert dual_basis([(1, 0, 0), (0, 1, 0)]) == [(1, 0, 0), (0, 1, 0)]
    assert dual_basis([(2, 1, 0)]) == [(2, 1, 0)]
    assert dual_basis([(1, 1)]) == [(1, 1)]


def test_dual_basis_of_dependent_weights_is_none():
    assert dual_basis([(1, 2), (2, 4)]) is None
    assert dual_basis([(1, 2, 0), (2, 4, 0)]) is None
    assert dual_basis([(1, 0), (0, 1), (1, 1)]) is None


def test_dot_rejects_length_mismatch():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))
