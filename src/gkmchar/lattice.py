"""Integer lattice utilities: primitive vectors, unimodular basis completion,
coordinate changes and circle-subgroup orders.

Vectors and weights are plain tuples of Python ints, so all arithmetic is
arbitrary precision.  A weight pairs with a lattice vector through the usual
dot product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, repeat
from operator import add, mul, neg, sub


class ZeroVector(ValueError):
    """The zero vector has no primitive part."""


class NotPrimitive(ValueError):
    """Operation requires a primitive lattice vector."""


IntVec = tuple[int, ...]


def dot(a, b) -> int:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


def vadd(a, b):
    return tuple(map(add, a, b))


def vsub(a, b):
    return tuple(map(sub, a, b))


def vneg(a):
    return tuple(map(neg, a))


def vscale(a, c):
    return tuple(map(mul, repeat(c), a))


def primitive_part(v) -> tuple[IntVec, int]:
    """Split a nonzero integer vector into (primitive vector, multiplicity).

    The multiplicity is the gcd of the absolute values of the coordinates,
    so multiplicity * primitive == v and the primitive part keeps the
    direction of v.
    """
    v = tuple(v)
    g = math.gcd(*v)
    if g == 0:
        raise ZeroVector("zero vector has no primitive part")
    return tuple(x // g for x in v), g


def direction(w) -> tuple[IntVec, int, int]:
    """The direction class of a nonzero weight: (u, sign, mult) with
    w == sign * mult * u, u primitive and its first nonzero entry
    positive.  Two nonzero weights are parallel exactly when their u's
    are equal.  Raises ZeroVector for the zero vector."""
    mult = math.gcd(*w)
    if mult == 0:
        raise ZeroVector("zero vector has no direction")
    sign = 1 if next(filter(None, w)) > 0 else -1
    return tuple([x // (sign * mult) for x in w]), sign, mult


def is_primitive(v) -> bool:
    return math.gcd(*v) == 1


@dataclass(frozen=True)
class BasisChange:
    """A unimodular change of basis whose last basis vector is a chosen xi.

    matrix holds the basis vectors as *columns* (row-major storage);
    inverse is its exact integer inverse.  columns and inverse_columns
    hold the columns of both, transposed once.
    """

    matrix: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[int, ...], ...]
    columns: tuple = field(init=False, compare=False, repr=False)
    inverse_columns: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(zip(*self.matrix)))
        object.__setattr__(self, "inverse_columns",
                           tuple(zip(*self.inverse)))

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def xi(self) -> IntVec:
        return self.columns[-1]


def bareiss(rows) -> tuple[int, list]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of [A | B].

    rows is an n x (n + k) integer matrix whose left n x n block is A.
    Returns (det A, [det A * I | adj(A) B]), so for B = I the right block
    is the adjugate.  Every intermediate entry is a minor of the input, so
    each division is exact and no rational number is ever formed.  A
    singular A gives (0, None).
    """
    a = [list(row) for row in rows]
    n = len(a)
    prev, sign = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p, row_k = a[k][k], a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row_k)]
        prev = p
    if sign < 0:
        a = [[-x for x in row] for row in a]
    return sign * prev, a


def _dual_basis(weights):
    """Primitive eta_1..eta_d with eta_i . w_j == 0 for i != j and
    eta_i . w_i > 0, each inside the span of the weights w_1..w_d; None
    when the weights are dependent.

    With W holding the weights as columns and the Gram matrix G = W^T W,
    eta_i is the primitive part of row i of adj(G) W^T, since
    adj(G) W^T W = det(G) I and det G > 0 for independent weights.  For
    d == n this row is det(W) times row i of adj(W), so the basis is the
    one dual to the weights.
    """
    d = len(weights)
    g, red = bareiss([[dot(u, w) for w in weights] + list(u)
                      for u in weights])
    if g == 0:
        return None
    return [primitive_part(row[d:])[0] for row in red]


def dual_cone(weights, n):
    """(rays, normals) of weights in Z^n, from one basis of their span.
    A target lies in the cone the weights span only if it pairs >= 0 with
    every ray and to zero with every normal.  Weights of unequal length
    raise ValueError.

    The rays are the extreme rays of the dual cone of the weights inside
    their span: primitive eta in the span with eta . w >= 0 for every
    weight w, one per facet of the cone the weights span.  For linearly
    independent weights w_1..w_d these are their dual basis eta_1..eta_d,
    in the order of the weights: eta_i . w_j == 0 for i != j and
    eta_i . w_i > 0 (see _dual_basis).

    For dependent weights of rank r, the basis of the span is taken from
    the weights, and each facet is spanned by r - 1 independent weights T.
    Its normal inside the span is the last vector of the dual basis of T
    and one more basis weight b that completes T to a basis of the span.
    That normal pairs positively with b, so it faces the cone whenever T
    spans a facet: it is a ray when it pairs >= 0 with every weight, and
    any other normal is dropped.  The rays are deduplicated, in the order
    of the subsets T.  When the cone is pointed, as it is for weights that
    all pair positively with one direction, the rays span the dual cone,
    so every nonzero weight in the cone pairs positively with some ray.

    The normals are n - r independent primitive vectors of Z^n that pair
    to zero with every weight: the basis of the span is completed to Q^n
    by unit vectors, and the normals are the dual basis vectors of the
    added unit vectors, in their order.  Full rank gives no normals.
    """
    weights = [tuple(w) for w in weights]
    rays = _dual_basis(weights)
    if rays is not None:
        basis = list(weights)
    else:
        basis = []          # a basis of the span, taken from the weights
        for w in weights:
            if _dual_basis([*basis, w]) is not None:
                basis.append(w)
        rays = {}
        for face in combinations(weights, len(basis) - 1):
            eta = next((etas[-1] for b in basis
                        if (etas := _dual_basis([*face, b])) is not None),
                       None)
            if eta is None:
                continue    # the face has rank below r - 1
            if all(dot(eta, w) >= 0 for w in weights):
                rays[eta] = None
        rays = list(rays)
    r = len(basis)
    if r == n:
        return rays, []
    for i in range(n):
        unit = tuple(int(i == j) for j in range(n))
        if _dual_basis([*basis, unit]) is not None:
            basis.append(unit)
            if len(basis) == n:
                break
    return rays, _dual_basis(basis)[r:]


def complete_to_basis(xi) -> BasisChange:
    """Complete a primitive vector xi to a lattice basis, xi last.

    Returns a BasisChange whose matrix has determinant +-1 and whose last
    column is xi.  The completion is found by reducing xi to the last
    standard basis vector with integer row operations, each a 2x2 block of
    determinant -1 on rows i and n-1; the inverse of every block is applied
    to the columns of the basis matrix alongside, so no inversion is needed.
    """
    xi = tuple(xi)
    if not is_primitive(xi):
        raise NotPrimitive(f"{xi} is not primitive")
    n = len(xi)
    # v: accumulated row operations with v @ xi == e_n; u: its inverse
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    x = list(xi)
    for i in range(n - 1):
        a, b = x[i], x[n - 1]
        if a == 0:
            continue
        g = math.gcd(a, b)
        s, t = _xgcd(a, b)
        # block [[p, q], [s, t]] sends (a, b) to (0, g); its inverse is
        # [[-t, q], [s, -p]]
        p, q = -(b // g), a // g
        row_i = [p * v[i][j] + q * v[n - 1][j] for j in range(n)]
        row_n = [s * v[i][j] + t * v[n - 1][j] for j in range(n)]
        v[i], v[n - 1] = row_i, row_n
        for row in u:
            row[i], row[n - 1] = (-t * row[i] + s * row[n - 1],
                                  q * row[i] - p * row[n - 1])
        x[i], x[n - 1] = p * a + q * b, g
    if x[n - 1] == -1:
        v[n - 1] = [-c for c in v[n - 1]]
        for row in u:
            row[n - 1] = -row[n - 1]
        x[n - 1] = 1
    assert x == [0] * (n - 1) + [1]
    return BasisChange(matrix=tuple(tuple(row) for row in u),
                       inverse=tuple(tuple(row) for row in v))


def _xgcd(a: int, b: int) -> tuple[int, int]:
    """Bezout coefficients (s, t) with s*a + t*b == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t

