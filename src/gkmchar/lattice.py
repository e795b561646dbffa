"""Integer lattice utilities: primitive vectors, unimodular basis completion,
coordinate changes and circle-subgroup orders.

Vectors and weights are plain tuples of Python ints, so all arithmetic is
arbitrary precision.  A weight pairs with a lattice vector through the usual
dot product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
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


def vector_gcd(v) -> int:
    return math.gcd(*(abs(x) for x in v)) if v else 0


def primitive_part(v) -> tuple[IntVec, int]:
    """Split a nonzero integer vector into (primitive vector, multiplicity).

    The multiplicity is the gcd of the absolute values of the coordinates,
    so multiplicity * primitive == v and the primitive part keeps the
    direction of v.
    """
    v = tuple(v)
    g = vector_gcd(v)
    if g == 0:
        raise ZeroVector("zero vector has no primitive part")
    return tuple(x // g for x in v), g


def is_primitive(v) -> bool:
    return vector_gcd(tuple(v)) == 1


@dataclass(frozen=True)
class BasisChange:
    """A unimodular change of basis whose last basis vector is a chosen xi.

    matrix holds the basis vectors as *columns* (row-major storage);
    inverse is its exact integer inverse.
    """

    matrix: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.matrix)

    def column(self, j) -> IntVec:
        return tuple(row[j] for row in self.matrix)

    @property
    def xi(self) -> IntVec:
        return self.column(self.n - 1)


def _mat_mul_vec(m, v):
    return tuple(dot(row, v) for row in m)


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


def det(m) -> int:
    """Exact determinant by fraction-free elimination."""
    return bareiss(m)[0]


def dual_basis(weights):
    """Primitive eta_1..eta_d with eta_i . w_j == 0 for i != j and
    eta_i . w_i > 0, for d <= n linearly independent weights w_1..w_d in
    Z^n; None when the weights are dependent, of unequal length or more
    than n.

    With W holding the weights as columns and the Gram matrix G = W^T W,
    eta_i is the primitive part of row i of adj(G) W^T, since
    adj(G) W^T W = det(G) I and det G > 0 for independent weights.  For
    d == n this row is det(W) times row i of adj(W), so the basis is the
    one dual to the weights.
    """
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


def weight_in_basis(alpha, basis: BasisChange) -> tuple[IntVec, int]:
    """Express a weight in the coordinates dual to the basis columns.

    Returns (beta, k) where k = alpha(xi) and beta collects the pairings
    with the first n-1 basis vectors.  Inverted by weight_from_basis.
    """
    alpha = tuple(alpha)
    n = basis.n
    full = tuple(dot(alpha, basis.column(j)) for j in range(n))
    return full[:-1], full[-1]


def weight_from_basis(beta, k: int, basis: BasisChange) -> IntVec:
    """Inverse of weight_in_basis: rebuild the weight from (beta, k)."""
    full = tuple(beta) + (k,)
    n = basis.n
    return tuple(sum(full[j] * basis.inverse[j][i] for j in range(n))
                 for i in range(n))


def cyclic_fiber_order(alpha, xi) -> int:
    """Order |alpha(xi)| of the finite cyclic intersection subgroup.

    Returns 0 exactly when the pairing vanishes, i.e. when the circle
    generated by xi sits inside the kernel of the character of alpha.
    """
    return abs(dot(alpha, xi))
