"""Benchmark inputs and their expected answers, computed without gkmchar.

Every input is a Delzant polytope given twice: as a labelled graph (vertex
weights alpha_p, edge weights along the polytope's edges) that gkmchar reads,
and as the inequalities a.x <= b that cut it out.  Expected answers come from
the inequalities alone: the character of the symplectic class x^{alpha_p} has
coefficient 1 exactly at the lattice points of the polytope, and for a
mixed class sum_j r_j * base^{k_j} it is sum_j r_j * L(k_j * P), where
L(Q) sums x^m over the lattice points m of Q.

Polynomials here are plain dicts from exponent tuples to nonzero ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Polytope:
    name: str
    n: int
    alphas: dict        # vertex name -> corner (tuple of ints)
    edges: tuple        # (src, dst, primitive weight pointing src -> dst)
    ineqs: tuple        # (a, b): the polytope is {x : a.x <= b for all}

    def contains(self, x, scale: int = 1) -> bool:
        return all(_dot(a, x) <= scale * b for a, b in self.ineqs)

    def transform(self, u: "Unimodular") -> "Polytope":
        """The same polytope in other lattice coordinates: x -> A x."""
        return Polytope(self.name, self.n,
                        {v: u.apply(a) for v, a in self.alphas.items()},
                        tuple((s, d, u.apply(w)) for s, d, w in self.edges),
                        tuple((u.covector(a), b) for a, b in self.ineqs))


@dataclass(frozen=True)
class Unimodular:
    """An integer matrix A with integer inverse.

    Weights map by A and directions (covectors) by the inverse transpose,
    so every pairing of a direction with a weight is unchanged; a problem
    moved by A is the same problem in other coordinates, with the same
    work for every algorithm that only pairs and adds.
    """
    a: tuple
    inv: tuple

    @classmethod
    def random(cls, rng, n: int):
        """A product of 2n random elementary row operations and a signed
        permutation."""
        a = [list(_unit(n, i)) for i in range(n)]
        inv = [list(_unit(n, i)) for i in range(n)]
        for _ in range(2 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            for row in inv:               # inv <- inv * (I - c E_ij)
                row[j] -= c * row[i]
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        a = [[signs[k] * x for x in a[perm[k]]] for k in range(n)]
        inv = [[signs[k] * row[perm[k]] for k in range(n)] for row in inv]
        return cls(tuple(map(tuple, a)), tuple(map(tuple, inv)))

    def apply(self, x):
        return tuple(_dot(row, x) for row in self.a)

    def covector(self, xi):
        n = len(xi)
        return tuple(sum(xi[i] * self.inv[i][j] for i in range(n))
                     for j in range(n))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _unit(n, i):
    return tuple(int(j == i) for j in range(n))


def projective(n: int, k: int, t) -> Polytope:
    """k times the standard n-simplex, translated by t."""
    t = tuple(t)
    corners = [(0,) * n] + [_unit(n, i) for i in range(n)]
    names = [f"P{i}" for i in range(n + 1)]
    alphas = {v: tuple(k * c + s for c, s in zip(p, t))
              for v, p in zip(names, corners)}
    edges = tuple((names[i], names[j],
                   tuple(a - b for a, b in zip(corners[j], corners[i])))
                  for i in range(n + 1) for j in range(i + 1, n + 1))
    ineqs = tuple((tuple(-x for x in _unit(n, i)), -t[i]) for i in range(n))
    ineqs += (((1,) * n, k + sum(t)),)
    return Polytope(f"projective-{n}-space x{k}", n, alphas, edges, ineqs)


def cube(m: int, k: int, t) -> Polytope:
    """k times the unit m-cube, translated by t: the polytope of (P1)^m."""
    t = tuple(t)
    alphas = {}
    for bits in itertools.product((0, 1), repeat=m):
        alphas["".join(map(str, bits))] = tuple(k * c + s
                                               for c, s in zip(bits, t))
    edges = []
    for bits in itertools.product((0, 1), repeat=m):
        for i in range(m):
            if bits[i] == 0:
                up = bits[:i] + (1,) + bits[i + 1:]
                edges.append(("".join(map(str, bits)), "".join(map(str, up)),
                              _unit(m, i)))
    ineqs = tuple((_unit(m, i), t[i] + k) for i in range(m))
    ineqs += tuple((tuple(-x for x in _unit(m, i)), -t[i]) for i in range(m))
    return Polytope(f"(P1)^{m} x{k}", m, alphas, tuple(edges), ineqs)


def hirzebruch(kk: int, a: int, b: int, t) -> Polytope:
    """Trapezoid with corners (0,0), (a,0), (a,b), (0,b+kk*a), translated."""
    t = tuple(t)
    corners = {"A": (0, 0), "B": (a, 0), "C": (a, b), "D": (0, b + kk * a)}
    alphas = {v: (p[0] + t[0], p[1] + t[1]) for v, p in corners.items()}
    edges = (("A", "B", (1, 0)), ("B", "C", (0, 1)),
             ("C", "D", (-1, kk)), ("D", "A", (0, -1)))
    ineqs = (((-1, 0), -t[0]), ((0, -1), -t[1]), ((1, 0), a + t[0]),
             ((kk, 1), b + kk * a + kk * t[0] + t[1]))
    return Polytope(f"Hirzebruch trapezoid k={kk} a={a} b={b}", 2, alphas,
                    edges, ineqs)


def box(p: Polytope, scale: int = 1, pad: int = 0):
    """Integer points of the bounding box of scale*P, widened by pad."""
    pts = [tuple(scale * x for x in c) for c in p.alphas.values()]
    ranges = [range(min(c[i] for c in pts) - pad,
                    max(c[i] for c in pts) + pad + 1) for i in range(p.n)]
    return itertools.product(*ranges)


def lattice_points(p: Polytope, scale: int = 1) -> list:
    """Lattice points of scale*P, from the inequalities."""
    return [x for x in box(p, scale) if p.contains(x, scale)]


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def indicator(points) -> dict:
    return {tuple(x): 1 for x in points}


def transform_poly(u: Unimodular, poly: dict) -> dict:
    return {u.apply(e): c for e, c in poly.items()}


def mixed_values(p: Polytope, parts):
    """Vertex values and expected character of sum_j r_j * base^{k_j}.

    parts is a list of (r_j, k_j) with r_j a polynomial dict.
    """
    values = {v: {} for v in p.alphas}
    expected = {}
    for r, k in parts:
        for v, alpha in p.alphas.items():
            mono = {tuple(k * x for x in alpha): 1}
            values[v] = poly_add(values[v], poly_mul(r, mono))
        expected = poly_add(expected,
                            poly_mul(r, indicator(lattice_points(p, k))))
    return values, expected


def graph_doc(p: Polytope, classes: dict) -> dict:
    """The gkmchar JSON document for P with the given named classes."""
    return {
        "n": p.n,
        "vertices": list(p.alphas),
        "edges": [{"from": s, "to": d, "alpha": list(w)}
                  for s, d, w in p.edges],
        "classes": {name: {v: [{"coeff": c, "exp": list(e)}
                               for e, c in sorted(poly.items())]
                           for v, poly in values.items()}
                    for name, values in classes.items()},
    }


def symplectic_values(p: Polytope) -> dict:
    return {v: {a: 1} for v, a in p.alphas.items()}
