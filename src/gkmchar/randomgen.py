"""Seeded random inputs for the property batteries: generic directions,
classes closed under the ring operations, symplectic rescalings, torus
points away from poles.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .lattice import direction, dot, primitive_part, vadd, vscale
from .laurent import LaurentPoly, RationalChar, eval_numeric, PoleAtPoint
from .graphs import GkmAction, KClass, SymplecticClass, ValidationError, \
    constant_class, gen_cp1_in_plane, gen_hirzebruch, gen_product, \
    gen_projective, gen_weyl_orbit, positive_roots, restrict, \
    symplectic_class


def standard_fixtures():
    """The named desk-scale graph fixtures used across the test batteries."""
    fixtures = {
        "cp1": gen_cp1_in_plane(),
        "proj1": gen_projective(1),
        "proj2": gen_projective(2),
        "proj3": gen_projective(3),
        "hirzebruch1": gen_hirzebruch(1),
        "hirzebruch2": gen_hirzebruch(2, a=1, b=2),
    }
    p1a, p1s = gen_projective(1)
    p2a, p2s = gen_projective(2)
    fixtures["p1xp1"] = gen_product(p1a, p1s, p1a, p1s)
    fixtures["p1xp2"] = gen_product(p1a, p1s, p2a, p2s)
    return fixtures


def flag_fixtures():
    """Coadjoint orbits, whose valence exceeds the rank of their weights:
    Fl(3) and Fl(4) at rho and 2rho, Fl(3) at (0, 2, 5), the B2 and C2
    flags at (2, 1) and the 5-quadric G2/P at (1, 0, -1).  The names of
    the type-A entries start with "fl".  They are kept out of
    standard_fixtures(), which the selftest batteries draw from."""
    a2, a3 = positive_roots("A", 2), positive_roots("A", 3)
    return {
        "fl3": gen_weyl_orbit(a2, (0, 1, 2)),
        "fl3-2rho": gen_weyl_orbit(a2, (0, 2, 4)),
        "fl3-025": gen_weyl_orbit(a2, (0, 2, 5)),
        "fl4": gen_weyl_orbit(a3, (0, 1, 2, 3)),
        "fl4-2rho": gen_weyl_orbit(a3, (0, 2, 4, 6)),
        "b2": gen_weyl_orbit(positive_roots("B", 2), (2, 1)),
        "c2": gen_weyl_orbit(positive_roots("C", 2), (2, 1)),
        "g2-quadric": gen_weyl_orbit(positive_roots("G", 2), (1, 0, -1)),
    }


def random_generic_xi(action: GkmAction, rng: random.Random, bound: int = 5):
    """A primitive direction with nonzero pairing against every edge weight."""
    weights = [e.weight for e in action.geometric_edges()]
    while True:
        xi = tuple(rng.randint(-bound, bound) for _ in range(action.n))
        if all(x == 0 for x in xi):
            continue
        xi, _ = primitive_part(xi)
        if all(dot(w, xi) != 0 for w in weights):
            return xi


def random_zero_regular_xi(sym: SymplecticClass, rng: random.Random,
                           bound: int = 5, attempts: int = 500):
    """Generic direction that also avoids the vertex weights' zero level.

    Raises if none is found: e.g. a vertex weight of zero makes zero a
    critical level for every direction.
    """
    for _ in range(attempts):
        xi = random_generic_xi(sym.action, rng, bound)
        if all(dot(a, xi) != 0 for a in sym.alphas.values()):
            return xi
    raise ValueError("no zero-regular generic direction found")


def random_ring_element(dim: int, rng: random.Random, terms: int = 2,
                        exp_bound: int = 1, coeff_bound: int = 3):
    out = {}
    for _ in range(rng.randint(1, terms)):
        exp = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(dim))
        c = rng.randint(-coeff_bound, coeff_bound)
        out[exp] = out.get(exp, 0) + c
    p = LaurentPoly(dim, out)
    return p if not p.is_zero() else LaurentPoly.one(dim)

def random_class(action: GkmAction, sym: SymplecticClass,
                 rng: random.Random) -> KClass:
    """A random compatible class, built from constants and the symplectic
    base by sums, products and global ring multiples (valid by closure)."""
    base = sym.base
    pool = [constant_class(action, rng.randint(-2, 2)), base]
    if rng.random() < 0.5:
        pool.append(base * base)
    out = pool[0]
    for item in pool[1:]:
        if rng.random() < 0.5:
            out = out + item * random_ring_element(action.n, rng)
        else:
            out = out * item
    if rng.random() < 0.4:
        out = out * random_ring_element(action.n, rng)
    return out


def random_symplectic(action: GkmAction, sym: SymplecticClass,
                      rng: random.Random) -> SymplecticClass:
    """Rescaled and translated copy of the default symplectic class."""
    scale = rng.randint(1, 3)
    shift = tuple(rng.randint(-2, 2) for _ in range(action.n))
    alphas = {v: vadd(vscale(a, scale), shift)
              for v, a in sym.alphas.items()}
    return symplectic_class(action, alphas)


def random_restriction(action: GkmAction, sym: SymplecticClass,
                       rng: random.Random):
    """(P, action, sym) restricted to a random 2-dimensional subtorus.

    P is a 2 x n integer matrix with entries in [-2, 2], redrawn until the
    restriction validates (see graphs.restrict).  On a graph of valence
    d > 2 this gives inputs with more weights per vertex than the rank.
    Raises after 500 draws that all fail.
    """
    for _ in range(500):
        P = [tuple(rng.randint(-2, 2) for _ in range(action.n))
             for _ in range(2)]
        try:
            return (P,) + restrict(action, sym, P)
        except ValidationError:
            continue
    raise ValueError("no restriction to a 2-torus validates")


def random_torus_point(dim: int, rng: random.Random,
                       max_denominator: int = 1_000_000):
    return tuple(Fraction(rng.randrange(max_denominator), max_denominator)
                 for _ in range(dim))


def random_pole_free_point(chars, dim: int, rng: random.Random,
                           attempts: int = 200):
    """(point, values): a torus point at which every given rational
    character is pole free, and the characters' values there, in order."""
    for _ in range(attempts):
        point = random_torus_point(dim, rng)
        try:
            values = [eval_numeric(ch, point) for ch in chars]
        except PoleAtPoint:
            continue
        return point, values
    raise PoleAtPoint("no pole-free point found")


def random_vertex_star(n: int, d: int, rng: random.Random,
                       exp_bound: int = 2):
    """A localized one-vertex summand with pairwise independent denominator
    weights, plus a direction generic for it."""
    while True:
        weights = []
        while len(weights) < d:
            w = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(n))
            if any(w) and direction(w)[0] not in {direction(u)[0]
                                                  for u in weights}:
                weights.append(w)
        mu = tuple(rng.randint(-exp_bound, exp_bound) for _ in range(n))
        star = RationalChar(LaurentPoly.monomial(mu), tuple(weights))
        xi = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(x != 0 for x in xi):
            xi, _ = primitive_part(xi)
            if all(dot(w, xi) != 0 for w in weights):
                return star, xi
