"""Exact arithmetic in the character ring of an n-torus.

Characters are modeled as Laurent polynomials over Z^n: a map from integer
exponent vectors to nonzero integer coefficients.  RationalChar adds a
denominator that is a multiset of binomial factors 1 - x^gamma; these are the
localized per-vertex summands that the character map sums over.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass

from .lattice import dot, vadd, vneg


class DimMismatch(ValueError):
    pass


class NotDivisible(ArithmeticError):
    """The polynomial is not in the ideal generated by 1 - x^gamma."""


class ZeroWeight(ValueError):
    pass


class PoleAtPoint(ArithmeticError):
    """A denominator factor vanishes (numerically) at the evaluation point."""


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in n variables.

    Immutable by convention; terms maps exponent tuples to nonzero ints.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        self.dim = dim
        clean = {}
        if terms:
            for exp, c in terms.items():
                if c != 0:
                    exp = tuple(exp)
                    if len(exp) != dim:
                        raise DimMismatch(
                            f"exponent {exp} has length {len(exp)}, expected {dim}")
                    clean[exp] = c
        self.terms = clean

    @classmethod
    def zero(cls, dim):
        return cls(dim)

    @classmethod
    def one(cls, dim):
        return cls(dim, {(0,) * dim: 1})

    @classmethod
    def monomial(cls, exp, coeff=1):
        exp = tuple(exp)
        return cls(len(exp), {exp: coeff})

    @classmethod
    def constant(cls, dim, c):
        return cls(dim, {(0,) * dim: c})

    def is_zero(self):
        return not self.terms

    def support(self):
        return set(self.terms)

    def coeff(self, exp):
        return self.terms.get(tuple(exp), 0)

    def _check(self, other):
        if self.dim != other.dim:
            raise DimMismatch(f"{self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.dim, other)
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return LaurentPoly(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.dim,
                               {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = vadd(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.dim, out)

    __rmul__ = __mul__

    def shift(self, exp):
        """Multiply by the monomial x^exp."""
        exp = tuple(exp)
        return LaurentPoly(self.dim,
                           {vadd(e, exp): c for e, c in self.terms.items()})

    def filter_terms(self, keep):
        return LaurentPoly(self.dim,
                           {e: c for e, c in self.terms.items() if keep(e)})

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.dim, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __len__(self):
        return len(self.terms)

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return f"LaurentPoly({self})"


def render_poly(p: LaurentPoly) -> str:
    """Canonical textual form: terms in lexicographic exponent order.

    The constant term prints as a bare integer, e.g.
    ``-1*x^(0,1) + 2*x^(1,-2)`` and ``1 + 1*x^(1,0)``.
    """
    if not p.terms:
        return "0"
    zero = (0,) * p.dim
    parts = []
    for exp in sorted(p.terms):
        c = p.terms[exp]
        if exp == zero:
            parts.append(str(c))
        else:
            parts.append(f"{c}*x^({','.join(str(e) for e in exp)})")
    return " + ".join(parts)


@dataclass(frozen=True)
class RationalChar:
    """numerator / product of (1 - x^gamma) over the denominator weights."""

    numerator: LaurentPoly
    denominator: tuple  # tuple of weight tuples, a multiset

    def __post_init__(self):
        for g in self.denominator:
            if all(x == 0 for x in g):
                raise ZeroWeight("denominator weight is zero")
            if len(g) != self.numerator.dim:
                raise DimMismatch("denominator weight dimension")

    @property
    def dim(self):
        return self.numerator.dim


def ring_arith(a: LaurentPoly, b: LaurentPoly, op: str) -> LaurentPoly:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def divide_exact(p: LaurentPoly, gamma) -> LaurentPoly:
    """Exact quotient of p by (1 - x^gamma), or raise NotDivisible.

    Synthetic division graded by the pairing with gamma itself: repeatedly
    peel the minimal-grade term c*x^mu, add it to the quotient, and replace
    it by c*x^(mu+gamma).  If p is divisible the quotient's grades stay
    below max-grade(p) - |gamma|^2, which bounds the loop.
    """
    gamma = tuple(gamma)
    gg = dot(gamma, gamma)
    if gg == 0:
        raise ZeroWeight("cannot divide by 1 - x^0")
    if p.is_zero():
        return LaurentPoly.zero(p.dim)
    grade = lambda e: dot(e, gamma)
    gmax = max(grade(e) for e in p.terms)
    # remainder bucketed by grade, processed in increasing order
    buckets: dict[int, dict] = {}
    heap: list[int] = []
    for e, c in p.terms.items():
        g = grade(e)
        if g not in buckets:
            buckets[g] = {}
            heapq.heappush(heap, g)
        buckets[g][e] = c
    quotient = {}
    while heap:
        g = heapq.heappop(heap)
        bucket = buckets.pop(g)
        if not bucket:
            continue
        if g > gmax - gg:
            raise NotDivisible(f"remainder term survives at grade {g}")
        nxt = g + gg
        if nxt not in buckets:
            buckets[nxt] = {}
            heapq.heappush(heap, nxt)
        carry = buckets[nxt]
        for e, c in bucket.items():
            quotient[e] = quotient.get(e, 0) + c
            e2 = vadd(e, gamma)
            nc = carry.get(e2, 0) + c
            if nc:
                carry[e2] = nc
            else:
                del carry[e2]
    return LaurentPoly(p.dim, quotient)


def reduce_mod_weight(exp, gamma, gg=None):
    """Canonical representative of exp modulo the rank-1 sublattice Z*gamma."""
    if gg is None:
        gg = dot(gamma, gamma)
    t = dot(exp, gamma) // gg
    return tuple(x - t * g for x, g in zip(exp, gamma))


def congruent_mod_edge(p: LaurentPoly, q: LaurentPoly, gamma) -> bool:
    """True iff p - q lies in the ideal (1 - x^gamma).

    Checked by collapsing exponents modulo Z*gamma and comparing the
    resulting coefficient maps.
    """
    gamma = tuple(gamma)
    gg = dot(gamma, gamma)
    if gg == 0:
        raise ZeroWeight("congruence modulo the zero weight")
    if p.dim != q.dim:
        raise DimMismatch(f"{p.dim} vs {q.dim}")
    out: dict = {}
    for poly, sign in ((p, 1), (q, -1)):
        for e, c in poly.terms.items():
            r = reduce_mod_weight(e, gamma, gg)
            nc = out.get(r, 0) + sign * c
            if nc:
                out[r] = nc
            else:
                out.pop(r, None)
    return not out


def pushforward_quotient(p: LaurentPoly, xi, m: int) -> LaurentPoly:
    """Push-forward along the quotient by the order-m cyclic group exp(xi/m).

    Averaging a monomial over the m-th roots of unity keeps it unchanged
    when its xi-pairing is divisible by m and kills it otherwise.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    xi = tuple(xi)
    return p.filter_terms(lambda e: dot(e, xi) % m == 0)


TWO_PI_I = 2j * cmath.pi

POLE_EPS = 1e-9


def eval_numeric(f, point) -> complex:
    """Evaluate a LaurentPoly or RationalChar at a torus point.

    The point is a tuple of exact rationals (ints or Fractions) in [0, 1);
    the monomial x^mu becomes exp(2*pi*i * mu(point)).  Raises PoleAtPoint
    when a denominator binomial is within 1e-9 of zero.

    The point is written once as integer numerators nums over its least
    common denominator lcd, so each phase mu(point) is the integer
    dot(mu, nums) divided by lcd.  Integer true division is correctly
    rounded, like float(Fraction), so every phase float is the one the
    exact rational phase rounds to.
    """
    lcd = math.lcm(*(t.denominator for t in point))
    nums = tuple(t.numerator * (lcd // t.denominator) for t in point)
    if isinstance(f, RationalChar):
        den = 1.0 + 0j
        for g in f.denominator:
            factor = 1 - cmath.exp(TWO_PI_I * (dot(g, nums) / lcd))
            if abs(factor) <= POLE_EPS:
                raise PoleAtPoint(f"denominator weight {g} vanishes at {point}")
            den *= factor
        return _eval_terms(f.numerator, nums, lcd) / den
    return _eval_terms(f, nums, lcd)


def _eval_terms(p: LaurentPoly, nums, lcd) -> complex:
    total = 0j
    for e, c in p.terms.items():
        total += c * cmath.exp(TWO_PI_I * (dot(e, nums) / lcd))
    return total
