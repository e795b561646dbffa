"""Exact arithmetic in the character ring of an n-torus.

Characters are modeled as Laurent polynomials over Z^n: a map from integer
exponent vectors to nonzero integer coefficients.  RationalChar adds a
denominator that is a multiset of binomial factors 1 - x^gamma; these are the
localized per-vertex summands that the character map sums over.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import add, mul, sub

from .lattice import dot


class DimMismatch(ValueError):
    pass


class NotDivisible(ArithmeticError):
    """The polynomial is not in the ideal generated by 1 - x^gamma."""


class ZeroWeight(ValueError):
    pass


class PoleAtPoint(ArithmeticError):
    """A denominator factor vanishes numerically at the evaluation point."""


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
    def _unchecked(cls, dim, terms):
        """Wrap terms without re-checking them: every key must already be a
        tuple of length dim and every coefficient nonzero."""
        p = object.__new__(cls)
        p.dim = dim
        p.terms = terms
        return p

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
        get = out.get
        for exp, c in other.terms.items():
            out[exp] = get(exp, 0) + c
        return LaurentPoly._unchecked(self.dim,
                                      {e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._unchecked(self.dim,
                                      {e: -c for e, c in self.terms.items()})

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
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return LaurentPoly._unchecked(self.dim,
                                      {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

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


def poly_sum(dim, polys) -> LaurentPoly:
    """The sum of polys, all of dimension dim, added into one dict."""
    out = {}
    get = out.get
    for p in polys:
        for exp, c in p.terms.items():
            out[exp] = get(exp, 0) + c
    return LaurentPoly._unchecked(dim, {e: c for e, c in out.items() if c})


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


def divide_exact(p: LaurentPoly, *gammas) -> LaurentPoly:
    """Exact quotient of p by the product of (1 - x^gamma) over gammas, or
    raise NotDivisible.  With no gamma, p is returned.

    All divisions run in one pass through a Kronecker substitution (see
    _Kronecker).  With B = max_i(span_i(p) + sum over gammas of
    |gamma_i|) + 1, L is injective on the box of p padded by the gammas,
    and it orders exponents lexicographically, so a gamma whose first
    nonzero entry is positive has L(gamma) > 0.  p is encoded once, divided
    by each 1 - t^L(gamma) in turn (see _divide_univariate) and decoded
    once.

    If p is divisible, every partial quotient lies in the box of p, so a
    run of quotient terms along gamma takes at most
    min over gamma_i != 0 of span_i // |gamma_i| steps and the quotient
    decodes into the box.  A longer run, a run that never closes, or a
    digit outside [0, span_i] therefore raises NotDivisible.  Conversely,
    when the quotient q decodes into the box, L(q * prod) = L(p) with both
    sides in the padded box, where L is injective, so q * prod = p.

    Every gamma whose length is not p.dim raises DimMismatch before any
    work, zero p included; a zero gamma raises ZeroWeight.
    """
    n = p.dim
    for g in gammas:
        if len(g) != n:
            raise DimMismatch(
                f"weight {tuple(g)} has length {len(g)}, expected {n}")
    for g in gammas:
        if not any(g):
            raise ZeroWeight("cannot divide by 1 - x^0")
    terms = p.terms
    if not gammas or not terms:
        return p
    lo, hi = _box(terms)
    span = list(map(sub, hi, lo))
    padded = span
    for g in gammas:
        padded = list(map(add, padded, map(abs, g)))
    codec = _Kronecker(lo, span, max(padded) + 1)
    f = dict(zip(codec.keys(terms), terms.values()))
    for g in gammas:
        a = codec.key(g)
        steps = min(s // abs(x) for s, x in zip(span, g) if x)
        if a < 0:
            # 1 / (1 - t^-a) = -t^a / (1 - t^a)
            a = -a
            f = {k + a: -c for k, c in f.items()}
        f = _divide_univariate(f, a, steps * a)
    return LaurentPoly._unchecked(n, codec.decode(f))


def _box(terms) -> tuple:
    """(lo, hi): the least and the largest entry in each coordinate of a
    nonempty collection of exponents."""
    columns = list(zip(*terms))
    return list(map(min, columns)), list(map(max, columns))


class _Kronecker:
    """The Kronecker substitution x^e -> t^L(e - lo), with
    L(e) = sum_i e_i * B^(n-1-i), on the box lo <= e <= lo + span.

    L is additive, so L(e + g) = L(e) + L(g) for every integer g, and it is
    injective on any box whose width is below B in each coordinate: two
    distinct points there differ by a vector whose first nonzero entry, at
    i, has |entry| * B^(n-1-i) > the most the later coordinates can add.
    With B > max_i span_i the box maps into [0, B^n), and each key decodes
    back to its exponent one digit at a time.
    """

    __slots__ = ("lo", "span", "base", "powers")

    def __init__(self, lo, span, base):
        self.lo = lo
        self.span = span
        self.base = base
        self.powers = [base ** i for i in range(len(lo) - 1, -1, -1)]

    def key(self, g) -> int:
        """L(g): the shift of every key when an exponent moves by g."""
        return sum(map(mul, g, self.powers))

    def keys(self, exps) -> list:
        """[L(e - lo) for e in exps], for a collection of exponents inside
        the box."""
        base = self.base
        # by Horner's rule, one coordinate at a time
        keys = [0] * len(exps)
        for column, low in zip(zip(*exps), self.lo):
            keys = [k * base + x - low for k, x in zip(keys, column)]
        return keys

    def decode(self, f: dict) -> dict:
        """The term map with keys L(e - lo), or raise NotDivisible when a
        digit of a key falls outside [0, span_i]."""
        keys = list(f)
        if not keys:
            return {}
        columns = []
        # one digit at a time, most significant first
        for power, s, low in zip(self.powers, self.span, self.lo):
            digits = [k // power for k in keys]
            if min(digits) < 0 or max(digits) > s:
                raise NotDivisible("the quotient leaves the box of p")
            keys = [k % power for k in keys]
            columns.append([d + low for d in digits])
        return dict(zip(zip(*columns), f.values()))


def _divide_univariate(f: dict, a: int, limit: int) -> dict:
    """f / (1 - t^a) for a > 0, as a map of integer exponents to nonzero
    coefficients, or raise NotDivisible.

    The quotient's coefficient at k is the sum of f over k, k - a, k - 2a,
    and so on.  f's keys are walked in increasing order, and each residue
    class mod a keeps its open run of quotient terms: the run's first key,
    its last key and its running sum.  The next key of the class fills the
    gap from the last key with that sum, and the run ends where the sum
    returns to zero.  A run that would span more than limit raises
    NotDivisible before its gap is filled, and so does a run still open
    at the end.
    """
    quotient = {}
    runs = {}
    get = runs.get
    for k in sorted(f):
        r = k % a
        run = get(r)
        c = f[k]
        if run is None:
            quotient[k] = c
            runs[r] = (k, k, c)
            continue
        first, last, s = run
        if k - last != a:
            if k - a - first > limit:
                raise NotDivisible(f"a run of quotient terms spans more "
                                   f"than {limit}")
            for j in range(last + a, k, a):
                quotient[j] = s
        s += c
        if not s:
            del runs[r]
        elif k - first > limit:
            raise NotDivisible(f"a run of quotient terms spans more "
                               f"than {limit}")
        else:
            quotient[k] = s
            runs[r] = (first, k, s)
    if runs:
        raise NotDivisible("a run of quotient terms never closes")
    return quotient


def congruent_mod_edge(p: LaurentPoly, q: LaurentPoly, gamma) -> bool:
    """True iff p - q lies in the ideal (1 - x^gamma): the one-edge case
    of incongruent_edges.  A zero gamma raises ZeroWeight; p and q of two
    dimensions, or a gamma of another length, raise DimMismatch."""
    if p.dim != q.dim:
        raise DimMismatch(f"{p.dim} vs {q.dim}")
    return not incongruent_edges(p.dim, {0: p.terms, 1: q.terms},
                                 ((0, 1, gamma),))


def incongruent_edges(n, values, edges) -> list:
    """The positions, in edge order, of the edges (src, dst, gamma) whose
    end values values[src] and values[dst], each a map of exponents in Z^n
    to integer coefficients, differ modulo 1 - x^gamma.

    p lies in the ideal (1 - x^gamma) exactly when the coefficients of p
    sum to zero on every class e + Z*gamma.  The class of e is named by
    its representative r = e - floor(e_i / gamma_i) * gamma, where i is
    the first coordinate with gamma_i != 0: moving e by k * gamma moves
    the floor by k, so r is the same for the whole class, and r = e mod
    Z*gamma, so two classes have two representatives.

    Each representative is packed into one int key by balanced base-B
    digits, key(e) = sum_j e_j * B^(n-1-j).  With E the largest |entry|
    of an exponent and X that of a weight, |floor(e_i / gamma_i)| <= E,
    so every entry of r lies in [-E(1+X), E(1+X)], and B = 2E(1+X) + 1
    makes key injective on the representatives: two of them differ by at
    most B - 1 in each entry, so the first entry in which they differ
    outweighs all later ones.  B >= 2 covers E = 0.  key is linear, so a
    term's key at an edge is key(e) - floor(e_i / gamma_i) * key(gamma),
    and each value is packed once for all its edges.

    A zero gamma raises ZeroWeight, and a gamma or a value whose length
    is not n raises DimMismatch.
    """
    big = 0
    for _, _, g in edges:
        if not any(g):
            raise ZeroWeight("congruence modulo the zero weight")
        if len(g) != n:
            raise DimMismatch(f"weight {tuple(g)} has length {len(g)}, "
                              f"expected {n}")
        big = max(big, max(g), -min(g))
    top = 0
    for v, terms in values.items():
        if terms:
            m = len(next(iter(terms)))
            if m != n:
                raise DimMismatch(f"value at {v} has length {m}, "
                                  f"expected {n}")
            top = max(top, max(map(max, terms)), -min(map(min, terms)))
    base = max(2, 2 * top * (1 + big) + 1)
    powers = [base ** j for j in range(n - 1, -1, -1)]
    # (key, exponent, coefficient) of each term of each value
    packed = {v: list(zip([sum(map(mul, e, powers)) for e in terms], terms,
                          terms.values()))
              for v, terms in values.items()}
    out = []
    for pos, (src, dst, g) in enumerate(edges):
        step = sum(map(mul, g, powers))
        i = g.index(next(filter(None, g)))
        gi = g[i]
        acc = {}
        get = acc.get
        for k, e, c in packed[src]:
            r = k - e[i] // gi * step
            acc[r] = get(r, 0) + c
        for k, e, c in packed[dst]:
            r = k - e[i] // gi * step
            acc[r] = get(r, 0) - c
        if any(acc.values()):
            out.append(pos)
    return out


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
    """Sum of the terms' phases in sorted exponent order, so that the float
    result depends only on the polynomial, not on the order its terms were
    built in."""
    terms = p.terms
    total = 0j
    for e in sorted(terms):
        total += terms[e] * cmath.exp(TWO_PI_I * (dot(e, nums) / lcd))
    return total


PRIME = 2 ** 61 - 1     # a Mersenne prime


def _monomials_mod(exps, point, p) -> list:
    """[point^e mod p for e in exps], one coordinate at a time: each
    distinct exponent in a coordinate takes one pow."""
    values = [1] * len(exps)
    for x, column in zip(point, zip(*exps)):
        power = {e: pow(x, e, p) for e in set(column)}
        values = [v * power[e] % p for v, e in zip(values, column)]
    return values
