"""Regularized residues along a circle subgroup.

A rational character with binomial denominators is rewritten in coordinates
adapted to the circle direction xi; the inner/outer contour integrals become
coefficient extractions from one-sided geometric-series expansions, and
their difference is a Laurent polynomial supported on the annihilator
lattice of xi.  A numeric fiber-averaging oracle cross-checks the symbolic
route at torus points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, mul

from .lattice import BasisChange, complete_to_basis, dot, vneg
from .laurent import DimMismatch, LaurentPoly, RationalChar, eval_numeric
from .characters import NotGeneric


@dataclass(frozen=True)
class ZForm:
    """A rational character in (y, z) coordinates with z along xi.

    numer holds (coeff, beta, k) triples, one per numerator monomial;
    factors holds (beta_i, k_i) per denominator binomial, all k_i nonzero.
    """

    basis: BasisChange
    numer: tuple            # ((coeff, beta, k), ...)
    factors: tuple          # ((beta_i, k_i), ...)

    @property
    def n(self):
        return self.basis.n


def to_z_form(f: RationalChar, xi, *, basis=None) -> ZForm:
    """Rewrite f in a basis with xi last; exact and invertible.

    basis is the lattice basis to use, built by `complete_to_basis(xi)`
    when omitted; a caller that rewrites many characters along one xi
    builds it once and passes it to every call.  A basis whose last
    vector is not xi raises ValueError.
    """
    xi = tuple(xi)
    if basis is None:
        basis = complete_to_basis(xi)
    elif basis.xi != xi:
        raise ValueError(f"basis completes {basis.xi}, not {xi}")
    if f.dim != basis.n:
        raise ValueError(f"dimension mismatch: {f.dim} vs {basis.n}")
    cols = basis.columns
    factors = []
    for g in f.denominator:
        *beta, k = [sum(map(mul, g, col)) for col in cols]
        if k == 0:
            raise NotGeneric(
                f"denominator weight {g} pairs to zero with {xi}")
        factors.append((tuple(beta), k))
    numer = []
    for exp, c in sorted(f.numerator.terms.items()):
        *beta, k = [sum(map(mul, exp, col)) for col in cols]
        numer.append((c, tuple(beta), k))
    return ZForm(basis=basis, numer=tuple(numer), factors=tuple(factors))


def _z0_terms(z: ZForm, flip) -> dict:
    """{y-exponent: coeff} of z^0 in the inner expansion of z with every
    z-degree times flip (1: the inner contour; -1: the outer one, whose
    z -> 1/z negates every z-degree).

    Inside the unit circle 1/(1 - a*z^s) is sum_l a^l z^(s*l) for s > 0
    and -sum_l a^-(l+1) z^(|s|*(l+1)) for s < 0.  The sign, the shift in
    z and offset in y of the negative factors, and the steps (|s|, +-beta)
    are set up once.  Each monomial seeds a state (z-degree left, y).
    Every factor but the last, longest step first, takes each state to
    those its l >= 0 reach with the z-degree >= 0, equal states merged;
    the last factor's l is solved for.  So the work follows the distinct
    states, not the ways of reaching them.
    """
    sign, shift, offset, steps = 1, 0, (0,) * (z.n - 1), []
    for beta, k in z.factors:
        k *= flip
        if k < 0:
            sign, shift, beta = -sign, shift - k, vneg(beta)
            offset = tuple(map(add, offset, beta))
        steps.append((abs(k), beta))
    # distinct monomials seed distinct states: the basis change is invertible
    states = {(r, tuple(map(add, beta, offset))): sign * c
              for c, beta, k in z.numer if (r := -(flip * k + shift)) >= 0}
    if not steps:
        return {y: c for (r, y), c in states.items() if not r}
    steps.sort(key=itemgetter(0), reverse=True)
    last_s, last_step = steps.pop()
    for s, step in steps:
        reached = {}
        get = reached.get
        for (r, y), c in states.items():
            while True:
                key = (r, y)
                reached[key] = get(key, 0) + c
                if r < s:
                    break
                r -= s
                y = tuple(map(add, y, step))
        states = reached
    out = {}
    get = out.get
    for (r, y), c in states.items():
        l, rest = divmod(r, last_s)
        if not rest:
            key = tuple([a + l * b for a, b in zip(y, last_step)])
            out[key] = get(key, 0) + c
    return {key: c for key, c in out.items() if c}


@dataclass(frozen=True)
class ResidueValue:
    """Inner/outer coefficient extractions re-embedded into Z^n.

    All exponents pair to zero with xi; total = plus - minus is the
    regularized residue.
    """

    plus: LaurentPoly
    minus: LaurentPoly
    total: LaurentPoly


def res_T(f: RationalChar, xi, *, basis=None) -> ResidueValue:
    """Regularized circle residue of a rational character.

    Both contours are taken from one `to_z_form` by `_z0_terms`, and each
    is mapped back into Z^n by the inverse basis, canonically: every
    monomial extracted is an integer combination of the original weights
    whose z-degrees cancel.  Replacing xi by -xi negates the result.
    basis goes to `to_z_form`; `reduction.vertex_residues` takes the
    residues of a class's vertices in one basis.
    """
    z = to_z_form(f, xi, basis=basis)
    cols = [col[:-1] for col in z.basis.inverse_columns]
    plus, minus = ({tuple([sum(map(mul, beta, col)) for col in cols]): c
                    for beta, c in _z0_terms(z, flip).items()}
                   for flip in (-1, 1))
    total = {exp: c for exp in {**plus, **minus}
             if (c := plus.get(exp, 0) - minus.get(exp, 0))}
    return ResidueValue(*(LaurentPoly._unchecked(z.n, terms)
                          for terms in (plus, minus, total)))


def fiber_average_numeric(f: RationalChar, alpha, xi, point) -> complex:
    """Average of f over the fiber of the quotient map above a point.

    alpha cuts out the subtorus the push-forward starts from; the fiber over
    the class of `point` in the quotient by the circle of xi consists of
    |alpha(xi)| shifts of the point along xi, and the push-forward evaluates
    as their mean.  Raises DimMismatch when point, alpha or xi is not of
    the dimension of f.
    """
    point, alpha, xi = tuple(point), tuple(alpha), tuple(xi)
    for name, v in (("point", point), ("alpha", alpha), ("xi", xi)):
        if len(v) != f.dim:
            raise DimMismatch(f"{name} {v} has length {len(v)}, "
                              f"expected {f.dim}")
    k = dot(alpha, xi)
    if k == 0:
        raise NotGeneric(f"{alpha} pairs to zero with {xi}")
    order = abs(k)
    pairing = sum(Fraction(a) * t for a, t in zip(alpha, point))
    total = 0j
    for j in range(order):
        t = (j - pairing) / k
        lift = tuple(p + t * x for p, x in zip(point, xi))
        total += eval_numeric(f, lift)
    return total / order
