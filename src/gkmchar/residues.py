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
from operator import add, mul

from .lattice import BasisChange, complete_to_basis, dot, vadd, vneg
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
    are the same for every monomial and set up once.  Each monomial walks
    the l_i with sum l_i*|s_i| = -(k + shift) depth first, its stack
    holding one next l per outer factor at most; the second to last
    factor runs over its range in place, and the last factor's l is solved
    for.
    """
    shift = sum(max(-flip * k, 0) for _, k in z.factors)
    targets = [-(flip * k + shift) for _, _, k in z.numer]
    top = max(targets, default=-1)
    if top < 0:
        return {}
    zero = offset = (0,) * (z.n - 1)
    sign, steps = 1, []
    for beta, k in z.factors:
        if flip * k < 0:
            sign, beta = -sign, vneg(beta)
            offset = vadd(offset, beta)
        steps.append((abs(k), beta))
    # longest steps outermost; below two factors, padded by factors longer
    # than any target, which take only l = 0
    steps = [(top + 1, zero)] * (2 - len(steps)) + \
        sorted(steps, key=lambda t: -t[0])
    (in_s, in_step), (last_s, last_step) = steps.pop(-2), steps.pop()
    depth = len(steps)
    out = {}
    get = out.get
    for (c, beta, _), target in zip(z.numer, targets):
        if target < 0:
            continue
        c *= sign
        stack = [(0, target, vadd(beta, offset))]
        while stack:
            i, r, acc = stack.pop()
            while i < depth:        # the outer factors from i on at l = 0
                s, step = steps[i]
                if r >= s:
                    stack.append((i, r - s, tuple(map(add, acc, step))))
                i += 1
            while r >= 0:           # the second to last at every l
                l, rest = divmod(r, last_s)
                if not rest:
                    key = tuple([a + l * y for a, y in zip(acc, last_step)])
                    out[key] = get(key, 0) + c
                r -= in_s
                acc = tuple(map(add, acc, in_step))
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
