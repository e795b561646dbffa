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

from .lattice import BasisChange, complete_to_basis, dot, vadd, vneg, \
    vscale, vsub, weight_from_basis
from .laurent import LaurentPoly, RationalChar, eval_numeric
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
    cols = basis.columns
    factors = []
    for g in f.denominator:
        *beta, k = (dot(g, col) for col in cols)
        if k == 0:
            raise NotGeneric(
                f"denominator weight {g} pairs to zero with {xi}")
        factors.append((tuple(beta), k))
    numer = []
    for exp, c in sorted(f.numerator.terms.items()):
        *beta, k = (dot(exp, col) for col in cols)
        numer.append((c, tuple(beta), k))
    return ZForm(basis=basis, numer=tuple(numer), factors=tuple(factors))


def from_z_form(z: ZForm) -> RationalChar:
    """Round-trip back to the original coordinates."""
    n = z.n
    terms = {}
    for c, beta, k in z.numer:
        exp = weight_from_basis(beta, k, z.basis)
        terms[exp] = terms.get(exp, 0) + c
    den = tuple(weight_from_basis(beta, k, z.basis) for beta, k in z.factors)
    return RationalChar(LaurentPoly(n, terms), den)


def res_half(z: ZForm, side: str) -> LaurentPoly:
    """One contour's worth of residue, as a polynomial in the y-variables.

    side "minus" extracts the z^0 coefficient of the expansion valid inside
    the unit circle; side "plus" is the outer contour, obtained by the
    substitution z -> 1/z which reduces it to the inner machinery with all
    z-degrees negated.
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    flip = -1 if side == "plus" else 1
    m = z.n - 1
    out: dict = {}
    factors = [(beta, flip * k) for beta, k in z.factors]
    for c, beta, k in z.numer:
        _accumulate_inner(out, c, beta, flip * k, factors, m)
    return LaurentPoly(m, out)


def _accumulate_inner(out, coeff, beta, k, factors, m):
    """z^0 coefficient of the inner expansion of one numerator monomial.

    Inside the unit circle each factor (1 - a*z^s) with s > 0 expands as
    sum_l a^l z^{s*l}; with s < 0 it contributes -a^{-(l+1)} z^{|s|*(l+1)}
    after clearing the negative power, shifting the effective z-degree of
    the monomial by sum of |s| over the negative factors.  The exponent l
    of the last factor is fixed by the z-degree the others leave, so it is
    solved for, not enumerated.
    """
    neg = [(beta_i, -k_i) for beta_i, k_i in factors if k_i < 0]
    pos = [(beta_i, k_i) for beta_i, k_i in factors if k_i > 0]
    base_k = k + sum(s for _, s in neg)
    target = -base_k
    if target < 0:
        return
    sign = -1 if len(neg) % 2 else 1
    # the l = 0 term of a negative factor carries y^(-beta_i); from there
    # every factor steps its y-exponent by -beta_i or beta_i per l
    start = tuple(beta)
    for beta_i, _ in neg:
        start = vsub(start, beta_i)
    steps = [(s, vneg(beta_i)) for beta_i, s in neg] + \
        [(s, beta_i) for beta_i, s in pos]
    last = len(steps) - 1

    def emit(key):
        nc = out.get(key, 0) + sign * coeff
        if nc:
            out[key] = nc
        else:
            del out[key]

    def recurse(idx, remaining, acc_beta):
        s, step = steps[idx]
        if idx == last:
            l, r = divmod(remaining, s)
            if r == 0:
                emit(vadd(acc_beta, vscale(step, l)))
            return
        for _ in range(remaining // s + 1):
            recurse(idx + 1, remaining, acc_beta)
            remaining -= s
            acc_beta = vadd(acc_beta, step)

    if not steps:
        if target == 0:
            emit(start)
        return
    recurse(0, target, start)


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

    The sign convention follows the orientation fixed by xi: replacing xi
    by -xi negates the result.  basis is passed to `to_z_form`: omitted,
    each call completes xi to a lattice basis of its own; a caller taking
    many residues along one xi passes `complete_to_basis(xi)` once.
    """
    z = to_z_form(f, xi, basis=basis)
    plus_y = res_half(z, "plus")
    minus_y = res_half(z, "minus")
    plus = _embed(plus_y, z.basis)
    minus = _embed(minus_y, z.basis)
    return ResidueValue(plus=plus, minus=minus, total=plus - minus)


def _embed(p: LaurentPoly, basis: BasisChange) -> LaurentPoly:
    """Map y-exponents back into Z^n along the annihilator of xi.

    Canonical despite the non-canonical basis completion: every y-monomial
    produced by the extraction is an integer combination of the original
    weights whose z-degrees cancel.
    """
    cols = [col[:-1] for col in basis.inverse_columns]
    terms = {}
    for beta, c in p.terms.items():
        exp = tuple(dot(beta, col) for col in cols)
        terms[exp] = terms.get(exp, 0) + c
    return LaurentPoly(basis.n, terms)


def fiber_average_numeric(f: RationalChar, alpha, xi, point) -> complex:
    """Average of f over the fiber of the quotient map above a point.

    alpha cuts out the subtorus the push-forward starts from; the fiber over
    the class of `point` in the quotient by the circle of xi consists of
    |alpha(xi)| shifts of the point along xi, and the push-forward evaluates
    as their mean.
    """
    alpha = tuple(alpha)
    xi = tuple(xi)
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
