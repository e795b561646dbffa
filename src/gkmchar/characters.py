"""The character map and its combinatorics: polarized expansions, partition
counts, the multiplicity formula, hull checks and the independent
exact-division route to the same character.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .lattice import NotPrimitive, dot, dual_basis, is_primitive, \
    primitive_part, vadd, vneg, vscale, vsub
from .laurent import LaurentPoly, NotDivisible, RationalChar, divide_exact
from .graphs import GkmAction, KClass, SymplecticClass


class NotGeneric(ValueError):
    """Some edge weight pairs to zero with the chosen direction."""


class TruncationOverflow(RuntimeError):
    """Polarized expansion exceeded the configured term budget."""


class InternalDivisionFailure(RuntimeError):
    """Exact division failed where polynomiality guarantees it; either a bug
    or an invalid input class."""


@dataclass(frozen=True)
class Polarization:
    """Per-vertex data attached to a generic direction xi.

    For each vertex, pos_edges lists the edge ids at the vertex whose weight
    pairs positively with xi (one per unoriented edge); sigma counts those
    that point *into* the vertex; prefix is the sum of their weights over the
    incoming ones, i.e. the monomial shift of the polarized expansion.
    two_delta / two_delta_sharp store twice the half-sums, keeping everything
    integral.
    """

    action: GkmAction
    xi: tuple
    pos_edges: dict         # vertex -> list of eids
    sigma: dict             # vertex -> int
    two_delta: dict         # vertex -> weight (2*delta_p)
    two_delta_sharp: dict   # vertex -> weight (2*delta_p^#)

    def sign(self, v) -> int:
        return -1 if self.sigma[v] % 2 else 1

    def shift(self, v):
        """delta^# - delta: always an integer vector."""
        diff = vsub(self.two_delta_sharp[v], self.two_delta[v])
        assert all(x % 2 == 0 for x in diff)
        return tuple(x // 2 for x in diff)

    def prefix(self, v):
        """Exponent of the monomial prefactor, -(delta^# - delta)."""
        return vneg(self.shift(v))

    def pos_weights(self, v):
        return [self.action.axial[e] for e in self.pos_edges[v]]


def polarize(action: GkmAction, xi) -> Polarization:
    """Split the edges at each vertex by the sign of their xi-pairing."""
    xi = tuple(xi)
    if not is_primitive(xi):
        raise NotPrimitive(f"{xi} is not primitive")
    pos_edges = {v: [] for v in action.vertices}
    sigma = {v: 0 for v in action.vertices}
    for e in action.edges:
        pairing = dot(action.axial[e.eid], xi)
        if pairing == 0:
            raise NotGeneric(f"edge {e.src}->{e.dst} pairs to zero with {xi}")
        if pairing > 0:
            pos_edges[e.src].append(e.eid)
            pos_edges[e.dst].append(e.eid)
            sigma[e.dst] += 1
    two_delta = {}
    two_delta_sharp = {}
    for v in action.vertices:
        assert len(pos_edges[v]) == action.d
        td = (0,) * action.n
        tds = (0,) * action.n
        for eid in pos_edges[v]:
            w = action.axial[eid]
            td = vadd(td, w)
            sgn = 1 if action.edges[eid].src == v else -1
            tds = vadd(tds, vscale(w, sgn))
        two_delta[v] = td
        two_delta_sharp[v] = tds
    return Polarization(action=action, xi=xi, pos_edges=pos_edges,
                        sigma=sigma, two_delta=two_delta,
                        two_delta_sharp=two_delta_sharp)


def kostant_count(weights, target, xi=None) -> int:
    """Number of ways to write target as a non-negative integer combination
    of the given weights.

    All weights must pair positively with some direction xi; if xi is not
    supplied a simple search tries to find one.  The count is computed by a
    memoized recursion over the weight list, bounded by the xi-pairing.
    """
    weights = [tuple(w) for w in weights]
    target = tuple(target)
    if xi is None:
        xi = _find_positive_direction(weights)
    else:
        xi = tuple(xi)
    pairings = [dot(w, xi) for w in weights]
    if any(p <= 0 for p in pairings):
        raise NotGeneric("every weight must pair positively with xi")

    @lru_cache(maxsize=None)
    def count(j, v):
        if j == 0:
            return 1 if all(x == 0 for x in v) else 0
        w, pw = weights[j - 1], pairings[j - 1]
        total = 0
        rem, level = v, dot(v, xi)
        while level >= 0:
            total += count(j - 1, rem)
            rem = vsub(rem, w)
            level -= pw
        return total

    return count(len(weights), target)


def _find_positive_direction(weights):
    if not weights:
        return None  # never consulted: the recursion ends immediately
    n = len(weights[0])
    candidates = [tuple(sum(w[i] for w in weights) for i in range(n))]
    span = range(-3, 4)
    if n <= 4:
        from itertools import product
        candidates += [c for c in product(span, repeat=n)]
    for xi in candidates:
        if xi and any(x != 0 for x in xi) and all(dot(w, xi) > 0 for w in weights):
            return xi
    raise NotGeneric("could not find a direction positive on all weights")


def multiplicity(sym: SymplecticClass, pol: Polarization, alpha) -> int:
    """Coefficient of x^alpha in the character, by the signed partition-count
    sum over vertices."""
    alpha = tuple(alpha)
    total = 0
    for v in pol.action.vertices:
        arg = vadd(vsub(alpha, sym.alphas[v]), pol.shift(v))
        n_v = kostant_count(pol.pos_weights(v), arg, pol.xi)
        total += pol.sign(v) * n_v
    return total


@dataclass(frozen=True)
class CharacterResult:
    poly: LaurentPoly


DEFAULT_TERM_BUDGET = 500_000


def character_expand(f: KClass, pol: Polarization,
                     term_budget: int = DEFAULT_TERM_BUDGET) -> CharacterResult:
    """Exact character via the polarized geometric-series expansion.

    Each vertex contributes sign * x^prefix * f_v * product over its
    positive edges of a geometric series in the edge weight.  The series
    are truncated by support bounds of the character (see support_bound):
    the bound in the direction xi at every vertex and, at a vertex whose
    positive weights w_1..w_d are linearly independent (d <= n), also the
    bounds in their dual basis eta_1..eta_d (eta_i . w_j == 0 for i != j,
    eta_i . w_i > 0; see lattice.dual_basis).  Every cut direction pairs
    nonnegatively with every weight at its vertex, so cutting a partial
    product never drops a term of the support.  The cuts differ from
    vertex to vertex; the summed result is filtered once by every bound
    used, which makes the truncation uniform and therefore exact.  A
    vertex with independent weights thus expands to at most
    prod_i (B(eta_i) - eta_i . base + 1) terms per base monomial, however
    steep xi is; a vertex with dependent weights keeps the xi cut alone.
    """
    action = pol.action
    xi = pol.xi
    rows = _bound_rows(f)
    if not rows:
        return CharacterResult(poly=LaurentPoly.zero(action.n))
    b_max = _support_bound(xi, rows)
    bounds = {}             # eta -> B(eta) for every dual direction used
    duals = {}              # positive weights -> their dual basis or None
    total = {}
    for v in action.vertices:
        if not f[v].terms:
            continue
        ws = pol.pos_weights(v)
        key = tuple(ws)
        if key not in duals:
            duals[key] = dual_basis(ws)
        etas = duals[key] or ()
        for eta in etas:
            if eta not in bounds:
                bounds[eta] = _support_bound(eta, rows)
        xi_cut = [(xi, b_max)]
        dual_cuts = [(eta, bounds[eta]) for eta in etas]
        acc = {e: c for e, c in f[v].shift(pol.prefix(v)).terms.items()
               if all(dot(e, d) <= b for d, b in xi_cut + dual_cuts)}
        for i, w in enumerate(ws):
            # of the cut directions only xi and eta_i pair positively with w
            lims = [(d, b, dot(w, d)) for d, b in xi_cut + dual_cuts[i:i + 1]]
            out = {}
            for e, c in acc.items():
                exp = e
                for _ in range(min((b - dot(e, d)) // p for d, b, p in lims)
                               + 1):
                    out[exp] = out.get(exp, 0) + c
                    exp = vadd(exp, w)
                    if len(out) > term_budget:
                        raise TruncationOverflow(
                            f"expansion exceeded {term_budget} terms")
            acc = out
        sign = pol.sign(v)
        for e, c in acc.items():
            total[e] = total.get(e, 0) + sign * c
    return CharacterResult(poly=LaurentPoly(action.n, {
        e: c for e, c in total.items()
        if c and all(dot(e, eta) <= b for eta, b in bounds.items())}))


def support_bound(f: KClass, eta) -> int | None:
    """B(eta): every weight mu in the support of the character of f has
    eta . mu <= B(eta); None when f is zero.

    B(eta) = max over vertices v with f_v != 0 of
    max_{mu in f_v} eta . mu - sum over the out-weights u at v of
    max(eta . u, 0).  For generic eta this is the largest eta-pairing in
    the expansion polarized by -eta, which sums to the same character;
    for any eta it is the limit of that bound at eta + xi/N, N -> infinity,
    xi generic.
    """
    rows = _bound_rows(f)
    return _support_bound(tuple(eta), rows) if rows else None


def _bound_rows(f: KClass) -> list:
    """(terms of f_v, out-weights at v) for every vertex with f_v != 0."""
    action = f.action
    outs = {v: [] for v in action.vertices}
    for e in action.edges:
        outs[e.src].append(action.axial[e.eid])
    return [(f[v].terms, outs[v]) for v in action.vertices if f[v].terms]


def _support_bound(eta, rows) -> int:
    return max(max(dot(mu, eta) for mu in terms)
               - sum(max(dot(u, eta), 0) for u in outs)
               for terms, outs in rows)


def localization_terms(f: KClass) -> dict:
    """The per-vertex rational summands of the localized character sum."""
    action = f.action
    return {v: RationalChar(f[v], tuple(action.out_weights(v)))
            for v in action.vertices}


def character_oracle(f: KClass) -> LaurentPoly:
    """Character by the independent exact-division route.

    The localized sum is assembled over a common denominator of binomials
    in pairwise independent primitive directions, then each factor is
    stripped by exact division.  No polarization is involved.
    """
    action = f.action
    n = action.n
    # direction classes: canonical primitive vector -> lcm of multiplicities
    lcms: dict = {}
    for e in action.geometric_edges():
        prim, mult = primitive_part(action.axial[e.eid])
        prim = _canonical_sign(prim)
        lcms[prim] = math.lcm(lcms.get(prim, 1), mult)
    directions = sorted(lcms)
    numerator = LaurentPoly.zero(n)
    for v in action.vertices:
        cof = LaurentPoly.one(n)
        used = {}
        for w in action.out_weights(v):
            prim, mult = primitive_part(w)
            cprim = _canonical_sign(prim)
            sign = 1 if prim == cprim else -1
            used[cprim] = (sign, mult)
        for prim in directions:
            big = lcms[prim]
            if prim not in used:
                cof = cof * _binomial(n, vscale(prim, big))
            else:
                sign, mult = used[prim]
                cof = cof * _partial_geometric(n, prim, mult, big, sign)
        numerator = numerator + f[v] * cof
    result = numerator
    for prim in directions:
        try:
            result = divide_exact(result, vscale(prim, lcms[prim]))
        except NotDivisible as exc:
            raise InternalDivisionFailure(
                f"division by the {prim} factor failed; "
                "the input is not a compatible class") from exc
    return result


def _canonical_sign(prim):
    for x in prim:
        if x != 0:
            return prim if x > 0 else vneg(prim)
    raise ValueError("zero vector")


def _binomial(n, gamma):
    return LaurentPoly(n, {(0,) * n: 1, tuple(gamma): -1})


def _partial_geometric(n, prim, mult, big, sign):
    """(1 - x^{big*prim}) / (1 - x^{sign*mult*prim}) as a polynomial."""
    step = vscale(prim, mult)
    q = big // mult
    terms = {}
    for i in range(q):
        terms[vscale(step, i)] = 1
    quo = LaurentPoly(n, terms)
    if sign == 1:
        return quo
    # dividing by 1 - x^{-m a} flips sign and shifts by x^{m a}
    return -quo.shift(step)


# ---------------------------------------------------------------------------
# exact convex hull checks


def in_convex_hull(point, points) -> bool:
    """Exact rational membership of point in the convex hull of points.

    Decided by one feasibility LP: find lambda >= 0 with
    sum(lambda_i * p_i) = point and sum(lambda_i) = 1.  The LP is solved
    by an exact phase-1 simplex with Bland's rule, which terminates without
    perturbation; its tableau stays integral (see _phase1_feasible), so no
    Fraction is formed.  Point sets whose affine hull is not the whole
    space need no special case.
    """
    point = tuple(point)
    pts = list(dict.fromkeys(tuple(p) for p in points))
    if point in pts:
        return True
    if not pts:
        return False
    for i, x in enumerate(point):
        coords = [p[i] for p in pts]
        if not min(coords) <= x <= max(coords):
            return False
    # rows: n coordinate equations plus the affine one, rhs last
    rows = [[p[i] for p in pts] + [x] for i, x in enumerate(point)]
    rows.append([1] * (len(pts) + 1))
    return _phase1_feasible(rows)


def _phase1_feasible(rows) -> bool:
    """Whether A x = b, x >= 0 has a solution; each row is A's row then b.

    Phase-1 simplex: rows with b < 0 are negated, one artificial variable
    per row starts basic, and the sum of the artificials is minimized; the
    system is feasible exactly when that minimum is 0.  Bland's rule picks
    the lowest-index entering column and, among tied ratios, the leaving
    row whose basic variable has the lowest index, so no basis repeats.
    Artificial i has index m + i, above every real column.  An artificial
    that leaves the basis is dropped, since every solution of A x = b has
    the artificials at zero, so artificial columns are never stored.

    The tableau is kept over the integers (Edmonds' integer pivoting): the
    stored rows are det(B) times the rational tableau of the current basis
    B, and det(B) > 0 is the previous pivot.  A pivot p in row r keeps row
    r and replaces every other row t by (p * t - t[col] * row_r) / prev,
    a division that is always exact, as in Bareiss elimination.  Ratios
    are compared by cross-multiplying, so each decision is the one the
    rational tableau would make.
    """
    m = len(rows[0]) - 1
    tab = [[-x for x in row] if row[m] < 0 else list(row) for row in rows]
    basis = [m + i for i in range(len(tab))]
    # excess[j]: prev times the sum of column j over rows with an
    # artificial basic; excess[m] is prev times the sum of the artificials
    excess = [sum(col) for col in zip(*tab)]
    prev = 1
    while excess[m] != 0:
        col = next((j for j in range(m) if excess[j] > 0), None)
        if col is None:
            return False
        # some row has a positive entry in col, since excess[col] > 0
        r = None
        for i, row in enumerate(tab):
            a = row[col]
            if a > 0:
                if r is None:
                    r, num, den = i, row[m], a
                    continue
                lhs, rhs = row[m] * den, num * a
                if lhs < rhs or lhs == rhs and basis[i] < basis[r]:
                    r, num, den = i, row[m], a
        prow = tab[r]
        p = prow[col]
        for i, row in enumerate(tab):
            if i != r:
                tab[i] = _pivot_row(row, prow, p, row[col], prev)
        excess = _pivot_row(excess, prow, p, excess[col], prev)
        basis[r] = col
        prev = p
    return True


def _pivot_row(row, prow, p, f, prev):
    """(p * row - f * prow) / prev, exactly."""
    if f == 0:
        if p == prev:
            return row
        return [p * x // prev for x in row]
    if p == prev == 1:
        return [x - f * y for x, y in zip(row, prow)]
    return [(p * x - f * y) // prev for x, y in zip(row, prow)]


def hull_vertices(points):
    """Points that are vertices of the convex hull of the collection."""
    pts = []
    for p in points:
        p = tuple(p)
        if p not in pts:
            pts.append(p)
    out = []
    for p in pts:
        others = [q for q in pts if q != p]
        if not others or not in_convex_hull(p, others):
            out.append(p)
    return out


@dataclass(frozen=True)
class HullReport:
    ok: bool
    hull_vertices: tuple
    support_violations: tuple   # weights outside the hull
    coeff_violations: tuple     # (vertex weight, coefficient != 1)


def hull_report(sym: SymplecticClass, char: CharacterResult) -> HullReport:
    """Check support containment in the weight hull and multiplicity one at
    its vertices."""
    alphas = list(sym.alphas.values())
    verts = tuple(hull_vertices(alphas))
    support_bad = tuple(mu for mu in sorted(char.poly.terms)
                        if not in_convex_hull(mu, alphas))
    coeff_bad = tuple((v, char.poly.coeff(v)) for v in verts
                      if char.poly.coeff(v) != 1)
    return HullReport(ok=not support_bad and not coeff_bad,
                      hull_vertices=verts,
                      support_violations=support_bad,
                      coeff_violations=coeff_bad)
