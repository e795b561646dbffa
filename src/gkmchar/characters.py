"""The character map and its combinatorics: polarized expansions, partition
counts, the multiplicity formula, hull checks, the independent
exact-division route to the same character and an identity test of a
character in a prime field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from operator import add, mul, sub

from .lattice import NotPrimitive, dot, is_primitive, vadd, vneg, vsub
from .laurent import PRIME, DimMismatch, LaurentPoly, NotDivisible, \
    _Kronecker, _box, _monomials_mod, divide_exact, eval_mod
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
    """The orientation of the graph by a generic direction xi, read off at
    each vertex.

    weights[v] lists the out-weights at v in out-edge order, each negated
    when it pairs negatively with xi, so every one pairs positively with
    xi; sign[v] is (-1) raised to the number of negated weights, and
    prefix[v] is their sum, the monomial shift of v's polarized expansion
    and of its partition-count argument.

    The vertex table that multiplicity reads for a symplectic class (see
    there) is built on the class's first multiplicity call with this
    polarization, and kept for the class as long as the polarization
    lives.
    """

    action: GkmAction
    xi: tuple
    weights: dict           # vertex -> tuple of weights turned toward xi
    sign: dict              # vertex -> +1 or -1
    prefix: dict            # vertex -> sum of the negated out-weights
    # id(sym) -> (sym, dirs, rows) of its _vertex_table, filled by
    # multiplicity; holding sym keeps its id from being reused while the
    # polarization lives
    _tables: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_tables", {})


def _edge_pairings(action: GkmAction, xi) -> dict:
    """eid -> the xi-pairing of every oriented edge's weight, computed once
    per geometric edge; NotGeneric names the first edge, in edge order,
    that pairs to zero."""
    pairs = {}
    for e in action.geometric_edges():
        pairing = dot(e.weight, xi)
        if pairing == 0:
            raise NotGeneric(f"edge {e.src}->{e.dst} pairs to zero with {xi}")
        pairs[e.eid] = pairing
        pairs[e.eid ^ 1] = -pairing
    return pairs


def polarize(action: GkmAction, xi) -> Polarization:
    """Turn the out-weights at each vertex toward xi, in one pass over
    every vertex's out-edges.

    Raises NotPrimitive when xi is not primitive, and NotGeneric, naming
    the first edge in edge order, when an edge weight pairs to zero.
    """
    xi = tuple(xi)
    if not is_primitive(xi):
        raise NotPrimitive(f"{xi} is not primitive")
    pairs = _edge_pairings(action, xi)
    zero = (0,) * action.n
    weights, sign, prefix = {}, {}, {}
    for v, es in action.out_index.items():
        ws, flips, pre = [], 0, zero
        for e in es:
            w = e.weight
            if pairs[e.eid] < 0:
                w = vneg(w)
                flips += 1
                pre = vadd(pre, w)
            ws.append(w)
        weights[v] = tuple(ws)
        sign[v] = -1 if flips % 2 else 1
        prefix[v] = pre
    return Polarization(action=action, xi=xi, weights=weights, sign=sign,
                        prefix=prefix)


def kostant_count(weights, target, xi) -> int:
    """Number of ways to write target as a non-negative integer combination
    of the given weights.

    Every weight must pair positively with the direction xi (NotGeneric
    otherwise).  The count is computed by a memoized recursion over the
    weight list, bounded by the xi-pairing.  Raises DimMismatch, naming
    the first offender, when target or a weight is not of the length of
    xi.
    """
    weights = [tuple(w) for w in weights]
    target = tuple(target)
    xi = tuple(xi)
    if len(target) != len(xi):
        raise DimMismatch(f"target {target} has length {len(target)}, "
                          f"xi {xi} has length {len(xi)}")
    bad = next((w for w in weights if len(w) != len(xi)), None)
    if bad is not None:
        raise DimMismatch(f"weight {bad} has length {len(bad)}, "
                          f"xi {xi} has length {len(xi)}")
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


def multiplicity(sym: SymplecticClass, pol: Polarization, alpha) -> int:
    """Coefficient of x^alpha in the character, by the signed partition-count
    sum over vertices: pol.sign[v] times the number of ways to write
    alpha - alpha_v - pol.prefix[v] from the weights pol.weights[v].
    Raises DimMismatch when alpha is not of length n.

    A vertex is counted only when its target pairs nonnegatively with every
    dual-cone ray of its weights and to zero with every normal of their
    span (both from one GkmAction.dual_cone).  Otherwise the target
    lies off the span, or some ray eta has eta . target < 0 while every
    nonnegative combination of the weights pairs >= 0 with eta: the count
    is exactly 0.  A target that passes may still have count 0 (off the
    lattice of the weights), and kostant_count decides it.

    The cone and span tests read a vertex table (see _vertex_table),
    built on the first call for sym with pol and kept in pol as long as
    it lives: each vertex's shift alpha_v + prefix_v and the pairing of
    the shift with each of its rays and normals.  A call pairs alpha once
    with each distinct ray or normal of the table, and eta . target >= 0
    reads eta . alpha >= eta . shift, nu . target == 0 reads
    nu . alpha == nu . shift.  Only the vertices that pass form their
    target."""
    alpha = tuple(alpha)
    action = pol.action
    if len(alpha) != action.n:
        raise DimMismatch(f"weight {alpha} has length {len(alpha)}, "
                          f"expected {action.n}")
    entry = pol._tables.get(id(sym))
    if entry is None:
        entry = pol._tables[id(sym)] = (sym, *_vertex_table(sym, pol))
    _, dirs, rows = entry
    pairs = [sum(map(mul, d, alpha)) for d in dirs]
    total = 0
    for shift, sign, weights, rays, normals in rows:
        if all(pairs[i] >= t for i, t in rays) and \
                all(pairs[i] == t for i, t in normals):
            total += sign * kostant_count(weights, vsub(alpha, shift), pol.xi)
    return total


def _vertex_table(sym: SymplecticClass, pol: Polarization) -> tuple:
    """(dirs, rows): the distinct dual-cone rays and span normals of the
    polarized weight sets, each once, and one row per vertex, (shift,
    sign, weights, rays, normals).  shift is alpha_v + prefix_v, and rays
    and normals list (index into dirs, its pairing with shift) for the
    vertex's own cone, from one GkmAction.dual_cone read per vertex."""
    action = pol.action
    index = {}
    rows = []
    for v in action.vertices:
        weights = pol.weights[v]
        shift = vadd(sym.alphas[v], pol.prefix[v])
        rays, normals = [
            tuple((index.setdefault(d, len(index)), dot(d, shift)) for d in ds)
            for ds in action.dual_cone(weights)]
        rows.append((shift, pol.sign[v], weights, rays, normals))
    return tuple(index), tuple(rows)


@dataclass(frozen=True)
class CharacterResult:
    poly: LaurentPoly


DEFAULT_TERM_BUDGET = 500_000


def character_expand(f: KClass, pol: Polarization,
                     term_budget: int = DEFAULT_TERM_BUDGET, *,
                     level: int | None = None) -> CharacterResult:
    """Exact character via the polarized geometric-series expansion.

    Each vertex v contributes pol.sign[v] * x^pol.prefix[v] * f_v *
    product over its positive weights pol.weights[v] of a geometric series
    in the weight.  The series are truncated by support bounds of the
    character: every weight mu of the character has eta . mu <= B(eta),
    B(eta) the max over vertices v with f_v != 0 of max_{mu in f_v}
    eta . mu - sum over the out-weights u at v of max(eta . u, 0).  The
    bounds come from one cut set, built once per call: xi, and the
    dual-cone rays of the positive weights of every vertex with f_v != 0
    (see lattice.dual_cone: eta . w >= 0 for each of its weights w, and
    for linearly independent weights the dual basis).
    The rays come from the graph (GkmAction.dual_cone), so vertices with
    the same weights, and later calls on the graph, share one elimination.
    A vertex is cut by every direction of the set that pairs nonnegatively
    with all of its positive weights (xi and its own rays always do), so
    its partial products only grow in those pairings and cutting them
    never drops a term of the support; each series in w stops at the
    tightest such direction that pairs positively with w.  The vertex's
    finished terms are then filtered by the remaining bounds of the set,
    and only the survivors are summed.  Since each vertex's expansion then
    agrees with its untruncated one on the region where every bound of the
    set holds, which contains the support, the sum is exact.  The positive
    weights of a vertex span a pointed cone, so every one of them pairs
    positively with one of its own rays, and the vertex's expansion is
    bounded by the rays' support bounds however steep xi is, with
    dependent weights (d > n) as with independent ones.

    With level=k, only the terms mu with xi . mu == k are returned: the
    character's slice at that level, which is empty when k > B(xi).  The
    expansion is the same with the xi bound lowered to k, which is exact
    for the same reason as the cuts: xi pairs positively with every
    positive weight, so a partial product above level k never comes back
    to it.  The last series of each vertex takes only its one step that
    lands on level k.

    Every term is one int, a packed key.  With the cut set d_0 = xi,
    d_1, ..., d_(c-1), L_j = B(d_j) (B(xi) lowered to the level, if one is
    given) and W = F + 2 bits per field, the term x^e has the key

        sum_j (2^F + L_j - d_j . e) 2^(W j)
            + sum_i (2^F + e_i) 2^(W (c + i)),

    one biased slack field per cut direction, then the exponent.  While
    every field lies in [0, 2^(F+1)), the key is this sum in exact integer
    arithmetic, so it is affine in e: the key of e = 0 plus one packed
    product sum_i e_i col_i, and a step by w adds w's product.  Bit F of
    the field of d_j is set exactly when d_j . e <= L_j, so a vertex's cuts
    are one AND with bit F of their fields and its filters one more; the
    level step reads xi's field; the vertex sums merge on keys, since a
    key depends on e alone; and each surviving term is decoded once.

    The width comes from the xi-pairings, the only pairings taken as plain
    ints.  Let p be the least xi . w over the positive weights.  A key that
    is kept has xi . e <= L_0, so its steps from its start term t number
    at most (L_0 - xi . t) // p, and the one overshoot that ends a series
    adds one: no key is formed more than s = max(L_0 - xi . t, 0) // p + 1
    steps from its start.  With X_t and X_w the largest |entry| of a start
    term and of a weight, m the most weights at a vertex and A the largest
    l1-norm of a direction, every entry of a formed term is at most
    X_t + s X_w in absolute value, every pairing d . e at most
    A (X_t + s X_w), and every B(d), as every value of the set-up below, at
    most A (X_t + m X_w).  2^F exceeds the larger of the last and |L_0|,
    plus A (X_t + s X_w).  So every field holds 2^F plus a value below 2^F
    in absolute value, and its top bit, the spare bit, stays 0: no carry
    crosses a field.

    The bounds are packed too.  The packed product of a start term or of a
    weight, negated, biased by 2^F and cut to the slack fields, holds
    2^F + d . e for every direction d at once.  Bit F is set where the
    pairing is nonnegative, so a vertex's cuts are the AND of its weights'
    bits F, and the positive parts of the pairings are the fields masked
    below those bits, summed per vertex.  The max over terms and vertices
    is a SWAR max (see _swar_max), with the spare bit as its guard.

    term_budget caps each vertex's partial expansion; it is checked after
    each term's series, and TruncationOverflow is raised past it.
    """
    action = pol.action
    n = action.n
    zero = CharacterResult(poly=LaurentPoly.zero(n))
    live = [v for v in action.vertices if f[v].terms]
    if not live:
        return zero
    # one row per live vertex: the terms of x^prefix * f_v, and the
    # positive weights
    rows = []
    for v in live:
        pre = pol.prefix[v]
        rows.append(({tuple(map(add, e, pre)): coeff
                      for e, coeff in f[v].terms.items()}, pol.weights[v]))
    xi = pol.xi
    # the xi-pairings, as plain ints: B(xi), the level and the step bound
    pxi = {w: sum(map(mul, w, xi)) for _, ws in rows for w in ws}
    sxi = [[sum(map(mul, e, xi)) for e in terms] for terms, _ in rows]
    b_xi = max(max(s) - sum(map(pxi.__getitem__, ws))
               for s, (_, ws) in zip(sxi, rows))
    if level is not None and level > b_xi:
        return zero
    cap = b_xi if level is None else level
    steps = max(cap - min(map(min, sxi)), 0) // min(pxi.values(),
                                                     default=1) + 1
    dirs = _cut_directions(action, xi, rows)
    F, W, starts, step, bound, masks = _pack(rows, dirs, abs(cap), steps)
    c = len(dirs)
    field, at_zero = (1 << W) - 1, 1 << F
    # the key of e = 0: the bounds, with xi's lowered to cap, and 2^F in
    # each exponent field
    origin = bound + cap - b_xi + (((1 << W * n) - 1) // field << F + W * c)
    total = {}
    tget = total.get
    for r, v in enumerate(live):
        ws, (cut, rest) = rows[r][1], masks[r]
        acc = {}
        for key, coeff in starts[r]:
            key += origin
            if key & cut == cut:
                acc[key] = coeff
        if level is not None and not ws:
            acc = {key: coeff for key, coeff in acc.items()
                   if key & field == at_zero}
        last = len(ws) - 1 if level is not None else -1
        for i, w in enumerate(ws):
            dw = step[w]
            out = {}
            get = out.get
            if i == last:
                # the one step of the series that lands on the level: xi's
                # field holds 2^F + level - xi . e
                p = pxi[w]
                for key, coeff in acc.items():
                    j, off = divmod((key & field) - at_zero, p)
                    if not off:
                        key += j * dw
                        if key & cut == cut:
                            out[key] = get(key, 0) + coeff
            else:
                for key, coeff in acc.items():
                    while key & cut == cut:
                        out[key] = get(key, 0) + coeff
                        key += dw
                    if len(out) > term_budget:
                        raise TruncationOverflow(
                            f"expansion exceeded {term_budget} terms")
            acc = out
        sign = pol.sign[v]
        for key, coeff in acc.items():
            if key & rest == rest:
                total[key] = tget(key, 0) + sign * coeff
    keys = [key for key, coeff in total.items() if coeff]
    columns = [[(key >> shift & field) - at_zero for key in keys]
               for shift in range(W * c, W * (c + n), W)]
    return CharacterResult(poly=LaurentPoly._unchecked(
        n, dict(zip(zip(*columns), map(total.__getitem__, keys)))))


def _cut_directions(action: GkmAction, xi, rows) -> list:
    """The cut set of character_expand: xi, then the dual-cone rays of the
    weights of every row, each once."""
    rays = {}
    for ws in dict.fromkeys(ws for _, ws in rows):
        rays.update(dict.fromkeys(action.dual_cone(ws)[0]))
    rays.pop(xi, None)
    return [xi, *rays]


def _pack(rows, dirs, reach, steps) -> tuple:
    """(F, W, starts, step, bound, masks): the packed set-up of
    character_expand's keys, with fields of W = F + 2 bits (see there).

    starts[r] lists (the packed product of t, coefficient) for the terms t
    of rows[r], step maps each weight to its packed product, and bound
    holds 2^F + B(d) in the slack field of each direction d of dirs.
    masks[r] is (cut, rest): bit F of the fields of the directions that
    pair nonnegatively with every weight of rows[r], and of the others.
    F is the width of character_expand's argument, with |L_0| = reach and
    s = steps.
    """
    c, n = len(dirs), len(dirs[0])
    weights = dict.fromkeys(w for _, ws in rows for w in ws)
    xt = max(map(abs, chain.from_iterable(
        chain.from_iterable(terms for terms, _ in rows))))
    xw = max(map(abs, chain.from_iterable(weights)), default=0)
    m = max(len(ws) for _, ws in rows)
    a = max(sum(map(abs, d)) for d in dirs)
    F = (max(reach, a * (xt + m * xw)) + a * (xt + steps * xw)).bit_length()
    W = F + 2
    # col_i = e_i's field minus d_j[i] in the field of every d_j
    cols = []
    for i, column in enumerate(zip(*dirs)):
        col = 0
        for x in reversed(column):
            col = (col << W) - x
        cols.append(col + (1 << W * (c + i)))
    unit = ((1 << W * c) - 1) // ((1 << W) - 1)
    half, guard, low = unit << F, unit << F + 1, (1 << W * c) - 1
    step = {w: sum(map(mul, w, cols)) for w in weights}
    # 2^F + d . w in the field of every d
    paired = {w: (half - g) & low for w, g in step.items()}
    starts, masks, bound = [], [], None
    for terms, ws in rows:
        products = [(sum(map(mul, e, cols)), coeff)
                    for e, coeff in terms.items()]
        # 2^F + the largest d . t, less the nonnegative d . w: the row's
        # term of B(d), for every d
        row = None
        for g, _ in products:
            y = (half - g) & low
            row = y if row is None else _swar_max(row, y, guard, F + 1)
        cut = half
        for w in ws:
            y = paired[w]
            nonneg = y & half
            cut &= y
            # the nonnegative pairings, the others masked to 0
            row -= y & nonneg - (nonneg >> F)
        bound = row if bound is None else _swar_max(bound, row, guard, F + 1)
        starts.append(products)
        masks.append((cut, half ^ cut))
    return F, W, starts, step, bound, masks


def _swar_max(a, b, guard, shift):
    """The fieldwise max of two packed ints whose fields all lie in
    [0, 2^shift), guard having bit shift of each field set: each field of
    (a | guard) - b stays positive, so no borrow crosses a field, and it
    keeps its guard bit exactly where a's field is at least b's."""
    ge = ((a | guard) - b) & guard
    return b ^ ((a ^ b) & (ge - (ge >> shift)))


def division_numerator_size(f: KClass) -> int:
    """The number of terms the division route multiplies out before they
    cancel: sum over v of |f_v| * 2^(number of gs absent at v), read off
    before any product.  It bounds the route's numerator, and its running
    time grows with it, while the character can stay small: projective
    n-space has n + 1 terms and (n + 1) * 2^(n(n-1)/2) here."""
    gammas, stars = f.action.division_stars
    k = len(gammas)
    return sum(len(f[v].terms) << (k - len(used))
               for v, (_, _, used) in stars.items())


def character_oracle(f: KClass) -> LaurentPoly:
    """Character by the independent exact-division route.

    The localized sum is assembled over a common denominator of binomials
    1 - x^g, one per distinct edge weight g taken up to sign: g = mult * u
    from GkmAction.direction, the one of w and -w whose first nonzero
    entry is positive.  The weights at a vertex are pairwise independent,
    so each g occurs there at most once.  The gs are taken in the order
    the vertices first meet them, and the numerator is divided by all of
    them in one divide_exact call.  No polarization is involved.

    A weight w = -g contributes 1 / (1 - x^-g) = -x^g / (1 - x^g), so
    vertex v puts f_v * m_v * prod over the gs absent at v of (1 - x^g)
    into the numerator, where the monomial m_v is the sign and shift of
    its negated weights: (-1)^k x^(sum of their gs).  f_v * m_v is one
    LaurentPoly product.  The absent binomials are applied on
    Kronecker-packed integer keys (see laurent._Kronecker), one shifted
    pass out[k + L(g)] -= c each, and every vertex adds into one packed
    map, decoded once.

    The packing is exact.  The box is the box of all the f_v * m_v,
    widened in each coordinate i by the sum over all gs of min(0, g_i)
    below and of max(0, g_i) above, and B is its largest coordinate span
    plus 1.  A map that vertex v builds is f_v * m_v times the binomials
    of some of its absent gs, so it lies in box(f_v * m_v) + the sum over
    those gs of [min(0, g_i), max(0, g_i)], inside the box, where each
    width is below B and L is injective.  L is additive, so the shifted
    pass by g sends the key of e to the key of e + g, and every pass is
    exact.
    """
    action = f.action
    n = action.n
    gammas, stars = action.division_stars
    parts = []      # (f_v * m_v, the gs at v)
    for v, (coeff, exp, used) in stars.items():
        if f[v].terms:
            own = f[v] * LaurentPoly._unchecked(n, {exp: coeff})
            parts.append((own.terms, used))
    numerator = {}
    if parts:
        exps = [e for own, _ in parts for e in own]
        lo, hi = _box(exps)
        for g in gammas:
            lo = [x + min(y, 0) for x, y in zip(lo, g)]
            hi = [x + max(y, 0) for x, y in zip(hi, g)]
        span = list(map(sub, hi, lo))
        codec = _Kronecker(lo, span, max(span) + 1)
        shift = {g: codec.key(g) for g in gammas}
        keys = codec.keys(exps)
        get = numerator.get
        i = 0
        for own, used in parts:
            packed = dict(zip(keys[i:i + len(own)], own.values()))
            i += len(own)
            for g, a in shift.items():
                if g in used:
                    continue
                # times 1 - t^a
                out = dict(packed)
                out_get = out.get
                for k, c in packed.items():
                    k += a
                    out[k] = out_get(k, 0) - c
                packed = out
            for k, c in packed.items():
                numerator[k] = get(k, 0) + c
        numerator = codec.decode({k: c for k, c in numerator.items() if c})
    try:
        return divide_exact(LaurentPoly._unchecked(n, numerator), *gammas)
    except NotDivisible as exc:
        raise InternalDivisionFailure(
            "exact division by the direction binomials failed; "
            "the input is not a compatible class") from exc


def localization_identity_test(f: KClass, chi: LaurentPoly, rng) -> bool:
    """Whether chi - sum over v of f_v / prod_w (1 - x^w) vanishes at a
    point of (F_p^*)^n drawn from rng, p = laurent.PRIME = 2^61 - 1: the
    character test without the division route's products.

    Each distinct edge weight is evaluated once, and the point is redrawn
    while a denominator of a vertex with f_v != 0 vanishes there.  The sum
    is kept as one fraction num / den, so the test takes no inverse: it
    asks whether chi * den = num.

    With D the product of the division route's binomials 1 - x^g and N
    its numerator (see character_oracle), chi - the sum is
    (chi * D - N) / D.  When chi is not the character, Q = chi * D - N is
    a nonzero Laurent polynomial, and a monomial times Q is a polynomial
    of total degree deg, at most the sum of Q's spans in the coordinates,
    with the same zeros in (F_p^*)^n.  By Schwartz-Zippel it vanishes at a
    uniform point of (F_p^*)^n with probability at most deg / (p - 1), and
    every redrawn point is a zero of D.  So a wrong chi passes with
    probability at most deg / (p - 1 - deg D), about deg / p: below
    10^-15 for deg < 2 000.  A true chi always passes.
    """
    action = f.action
    summands = [(f[v], action.out_weights[v]) for v in action.vertices
                if f[v].terms]
    weights = list({w: None for _, ws in summands for w in ws})
    while True:
        point = tuple(rng.randrange(1, PRIME) for _ in range(action.n))
        power = dict(zip(weights, _monomials_mod(weights, point, PRIME)))
        if 1 not in power.values():
            break
    num, den = 0, 1
    for fv, ws in summands:
        d = 1
        for w in ws:
            d = d * (1 - power[w]) % PRIME
        num = (num * d + eval_mod(fv, point) * den) % PRIME
        den = den * d % PRIME
    return (eval_mod(chi, point) * den - num) % PRIME == 0


# ---------------------------------------------------------------------------
# exact convex hull checks


def _check_lengths(first, points):
    """Raise DimMismatch unless every point has the length of first."""
    bad = next((p for p in points if len(p) != len(first)), None)
    if bad is not None:
        raise DimMismatch(f"point {bad} has length {len(bad)}, "
                          f"point {first} has length {len(first)}")


def in_convex_hull(point, points) -> bool:
    """Exact rational membership of point in the convex hull of points.

    A point is outside an empty P.  Otherwise one exact certificate is
    tried first.  Separation: with eta = |P| * point - sum(P), the
    direction from the centroid of P to the point, if eta . point > eta . q
    for every q in P, the hyperplane through the point normal to eta has
    all of P strictly on one side, so the point is outside.

    Every other query, a point of P among them, is decided by one
    feasibility LP: find lambda >= 0 with sum(lambda_i * p_i) = point and
    sum(lambda_i) = 1.  The LP is solved by an exact phase-1 simplex with
    Bland's rule, which terminates without perturbation; its tableau stays
    integral (see _phase1_feasible), so no Fraction is formed.  Point sets
    whose affine hull is not the whole space need no special case.  Raises
    DimMismatch when the point and the points are not all of one length.
    """
    point = tuple(point)
    pts = dict.fromkeys(tuple(p) for p in points)
    _check_lengths(point, pts)
    if not pts:
        return False
    cols = list(zip(*pts))
    eta = [len(pts) * x - sum(coords) for x, coords in zip(point, cols)]
    top = dot(eta, point)
    if all(dot(eta, q) < top for q in pts):
        return False
    # rows: n coordinate equations plus the affine one, rhs last
    rows = [list(coords) + [x] for x, coords in zip(point, cols)]
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
    """(p * row - f * prow) / prev, a new list; the division is exact."""
    return [(p * x - f * y) // prev for x, y in zip(row, prow)]


def hull_vertices(points):
    """Points that are vertices of the convex hull of the collection, in
    the order first seen.

    Farthest-point certificate: with m distinct points summing to S, every
    point lies in the ball about the centroid S / m through the points
    that maximize r2(p) = |m * p - S|^2, and a point on that sphere is an
    exposed point of the ball, so it is a vertex of the hull.  r2 is
    computed once per point, in integers.  Every point of a set on a
    sphere about its centroid, such as the corners of a box or a Weyl group
    orbit, is farthest, so such a hull needs no per-point query.  Each
    other point p is tested against the points not yet shown inside, and
    dropped once it is: every vertex stays, so each answer is the one
    against all the points.  Raises DimMismatch when the points are not
    all of one length.
    """
    pts = list(dict.fromkeys(tuple(p) for p in points))
    if not pts:
        return []
    _check_lengths(pts[0], pts)
    m = len(pts)
    total = [sum(coords) for coords in zip(*pts)]
    r2 = [sum((m * x - s) ** 2 for x, s in zip(p, total)) for p in pts]
    far = max(r2)
    live = dict.fromkeys(pts)
    for p, r in zip(pts, r2):
        if r != far and in_convex_hull(p, [q for q in live if q != p]):
            del live[p]
    return list(live)


@dataclass(frozen=True)
class HullReport:
    ok: bool
    hull_vertices: tuple
    support_violations: tuple   # weights outside the hull
    coeff_violations: tuple     # (vertex weight, coefficient != 1)


def hull_report(sym: SymplecticClass, char: CharacterResult) -> HullReport:
    """Check support containment in the weight hull and multiplicity one at
    its vertices.

    The support lies in the hull exactly when the extreme points of its own
    convex hull do.  A support point that is a fixed-point weight alpha_p
    is in the hull, and a support point mu with mu + u and mu - u both in
    the support is a midpoint, never extreme.  So only the support points
    that are neither, for any direction class u of the action's edges
    (GkmAction.direction, one primitive vector per class), are sent to
    in_convex_hull, whose separation certificate or LP decides each.  If
    one of them is outside, every support point that is not an alpha is
    tested, in sorted order, so support_violations lists all of them and
    no point of the alphas reaches the LP.
    """
    alphas = list(sym.alphas.values())
    verts = tuple(hull_vertices(alphas))
    terms = char.poly.terms
    known = set(alphas)
    dirs = dict.fromkeys(d[0] for d in sym.action.direction[::2])
    tested = [mu for mu in terms if mu not in known
              and not any(tuple(map(add, mu, u)) in terms
                          and tuple(map(sub, mu, u)) in terms for u in dirs)]
    support_bad = ()
    if not all(in_convex_hull(mu, alphas) for mu in tested):
        support_bad = tuple(mu for mu in sorted(terms) if mu not in known
                            and not in_convex_hull(mu, alphas))
    coeff_bad = tuple((v, char.poly.coeff(v)) for v in verts
                      if char.poly.coeff(v) != 1)
    return HullReport(ok=not support_bad and not coeff_bad,
                      hull_vertices=verts,
                      support_violations=support_bad,
                      coeff_violations=coeff_bad)
