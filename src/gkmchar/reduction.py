"""Graph-side reduction at a circle subgroup: moment maps, reduced
characters by per-vertex residues, wall crossing and the check that
reducing before or after quantizing gives the same answer.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .lattice import complete_to_basis, dot, is_primitive, NotPrimitive
from .laurent import LaurentPoly, RationalChar, poly_sum
from .graphs import GkmAction, KClass, SymplecticClass
from .characters import _edge_pairings, character_expand, polarize
from .residues import res_T


class CycleError(ValueError):
    """The xi-orientation of the graph has a directed cycle, so no moment
    map exists."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"oriented cycle: {' -> '.join(map(str, self.cycle))}")


class NotRegular(ValueError):
    """The level c hits a critical value."""


class WrongWallCount(ValueError):
    """The interval (c, c') does not contain exactly one critical vertex."""


class ZeroNotRegular(ValueError):
    """Some vertex weight pairs to zero with xi, so zero is a critical
    level of the symplectic moment map."""


@dataclass(frozen=True)
class MomentMap:
    """A vertex function phi increasing along the xi-positive orientation.

    The vertices are sorted by their values once, and the values are kept
    as integers, phi times the lcm of its denominators, so a level finds
    the vertices above and below it, and whether it is regular, by one
    integer bisection each (see _place).  The vertex residues that reduced
    characters and wall crossings take on this map, and the chamber
    values summed from them, are kept per class, so a sweep over its
    chambers and walls takes each vertex's residue and sums each chamber
    at most once for each class; they live as long as the map.
    """

    action: GkmAction
    xi: tuple
    phi: dict               # vertex -> Fraction
    # the vertices in increasing phi, the lcm of the denominators of phi,
    # and phi times it at the vertices in the same order
    _order: tuple = field(init=False, compare=False, repr=False)
    _den: int = field(init=False, compare=False, repr=False)
    _levels: tuple = field(init=False, compare=False, repr=False)
    # id(f) -> (f, {vertex: residue}, {chamber index: value}), filled by
    # _chambers; holding f keeps its id from being reused while the map
    # lives
    _memo: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        phi = self.phi
        den = lcm(*(x.denominator for x in phi.values()))
        level = {v: x.numerator * (den // x.denominator)
                 for v, x in phi.items()}
        order = tuple(sorted(self.action.vertices, key=level.__getitem__))
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_levels", tuple(level[v] for v in order))
        object.__setattr__(self, "_memo", {})

    def critical_values(self):
        return [self.phi[v] for v in self._order]

    def _place(self, c):
        """(i, j): the numbers of vertices with phi < c and with phi <= c,
        for a level c of any type Fraction takes.  c is regular iff
        i == j; else the vertex _order[i] sits at c."""
        if type(c) is not int and type(c) is not Fraction:
            c = Fraction(c)
        t, q = c.numerator * self._den, c.denominator
        return (bisect_left(self._levels, -(-t // q)),
                bisect_right(self._levels, t // q))


def moment_map(action: GkmAction, xi, phi=None) -> MomentMap:
    """Construct (or validate) a vertex function increasing along the
    xi-positive orientation.

    Each edge is oriented by the sign of its xi-pairing, taken once per
    geometric edge by the pairing helper polarize uses, so a zero pairing
    raises the same NotGeneric.  Without explicit values, vertices get
    their longest-path rank in the oriented graph (CycleError on a cycle)
    plus less than 1/2 by vertex index: distinct and increasing along each
    edge by construction.  Explicit values must name every vertex and no
    other, be distinct and increase along every oriented edge.
    """
    xi = tuple(xi)
    pairs = _edge_pairings(action, xi)
    if phi is None:
        succ = {v: [e.dst for e in es if pairs[e.eid] > 0]
                for v, es in action.out_index.items()}
        rank = {v: 0 for v in action.vertices}
        for v in _toposort(action.vertices, succ):
            for w in succ[v]:
                rank[w] = max(rank[w], rank[v] + 1)
        den = 2 * len(action.vertices)
        return MomentMap(action=action, xi=xi,
                         phi={v: Fraction(rank[v] * den + i, den)
                              for i, v in enumerate(action.vertices)})
    missing = next((v for v in action.vertices if v not in phi), None)
    if missing is not None:
        raise ValueError(f"phi has no value at vertex {missing}")
    unknown = next((v for v in phi if v not in action.out_index), None)
    if unknown is not None:
        raise ValueError(f"phi has a value at unknown vertex {unknown}")
    mm = MomentMap(action=action, xi=xi,
                   phi={v: Fraction(x) for v, x in phi.items()})
    levels, phi = mm._levels, mm.phi
    if any(a == b for a, b in zip(levels, levels[1:])):
        raise ValueError("critical values are not distinct")
    for e in action.edges:
        if pairs[e.eid] > 0 and phi[e.dst] < phi[e.src]:
            raise ValueError(
                f"phi does not increase along edge {e.src}->{e.dst}")
    return mm


def _toposort(vertices, succ):
    # depth first from a root None whose successors are all the vertices
    state = {v: 0 for v in vertices}    # 0: new, 1: on the path, 2: done
    order, stack = [], [(None, iter(vertices))]
    while stack:
        v, it = stack[-1]
        nxt = next(it, None)
        if nxt is None:
            state[v] = 2
            order.append(v)
            stack.pop()
        elif state[nxt] == 1:
            path = [u for u, _ in stack]
            raise CycleError(path[path.index(nxt):] + [nxt])
        elif state[nxt] == 0:
            state[nxt] = 1
            stack.append((nxt, iter(succ[nxt])))
    return order[-2::-1]        # reversed, without the root


def symplectic_moment_map(sym: SymplecticClass, xi) -> MomentMap:
    """phi(p) = alpha_p(xi) plus less than 1/2 to break ties: alpha(xi)
    rises by m_e * (xi . w_e) >= 1 along each xi-positive edge, so phi
    increases along it, and a regular integer level stays regular."""
    xi, action = tuple(xi), sym.action
    _edge_pairings(action, xi)      # NotGeneric on a zero pairing
    den = 2 * (len(action.vertices) + 1)
    return MomentMap(action=action, xi=xi, phi={
        v: Fraction(dot(sym.alphas[v], xi) * den + i, den)
        for i, v in enumerate(action.vertices)})


def _require_regular(mm: MomentMap, c, placed) -> int:
    """The index of the chamber of the level c, which mm._place put at
    placed; NotRegular if c is a critical value."""
    i, j = placed
    if i != j:
        raise NotRegular(
            f"level {Fraction(c)} hits the critical value at {mm._order[i]}")
    return i


@dataclass(frozen=True)
class ReducedCharacter:
    value: LaurentPoly      # supported on the annihilator lattice of xi


def vertex_residues(f: KClass, xi, vertices) -> dict:
    """{v: total residue along xi of v's localized summand} for the given
    vertices of f, each computed once, all in one completion of xi to a
    lattice basis; no vertices, no basis."""
    if not vertices:
        return {}
    basis = complete_to_basis(xi)
    weights = f.action.out_weights
    return {v: res_T(RationalChar(f[v], weights[v]), xi, basis=basis).total
            for v in vertices}


def _chambers(f: KClass, mm: MomentMap, lo: int, hi: int):
    """The vertex residues of f on mm, covering the cheaper side of the
    chambers lo <= hi, and a reader of the reduced character of every
    chamber in [lo, hi] off that side.

    Chamber k is the set of regular levels with k vertices below them.
    The localized character sum_v f_v / prod(1 - x^w) of a compatible
    class is a Laurent polynomial, so the residues of all its vertices sum
    to zero, and the reduced character of chamber k is both the sum of
    the residues of the vertices above it and minus the sum of those
    below it.  The smaller of the sets above chamber lo and below chamber
    hi is taken, the set above on a tie: every chamber in [lo, hi] reads
    its side off it, and an outer chamber costs no residue.  Only the
    vertices of that side whose residues mm does not yet hold for f are
    passed to vertex_residues, and the returned dict is mm's memo for f,
    which may hold more vertices than the side.  The reader sums a chamber
    only if mm does not yet hold its value for f, and keeps what it sums.
    f must be compatible (every constructor in the package makes a
    compatible class): otherwise the two sides differ and the answer
    depends on which one was taken first.
    """
    order, n = mm._order, f.action.n
    above, below = order[lo:], order[:hi]
    from_above = len(above) <= len(below)
    _, residues, chambers = mm._memo.setdefault(id(f), (f, {}, {}))
    residues.update(vertex_residues(
        f, mm.xi, [v for v in (above if from_above else below)
                   if v not in residues]))

    def chi(k):
        value = chambers.get(k)
        if value is None:
            if from_above:
                value = poly_sum(n, (residues[v] for v in order[k:]))
            else:
                value = -poly_sum(n, (residues[v] for v in order[:k]))
            chambers[k] = value
        return value
    return residues, chi


def chi_reduced(f: KClass, mm: MomentMap, c) -> ReducedCharacter:
    """The reduced character at the regular level c, taken from the side
    of c with fewer vertices (see _chambers), whose residues, and the
    chamber's value, mm computes for f only once.  f must be
    compatible."""
    i = _require_regular(mm, c, mm._place(c))
    _, chi = _chambers(f, mm, i, i)
    return ReducedCharacter(value=chi(i))


@dataclass(frozen=True)
class WallCrossingResult:
    ok: bool
    vertex: str
    delta: LaurentPoly      # chi_c - chi_c'
    residue: LaurentPoly    # vertex residue at the crossed wall


def wall_crossing_check(f: KClass, mm: MomentMap, c, cp) -> WallCrossingResult:
    """The drop in the reduced character across a single wall, and the
    residue of the crossed vertex's localized summand, which it equals.

    ok is a consistency check only: delta and residue are sums of the same
    exact residues, so ok holds whatever res_T returns and can read false
    only if the sums are assembled wrongly.  A drop is tested against a
    value found without residues: chamber values known independently, or
    the zero total of a compatible class's vertex residues.

    Each level is placed once among the integer levels of mm (see
    MomentMap._place), and the chamber indices are passed on.  With
    c < c' and p the one vertex between them, both chambers and p's
    residue are read off one set of residues (see _chambers): those of
    the vertices above c, or of those below c', whichever set is smaller;
    both sets contain p.  They come from the residues and chamber values
    mm keeps for f, so delta and residue share memo entries with every
    other chamber and wall taken on mm, and a chamber a sweep has already
    summed is not summed again.  delta is chi_c - chi_c'.  Exactly one
    critical value must lie between the levels (WrongWallCount, checked
    first), and both levels must be regular (NotRegular).
    """
    at, atp = mm._place(c), mm._place(cp)
    if at > atp:
        c, cp, at, atp = cp, c, atp, at
    # the number of vertices above c and below c': none when both levels
    # sit in one chamber or at one critical value, in either order
    count = max(0, atp[0] - at[1])
    if count != 1:
        c, cp = sorted((Fraction(c), Fraction(cp)))
        raise WrongWallCount(
            f"{count} critical values in ({c}, {cp}), expected 1")
    p = mm._order[at[1]]
    lo = _require_regular(mm, c, at)
    hi = _require_regular(mm, cp, atp)
    residues, chi = _chambers(f, mm, lo, hi)
    delta = chi(lo) - chi(hi)
    residue = residues[p]
    return WallCrossingResult(ok=delta == residue, vertex=p,
                              delta=delta, residue=residue)


@dataclass(frozen=True)
class QrResult:
    ok: bool
    invariant_part: LaurentPoly
    reduced: LaurentPoly


def qr_check(sym: SymplecticClass, xi) -> QrResult:
    """Reduce-then-quantize versus quantize-then-restrict, bit exactly.

    The invariant part is the character's slice at xi-level zero, the
    monomials whose xi-pairing is zero, expanded on its own
    (character_expand with level=0) rather than cut out of the whole
    character; the reduced character is chi_reduced at the zero level of
    the symplectic moment map.
    """
    xi = tuple(xi)
    if not is_primitive(xi):
        raise NotPrimitive(f"{xi} is not primitive")
    for v in sym.action.vertices:
        if dot(sym.alphas[v], xi) == 0:
            raise ZeroNotRegular(
                f"alpha_{v} pairs to zero with {xi}; zero is critical")
    base = sym.base
    invariant = character_expand(base, polarize(sym.action, xi),
                                 level=0).poly
    reduced = chi_reduced(base, symplectic_moment_map(sym, xi), 0).value
    return QrResult(ok=invariant == reduced, invariant_part=invariant,
                    reduced=reduced)
