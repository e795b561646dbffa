"""Graphs with a torus action: validation of the labeling axioms, classes
attached to vertices, symplectic (monomial) classes and example generators.

Edges are stored oriented, in pairs: edge 2i + 1 is edge 2i reversed, and
its weight is minus the weight of edge 2i.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .lattice import direction, dot, dual_cone, primitive_part, vadd, \
    vneg, vscale, vsub
from .laurent import LaurentPoly, incongruent_edges


@dataclass(frozen=True)
class Violation:
    code: str        # E_INVOLUTION, E_VALENCE, E_ORIENT, E_GKM, E_COMPAT, ...
    where: str       # offending vertex / edge description
    detail: str = ""

    def __str__(self):
        msg = f"{self.code} at {self.where}"
        return f"{msg}: {self.detail}" if self.detail else msg


class ValidationError(ValueError):
    """stage is "class" when every violation is in a class: those raised by
    validate_class, symplectic_class, and load_graph_data once the graph
    has passed.  Else it is "graph"."""

    def __init__(self, violations, stage="graph"):
        self.violations = list(violations)
        self.stage = stage
        super().__init__("; ".join(str(v) for v in self.violations))


@dataclass(frozen=True)
class Edge:
    """The oriented edge src -> dst, labeled by its weight in Z^n.  Its
    reverse is edges[eid ^ 1] of its action."""

    eid: int
    src: str
    dst: str
    weight: tuple


@dataclass(frozen=True)
class GkmAction:
    """A validated d-valent graph labeled by weights in Z^n.  Oriented edge
    2i + 1 is edge 2i reversed and carries minus its weight, so the reverse
    of edge e is edges[e.eid ^ 1].  The star of each vertex is built once:
    out_index[v] holds the edges leaving v, in edge order, and
    out_weights[v] their weights.  So is each edge's direction class:
    direction[eid] is lattice.direction of its weight, (u, sign, mult),
    or None for a zero weight, and direction[eid ^ 1] has the same u and
    mult with the sign flipped.  Two edges are parallel exactly when
    their u's are equal."""

    n: int
    vertices: tuple
    edges: tuple            # tuple of Edge
    out_index: dict = field(init=False, compare=False, repr=False)
    out_weights: dict = field(init=False, compare=False, repr=False)
    direction: tuple = field(init=False, compare=False, repr=False)
    # sorted weight set -> its lattice.dual_cone, filled by dual_cone
    _cones: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index = {v: [] for v in self.vertices}
        for e in self.edges:
            index[e.src].append(e)
        object.__setattr__(self, "out_index",
                           {v: tuple(es) for v, es in index.items()})
        object.__setattr__(self, "out_weights",
                           {v: tuple(e.weight for e in es)
                            for v, es in index.items()})
        table = []
        for e in self.edges[::2]:
            d = direction(e.weight) if any(e.weight) else None
            table += (d, d and (d[0], -d[1], d[2]))
        object.__setattr__(self, "direction", tuple(table))
        object.__setattr__(self, "_cones", {})

    def dual_cone(self, weights):
        """lattice.dual_cone of a set of weights, such as a vertex's
        polarized weights: its (rays, normals), eliminated once per
        distinct set on this graph, so vertices with the same set, and
        later calls, read the same pair."""
        key = tuple(sorted(weights))
        cone = self._cones.get(key)
        if cone is None:
            cone = self._cones[key] = dual_cone(key, self.n)
        return cone

    @cached_property
    def division_stars(self) -> tuple:
        """(gammas, stars) of the division route (see
        characters.character_oracle), built on first use and kept for the
        graph: the distinct gs, in the order the vertices first meet them,
        as the keys of a dict, and stars[v] = (sign, shift, used), the
        monomial m_v as its coefficient and exponent and the set of the gs
        at v."""
        gammas = {}
        stars = {}
        for v, es in self.out_index.items():
            coeff, exp, used = 1, (0,) * self.n, set()
            for e in es:
                g = e.weight
                if self.direction[e.eid][1] < 0:
                    g = vneg(g)
                    coeff, exp = -coeff, vadd(exp, g)
                gammas[g] = None
                used.add(g)
            stars[v] = (coeff, exp, used)
        return gammas, stars

    def geometric_edges(self):
        """One representative per unoriented edge: the even-numbered one."""
        return self.edges[::2]


def _build_action(n, vertices, edge_pairs):
    """(action, []) when the raw data satisfy the labeling axioms, else
    (None, the violations of the first stage that fails).

    The stages, in order: the rank n (E_SCHEMA, as the loader reports
    it), the vertex list, each (src, dst, alpha) pair, valence, pairwise
    independence (GKM) and compatibility.  The last three read the
    out_index of the action the pairs built.  Pair i becomes oriented
    edges 2i and 2i + 1, both labeled "edge#i src->dst".

    Compatibility is one call of laurent.incongruent_edges on the
    even-numbered edges, with each vertex's out-weights as the exponents
    of one term map, all coefficients 1; no LaurentPoly is built.  The
    kernel names each class e + Z*alpha by the representative
    e - floor(e_i / alpha_i) * alpha, i the first nonzero entry of alpha,
    and packs each vertex's weights once into int keys in base
    2E(1+X) + 1, E and X the largest |entry| of a weight, which keeps the
    keys of distinct representatives apart (see its docstring).
    """
    if n < 1:
        return None, [_schema("n", "n is not positive")]
    if not vertices:
        return None, [Violation("E_VERTEX", "vertices", "empty vertex set")]
    vertices = tuple(vertices)
    vset = set(vertices)
    if len(vset) != len(vertices):
        return None, [Violation("E_VERTEX", str(v), f"listed {k} times")
                      for v, k in Counter(vertices).items() if k > 1]
    violations, edges, labels = [], [], []
    for idx, (src, dst, alpha) in enumerate(edge_pairs):
        label, alpha = f"edge#{idx} {src}->{dst}", tuple(alpha)
        if src not in vset or dst not in vset:
            violations.append(Violation("E_INVOLUTION", label, "unknown vertex"))
        elif src == dst:
            violations.append(Violation("E_INVOLUTION", label,
                                        "loop edge has no free involution"))
        elif len(alpha) != n:
            violations.append(Violation("E_ORIENT", label,
                                        f"weight length {len(alpha)} != {n}"))
        else:
            a = len(edges)
            edges += (Edge(a, src, dst, alpha),
                      Edge(a + 1, dst, src, vneg(alpha)))
            labels += (label, label)
    if violations:
        return None, violations
    action = GkmAction(n=n, vertices=vertices, edges=tuple(edges))
    out = action.out_index

    if len({len(es) for es in out.values()}) != 1:
        return None, [Violation("E_VALENCE", str(v),
                                f"valence {len(es)}, graph is not regular")
                      for v, es in out.items()]

    for v, es in out.items():
        # each edge's class u, None for a zero weight
        us = [d and d[0] for d in (action.direction[e.eid] for e in es)]
        for i, (e, u) in enumerate(zip(es, us)):
            if u is None:
                violations.append(Violation("E_GKM", str(v),
                                            f"zero weight on {labels[e.eid]}"))
                continue
            violations += [Violation("E_GKM", str(v), f"proportional weights "
                                     f"on {labels[e.eid]} and {labels[f.eid]}")
                           for f, t in zip(es[i + 1:], us[i + 1:]) if t == u]
    if violations:
        return None, violations

    # compatibility across each edge: the weight multisets at the two
    # endpoints agree modulo Z*alpha, i.e. their tangent weights
    # sum_w x^w are congruent modulo 1 - x^alpha.  The weights at a vertex
    # are pairwise independent by now, so no two are equal, and each is
    # one term with coefficient 1.
    tangent = {v: dict.fromkeys(ws, 1) for v, ws in action.out_weights.items()}
    bad = incongruent_edges(n, tangent, [(e.src, e.dst, e.weight)
                                         for e in edges[::2]])
    violations = [Violation("E_COMPAT", labels[2 * i], "endpoint weight "
                            "multisets differ modulo the edge weight")
                  for i in bad]
    return (None, violations) if violations else (action, [])


def action_violations(n, vertices, edge_pairs):
    """The violations of the labeling axioms on raw data, [] if none.

    edge_pairs is a list of (src, dst, alpha): the edge src -> dst
    carries alpha and its reverse dst -> src carries -alpha.
    """
    return _build_action(n, vertices, edge_pairs)[1]


def validate_action(n, vertices, edge_pairs) -> GkmAction:
    """Build a GkmAction from (src, dst, alpha) pairs as in
    action_violations, raising ValidationError on failure.  Pair i becomes
    oriented edges 2i and 2i + 1, each the other reversed."""
    action, violations = _build_action(n, vertices, edge_pairs)
    if violations:
        raise ValidationError(violations)
    return action


@dataclass(frozen=True)
class KClass:
    """Vertex-indexed ring elements compatible across every edge."""

    action: GkmAction
    values: dict            # vertex -> LaurentPoly

    def __getitem__(self, v) -> LaurentPoly:
        return self.values[v]

    def __add__(self, other):
        if other.action is not self.action:
            raise ValueError("the classes are on different actions")
        return KClass(self.action,
                      {v: self.values[v] + other.values[v]
                       for v in self.action.vertices})

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return KClass(self.action,
                          {v: self.values[v] * other
                           for v in self.action.vertices})
        if other.action is not self.action:
            raise ValueError("the classes are on different actions")
        return KClass(self.action,
                      {v: self.values[v] * other.values[v]
                       for v in self.action.vertices})

    __rmul__ = __mul__


def class_violations(action: GkmAction, values) -> list:
    """Why values is not a class on action: a vertex without a value or a
    value on a vertex the graph does not have, else every edge whose
    endpoint values are not congruent modulo its weight, in edge order.
    The congruences are tested by laurent.incongruent_edges, which packs
    each value once; a value of a length other than action.n raises
    DimMismatch."""
    out = _key_violations(action, values)
    if out:
        return out
    edges = action.geometric_edges()
    bad = incongruent_edges(action.n,
                            {v: values[v].terms for v in action.vertices},
                            [(e.src, e.dst, e.weight) for e in edges])
    return [Violation("E_COMPAT", f"edge {edges[i].src}->{edges[i].dst}",
                      "vertex values are not congruent modulo the edge "
                      "weight")
            for i in bad]


def _key_violations(action: GkmAction, values) -> list:
    """Each vertex of action without a value, and each value on a vertex
    that action does not have."""
    out = [Violation("E_COMPAT", str(v), "missing value")
           for v in action.vertices if v not in values]
    if len(values) > len(action.vertices) - len(out):
        vset = set(action.vertices)
        out += [Violation("E_COMPAT", str(v), "unknown vertex")
                for v in values if v not in vset]
    return out


def validate_class(action: GkmAction, values) -> KClass:
    violations = class_violations(action, values)
    if violations:
        raise ValidationError(violations, stage="class")
    return KClass(action, dict(values))


def constant_class(action: GkmAction, c=1) -> KClass:
    p = LaurentPoly.constant(action.n, c)
    return KClass(action, {v: p for v in action.vertices})


@dataclass(frozen=True)
class SymplecticClass:
    """Monomial class x^{alpha_p} whose edge increments are positive."""

    action: GkmAction
    alphas: dict            # vertex -> weight
    m: dict                 # eid -> positive integer multiple

    @property
    def base(self) -> KClass:
        return KClass(self.action,
                      {v: LaurentPoly.monomial(a)
                       for v, a in self.alphas.items()})


def symplectic_class(action: GkmAction, alphas) -> SymplecticClass:
    """The class x^alpha_p, once every vertex has one alpha of length n and
    alpha_{t(e)} - alpha_{i(e)} = m_e * alpha_e with m_e > 0 on every
    oriented edge e; else ValidationError with stage "class".  The class
    is then compatible: x^(alpha + m*w) - x^alpha is divisible by 1 - x^w.
    """
    violations = _key_violations(action, alphas) or [
        Violation("E_SCHEMA", str(v), f"weight length {len(a)} != {action.n}")
        for v, a in alphas.items() if len(a) != action.n]
    if violations:
        raise ValidationError(violations, stage="class")
    alphas = {v: tuple(a) for v, a in alphas.items()}
    m = {}
    for e in action.edges:
        diff, w = vsub(alphas[e.dst], alphas[e.src]), e.weight
        me = _integer_multiple(diff, w)
        label = f"edge {e.src}->{e.dst}"
        if me is None:
            violations.append(Violation("E_NOT_MULTIPLE", label,
                                        f"{diff} is not an integer multiple of {w}"))
        elif me <= 0:
            violations.append(Violation("E_NONPOSITIVE", label,
                                        f"multiple {me} is not positive"))
        else:
            m[e.eid] = me
    if violations:
        raise ValidationError(violations, stage="class")
    return SymplecticClass(action, alphas, m)


def _integer_multiple(diff, w):
    """m with diff == m*w, or None.  m is read off the pivot entry of w, the
    first nonzero one; diff == m*w then rejects a remainder there too."""
    pivot = next((i for i, x in enumerate(w) if x != 0), None)
    if pivot is None:
        return None
    m = diff[pivot] // w[pivot]
    return m if diff == vscale(w, m) else None


# ---------------------------------------------------------------------------
# example generators


def gen_projective(n: int):
    """Complete graph on n+1 vertices modeling projective n-space.

    Edge P_i -> P_j carries eps_j - eps_i (eps_0 = 0); the default
    symplectic class is alpha_{P_k} = eps_k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    eps = [(0,) * n] + [tuple(int(i == k) for i in range(n))
                        for k in range(n)]
    vertices = [f"P{i}" for i in range(n + 1)]
    pairs = [(vertices[i], vertices[j], vsub(eps[j], eps[i]))
             for i, j in combinations(range(n + 1), 2)]
    action = validate_action(n, vertices, pairs)
    sym = symplectic_class(action, {vertices[k]: eps[k]
                                    for k in range(n + 1)})
    return action, sym


def gen_cp1_in_plane():
    """Two vertices joined by an edge of weight (1,0) inside a 2-torus.

    Default symplectic class alpha_p = (-1,0), alpha_q = (1,0).
    """
    action = validate_action(2, ["p", "q"], [("p", "q", (1, 0))])
    sym = symplectic_class(action, {"p": (-1, 0), "q": (1, 0)})
    return action, sym


def gen_hirzebruch(k: int, a: int = 1, b: int = 1):
    """Quadrilateral graph of a Hirzebruch-type trapezoid.

    Vertices at (0,0), (a,0), (a,b), (0,b+k*a); edge weights are the
    primitive directions of the trapezoid sides, so the corner coordinates
    form a symplectic class with edge multiples given by lattice lengths.
    """
    if a < 1 or b < 1 or k < 0:
        raise ValueError("need a, b >= 1 and k >= 0")
    corners = {
        "A": (0, 0),
        "B": (a, 0),
        "C": (a, b),
        "D": (0, b + k * a),
    }
    sides = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")]
    pairs = []
    for u, v in sides:
        w, _ = primitive_part(vsub(corners[v], corners[u]))
        pairs.append((u, v, w))
    action = validate_action(2, list(corners), pairs)
    sym = symplectic_class(action, corners)
    return action, sym


def gen_product(a1: GkmAction, sym1: SymplecticClass,
                a2: GkmAction, sym2: SymplecticClass):
    """Product action: vertex pairs, edge weights embedded side by side."""
    n = a1.n + a2.n
    vertices = [f"{u}|{v}" for u in a1.vertices for v in a2.vertices]
    pairs = []
    for e in a1.geometric_edges():
        w = e.weight + (0,) * a2.n
        for v in a2.vertices:
            pairs.append((f"{e.src}|{v}", f"{e.dst}|{v}", w))
    for e in a2.geometric_edges():
        w = (0,) * a1.n + e.weight
        for u in a1.vertices:
            pairs.append((f"{u}|{e.src}", f"{u}|{e.dst}", w))
    action = validate_action(n, vertices, pairs)
    alphas = {f"{u}|{v}": sym1.alphas[u] + sym2.alphas[v]
              for u in a1.vertices for v in a2.vertices}
    sym = symplectic_class(action, alphas)
    return action, sym


def positive_roots(kind: str, rank: int):
    """Positive roots of A_rank in Z^(rank+1), of B_rank, C_rank or D_rank
    in Z^rank, or of G_2 in the sum-zero plane of Z^3: e_i - e_j (i < j)
    in type A, those and e_i + e_j in D, and also e_i in B or 2e_i in C.
    All pair positively with (rank, ..., 1), or with (0, -1, 2) in G_2.
    """
    if (kind, rank) == ("G", 2):
        return [(1, -1, 0), (-1, 0, 1), (0, -1, 1),
                (-2, 1, 1), (1, -2, 1), (-1, -1, 2)]
    if kind not in ("A", "B", "C", "D") or rank < (1 if kind == "A" else 2):
        raise ValueError(f"no root system {kind}_{rank}")
    m = rank + 1 if kind == "A" else rank
    e = [tuple(int(i == k) for i in range(m)) for k in range(m)]
    roots = [vsub(e[i], e[j]) for i, j in combinations(range(m), 2)]
    if kind != "A":
        roots += [vadd(e[i], e[j]) for i, j in combinations(range(m), 2)]
    if kind in ("B", "C"):
        roots += [vscale(u, 1 if kind == "B" else 2) for u in e]
    return roots


def gen_weyl_orbit(roots, lam):
    """GKM graph of the coadjoint orbit G/P through lam, with the
    symplectic class alpha_mu = mu (Guillemin-Holm-Zara).

    roots are the positive roots of G (see positive_roots).  The vertices
    are the orbit of lam under the reflections s_b(mu) = mu - <mu, b^v> b,
    each named by its entries joined with commas ("0,1,2").  mu is joined
    to s_b mu for every b with <mu, b^v> != 0 by the root +-b whose edge
    multiple is positive; its primitive part would give type C the wrong
    character.  A regular lam gives G/B and any other G/P: in type A,
    lam = (1, ..., 1, 0, ..., 0) gives a Grassmannian.  Raises ValueError
    when lam is not integral for some coroot.
    """
    lam = tuple(lam)
    roots = [(tuple(b), dot(b, b)) for b in roots]
    if any(2 * dot(lam, b) % bb for b, bb in roots):
        raise ValueError(f"{lam} is not an integral weight of these roots")
    orbit, seen, edges = [lam], {lam}, []
    for mu in orbit:            # the orbit grows as the loop reads it
        for b, bb in roots:
            c = 2 * dot(mu, b) // bb
            nu = vsub(mu, vscale(b, c))
            if nu not in seen:
                seen.add(nu)
                orbit.append(nu)
            if mu < nu:         # alpha_nu - alpha_mu = -c b
                edges.append((mu, nu, vscale(b, -1 if c > 0 else 1)))
    name = {mu: ",".join(map(str, mu)) for mu in orbit}
    action = validate_action(len(lam), list(name.values()),
                             [(name[p], name[q], w) for p, q, w in edges])
    return action, symplectic_class(action, {name[mu]: mu for mu in orbit})


def restrict(action: GkmAction, sym: SymplecticClass, P):
    """Restriction to the subtorus given by an integer k x n matrix P.

    Every edge weight and every alpha_p is mapped through P.  Edge
    congruences and positive edge multiples survive any linear map, but
    pairwise independence may not, so validate_action decides, raising
    ValidationError, and symplectic_class checks the class again.  The
    character of the restriction is the original character with every
    exponent mapped through P.
    """
    P = [tuple(row) for row in P]
    if not P or any(len(row) != action.n for row in P):
        raise ValueError(f"P must be a nonempty k x {action.n} matrix")

    def image(w):
        return tuple(dot(row, w) for row in P)

    pairs = [(e.src, e.dst, image(e.weight))
             for e in action.geometric_edges()]
    restricted = validate_action(len(P), action.vertices, pairs)
    return restricted, symplectic_class(
        restricted, {v: image(a) for v, a in sym.alphas.items()})


# ---------------------------------------------------------------------------
# file format


def load_graph_data(doc):
    """Parse and validate the JSON graph document into (GkmAction, named
    raw classes).

    Schema: {"n": int, "vertices": [str], "edges": [{"from", "to",
    "alpha": [int]}], "classes": {name: {vertex: [{"coeff": int,
    "exp": [int]}]}}}; edges and classes may be left out.  Reverse edges
    are implied with -alpha.  A document that departs from the schema
    raises ValidationError with E_SCHEMA violations: a missing key, a list
    or object of another type, an exponent of the wrong length, or a
    number in n, alpha, exp or coeff that is not a JSON integer (a float
    or a bool is refused, not rounded).  The graph must then pass
    validate_action, and a class value on a vertex the graph does not list
    is an E_COMPAT violation.  Whether each class is compatible is left to
    validate_class.  The graph is read and validated before any class, so
    the ValidationError carries the violations of one stage: its stage is
    "class" when the graph passed and a class did not.
    """
    violations = _graph_schema_violations(doc)
    if violations:
        raise ValidationError(violations)
    n = doc["n"]
    pairs = [(str(e["from"]), str(e["to"]), e["alpha"])
             for e in doc.get("edges", [])]
    action = validate_action(n, [str(v) for v in doc["vertices"]], pairs)
    vset = set(action.vertices)
    classes = {}
    for name, valmap in doc.get("classes", {}).items():
        if not isinstance(valmap, dict):
            violations.append(_schema(f"class {name}", "not a JSON object"))
            continue
        values = {}
        for v, terms in valmap.items():
            where = f"class {name} at {v}"
            if v not in vset:
                violations.append(Violation("E_COMPAT", where,
                                            "unknown vertex"))
                continue
            if not isinstance(terms, list):
                violations.append(_schema(where, "not a JSON list"))
                continue
            acc = {}
            for t in terms:
                problem = _term_problem(t, n)
                if problem:
                    violations.append(_schema(where, problem))
                    break
                exp = tuple(t["exp"])
                acc[exp] = acc.get(exp, 0) + t["coeff"]
            else:
                values[v] = LaurentPoly(n, acc)
        classes[name] = values
    if violations:
        raise ValidationError(violations, stage="class")
    return action, classes


def _schema(where, detail):
    return Violation("E_SCHEMA", where, detail)


def _graph_schema_violations(doc):
    """What stops the graph part of the document from being read."""
    if not isinstance(doc, dict):
        return [_schema("document", "not a JSON object")]
    problem = _missing(doc, ("n", "vertices"))
    if problem:
        return [_schema("document", problem)]
    out = [_schema(key, "not a JSON list") for key in ("vertices", "edges")
           if not isinstance(doc.get(key, []), list)]
    if not isinstance(doc.get("classes", {}), dict):
        out.append(_schema("classes", "not a JSON object"))
    if type(doc["n"]) is not int:
        out.append(_schema("n", "n is not a JSON integer"))
    elif doc["n"] < 1:
        out.append(_schema("n", "n is not positive"))
    if out:
        return out
    for idx, e in enumerate(doc.get("edges", [])):
        problem = (_missing(e, ("from", "to", "alpha"))
                   or _int_list_problem(e["alpha"], "alpha"))
        if problem:
            out.append(_schema(f"edge#{idx}", problem))
    return out


def _missing(obj, keys):
    """None if obj is a JSON object with every key, else which are missing."""
    missing = [key for key in keys if type(obj) is not dict or key not in obj]
    return "missing " + ", ".join(missing) if missing else None


def _term_problem(t, n):
    """What stops one {coeff, exp} term of a class value from being read."""
    if type(t) is not dict or "coeff" not in t or "exp" not in t:
        return _missing(t, ("coeff", "exp"))
    exp = t["exp"]
    problem = _int_list_problem(exp, "exp")
    if problem:
        return problem
    if len(exp) != n:
        return f"exp length {len(exp)} != {n}"
    if type(t["coeff"]) is not int:
        return "coeff is not a JSON integer"
    return None


def _int_list_problem(xs, what):
    """None if xs is a list of JSON integers: int() would truncate a float,
    and a bool is an int to Python."""
    if type(xs) is not list:
        return f"{what} is not a JSON list"
    if not all(type(x) is int for x in xs):
        return f"{what} is not a JSON integer"
    return None


def load_graph_file(path):
    with open(path) as fh:
        return load_graph_data(json.load(fh))


def graph_to_data(action: GkmAction, classes=None):
    doc = {
        "n": action.n,
        "vertices": list(action.vertices),
        "edges": [{"from": e.src, "to": e.dst, "alpha": list(e.weight)}
                  for e in action.geometric_edges()],
    }
    if classes:
        doc["classes"] = {
            name: {v: [{"coeff": c, "exp": list(exp)}
                       for exp, c in sorted(p.terms.items())]
                   for v, p in values.items()}
            for name, values in classes.items()
        }
    return doc
