import json
import operator
import os
import random
from collections import Counter
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkmchar import lattice
from gkmchar.laurent import LaurentPoly
from gkmchar.graphs import (Edge, GkmAction, ValidationError,
                            action_violations,
                            class_violations, constant_class,
                            gen_cp1_in_plane, gen_hirzebruch, gen_product,
                            gen_projective, gen_weyl_orbit, graph_to_data,
                            load_graph_data, load_graph_file, positive_roots,
                            restrict, symplectic_class, validate_action,
                            validate_class)
from gkmchar.randomgen import (flag_fixtures, random_class,
                               random_restriction, random_symplectic,
                               standard_fixtures)


@pytest.fixture(scope="module")
def all_fixtures(fixtures):
    return {**fixtures, **flag_fixtures()}


def _valence(action):
    """The number of edges at the first vertex: the valence of a validated,
    hence regular, action."""
    return len(action.out_index[action.vertices[0]])


def test_gen_projective_2_is_valid():
    action, sym = gen_projective(2)
    assert len(action.vertices) == 3
    assert _valence(action) == 2
    weights = {tuple(sorted((w, tuple(-x for x in w))))
               for w in (e.weight for e in action.geometric_edges())}
    expected = {(1, 0), (0, 1), (-1, 1)}
    flat = {w for pair in weights for w in pair}
    for w in expected:
        assert w in flat or tuple(-x for x in w) in flat


def test_out_index_lists_the_edges_of_a_scan():
    # each vertex's star is the scan of the edges leaving it, and edge
    # 2i + 1 is edge 2i reversed, with the negated weight
    fixtures = {**standard_fixtures(), **flag_fixtures()}
    actions = [action for action, _ in fixtures.values()]
    actions.append(gen_weyl_orbit(positive_roots("A", 3), range(4))[0])
    actions.append(random_restriction(*fixtures["proj3"],
                                      random.Random(1))[1])
    actions.append(gen_product(*fixtures["cp1"], *fixtures["proj2"])[0])
    for action in actions:
        for v in action.vertices:
            scan = [e for e in action.edges if e.src == v]
            assert list(action.out_index[v]) == scan
            assert action.out_weights[v] == tuple(e.weight for e in scan)
        assert action.geometric_edges() == action.edges[::2]
        for i, e in enumerate(action.edges):
            r = action.edges[i ^ 1]
            assert (e.eid, r.src, r.dst, r.weight) == \
                (i, e.dst, e.src, tuple(-x for x in e.weight))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_direction_table_holds_the_class_of_each_edge(all_fixtures, data):
    name = data.draw(st.sampled_from(sorted(all_fixtures)))
    action, sym = all_fixtures[name]
    if name in ("proj3", "p1xp2") and data.draw(st.booleans()):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        action = random_restriction(action, sym, rng)[1]
    for e in action.edges:
        u, sign, mult = action.direction[e.eid]
        assert (u, sign, mult) == lattice.direction(e.weight)
        assert action.direction[e.eid ^ 1] == (u, -sign, mult)


def test_direction_table_leaves_a_zero_weight_out():
    # the GKM stage reports a zero weight, so the action must still build
    edges = (Edge(0, "a", "b", (0, 0)), Edge(1, "b", "a", (0, 0)),
             Edge(2, "a", "b", (2, -4)), Edge(3, "b", "a", (-2, 4)))
    action = GkmAction(n=2, vertices=("a", "b"), edges=edges)
    assert action.direction == (None, None, ((1, -2), 1, 2),
                                ((1, -2), -1, 2))


def _proportional(a, b):
    """Whether every 2 x 2 minor of the columns a, b vanishes."""
    return all(a[i] * b[j] == a[j] * b[i]
               for i, j in combinations(range(len(a)), 2))


def _pairwise_gkm_lines(vertices, pairs):
    """The GKM-stage lines of the pairwise-minor test: at each vertex, in
    out-edge order, a zero weight once, else each later nonzero weight
    proportional to it."""
    out = {v: [] for v in vertices}
    for idx, (src, dst, w) in enumerate(pairs):
        label = f"edge#{idx} {src}->{dst}"
        out[src].append((label, w))
        out[dst].append((label, tuple(-x for x in w)))
    lines = []
    for v, es in out.items():
        for i, (label, w) in enumerate(es):
            if not any(w):
                lines.append(f"E_GKM at {v}: zero weight on {label}")
                continue
            lines += [f"E_GKM at {v}: proportional weights on {label} and "
                      f"{other}" for other, x in es[i + 1:]
                      if any(x) and _proportional(w, x)]
    return lines


@st.composite
def complete_graph_weights(draw):
    """(n, vertices, pairs): the complete graph on 3-5 vertices, in a drawn
    edge order, each edge weight a multiple in [-3, 3] of one of 1-3 drawn
    vectors, so zero, parallel, antiparallel and integer-multiple weights
    meet at the vertices."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(3, 5))
    bases = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                          min_size=1, max_size=3))
    vertices = [f"v{i}" for i in range(m)]
    pairs = [(vertices[i], vertices[j],
              tuple(draw(st.integers(-3, 3)) * x
                    for x in draw(st.sampled_from(bases))))
             for i, j in combinations(range(m), 2)]
    return n, vertices, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(complete_graph_weights())
def test_gkm_stage_matches_the_pairwise_minor_test(graph):
    n, vertices, pairs = graph
    got = [str(x) for x in action_violations(n, vertices, pairs)]
    want = _pairwise_gkm_lines(vertices, pairs)
    if want:
        assert got == want
    else:
        assert not any(line.startswith("E_GKM") for line in got)


def test_orientation_weight_length_violation():
    # the reversed edge always carries minus the pair's weight, so the one
    # orientation check left is that the weight lies in Z^n
    v = action_violations(2, ["p", "q"], [("p", "q", (1, 0, 0))])
    assert [str(x) for x in v] == \
        ["E_ORIENT at edge#0 p->q: weight length 3 != 2"]


def test_loop_edge_violation():
    # an edge from a vertex to itself has no free involution: its reverse
    # would leave the same vertex
    v = action_violations(2, ["p", "q"], [("p", "p", (1, 0)),
                                          ("p", "q", (0, 1))])
    assert [str(x) for x in v] == \
        ["E_INVOLUTION at edge#0 p->p: loop edge has no free involution"]


def test_gkm_condition_violation():
    v = action_violations(
        2, ["a", "b", "c"],
        [("a", "b", (1, 0)), ("a", "c", (2, 0)), ("b", "c", (0, 1))])
    assert any(x.code == "E_GKM" for x in v)


def test_zero_weight_is_reported_once_whatever_the_edge_order():
    # a zero weight is proportional to every weight; only its own
    # zero-weight line names it, whichever edge comes first at its vertex
    pairs = [("a", "b", (1, 0)), ("b", "c", (0, 0)), ("c", "a", (1, 1))]
    for order in permutations(pairs):
        v = action_violations(2, ["a", "b", "c"], list(order))
        assert [(x.code, x.where) for x in v] == \
            [("E_GKM", "b"), ("E_GKM", "c")]
        assert all(x.detail == "zero weight on "
                   f"edge#{order.index(pairs[1])} b->c" for x in v)


def test_valence_violation():
    v = action_violations(
        2, ["a", "b", "c"],
        [("a", "b", (1, 0)), ("a", "c", (0, 1))])
    assert any(x.code == "E_VALENCE" for x in v)


def test_compat_violation():
    # across edge a->b the residues mod Z(1,0) are {0,(0,1)} at a but
    # {0,(0,2)} at b
    v = action_violations(
        2, ["a", "b", "c", "d"],
        [("a", "b", (1, 0)), ("b", "c", (0, 2)),
         ("c", "d", (-1, 0)), ("d", "a", (0, -1))])
    assert any(x.code == "E_COMPAT" for x in v)


def _tuple_representative(e, w):
    """The representative of e + Z*w by the pairing with w, as a tuple:
    e - floor(e.w / w.w) * w."""
    t = lattice.dot(e, w) // lattice.dot(w, w)
    return tuple(x - t * g for x, g in zip(e, w))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compat_stage_flags_the_edges_a_counter_reference_flags(all_fixtures,
                                                                data):
    # one weight of a valid graph moved: every edge whose endpoint weight
    # multisets then differ modulo its weight is flagged, and no other
    name = data.draw(st.sampled_from(sorted(all_fixtures)))
    action, _ = all_fixtures[name]
    pairs = [(e.src, e.dst, e.weight) for e in action.geometric_edges()]
    i = data.draw(st.integers(0, len(pairs) - 1))
    src, dst, w = pairs[i]
    moved = tuple(x + data.draw(st.integers(-3, 3)) for x in w)
    pairs[i] = (src, dst, moved)
    stars = {v: [] for v in action.vertices}
    for a, b, w in pairs:
        stars[a].append(w)
        stars[b].append(tuple(-x for x in w))
    got = action_violations(action.n, action.vertices, pairs)
    assume(all(v.code == "E_COMPAT" for v in got))
    want = [f"edge#{j} {a}->{b}" for j, (a, b, w) in enumerate(pairs)
            if Counter(_tuple_representative(e, w) for e in stars[a])
            != Counter(_tuple_representative(e, w) for e in stars[b])]
    assert [v.where for v in got] == want


def test_constant_class_is_valid():
    action, _ = gen_projective(2)
    c = constant_class(action, 5)
    assert class_violations(action, c.values) == []


def test_cp1_incompatible_class():
    action, _ = gen_cp1_in_plane()
    values = {"p": LaurentPoly.one(2), "q": LaurentPoly.monomial((0, 1))}
    with pytest.raises(ValidationError) as exc:
        validate_class(action, values)
    assert exc.value.stage == "class"


def test_vertex_set_and_class_vertices_are_checked():
    # an empty or repeated vertex list, and a value on a vertex the graph
    # does not have, used to pass (an empty graph then failed on an index)
    for vertices, where in (([], "vertices"), (["p", "q", "p"], "p")):
        with pytest.raises(ValidationError) as exc:
            validate_action(2, vertices, [("p", "q", (1, 0))])
        assert exc.value.stage == "graph"
        assert [(v.code, v.where) for v in exc.value.violations] == \
            [("E_VERTEX", where)]
    action, _ = gen_cp1_in_plane()
    one = LaurentPoly.one(2)
    with pytest.raises(ValidationError) as exc:
        validate_class(action, {"p": one, "q": one, "r": one})
    assert [str(v) for v in exc.value.violations] == \
        ["E_COMPAT at r: unknown vertex"]


def test_non_positive_rank_is_refused_by_the_library():
    # the loader refused n < 1, but validate_action built an action with
    # n = -1 that no subcommand could use
    for n in (0, -1):
        assert [str(v) for v in action_violations(n, ["p"], [])] == \
            ["E_SCHEMA at n: n is not positive"]
        with pytest.raises(ValidationError) as exc:
            validate_action(n, ["p", "q"], [("p", "q", ())])
        assert exc.value.stage == "graph"
        assert str(exc.value) == "E_SCHEMA at n: n is not positive"


def test_cp1_symplectic_values_are_compatible():
    action, _ = gen_cp1_in_plane()
    values = {"p": LaurentPoly.monomial((-1, 0)),
              "q": LaurentPoly.monomial((1, 0))}
    f = validate_class(action, values)
    assert f["p"] == LaurentPoly.monomial((-1, 0))


def test_cp1_symplectic_multiple():
    action, _ = gen_cp1_in_plane()
    sym = symplectic_class(action, {"p": (-1, 0), "q": (1, 0)})
    e = action.geometric_edges()[0]
    assert sym.m[e.eid] == 2


def test_cp1_nonpositive_multiple():
    action, _ = gen_cp1_in_plane()
    with pytest.raises(ValidationError) as exc:
        symplectic_class(action, {"p": (1, 0), "q": (-1, 0)})
    assert any(v.code == "E_NONPOSITIVE" for v in exc.value.violations)
    assert exc.value.stage == "class"


def test_cp1_edge_difference_off_the_weight_is_refused():
    # alpha_q - alpha_p = (2, 1) is no multiple of the edge weight (1, 0)
    action, _ = gen_cp1_in_plane()
    with pytest.raises(ValidationError) as exc:
        symplectic_class(action, {"p": (-1, 0), "q": (1, 1)})
    assert [str(v) for v in exc.value.violations] == [
        "E_NOT_MULTIPLE at edge p->q: (2, 1) is not an integer multiple "
        "of (1, 0)",
        "E_NOT_MULTIPLE at edge q->p: (-2, -1) is not an integer multiple "
        "of (-1, 0)"]
    assert exc.value.stage == "class"


def test_edge_difference_off_the_pivot_multiple_is_refused():
    # alpha_q - alpha_p = (1, 0) is half the edge weight (2, 0): the pivot
    # entry 1 is no multiple of 2
    action = validate_action(2, ["p", "q"], [("p", "q", (2, 0))])
    with pytest.raises(ValidationError) as exc:
        symplectic_class(action, {"p": (0, 0), "q": (1, 0)})
    assert [str(v) for v in exc.value.violations] == [
        "E_NOT_MULTIPLE at edge p->q: (1, 0) is not an integer multiple "
        "of (2, 0)",
        "E_NOT_MULTIPLE at edge q->p: (-1, 0) is not an integer multiple "
        "of (-2, 0)"]


def test_projective2_default_multiples_are_one():
    action, sym = gen_projective(2)
    assert all(m == 1 for m in sym.m.values())


def test_gen_projective_sizes():
    a1, _ = gen_projective(1)
    assert len(a1.vertices) == 2
    assert len(a1.geometric_edges()) == 1
    assert a1.geometric_edges()[0].weight == (1,)
    a3, _ = gen_projective(3)
    assert _valence(a3) == 3
    assert len(a3.vertices) == 4


def test_gen_hirzebruch_valid():
    action, sym = gen_hirzebruch(1)
    assert len(action.vertices) == 4
    assert all(m > 0 for m in sym.m.values())


def test_gen_product_valid():
    a, s = gen_projective(1)
    action, sym = gen_product(a, s, a, s)
    assert len(action.vertices) == 4
    assert action.n == 2


@pytest.mark.parametrize("m", [2, 3, 4])
def test_gen_flag_a_valid(m):
    # the type-A flag graph, the orbit of rho: one vertex per permutation,
    # joined to the permutations one transposition away, so d = m(m-1)/2,
    # above the rank m-1 of the weights once m >= 3
    action, sym = gen_weyl_orbit(positive_roots("A", m - 1), range(m))
    assert (action.n, _valence(action)) == (m, m * (m - 1) // 2)
    assert set(sym.alphas.values()) == set(permutations(range(m)))
    assert len(action.geometric_edges()) == \
        factorial(m) * _valence(action) // 2
    for e in action.edges:
        p, q = sym.alphas[e.src], sym.alphas[e.dst]
        assert sorted(p) == sorted(q)
        assert sum(a != b for a, b in zip(p, q)) == 2
    assert all(sum(e.weight) == 0
               and sorted(e.weight) == [-1] + [0] * (m - 2) + [1]
               for e in action.edges)
    assert set(sym.m.values()) == set(range(1, m))


def test_gen_flag_a_weights():
    # every orbit point names itself, and alpha_mu = mu
    action, sym = gen_weyl_orbit(positive_roots("A", 2), (5, 7, 9))
    assert action.vertices[0] == "5,7,9"
    assert sym.alphas["9,5,7"] == (9, 5, 7)
    _, sym = gen_weyl_orbit(positive_roots("B", 2), (1, 0))
    assert sorted(sym.alphas) == ["-1,0", "0,-1", "0,1", "1,0"]
    assert all(sym.alphas[v] == tuple(map(int, v.split(",")))
               for v in sym.alphas)


@pytest.mark.parametrize("k, m", [(1, 3), (2, 4), (2, 5), (3, 6)])
def test_gen_grassmannian_valid(k, m):
    # the type-A orbit of (1, ..., 1, 0, ..., 0) is the Johnson graph
    # J(m, k): d = k(m-k), above the rank m-1 of the weights once
    # 2 <= k <= m-2
    lam = (1,) * k + (0,) * (m - k)
    action, sym = gen_weyl_orbit(positive_roots("A", m - 1), lam)
    assert (action.n, _valence(action)) == (m, k * (m - k))
    assert len(action.vertices) == comb(m, k)
    assert sym.alphas[",".join(map(str, lam))] == lam
    assert all(sorted(e.weight) == [-1] + [0] * (m - 2) + [1]
               for e in action.edges)
    for e in action.edges:
        assert e.weight == tuple(
            a - b for a, b in zip(sym.alphas[e.dst], sym.alphas[e.src]))


@pytest.mark.parametrize("kind, rank, count", [
    ("A", 1, 1), ("A", 3, 6), ("B", 2, 4), ("B", 3, 9), ("C", 2, 4),
    ("C", 3, 9), ("D", 3, 6), ("D", 4, 12), ("G", 2, 6),
])
def test_positive_roots_form_a_positive_system(kind, rank, count):
    # the roots and their negatives are closed under every reflection, all
    # Cartan integers are integers, and one vector pairs positively with
    # every positive root
    roots = positive_roots(kind, rank)
    assert len(set(roots)) == len(roots) == count
    system = set(roots) | {tuple(-x for x in b) for b in roots}
    assert len(system) == 2 * count

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    for a in roots:
        for b in roots:
            c, r = divmod(2 * dot(a, b), dot(b, b))
            assert r == 0
            assert tuple(x - c * y for x, y in zip(a, b)) in system
    xi = (0, -1, 2) if kind == "G" else tuple(range(len(roots[0]), 0, -1))
    assert all(dot(b, xi) > 0 for b in roots)


@pytest.mark.parametrize("kind, rank, lam, vertices, d", [
    ("A", 3, (1, 1, 0, 0), 6, 4),        # Gr(2, 4)
    ("A", 3, (2, 1, 1, 0), 12, 5),
    ("B", 2, (1, 0), 4, 3),              # the 3-quadric
    ("C", 2, (1, 0), 4, 3),              # projective 3-space
    ("B", 3, (1, 1, 0), 12, 7),
    ("D", 4, (1, 1, 0, 0), 24, 9),
    ("D", 4, (1, 0, 0, 0), 8, 6),        # the 6-quadric
    ("G", 2, (1, 0, -1), 6, 5),          # the 5-quadric
])
def test_weyl_orbit_of_a_singular_weight_is_a_partial_flag(kind, rank, lam,
                                                           vertices, d):
    # G/P has |W| / |W_lam| fixed points and complex dimension the number
    # of positive roots not orthogonal to lam
    roots = positive_roots(kind, rank)
    assert d == sum(1 for b in roots
                    if sum(x * y for x, y in zip(lam, b)) != 0)
    action, _ = gen_weyl_orbit(roots, lam)
    assert (len(action.vertices), _valence(action)) == (vertices, d)


@pytest.mark.parametrize("kind, rank, lam", [
    ("B", 2, (1, 0, 0)),                 # wrong length
    ("G", 2, (1, 0, 0)),                 # <lam, (-2, 1, 1)^v> = -2/3
    ("G", 2, (1, -1, 1)),                # <lam, (1, -2, 1)^v> = 4/3
])
def test_weyl_orbit_refuses_a_weight_that_is_not_integral(kind, rank, lam):
    with pytest.raises(ValueError):
        gen_weyl_orbit(positive_roots(kind, rank), lam)


@pytest.mark.parametrize("kind, rank", [
    ("E", 6), ("G", 3), ("A", 0), ("B", 1), ("D", 1), ("a", 2), ("", 2),
])
def test_positive_roots_refuses_an_unknown_root_system(kind, rank):
    with pytest.raises(ValueError):
        positive_roots(kind, rank)


def test_fl3_data_file_is_the_flag_graph():
    action, classes = load_graph_file(
        os.path.join(os.path.dirname(__file__), "data", "fl3.json"))
    ref, sym = gen_weyl_orbit(positive_roots("A", 2), (0, 1, 2))
    assert action == ref
    assert classes["omega"] == sym.base.values


def test_all_fixtures_valid(all_fixtures):
    # each action, and a restriction of each, is rebuilt from its own
    # (src, dst, alpha) pairs as an equal action of the same valence
    rng = random.Random(5)
    actions = [action for action, _ in all_fixtures.values()]
    actions += [random_restriction(*all_fixtures[name], rng)[1]
                for name in sorted(all_fixtures)]
    for action in actions:
        pairs = [(e.src, e.dst, e.weight) for e in action.geometric_edges()]
        assert action_violations(action.n, action.vertices, pairs) == []
        rebuilt = validate_action(action.n, action.vertices, pairs)
        assert rebuilt == action
        assert all(len(rebuilt.out_index[v]) == len(action.out_index[v])
                   == _valence(action) for v in action.vertices)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_accepted_symplectic_classes_are_compatible(all_fixtures, data):
    """symplectic_class checks no congruence: a positive multiple m on an
    edge of weight w makes x^(alpha + m*w) - x^alpha a multiple of
    1 - x^w.  So every class it accepts passes class_violations."""
    name = data.draw(st.sampled_from(sorted(all_fixtures)))
    action, sym = all_fixtures[name]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        _, action, sym = random_restriction(action, sym, rng)
    sym = random_symplectic(action, sym, rng)
    assert class_violations(action, sym.base.values) == []


@pytest.mark.parametrize("change, line", [
    (lambda a: a.pop("P2"), "E_COMPAT at P2: missing value"),
    (lambda a: a.update(Q=(0, 0)), "E_COMPAT at Q: unknown vertex"),
    (lambda a: a.update(P2=(1,)), "E_SCHEMA at P2: weight length 1 != 2"),
    (lambda a: a.update(P2=(0, 1, 0)),
     "E_SCHEMA at P2: weight length 3 != 2"),
])
def test_symplectic_class_checks_its_vertices_before_any_multiple(change,
                                                                  line):
    # these raised KeyError, IndexError, or an E_NOT_MULTIPLE on a
    # difference that vsub had truncated to length 2
    action, sym = gen_projective(2)
    alphas = dict(sym.alphas)
    change(alphas)
    with pytest.raises(ValidationError) as exc:
        symplectic_class(action, alphas)
    assert exc.value.stage == "class"
    assert [str(v) for v in exc.value.violations] == [line]


def test_class_ring_closure(rng):
    for name, (action, sym) in standard_fixtures().items():
        f = random_class(action, sym, rng)
        g = random_class(action, sym, rng)
        for h in (f + g, f * g, constant_class(action, 3) * f):
            assert class_violations(action, h.values) == []


def test_json_round_trip():
    action, sym = gen_cp1_in_plane()
    doc = graph_to_data(action, {"omega": sym.base.values})
    doc2 = json.loads(json.dumps(doc))
    action2, classes = load_graph_data(doc2)
    assert action2.vertices == action.vertices
    assert classes["omega"]["p"] == sym.base["p"]
    f = validate_class(action2, classes["omega"])
    assert f["q"] == LaurentPoly.monomial((1, 0))


def test_restrict_maps_weights_and_vertex_weights():
    action, sym = gen_projective(3)
    P = [(1, 1, -2), (0, 2, 1)]
    raction, rsym = restrict(action, sym, P)
    assert (raction.n, _valence(raction)) == (2, 3)
    assert raction.vertices == action.vertices
    for e in action.edges:
        w = e.weight
        assert raction.edges[e.eid].weight == (w[0] + w[1] - 2 * w[2],
                                               2 * w[1] + w[2])
    assert rsym.alphas == {"P0": (0, 0), "P1": (1, 0), "P2": (1, 2),
                           "P3": (-2, 1)}


def test_restrict_rejects_a_map_that_breaks_independence():
    action, sym = gen_projective(2)
    # (1, 0) and (0, 1) at P0 both map to 1
    with pytest.raises(ValidationError):
        restrict(action, sym, [(1, 1)])


@pytest.mark.parametrize("P", [[], [(1, 0)], [(1, 0, 0), (0, 1)]])
def test_restrict_rejects_a_matrix_of_the_wrong_shape(P):
    action, sym = gen_projective(3)
    with pytest.raises(ValueError):
        restrict(action, sym, P)


@pytest.mark.parametrize("op", [operator.add, operator.mul])
def test_classes_on_two_actions_do_not_combine(op):
    # the restriction has the vertices and the rank of projective 2-space
    # but other edge weights, so the sum or product of the two base classes
    # is compatible on neither action; a check by assert would let it
    # through under python -O
    action, sym = gen_projective(2)
    _, rsym = restrict(action, sym, [(2, 1), (1, 3)])
    with pytest.raises(ValueError):
        op(sym.base, rsym.base)
