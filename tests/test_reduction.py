import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmchar import reduction
from gkmchar.lattice import NotPrimitive, dot
from gkmchar.laurent import LaurentPoly, RationalChar, \
    congruent_mod_edge, eval_numeric
from gkmchar.graphs import Edge, GkmAction, KClass, action_violations, \
    constant_class, gen_cp1_in_plane, \
    gen_projective, load_graph_file, symplectic_class
from gkmchar.characters import localization_terms
from gkmchar.residues import res_T
from gkmchar.reduction import (CycleError, NotRegular, WrongWallCount,
                               ZeroNotRegular, chi_reduced,
                               edge_compat_check, moment_map, qr_check,
                               symplectic_moment_map, vertex_residues,
                               wall_crossing_check)
from gkmchar.randomgen import (flag_fixtures, random_class,
                               random_generic_xi, random_restriction,
                               random_ring_element, random_symplectic,
                               random_zero_regular_xi, standard_fixtures)

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="module")
def cp1():
    return gen_cp1_in_plane()


def test_moment_map_cp1_ranks(cp1):
    action, _ = cp1
    mm = moment_map(action, (1, 0))
    assert mm.phi["q"] > mm.phi["p"]


def test_moment_map_accepts_explicit_symplectic_values(cp1):
    action, _ = cp1
    mm = moment_map(action, (1, 0), phi={"p": -1, "q": 1})
    assert mm.phi == {"p": Fraction(-1), "q": Fraction(1)}


def test_moment_map_rejects_nonmonotone_values(cp1):
    action, _ = cp1
    with pytest.raises(ValueError):
        moment_map(action, (1, 0), phi={"p": 1, "q": -1})


def test_moment_map_rejects_explicit_values_missing_a_vertex():
    action, _ = gen_projective(2)
    with pytest.raises(ValueError) as exc:
        moment_map(action, (2, 1), phi={"P0": 0, "P1": 1})
    assert str(exc.value) == "phi has no value at vertex P2"


def test_moment_map_rejects_explicit_values_at_unknown_vertices():
    action, _ = gen_projective(2)
    with pytest.raises(ValueError) as exc:
        moment_map(action, (2, 1),
                   phi={"P0": 0, "P1": 2, "P2": 1, "Z": 3})
    assert str(exc.value) == "phi has a value at unknown vertex Z"


def test_moment_map_rejects_equal_explicit_values():
    # P1 and P2 share a value, and no edge decreases, since the edge
    # P1 -> P2 pairs positively with (1, 2)
    action, _ = gen_projective(2)
    with pytest.raises(ValueError) as exc:
        moment_map(action, (1, 2), phi={"P0": 0, "P1": 1, "P2": 1})
    assert str(exc.value) == "critical values are not distinct"


def test_moment_map_cycle():
    # a graph that validates, but whose edges 0->1->2->3->0 all pair
    # positively with (4, 3): the orientation has a directed cycle, so no
    # moment map exists
    action, _ = load_graph_file(os.path.join(DATA, "cycle.json"))
    with pytest.raises(CycleError) as exc:
        moment_map(action, (4, 3))
    assert exc.value.cycle == ["0", "1", "2", "3", "0"]


def test_moment_map_cycle_with_explicit_values():
    # explicit values are checked edge by edge, with no search for a
    # cycle: on the cycle 0->1->2->3->0 they fail to increase along some
    # edge, whatever they are
    action, _ = load_graph_file(os.path.join(DATA, "cycle.json"))
    with pytest.raises(ValueError) as exc:
        moment_map(action, (4, 3), phi={"0": 0, "1": 1, "2": 2, "3": 3})
    assert not isinstance(exc.value, CycleError)
    assert str(exc.value) == "phi does not increase along edge 3->0"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_built_moment_maps_increase_along_every_edge(data):
    """What moment_map and symplectic_moment_map no longer check on the
    values they build: they are distinct and increase along every
    xi-positive edge, on the standard and flag fixtures and on
    restrictions of the standard ones to a 2-torus."""
    standard, flags = standard_fixtures(), flag_fixtures()
    name = data.draw(st.sampled_from(sorted(standard) + sorted(flags)))
    action, sym = standard.get(name) or flags[name]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if name in standard and data.draw(st.booleans()):
        _, action, sym = random_restriction(action, sym, rng)
    xi = random_generic_xi(action, rng, bound=20)
    sym = random_symplectic(action, sym, rng)
    for mm in (moment_map(action, xi), symplectic_moment_map(sym, xi)):
        values = list(mm.phi.values())
        assert sorted(mm.phi) == sorted(action.vertices), name
        assert len(set(values)) == len(values), name
        for e in action.edges:
            if dot(e.weight, xi) > 0:
                assert mm.phi[e.src] < mm.phi[e.dst], (name, e)


def test_chi_reduced_cp1(cp1):
    action, sym = cp1
    mm = moment_map(action, (1, 0), phi={"p": -1, "q": 1})
    assert chi_reduced(sym.base, mm, 0).value == LaurentPoly.one(2)


def test_chi_reduced_outside_range_is_zero(cp1):
    action, sym = cp1
    mm = moment_map(action, (1, 0), phi={"p": -1, "q": 1})
    assert chi_reduced(sym.base, mm, 5).value.is_zero()
    assert chi_reduced(sym.base, mm, -5).value.is_zero()


def test_chi_reduced_in_annihilator(rng):
    for name, (action, sym) in standard_fixtures().items():
        f = random_class(action, sym, rng)
        xi = random_generic_xi(action, rng)
        mm = moment_map(action, xi)
        crits = mm.critical_values()
        c = (crits[0] + crits[1]) / 2
        red = chi_reduced(f, mm, c).value
        for e in red.terms:
            assert dot(e, xi) == 0


def test_wall_crossing_cp1(cp1):
    action, sym = cp1
    mm = moment_map(action, (1, 0), phi={"p": -1, "q": 1})
    res = wall_crossing_check(sym.base, mm, 0, 2)
    assert res.ok
    assert res.vertex == "q"
    assert res.delta == res.residue == \
        res_T(localization_terms(sym.base)["q"], (1, 0)).total


def test_wall_crossing_same_chamber_rejected(cp1):
    action, sym = cp1
    mm = moment_map(action, (1, 0), phi={"p": -1, "q": 1})
    with pytest.raises(WrongWallCount):
        wall_crossing_check(sym.base, mm, Fraction(1, 4), Fraction(1, 2))


def test_wall_crossing_projective2(rng):
    action, sym = gen_projective(2)
    mm = symplectic_moment_map(sym, (2, 1))
    crits = mm.critical_values()
    for i in range(len(crits)):
        lo = crits[i] - Fraction(1, 4)
        hi = crits[i] + Fraction(1, 4)
        assert wall_crossing_check(sym.base, mm, lo, hi).ok


def _chamber_levels(mm):
    """One regular level in every chamber, outer chambers included."""
    crits = mm.critical_values()
    return [crits[0] - 1] + [(a + b) / 2 for a, b in
                             zip(crits, crits[1:])] + [crits[-1] + 1]


def test_telescoping(rng):
    """Every chamber's reduced character is the sum of the residues above
    it, and every wall crossing drops it by the crossed vertex's residue,
    with each residue taken on its own through the public res_T."""
    for name, (action, sym) in standard_fixtures().items():
        f = random_class(action, sym, rng)
        xi = random_generic_xi(action, rng)
        mm = moment_map(action, xi)
        levels = _chamber_levels(mm)
        terms = localization_terms(f)
        residue = {v: res_T(terms[v], xi).total for v in action.vertices}

        def expected(c):
            total = LaurentPoly.zero(action.n)
            for v in action.vertices:
                if mm.phi[v] > c:
                    total = total + residue[v]
            return total

        for c in levels:
            assert chi_reduced(f, mm, c).value == expected(c), name
        for lo, hi in zip(levels, levels[1:]):
            res = wall_crossing_check(f, mm, lo, hi)
            (p,) = [v for v in action.vertices if lo < mm.phi[v] < hi]
            delta = expected(lo) - expected(hi)
            assert res.vertex == p, name
            assert res.delta == delta, name
            assert res.residue == residue[p], name
            assert res.ok == (delta == residue[p]), name


def test_each_level_pays_for_its_smaller_side(fixtures, rng, monkeypatch):
    """On a fresh moment map, a chamber takes the residues of the vertices
    on the side of its level with fewer of them, a wall crossing those of
    the smaller of the sets above the lower level and below the upper one,
    each set in one basis; an outer chamber takes no residue and builds no
    basis.  A full sweep on one moment map, all chambers then all walls or
    the reverse, takes each vertex's residue at most once and sums each
    chamber once."""
    calls = {"res_T": 0, "complete_to_basis": 0, "poly_sum": 0}

    def counted(name):
        fn = getattr(reduction, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(reduction, name, counted(name))

    taken = []
    residues_of = reduction.vertex_residues

    def recorded(f, xi, vertices):
        taken.extend(vertices)
        return residues_of(f, xi, vertices)

    monkeypatch.setattr(reduction, "vertex_residues", recorded)

    def cost():
        got = dict(calls)
        calls.update(dict.fromkeys(calls, 0))
        return got

    for name, (action, sym) in fixtures.items():
        f = random_class(action, sym, rng)
        xi = random_generic_xi(action, rng)

        def fresh():
            return moment_map(action, xi)

        phi = fresh().phi

        def count(keep):
            return sum(1 for x in phi.values() if keep(x))

        levels = _chamber_levels(fresh())
        for c in levels:
            chi_reduced(f, fresh(), c)
            k = min(count(lambda x: x > c), count(lambda x: x < c))
            assert cost() == {"res_T": k, "complete_to_basis": int(k > 0),
                              "poly_sum": 1}, (name, c)
        for outer in (levels[0], levels[-1]):
            chi_reduced(f, fresh(), outer)
            assert cost() == {"res_T": 0, "complete_to_basis": 0,
                              "poly_sum": 1}, name
        for lo, hi in zip(levels, levels[1:]):
            wall_crossing_check(f, fresh(), lo, hi)
            k = min(count(lambda x: x > lo), count(lambda x: x < hi))
            assert cost() == {"res_T": k, "complete_to_basis": 1,
                              "poly_sum": 2}, (name, lo, hi)

        sweep = [(chi_reduced, (c,)) for c in levels] + \
            [(wall_crossing_check, pair) for pair in zip(levels, levels[1:])]
        for calls_in_order in (sweep, sweep[::-1]):
            mm = fresh()
            taken.clear()
            for call, args in calls_in_order:
                call(f, mm, *args)
            assert len(taken) == len(set(taken)), name
            got = cost()
            assert got["res_T"] == len(taken), name
            assert got["poly_sum"] == len(levels), name


def test_vertex_residues_match_res_T_on_any_subset(fixtures, rng,
                                                   monkeypatch):
    """Each given vertex's entry is its localized summand's residue taken
    on its own through res_T, whatever the subset; no vertices, no basis."""
    for name, (action, sym) in {**fixtures, **flag_fixtures()}.items():
        f = random_class(action, sym, rng)
        xi = random_generic_xi(action, rng)
        terms = localization_terms(f)
        for _ in range(3):
            subset = rng.sample(action.vertices,
                                rng.randint(1, len(action.vertices)))
            assert vertex_residues(f, xi, subset) == \
                {v: res_T(terms[v], xi).total for v in subset}, name

    def refuse(xi):
        raise AssertionError(f"basis built for {xi} with no vertices")

    monkeypatch.setattr(reduction, "complete_to_basis", refuse)
    action, sym = fixtures["proj2"]
    assert vertex_residues(sym.base, (2, 1), []) == {}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_vertex_residues_sum_to_zero_on_either_side(fixtures, data):
    """The identity that lets a level take either side: the residues of
    all vertices of a compatible class sum to zero, so every chamber and
    wall reads the same from below as from above.  Checked against each
    vertex's residue taken on its own through the public res_T."""
    name = data.draw(st.sampled_from(sorted(fixtures)))
    action, sym = fixtures[name]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    f = random_class(action, sym, rng)
    if data.draw(st.booleans()):
        # mixed: plus a ring multiple of another symplectic class
        f = f + random_symplectic(action, sym, rng).base * \
            random_ring_element(action.n, rng)
    xi = random_generic_xi(action, rng)
    if data.draw(st.booleans()):
        mm = moment_map(action, xi)
    else:
        # explicit values: a symplectic moment map, each value moved by
        # less than 1/2 so that it still increases along every edge
        alphas = random_symplectic(action, sym, rng).alphas
        shifts = rng.sample(range(1, 1000), len(action.vertices))
        mm = moment_map(action, xi, phi={
            v: dot(alphas[v], xi) + Fraction(s, 2000)
            for v, s in zip(action.vertices, shifts)})
    terms = localization_terms(f)
    residue = {v: res_T(terms[v], xi).total for v in action.vertices}
    zero = LaurentPoly.zero(action.n)
    assert sum(residue.values(), zero) == zero

    def above(c):
        return sum((r for v, r in residue.items() if mm.phi[v] > c), zero)

    levels = _chamber_levels(mm)
    for c in levels:
        assert chi_reduced(f, mm, c).value == above(c), (name, c)
    for lo, hi in zip(levels, levels[1:]):
        res = wall_crossing_check(f, mm, lo, hi)
        assert res.delta == above(lo) - above(hi), (name, lo, hi)
        assert res.residue == residue[res.vertex], (name, lo, hi)


@pytest.fixture(scope="module")
def all_fixtures(fixtures):
    return {**fixtures, **flag_fixtures()}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_shared_moment_map_answers_as_a_fresh_one(all_fixtures, data):
    """Chambers and walls of two classes, a random one and a mixed one,
    called on one moment map in an interleaved order, read what the same
    calls read on freshly built moment maps: the residues a map keeps for
    one class never answer for another."""
    name = data.draw(st.sampled_from(sorted(all_fixtures)))
    action, sym = all_fixtures[name]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    classes = {"random": random_class(action, sym, rng),
               "mixed": random_class(action, sym, rng) +
               random_symplectic(action, sym, rng).base *
               random_ring_element(action.n, rng)}
    xi = random_generic_xi(action, rng)
    mm = moment_map(action, xi)
    levels = _chamber_levels(mm)

    def call(kclass, mm, wall, i):
        if wall:
            res = wall_crossing_check(kclass, mm, levels[i], levels[i + 1])
            return res.vertex, res.delta, res.residue, res.ok
        return chi_reduced(kclass, mm, levels[i]).value

    kinds = [(False, i) for i in range(len(levels))] + \
        [(True, i) for i in range(len(levels) - 1)]
    calls = data.draw(st.lists(
        st.tuples(st.sampled_from(sorted(classes)), st.sampled_from(kinds)),
        min_size=2, max_size=5))
    for which, (wall, i) in calls:
        kclass = classes[which]
        assert call(kclass, mm, wall, i) == \
            call(kclass, moment_map(action, xi), wall, i), \
            (name, which, wall, i)


def test_wall_crossing_rejects_critical_levels():
    _, sym = gen_projective(2)
    mm = symplectic_moment_map(sym, (2, 1))
    low, mid, high = mm.critical_values()
    at = {x: v for v, x in mm.phi.items()}

    def rejects(c, cp, value):
        with pytest.raises(NotRegular) as exc:
            wall_crossing_check(sym.base, mm, c, cp)
        assert str(exc.value) == \
            f"level {value} hits the critical value at {at[value]}"

    rejects(low, (mid + high) / 2, low)     # c is critical
    rejects(low - 1, mid, mid)              # cp is critical
    rejects(low, high, low)                 # both: c is reported first
    rejects(high, low, low)                 # in either order
    # no critical value strictly between two adjacent critical levels, or
    # two of them in a wide interval: the wall count is reported first
    with pytest.raises(WrongWallCount):
        wall_crossing_check(sym.base, mm, low, mid)
    with pytest.raises(WrongWallCount):
        wall_crossing_check(sym.base, mm, low, high + 1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_levels_of_any_type_read_as_fractions(fixtures, data):
    """Explicit values of phi of mixed types (ints, fractions of several
    denominators, floats) and levels at, next to, between and outside the
    critical values, each given as an int, a float, a str or a Fraction:
    NotRegular, WrongWallCount, every reduced character and every wall
    crossing on one moment map, called in any order, read what Fraction
    comparisons and per-vertex residues say."""
    name = data.draw(st.sampled_from(sorted(fixtures)))
    action, sym = fixtures[name]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    f = random_class(action, sym, rng)
    xi = random_generic_xi(action, rng)
    nv = len(action.vertices)
    values = sorted(data.draw(st.lists(
        st.one_of(st.integers(-20, 20),
                  st.fractions(-20, 20, max_denominator=60),
                  st.floats(-20, 20)),
        min_size=nv, max_size=nv, unique_by=Fraction)), key=Fraction)
    # in the order of the default values, so phi increases along each edge
    ranked = moment_map(action, xi).phi
    order = sorted(action.vertices, key=ranked.__getitem__)
    mm = moment_map(action, xi, phi=dict(zip(order, values)))
    phi = {v: Fraction(x) for v, x in zip(order, values)}
    crits = [phi[v] for v in order]
    assert mm.phi == phi
    assert mm.critical_values() == crits
    residue = vertex_residues(f, xi, action.vertices)
    zero = LaurentPoly.zero(action.n)

    def above(c):
        return sum((r for v, r in residue.items() if phi[v] > c), zero)

    def require_regular(c):
        for v in order:
            if phi[v] == c:
                raise NotRegular(f"level {c} hits the critical value at {v}")

    def chamber(c):
        c = Fraction(c)
        require_regular(c)
        return above(c)

    def wall(c, cp):
        c, cp = sorted((Fraction(c), Fraction(cp)))
        between = [v for v in order if c < phi[v] < cp]
        if len(between) != 1:
            raise WrongWallCount(
                f"{len(between)} critical values in ({c}, {cp}), expected 1")
        require_regular(c)
        require_regular(cp)
        (p,) = between
        delta = above(c) - above(cp)
        return p, delta, residue[p], delta == residue[p]

    def outcome(fn, *args):
        try:
            return fn(*args)
        except (NotRegular, WrongWallCount) as exc:
            return type(exc), str(exc)

    def reduced(c):
        return chi_reduced(f, mm, c).value

    def crossing(c, cp):
        res = wall_crossing_check(f, mm, c, cp)
        return res.vertex, res.delta, res.residue, res.ok

    tiny = Fraction(1, 10**12)
    chambers = [crits[0] - 1] + [(a + b) / 2 for a, b in
                                 zip(crits, crits[1:])] + [crits[-1] + 1]
    points = chambers + crits + [x + s for x in crits for s in (-tiny, tiny)]
    level = st.builds(lambda kind, x: kind(x),
                      st.sampled_from((int, float, str, Fraction)),
                      st.sampled_from(points))
    one_wall = st.integers(0, nv - 1).flatmap(lambda i: st.permutations(
        [chambers[i], chambers[i + 1]])).flatmap(lambda pair: st.tuples(
            *(st.builds(lambda kind, x=x: kind(x),
                        st.sampled_from((float, str, Fraction)))
              for x in pair)))
    calls = data.draw(st.lists(
        st.one_of(st.tuples(level), st.tuples(level, level), one_wall),
        min_size=1, max_size=12))
    for args in calls:
        if len(args) == 1:
            assert outcome(reduced, *args) == outcome(chamber, *args), \
                (name, args)
        else:
            assert outcome(crossing, *args) == outcome(wall, *args), \
                (name, args)


def _float_edge_agreement(f, eid, rng) -> bool:
    """A float reference for edge_compat_check: whether the two localized
    hat-classes of the edge have the same value at sample points of its
    subtorus {x^gamma = 1}.

    A point is a random one, moved along gamma until gamma . theta = t, an
    integer; for gamma = k*u, t mod k picks the component x^u = zeta of
    the subtorus, so t = 0, ..., k - 1 takes 3 points on every
    component.  A point with a denominator phase within 1/50 of an
    integer is redrawn, and values are compared relative to the larger,
    so that a large value near a pole does not decide the verdict.
    """
    action = f.action
    e = action.edges[eid]
    gamma, k = e.weight, action.direction[eid][2]
    hats = [RationalChar(f[v], tuple(x.weight for x in action.out_index[v]
                                     if x.eid != skip))
            for v, skip in ((e.src, eid), (e.dst, eid ^ 1))]
    gg = dot(gamma, gamma)
    for t in range(k):
        done = 0
        while done < 3:
            raw = [Fraction(rng.randrange(10_000), 10_000)
                   for _ in range(action.n)]
            excess = dot(gamma, raw) - t
            point = tuple((x - excess * Fraction(g, gg)) % 1
                          for g, x in zip(gamma, raw))
            phases = [dot(w, point) % 1 for h in hats for w in h.denominator]
            if any(min(q, 1 - q) < Fraction(1, 50) for q in phases):
                continue
            a, b = (eval_numeric(h, point) for h in hats)
            if abs(a - b) > 1e-9 * max(1.0, abs(a), abs(b)):
                return False
            done += 1
    return True


def _one_minus(n, u, k):
    return LaurentPoly(n, {(0,) * n: 1, tuple(k * x for x in u): -1})


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_edge_compat_check_agrees_with_a_float_reference(data):
    """On the standard and flag fixtures and their restrictions to a
    2-torus, for a random class, and for one corrupted at a vertex by
    1 - x^(k u) with u the direction of some edge and k = 1 or 2, the
    exact check and the float reference agree on every edge at that
    vertex, in both orientations."""
    standard, flags = standard_fixtures(), flag_fixtures()
    name = data.draw(st.sampled_from(sorted(standard) + sorted(flags)))
    action, sym = standard.get(name) or flags[name]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        _, action, sym = random_restriction(action, sym, rng)
    values = dict(random_class(action, sym, rng).values)
    v = data.draw(st.sampled_from(action.vertices))
    if data.draw(st.booleans()):
        u = action.direction[data.draw(st.sampled_from(
            range(len(action.edges))))][0]
        k = data.draw(st.sampled_from((1, 2)))
        values[v] += _one_minus(action.n, u, k)
    f = KClass(action, values)
    for e in action.out_index[v]:
        for eid in (e.eid, e.eid ^ 1):
            assert edge_compat_check(f, eid) == \
                _float_edge_agreement(f, eid, rng), (name, e)


def test_edge_compat_cp1(cp1):
    action, sym = cp1
    e = action.geometric_edges()[0]
    assert edge_compat_check(sym.base, e.eid)


def test_edge_compat_constant_class():
    action, _ = gen_projective(2)
    f = constant_class(action, 1)
    for e in action.geometric_edges():
        assert edge_compat_check(f, e.eid)


def test_edge_compat_detects_corruption():
    action, sym = gen_projective(2)
    values = dict(sym.base.values)
    values["P1"] = values["P1"] + LaurentPoly.monomial((0, 1))
    bad = KClass(action, values)
    assert any(not edge_compat_check(bad, e.eid)
               for e in action.geometric_edges()
               if "P1" in (e.src, e.dst))


def test_edge_compat_sees_every_component_of_a_multiple_weight():
    # the c2 flag's edge of weight (2, 0) = 2u: 1 - x^u at one end keeps the
    # ends congruent modulo 1 - x^u, but it is 2 on the component x^u = -1
    # of the edge's subtorus, so a check by the direction u would pass it
    action, sym = flag_fixtures()["c2"]
    e = next(e for e in action.geometric_edges() if e.weight == (2, 0))
    values = dict(sym.base.values)
    values[e.src] += _one_minus(2, (1, 0), 1)
    bad = KClass(action, values)
    assert congruent_mod_edge(bad[e.src], bad[e.dst], (1, 0))
    assert edge_compat_check(sym.base, e.eid)
    assert not edge_compat_check(bad, e.eid)
    assert not edge_compat_check(bad, e.eid ^ 1)


def test_edge_compat_needs_the_denominators_to_agree():
    # an action built past validation: at edge a->b the other weights are
    # (0, 1) at a and (1, 2) at b, not congruent modulo (1, 0), so the
    # hat-classes of the constant class 1 differ on x_1 = 1
    pairs = [("a", "b", (1, 0)), ("a", "c", (0, 1)), ("b", "c", (1, 2))]
    assert {v.code for v in action_violations(2, "abc", pairs)} == \
        {"E_COMPAT"}
    action = GkmAction(2, tuple("abc"), tuple(
        e for i, (src, dst, w) in enumerate(pairs)
        for e in (Edge(2 * i, src, dst, w),
                  Edge(2 * i + 1, dst, src, tuple(-x for x in w)))))
    f = constant_class(action, 1)
    assert not _float_edge_agreement(f, 0, random.Random(0))
    assert not edge_compat_check(f, 0)


def test_qr_check_cp1(cp1):
    _, sym = cp1
    res = qr_check(sym, (1, 0))
    assert res.ok
    assert res.reduced == LaurentPoly.one(2)
    assert res.invariant_part == LaurentPoly.one(2)


def test_qr_check_zero_not_regular():
    _, sym = gen_projective(2)
    with pytest.raises(ZeroNotRegular):
        qr_check(sym, (1, 2))


def test_qr_check_refuses_a_non_primitive_direction():
    # refused as such before zero is found critical: alpha_P0 = 0 pairs to
    # zero with every direction
    _, sym = gen_projective(2)
    with pytest.raises(NotPrimitive):
        qr_check(sym, (2, 4))


def test_qr_check_shifted_projective2():
    action, sym = gen_projective(2)
    # the shift keeps every alpha_p(xi) nonzero, so zero stays regular
    shifted = symplectic_class(
        action, {v: (a[0] + 3, a[1] + 1) for v, a in sym.alphas.items()})
    assert qr_check(shifted, (1, -1)).ok


def test_qr_check_random_symplectic(rng):
    for name, (action, sym) in standard_fixtures().items():
        s2 = random_symplectic(action, sym, rng)
        try:
            xi = random_zero_regular_xi(s2, rng, attempts=200)
        except ValueError:
            continue
        assert qr_check(s2, xi).ok, name
