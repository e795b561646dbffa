"""End-to-end acceptance gate.

Each test prints a single PASS line when its assertions hold; together they
cover the exact worked examples and the randomized property batteries at
their stated tolerances and time limits.
"""

import random
import time
from fractions import Fraction

import pytest

from gkmchar.lattice import dot
from gkmchar.laurent import LaurentPoly, RationalChar, eval_numeric
from gkmchar.graphs import class_violations, gen_cp1_in_plane, \
    gen_projective, symplectic_class
from gkmchar.characters import (character_expand, character_oracle,
                                hull_report, multiplicity, polarize)
from gkmchar.residues import fiber_average_numeric, res_T
from gkmchar.reduction import (chi_reduced, moment_map, qr_check,
                               wall_crossing_check)
from gkmchar.randomgen import (random_class, random_generic_xi,
                               random_pole_free_point, random_symplectic,
                               random_vertex_star, random_zero_regular_xi,
                               standard_fixtures)

SEED = 987654321


@pytest.fixture(scope="module")
def fixtures():
    return standard_fixtures()


@pytest.fixture(scope="module")
def battery100(fixtures):
    """100 random classes over the graph fixtures (n <= 3, |V| <= 6), with
    both character routes precomputed and the computation timed."""
    rng = random.Random(SEED)
    names = list(fixtures)
    cases = []
    start = time.monotonic()
    for i in range(100):
        name = names[i % len(names)]
        action, sym = fixtures[name]
        f = random_class(action, sym, rng)
        xi = random_generic_xi(action, rng)
        expand = character_expand(f, polarize(action, xi)).poly
        oracle = character_oracle(f)
        cases.append((name, action, sym, f, xi, expand, oracle))
    elapsed = time.monotonic() - start
    return cases, elapsed


def _report(line):
    print(f"\n{line}")


def test_criterion_01_cp1_character(fixtures):
    start = time.monotonic()
    action, sym = gen_cp1_in_plane()
    expected = LaurentPoly(2, {(-1, 0): 1, (0, 0): 1, (1, 0): 1})
    assert character_expand(sym.base, polarize(action, (1, 0))).poly == expected
    assert character_oracle(sym.base) == expected
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(f"PASS criterion 1: two-vertex fixture character "
            f"x^(-1,0)+1+x^(1,0) by both routes in {elapsed:.3f}s")


def test_criterion_02_projective_plane_character():
    start = time.monotonic()
    action, sym = gen_projective(2)
    expected = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    char = character_expand(sym.base, polarize(action, (1, 2)))
    assert char.poly == expected
    assert character_oracle(sym.base) == expected
    report = hull_report(sym, char)
    assert report.ok
    assert sorted(report.hull_vertices) == [(0, 0), (0, 1), (1, 0)]
    for v in report.hull_vertices:
        assert char.poly.coeff(v) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(f"PASS criterion 2: projective-plane character and extremal "
            f"multiplicity one in {elapsed:.3f}s")


def test_criterion_03_oracle_agreement_100_classes(battery100):
    cases, elapsed = battery100
    assert len(cases) == 100
    for name, _, _, _, _, expand, oracle in cases:
        assert expand == oracle, name
    assert elapsed < 60.0
    _report(f"PASS criterion 3: 100 random classes, division route equals "
            f"expansion bit-exactly in {elapsed:.1f}s")


def test_criterion_04_numeric_localization(battery100):
    rng = random.Random(SEED + 1)
    cases, _ = battery100
    worst = 0.0
    for name, action, _, f, _, _, oracle in cases:
        terms = [RationalChar(f[v], action.out_weights[v])
                 for v in action.vertices]
        for _ in range(20):
            g = random_pole_free_point(terms, action.n, rng)
            raw = sum(eval_numeric(t, g) for t in terms)
            err = abs(raw - eval_numeric(oracle, g))
            worst = max(worst, err)
            assert err < 1e-6, name
    _report(f"PASS criterion 4: localized rational sum matches the "
            f"character at 20 points per case, max error {worst:.2e}")


def test_criterion_05_direction_independence(battery100):
    rng = random.Random(SEED + 2)
    cases, _ = battery100
    for name, action, _, f, _, expand, _ in cases:
        for _ in range(4):
            xi = random_generic_xi(action, rng)
            assert character_expand(f, polarize(action, xi)).poly == expand, \
                name
    _report("PASS criterion 5: 5 generic directions per case give "
            "identical characters")


def test_criterion_06_hull_and_multiplicities(fixtures):
    rng = random.Random(SEED + 3)
    names = list(fixtures)
    for i in range(50):
        action, sym = fixtures[names[i % len(names)]]
        s2 = random_symplectic(action, sym, rng)
        xi = random_generic_xi(action, rng)
        pol = polarize(action, xi)
        char = character_expand(s2.base, pol)
        report = hull_report(s2, char)
        assert report.ok
        # multiplicity formula against coefficients on a margin-2 box
        alphas = list(s2.alphas.values())
        lo = [min(a[j] for a in alphas) - 2 for j in range(action.n)]
        hi = [max(a[j] for a in alphas) + 2 for j in range(action.n)]
        points = [()]
        for j in range(action.n):
            points = [p + (x,) for p in points
                      for x in range(lo[j], hi[j] + 1)]
        for mu in points:
            assert multiplicity(s2, pol, mu) == char.poly.coeff(mu)
    _report("PASS criterion 6: 50 symplectic classes, support in the weight "
            "hull and partition-count multiplicities on a margin-2 box")


def test_criterion_07_residue_vanishing(fixtures):
    rng = random.Random(SEED + 4)
    for _ in range(200):
        star, xi = random_vertex_star(rng.choice([2, 3]),
                                      rng.randint(1, 3), rng)
        (mu,) = star.numerator.terms
        k = dot(mu, xi)
        degrees = [dot(w, xi) for w in star.denominator]
        neg_sum = sum(-s for s in degrees if s < 0)
        pos_sum = sum(s for s in degrees if s > 0)
        has_neg = any(s < 0 for s in degrees)
        has_pos = any(s > 0 for s in degrees)
        rv = res_T(star, xi)
        if k > -neg_sum or k > 0 or (k == 0 and has_neg):
            assert rv.minus.is_zero()
        if k < pos_sum or k < 0 or (k == 0 and has_pos):
            assert rv.plus.is_zero()
    for name, (action, sym) in fixtures.items():
        f = random_class(action, sym, rng)
        xi = random_generic_xi(action, rng)
        total = LaurentPoly.zero(action.n)
        for v in action.vertices:
            term = RationalChar(f[v], action.out_weights[v])
            total = total + res_T(term, xi).total
        assert total.is_zero(), name
    _report("PASS criterion 7: per-monomial residue vanishing laws on 200 "
            "random summands and total-residue cancellation on all fixtures")


def test_criterion_08_fiber_averaging():
    rng = random.Random(SEED + 5)
    worst = 0.0
    for _ in range(25):
        star, xi = random_vertex_star(2, rng.randint(2, 3), rng)
        rv = res_T(star, xi)
        for _ in range(20):
            g = random_pole_free_point([star], 2, rng)
            lhs = eval_numeric(rv.total, g)
            rhs = 0j
            for j, w in enumerate(star.denominator):
                rest = tuple(u for i, u in enumerate(star.denominator)
                             if i != j)
                hat = RationalChar(star.numerator, rest)
                sign = 1 if dot(w, xi) < 0 else -1
                rhs += sign * fiber_average_numeric(hat, w, xi, g)
            err = abs(lhs - rhs)
            worst = max(worst, err)
            assert err < 1e-6
    _report(f"PASS criterion 8: residue equals signed fiber-average sum on "
            f"25 stars at 20 points each, max error {worst:.2e}")


def test_criterion_09_walls(fixtures):
    rng = random.Random(SEED + 6)
    for name, (action, sym) in fixtures.items():
        f = random_class(action, sym, rng)
        xi = random_generic_xi(action, rng)
        mm = moment_map(action, xi)
        crits = mm.critical_values()
        levels = [crits[0] - 1] + \
            [(a + b) / 2 for a, b in zip(crits, crits[1:])] + [crits[-1] + 1]
        chis = [chi_reduced(f, mm, c).value for c in levels]
        # boundary chambers carry the zero character
        assert chis[0].is_zero() and chis[-1].is_zero(), name
        # chamber independence inside a chamber
        mid = levels[1]
        eps = Fraction(1, 10 ** 6)
        assert chi_reduced(f, mm, mid).value == \
            chi_reduced(f, mm, mid + eps).value, name
        # wall crossing and telescoping across every wall
        for i in range(len(crits)):
            res = wall_crossing_check(f, mm, levels[i], levels[i + 1])
            assert res.ok, name
            assert chis[i] - chis[i + 1] == res.residue, name
    _report("PASS criterion 9: chamber independence, telescoping and the "
            "wall-crossing identity exact on all fixtures")


def test_criterion_10_quantization_reduction(fixtures):
    rng = random.Random(SEED + 7)
    # worked fixtures with shifted classes keeping zero regular
    _, cp1_sym = gen_cp1_in_plane()
    assert qr_check(cp1_sym, (1, 0)).ok
    a2, s2 = gen_projective(2)
    shifted2 = symplectic_class(
        a2, {v: (a[0] + 3, a[1] + 1) for v, a in s2.alphas.items()})
    assert qr_check(shifted2, (1, -1)).ok
    a3, s3 = gen_projective(3)
    shifted3 = symplectic_class(
        a3, {v: (a[0] + 5, a[1] + 2, a[2] + 1)
             for v, a in s3.alphas.items()})
    assert qr_check(shifted3, (1, -1, 2)).ok
    # random battery
    names = list(fixtures)
    done = 0
    i = 0
    while done < 25:
        action, sym = fixtures[names[i % len(names)]]
        i += 1
        s = random_symplectic(action, sym, rng)
        try:
            xi = random_zero_regular_xi(s, rng, attempts=200)
        except ValueError:
            continue
        assert qr_check(s, xi).ok
        done += 1
    _report("PASS criterion 10: invariant part equals reduced character on "
            "the worked fixtures and 25 random symplectic classes")


def test_criterion_11_edge_compatibility(fixtures):
    rng = random.Random(SEED + 8)
    edges = 0
    for name, (action, sym) in fixtures.items():
        f = random_class(action, sym, rng)
        assert class_violations(action, f.values) == [], name
        edges += len(action.geometric_edges())
    _report(f"PASS criterion 11: localized classes agree on the subtorus of "
            f"each of {edges} edges, by an exact congruence")
