"""Deterministic randomized self-test batteries over all modules.

Each battery draws its cases from a seeded generator, so two runs with the
same seed produce byte-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .lattice import complete_to_basis, det, dot, primitive_part, \
    weight_from_basis, weight_in_basis
from .laurent import LaurentPoly, NotDivisible, RationalChar, \
    congruent_mod_edge, divide_exact, eval_numeric, poly_sum
from .characters import character_expand, character_oracle, hull_report, \
    localization_identity_test, multiplicity, polarize
from .graphs import class_violations
from .residues import fiber_average_numeric, res_T
from .reduction import chi_reduced, edge_compat_check, moment_map, \
    qr_check, vertex_residues, wall_crossing_check
from .randomgen import random_class, random_generic_xi, \
    random_pole_free_point, random_ring_element, random_symplectic, \
    random_vertex_star, random_zero_regular_xi, standard_fixtures


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status}  {self.name}" + (f"  ({self.detail})"
                                           if self.detail else "")


class _Fail(Exception):
    """A battery found a counterexample; the message is the FAIL detail."""


def run_selftest(seed: int, corrupt: bool = False) -> list[CheckResult]:
    """One CheckResult per battery, in order, each under its one name.  A
    battery takes (rng, fixtures) and returns its PASS detail, or raises
    _Fail with its FAIL detail."""
    rng = random.Random(seed)
    fixtures = standard_fixtures()
    batteries = [
        ("lattice basis completion and round trip", _check_lattice),
        ("exact division round trip and congruence", _check_division),
        ("character: expansion equals division route, direction "
         "independent", _check_characters),
        ("numeric localization agreement", _check_numeric_localization),
        ("hull containment, extremal weights, partition-count "
         "multiplicities", _check_hull_and_multiplicity),
        ("residue vanishing laws and total-residue cancellation",
         _check_residue_vanishing),
        ("residue equals signed fiber-average sum", _check_fiber_average),
        ("chamber independence, telescoping, wall crossing", _check_walls),
        ("invariant part equals reduced character", _check_qr),
        ("edge compatibility of localized classes", _check_edge_compat),
    ]
    if corrupt:
        batteries.append(("injected corruption", _check_corrupted))
    results = []
    for name, battery in batteries:
        try:
            results.append(CheckResult(name, True, battery(rng, fixtures)))
        except _Fail as fail:
            results.append(CheckResult(name, False, str(fail)))
    return results


def _check_lattice(rng, fixtures) -> str:
    for _ in range(50):
        n = rng.randint(1, 4)
        xi = tuple(rng.randint(-9, 9) for _ in range(n))
        if all(x == 0 for x in xi):
            continue
        xi, _ = primitive_part(xi)
        basis = complete_to_basis(xi)
        if abs(det(basis.matrix)) != 1 or basis.xi != xi:
            raise _Fail(f"bad completion for {xi}")
        for _ in range(20):
            alpha = tuple(rng.randint(-9, 9) for _ in range(n))
            beta, k = weight_in_basis(alpha, basis)
            if k != dot(alpha, xi):
                raise _Fail("pairing mismatch")
            if weight_from_basis(beta, k, basis) != alpha:
                raise _Fail("round trip failed")
    return ""


def _check_division(rng, fixtures) -> str:
    for _ in range(60):
        n = rng.randint(1, 3)
        gamma = tuple(rng.randint(-2, 2) for _ in range(n))
        if all(x == 0 for x in gamma):
            continue
        q = random_ring_element(n, rng, terms=4, exp_bound=2)
        one_minus = LaurentPoly(n, {(0,) * n: 1, gamma: -1})
        p = q * one_minus
        try:
            back = divide_exact(p, gamma)
        except NotDivisible:
            raise _Fail(f"divisible product rejected for {gamma}")
        if back * one_minus != p:
            raise _Fail("round trip failed")
        if not congruent_mod_edge(p, LaurentPoly.zero(n), gamma):
            raise _Fail("congruence disagrees with division")
    return ""


def _check_characters(rng, fixtures) -> str:
    for name, (action, sym) in fixtures.items():
        for _ in range(3):
            f = random_class(action, sym, rng)
            polys = set()
            for _ in range(3):
                xi = random_generic_xi(action, rng)
                polys.add(character_expand(f, polarize(action, xi)).poly)
            if len(polys) != 1:
                raise _Fail(f"direction dependence on {name}")
            if character_oracle(f) != polys.pop():
                raise _Fail(f"division route disagrees with expansion on "
                            f"{name}")
    return ""


def _check_numeric_localization(rng, fixtures) -> str:
    for name, (action, sym) in fixtures.items():
        f = random_class(action, sym, rng)
        chi = character_oracle(f)
        for _ in range(5):
            if not localization_identity_test(f, chi, rng):
                raise _Fail(f"localized sum differs from the character on "
                            f"{name}")
    return ""


def _check_hull_and_multiplicity(rng, fixtures) -> str:
    for name, (action, sym) in fixtures.items():
        s2 = random_symplectic(action, sym, rng)
        xi = random_generic_xi(action, rng)
        pol = polarize(action, xi)
        char = character_expand(s2.base, pol)
        report = hull_report(s2, char)
        if not report.ok:
            raise _Fail(f"violated on {name}")
        for mu in list(sorted(char.poly.terms))[:6]:
            if multiplicity(s2, pol, mu) != char.poly.coeff(mu):
                raise _Fail(f"partition-count multiplicity mismatch on "
                            f"{name}")
    return ""


def _check_residue_vanishing(rng, fixtures) -> str:
    # per-monomial vanishing laws on random one-vertex stars, whose
    # numerator is the one monomial x^mu
    for _ in range(40):
        star, xi = random_vertex_star(rng.choice([2, 3]),
                                      rng.randint(1, 3), rng)
        (mu,) = star.numerator.terms
        k = dot(mu, xi)
        degrees = [dot(w, xi) for w in star.denominator]
        neg = sum(-s for s in degrees if s < 0)
        pos = sum(s for s in degrees if s > 0)
        rv = res_T(star, xi)
        if k > neg and not rv.minus.is_zero():
            raise _Fail("inner contour should vanish")
        if k < pos and not rv.plus.is_zero():
            raise _Fail("outer contour should vanish")
    # total residue vanishing on the fixtures
    for name, (action, sym) in fixtures.items():
        f = random_class(action, sym, rng)
        xi = random_generic_xi(action, rng)
        total = poly_sum(action.n, vertex_residues(
            f, xi, action.vertices).values())
        if not total.is_zero():
            raise _Fail(f"nonzero total residue on {name}")
    return ""


def _check_fiber_average(rng, fixtures) -> str:
    worst = 0.0
    for _ in range(10):
        star, xi = random_vertex_star(2, rng.randint(2, 3), rng)
        rv = res_T(star, xi)
        pt, _ = random_pole_free_point([star], 2, rng)
        lhs = eval_numeric(rv.total, pt)
        rhs = 0j
        for j, w in enumerate(star.denominator):
            rest = tuple(u for i, u in enumerate(star.denominator) if i != j)
            hat = RationalChar(star.numerator, rest)
            sign = 1 if dot(w, xi) < 0 else -1
            rhs += sign * fiber_average_numeric(hat, w, xi, pt)
        err = abs(lhs - rhs)
        worst = max(worst, err)
        if err > 1e-6:
            raise _Fail(f"error {err:.2e}")
    return f"max error {worst:.2e}"


def _check_walls(rng, fixtures) -> str:
    for name, (action, sym) in fixtures.items():
        f = random_class(action, sym, rng)
        xi = random_generic_xi(action, rng)
        mm = moment_map(action, xi)
        crits = mm.critical_values()
        levels = [crits[0] - 1] + \
            [(a + b) / 2 for a, b in zip(crits, crits[1:])] + [crits[-1] + 1]
        chis = [chi_reduced(f, mm, c).value for c in levels]
        if not chis[-1].is_zero() or not chis[0].is_zero():
            raise _Fail(f"boundary chambers nonzero on {name}")
        for i in range(len(crits)):
            res = wall_crossing_check(f, mm, levels[i], levels[i + 1])
            if not res.ok:
                raise _Fail(f"wall identity fails on {name}")
            if chis[i] - chis[i + 1] != res.residue:
                raise _Fail(f"telescoping fails on {name}")
        # chamber independence: same chamber, same character
        mid = levels[len(levels) // 2]
        eps = (crits[-1] - crits[0]) / 1000
        a = chi_reduced(f, mm, mid).value
        b = chi_reduced(f, mm, mid + eps).value
        if a != b:
            raise _Fail(f"chamber dependence on {name}")
    return ""


def _check_qr(rng, fixtures) -> str:
    for name, (action, sym) in fixtures.items():
        for _ in range(2):
            s2 = random_symplectic(action, sym, rng)
            try:
                xi = random_zero_regular_xi(s2, rng, attempts=100)
            except ValueError:
                continue
            if not qr_check(s2, xi).ok:
                raise _Fail(f"mismatch on {name} at {xi}")
    return ""


def _check_edge_compat(rng, fixtures) -> str:
    for name, (action, sym) in fixtures.items():
        f = random_class(action, sym, rng)
        for e in action.geometric_edges():
            if not edge_compat_check(f, e.eid):
                raise _Fail(f"edge {e.src}->{e.dst} on {name}")
    return ""


def _check_corrupted(rng, fixtures) -> str:
    """Deliberately break a class value; the compatibility check must fire,
    so this battery always fails."""
    action, sym = fixtures["proj2"]
    values = dict(sym.base.values)
    values["P1"] = values["P1"] + LaurentPoly.monomial((0, 1))
    violations = class_violations(action, values)
    if violations:
        raise _Fail("edge compatibility congruence violated: "
                    + str(violations[0]))
    raise _Fail("corruption escaped the compatibility check")
