"""The four benchmark workloads: seeded inputs, jobs and answer checks.

A job is one call into gkmchar's public API, timed on its own: either one
in-process ``cli.main([...])`` with stdout captured, or one library call.
Its check compares the output with an answer computed in ``polytopes``
without gkmchar, or with a property the method must have, and returns None
or a message saying what is wrong.

Inputs depend on the seed only through choices that leave the work per job
unchanged or nearly so: translations of the polytopes, the coefficients of
mixed classes, random unimodular changes of lattice coordinates (reduction)
and the selftest seeds, many of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import polytopes as pt


@dataclass
class Job:
    cls: str                            # input class, shared by repeats
    call: Callable[[], object]
    check: Callable[[object], object]   # -> None, or what is wrong
    heavy: bool = False


@dataclass
class Workload:
    name: str
    heavy_class: str
    build: Callable                     # (gk, seed, workdir) -> [Job]
    main_layers: tuple                  # traced functions that must run


def _rng(seed, tag):
    return random.Random(f"{tag}:{seed}")


def _translation(rng, n, bound=3):
    return tuple(rng.randint(-bound, bound) for _ in range(n))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _small_direction(p: pt.Polytope, kind: str):
    """A fixed small generic direction.  Permuting it would keep the answer
    but not the work, which depends on the order the edges are expanded."""
    if kind == "hirzebruch":
        kk = p.edges[2][2][1]       # edge C->D is (-1, kk)
        return (1, kk + 1)
    return tuple(range(1, p.n + 1))


def _random_direction(rng, p: pt.Polytope, avoid_alphas=False, bound=3):
    """A random primitive direction, nonzero on every edge weight (and on
    every vertex weight when asked), entries in [-bound, bound]."""
    avoid = [w for _, _, w in p.edges]
    if avoid_alphas:
        avoid += list(p.alphas.values())
    while True:
        xi = tuple(rng.randint(-bound, bound) for _ in range(p.n))
        if math.gcd(*xi) == 1 and all(_dot(w, xi) for w in avoid):
            return xi


def _ring_elements(rng, n):
    """Global Laurent polynomials r_0, r_1, r_2 for a mixed class.

    The exponents are fixed, so the work does not depend on the seed; the
    seed draws the coefficients.
    """
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    shapes = [units[0], tuple(-x for x in units[-1]),
              tuple(a - b for a, b in zip(units[0], units[-1]))]
    coeffs = (-3, -2, -1, 1, 2, 3)
    return [{(0,) * n: rng.choice(coeffs), e: rng.choice(coeffs)}
            for e in shapes]


def _mixed_parts(rng, n):
    return list(zip(_ring_elements(rng, n), (0, 1, 2)))


def _poly(gk, n, d: dict):
    return gk.laurent.LaurentPoly(n, d)


def _terms(poly) -> dict:
    return dict(poly.terms)


def _diff(got: dict, want: dict, what: str):
    if got == want:
        return None
    extra = sorted(set(got) - set(want))[:3]
    missing = sorted(set(want) - set(got))[:3]
    wrong = sorted(e for e in set(got) & set(want) if got[e] != want[e])[:3]
    return (f"{what}: {len(got)} terms, expected {len(want)}; "
            f"unexpected {extra}, missing {missing}, "
            f"wrong coefficient {wrong}")


def _load(gk, doc: dict):
    """Validate a generated document with gkmchar's own loader."""
    action, raw = gk.graphs.load_graph_data(doc)
    kclasses = {name: gk.graphs.validate_class(action, values)
                for name, values in raw.items()}
    return action, kclasses


def _symplectic(gk, p: pt.Polytope):
    action, _ = _load(gk, pt.graph_doc(p, {}))
    return gk.graphs.symplectic_class(action, p.alphas)


def _run_cli(gk, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gk.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# characters: `gkmchar character FILE --xi ... --output json`

STEEP = (1, 50, 2500)


def check_cli_character(expected: dict):
    def check(result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        doc = json.loads(out)
        got = {tuple(t["exp"]): t["coeff"] for t in doc["character"]}
        return _diff(got, expected, "character")
    return check


def build_characters(gk, seed, workdir):
    rng = _rng(seed, "characters")
    os.makedirs(workdir, exist_ok=True)
    jobs = []

    def add_file(label, p, classes, runs):
        """Write P with its classes, given as {name: (values, expected
        character)}; runs is [(class, xi, heavy)]."""
        doc = pt.graph_doc(p, {c: v for c, (v, _) in classes.items()})
        _load(gk, doc)
        path = os.path.join(workdir, f"{label}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for cname, xi, heavy in runs:
            # `--xi=` form: argparse reads "--xi -1,2" as a missing value
            argv = ["character", path, "--xi=" + ",".join(map(str, xi)),
                    "--class", cname, "--output", "json"]
            cls = f"{p.name} {cname}" + (" steep" if heavy else "")
            jobs.append(Job(cls, lambda a=argv: _run_cli(gk, a),
                            check_cli_character(classes[cname][1]), heavy))

    def symplectic(p):
        return pt.symplectic_values(p), pt.indicator(pt.lattice_points(p))

    def mixed(p):
        return pt.mixed_values(p, _mixed_parts(rng, p.n))

    # Symplectic classes are translated by the seed, which changes no work.
    # Mixed classes sit on the untranslated polytope: translating would move
    # the parts base^k by k*t against each other and change the work.
    for n in range(2, 6):
        for k in range(1, 7):
            p = pt.projective(n, k, _translation(rng, n))
            runs = [("sym", _small_direction(p, "projective"), False)]
            if k == 1 and n == 3:
                runs += [("sym", STEEP, True)] * 2
            add_file(f"proj{n}-{k}", p, {"sym": symplectic(p)}, runs)
    for m in range(3, 6):
        p = pt.cube(m, 1, _translation(rng, m))
        add_file(f"cube{m}", p, {"sym": symplectic(p)},
                 [("sym", _small_direction(p, "cube"), False)])
    for kk in range(0, 4):
        p = pt.hirzebruch(kk, 2, 2, _translation(rng, 2))
        add_file(f"hirz{kk}", p, {"sym": symplectic(p)},
                 [("sym", _small_direction(p, "hirzebruch"), False)])
    mixed_on = [("proj2", pt.projective(2, 1, (0, 0)), "projective"),
                ("proj3", pt.projective(3, 1, (0, 0, 0)), "projective"),
                ("cube3", pt.cube(3, 1, (0, 0, 0)), "cube")]
    mixed_on += [(f"hirz{kk}", pt.hirzebruch(kk, 2, 2, (0, 0)), "hirzebruch")
                 for kk in range(4)]
    for label, p, kind in mixed_on:
        add_file(f"{label}-mixed", p, {"mixed": mixed(p)},
                 [("mixed", _small_direction(p, kind), False)])
    return jobs


# ---------------------------------------------------------------------------
# convexity: multiplicity over a box, hull_report per class


def check_multiplicity(want: int):
    def check(got):
        return None if got == want else f"multiplicity {got}, expected {want}"
    return check


def check_hull(corners):
    corners = set(corners)

    def check(report):
        if not report.ok:
            return (f"hull report not ok: {report.support_violations[:3]} "
                    f"{report.coeff_violations[:3]}")
        if set(report.hull_vertices) != corners or \
                len(report.hull_vertices) != len(corners):
            return f"hull vertices {report.hull_vertices}, expected {corners}"
        return None
    return check


def build_convexity(gk, seed, workdir):
    """The seed translates the polytopes of the multiplicity sweeps, which
    changes no work.  hull_report runs on the untranslated polytope: its
    exact solves skip zero entries, so a translation would change its work.
    The heavy class runs twice a round for more samples."""
    rng = _rng(seed, "convexity")
    families = [("projective", pt.projective, (n, k))
                for n, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                             (4, 1))]
    families += [("cube", pt.cube, (m, k))
                 for m, k in ((2, 1), (2, 2), (3, 1), (3, 2))]
    families += [("hirzebruch", pt.hirzebruch, (kk, 2, 2)) for kk in (1, 2, 3)]
    jobs = []
    for kind, make, args in families:
        n = 2 if kind == "hirzebruch" else args[0]
        p = make(*args, _translation(rng, n))
        sym = _symplectic(gk, p)
        pol = gk.characters.polarize(sym.action, _small_direction(p, kind))
        for x in pt.box(p, pad=1):
            jobs.append(Job(
                f"multiplicity {p.name}",
                lambda s=sym, q=pol, a=x: gk.characters.multiplicity(s, q, a),
                check_multiplicity(int(p.contains(x)))))
        h = make(*args, (0,) * n)
        hsym = _symplectic(gk, h)
        char = gk.characters.CharacterResult(
            _poly(gk, h.n, pt.indicator(pt.lattice_points(h))))
        heavy = h.name == "(P1)^3 x2"
        jobs += [Job(f"hull_report {h.name}",
                     lambda s=hsym, c=char: gk.characters.hull_report(s, c),
                     check_hull(h.alphas.values()), heavy)] * (1 + heavy)
    return jobs


# ---------------------------------------------------------------------------
# reduction: qr_check at level zero, chamber sweeps with wall crossings


def check_qr(want: dict):
    def check(res):
        if not res.ok:
            return "qr_check reports a mismatch"
        return (_diff(_terms(res.reduced), want, "reduced character")
                or _diff(_terms(res.invariant_part), want, "invariant part"))
    return check


@dataclass
class Sweep:
    """One chamber sweep's moment map and results, filled in by its jobs in
    order and cleared when the sweep starts again."""
    nlevels: int
    mm: object = None
    chis: dict = field(default_factory=dict)
    residues: dict = field(default_factory=dict)

    def start(self, mm):
        self.mm = mm
        self.chis.clear()
        self.residues.clear()
        return mm


def check_moment(action_edges, xi):
    """phi increases along every xi-positive edge, values distinct."""
    def check(mm):
        if len(set(mm.phi.values())) != len(mm.phi):
            return "critical values are not distinct"
        for src, dst, w in action_edges:
            if (mm.phi[dst] - mm.phi[src]) * _dot(w, xi) <= 0:
                return f"phi does not increase along {src}->{dst}"
        return None
    return check


def check_chamber(sweep: Sweep, i: int):
    def check(red):
        sweep.chis[i] = _terms(red.value)
        if i in (0, sweep.nlevels - 1) and sweep.chis[i]:
            return f"outer chamber {i} is not zero"
        return None
    return check


def check_wall(sweep: Sweep, i: int):
    def check(res):
        if i not in sweep.chis or i + 1 not in sweep.chis:
            return "chamber values missing"
        drop = pt.poly_add(sweep.chis[i],
                           {e: -c for e, c in sweep.chis[i + 1].items()})
        residue = _terms(res.residue)
        sweep.residues[i] = residue
        if not res.ok:
            return f"wall {i} reports a mismatch"
        bad = (_diff(_terms(res.delta), drop, f"drop at wall {i}")
               or _diff(residue, drop, f"residue at wall {i}"))
        if bad:
            return bad
        if i == sweep.nlevels - 2:
            total = {}
            for r in sweep.residues.values():
                total = pt.poly_add(total, r)
            if len(sweep.residues) != sweep.nlevels - 1 or total:
                return "vertex residues do not sum to zero"
        return None
    return check


QR_DIRECTIONS = 9         # odd, so the heavy median sits on one direction
SWEEP_DIRECTIONS = 4


def build_reduction(gk, seed, workdir):
    """Random directions make the work of qr_check vary twofold from one
    direction to the next.  So the directions are drawn once, the same for
    every seed, and the seed instead moves each problem to other lattice
    coordinates by a random unimodular map, which keeps every pairing and
    so the work, and draws the coefficients of the mixed classes."""
    rng = _rng(seed, "reduction")
    directions = random.Random("reduction-directions")
    jobs = []

    qr_families = [pt.projective(2, 4, (-1,) * 2),
                   pt.projective(3, 5, (-1,) * 3),
                   pt.projective(4, 6, (-1,) * 4),
                   pt.cube(3, 3, (-1,) * 3),
                   pt.hirzebruch(1, 3, 3, (-1, -1))]
    for base in qr_families:
        u = pt.Unimodular.random(rng, base.n)
        p = base.transform(u)
        sym = _symplectic(gk, p)
        points = [u.apply(x) for x in pt.lattice_points(base)]
        heavy = base.name == "projective-4-space x6"
        for _ in range(QR_DIRECTIONS):
            xi = u.covector(_random_direction(directions, base,
                                              avoid_alphas=True))
            want = pt.indicator(x for x in points if _dot(x, xi) == 0)
            jobs.append(Job(f"qr_check {p.name}",
                            lambda s=sym, d=xi: gk.reduction.qr_check(s, d),
                            check_qr(want), heavy))

    sweep_families = [pt.projective(2, 1, (0,) * 2),
                      pt.projective(3, 1, (0,) * 3),
                      pt.cube(3, 1, (0,) * 3),
                      pt.hirzebruch(2, 1, 1, (0, 0))]
    for base in sweep_families:
        u = pt.Unimodular.random(rng, base.n)
        p = base.transform(u)
        values, _ = pt.mixed_values(base, _mixed_parts(rng, base.n))
        values = {v: pt.transform_poly(u, val) for v, val in values.items()}
        action, kcl = _load(gk, pt.graph_doc(p, {"mixed": values}))
        f = kcl["mixed"]
        for _ in range(SWEEP_DIRECTIONS):
            xi = u.covector(_random_direction(directions, base))
            crit = sorted(gk.reduction.moment_map(action, xi).phi.values())
            levels = [crit[0] - 1] + [(a + b) / 2 for a, b in
                                      zip(crit, crit[1:])] + [crit[-1] + 1]
            sweep = Sweep(len(levels))
            jobs.append(Job(
                f"moment_map {p.name}",
                lambda a=action, d=xi, w=sweep:
                    w.start(gk.reduction.moment_map(a, d)),
                check_moment(p.edges, xi)))
            for i, c in enumerate(levels):
                jobs.append(Job(
                    f"chi_reduced {p.name}",
                    lambda f=f, w=sweep, c=c:
                        gk.reduction.chi_reduced(f, w.mm, c),
                    check_chamber(sweep, i)))
            for i in range(len(levels) - 1):
                jobs.append(Job(
                    f"wall_crossing_check {p.name}",
                    lambda f=f, w=sweep, a=levels[i], b=levels[i + 1]:
                        gk.reduction.wall_crossing_check(f, w.mm, a, b),
                    check_wall(sweep, i)))
    return jobs


# ---------------------------------------------------------------------------
# selftest: `gkmchar selftest --seed S`

# Heaviest of seeds 0..239 at the seed revision (0.35 s corrected, against
# a median of 0.27 s); the selftest workload's heavy class.
HEAVY_SELFTEST_SEED = 54

# Seeds 0..239 except 54, sorted by the corrected time of `selftest --seed S`
# at the seed revision and cut into 12 strata of like cost.  A run draws one
# seed from each stratum: a free draw of 12 seeds moved the round's median
# job by 7 % from one benchmark seed to the next.
SELFTEST_STRATA = (
    (44, 70, 76, 80, 85, 95, 101, 102, 120, 123, 147, 150, 151, 153,
     161, 187, 190, 192, 203, 204),
    (14, 56, 57, 58, 64, 73, 78, 91, 103, 106, 113, 134, 152, 158, 182,
     184, 207, 211, 224, 238),
    (10, 18, 21, 29, 32, 68, 83, 86, 104, 119, 129, 130, 135, 139, 166,
     173, 179, 189, 197, 234),
    (2, 4, 7, 11, 22, 39, 74, 79, 82, 126, 133, 138, 140, 149, 157, 162,
     163, 200, 212, 232),
    (3, 5, 19, 20, 27, 38, 43, 88, 109, 111, 112, 122, 136, 154, 156,
     176, 198, 210, 218, 220),
    (13, 33, 40, 41, 46, 47, 50, 75, 84, 118, 124, 144, 175, 186, 188,
     196, 213, 219, 222, 228),
    (1, 17, 28, 30, 35, 49, 63, 69, 77, 81, 87, 93, 97, 117, 128, 137,
     170, 217, 239),
    (0, 6, 16, 23, 26, 37, 60, 61, 65, 67, 96, 110, 121, 125, 131, 180,
     193, 202, 230, 235),
    (34, 51, 53, 59, 89, 92, 94, 116, 141, 142, 145, 148, 165, 167, 177,
     181, 185, 215, 225, 231),
    (12, 25, 42, 52, 55, 66, 71, 72, 105, 107, 114, 127, 146, 169, 171,
     174, 183, 195, 214, 237),
    (8, 24, 45, 48, 62, 99, 115, 132, 143, 155, 159, 160, 191, 194, 201,
     205, 206, 221, 226, 227),
    (9, 15, 31, 36, 90, 98, 100, 108, 164, 168, 172, 178, 199, 208, 209,
     216, 223, 229, 233, 236),
)


def check_selftest(seed, first_reports: dict):
    def check(result):
        code, out, err = result
        if code != 0:
            return f"selftest --seed {seed} exit code {code}"
        lines = out.splitlines()
        if not lines or not all(l.startswith("PASS") for l in lines):
            bad = [l for l in lines if not l.startswith("PASS")][:2]
            return f"selftest --seed {seed}: {bad or 'empty report'}"
        first = first_reports.setdefault(seed, out)
        if out != first:
            return f"selftest --seed {seed} report differs from the first run"
        return None
    return check


def build_selftest(gk, seed, workdir):
    rng = _rng(seed, "selftest")
    seeds = [rng.choice(stratum) for stratum in SELFTEST_STRATA]
    seeds += [HEAVY_SELFTEST_SEED] * 2
    first = {}
    return [Job(f"selftest --seed {s}",
                lambda s=s: _run_cli(gk, ["selftest", "--seed", str(s)]),
                check_selftest(s, first), heavy=s == HEAVY_SELFTEST_SEED)
            for s in seeds]


WORKLOADS = {
    w.name: w for w in (
        Workload("characters",
                 "character on projective 3-space at the steep direction "
                 "(1,50,2500)",
                 build_characters,
                 ("laurent.LaurentPoly.__mul__", "laurent.divide_exact",
                  "characters.character_oracle", "characters.character_expand",
                  "graphs.load_graph_data", "cli.main")),
        Workload("convexity",
                 "hull_report on (P1)^3 scaled by 2",
                 build_convexity,
                 ("characters.kostant_count", "characters.in_convex_hull",
                  "characters.hull_report")),
        Workload("reduction",
                 "qr_check on projective 4-space scaled by 6",
                 build_reduction,
                 ("residues.res_T", "lattice.complete_to_basis",
                  "characters.character_expand")),
        Workload("selftest",
                 f"selftest --seed {HEAVY_SELFTEST_SEED}",
                 build_selftest,
                 ("characters.in_convex_hull", "characters.hull_report",
                  "laurent.eval_numeric")),
    )
}
