"""Tests of the benchmark itself: every answer check accepts the program's
answer and rejects a deliberately wrong one, which the run counts as a failed
operation; the tracer sees calls through every alias.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from layers import Tracer, metric_names  # noqa: E402
from speed import SpeedClock  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.fixture(scope="module")
def gk():
    return run.fresh_import()


@pytest.fixture(scope="module")
def clock():
    c = SpeedClock()
    c.start()
    yield c
    c.stop()


def first(jobs, prefix):
    return next(j for j in jobs if j.cls.startswith(prefix))


def accepts_then_rejects(job, corrupt):
    out = job.call()
    assert job.check(out) is None
    bad = corrupt(out)
    problem = job.check(bad)
    assert problem, "a wrong answer was accepted"
    return problem


def _edit_character(out, edit):
    code, text, err = out
    doc = json.loads(text)
    edit(doc["character"])
    return code, json.dumps(doc), err


def test_character_check(gk, tmp_path):
    jobs = wl.build_characters(gk, 3, str(tmp_path))
    sym = first(jobs, "projective-3-space x2 sym")
    mixed = first(jobs, "Hirzebruch trapezoid k=1 a=2 b=2 mixed")
    for job in (sym, mixed):
        accepts_then_rejects(job, lambda o: _edit_character(
            o, lambda terms: terms.append({"coeff": 1, "exp": [99] * 3})))
        accepts_then_rejects(job, lambda o: _edit_character(
            o, lambda terms: terms[0].update(coeff=terms[0]["coeff"] + 1)))
        accepts_then_rejects(job, lambda o: _edit_character(
            o, lambda terms: terms.pop()))
        accepts_then_rejects(job, lambda o: (2, "", "error"))


def test_convexity_checks(gk):
    jobs = wl.build_convexity(gk, 3, None)
    inside = [j for j in jobs if j.cls.startswith("multiplicity")
              and j.check(1) is None]
    outside = [j for j in jobs if j.cls.startswith("multiplicity")
               and j.check(0) is None]
    assert inside and outside
    accepts_then_rejects(inside[0], lambda m: 0)
    accepts_then_rejects(outside[0], lambda m: m + 1)
    hull = first(jobs, "hull_report (P1)^3 x2")
    assert hull.heavy
    accepts_then_rejects(hull, lambda r: dataclasses.replace(r, ok=False))
    accepts_then_rejects(hull, lambda r: dataclasses.replace(
        r, hull_vertices=r.hull_vertices[1:]))
    accepts_then_rejects(hull, lambda r: dataclasses.replace(
        r, hull_vertices=r.hull_vertices + ((0, 0, 9),)))


def test_reduction_checks(gk):
    jobs = wl.build_reduction(gk, 3, None)
    qr = first(jobs, "qr_check projective-4-space")
    assert qr.heavy
    extra = gk.laurent.LaurentPoly.monomial((0, 0, 0, 1))
    accepts_then_rejects(qr, lambda r: dataclasses.replace(r, ok=False))
    accepts_then_rejects(qr, lambda r: dataclasses.replace(
        r, reduced=r.reduced + extra, invariant_part=r.invariant_part + extra))

    # one sweep: moment map, chamber values, then walls in order
    start = next(i for i, j in enumerate(jobs) if j.cls.startswith("moment"))
    end = next(i for i, j in enumerate(jobs)
               if i > start and j.cls.startswith("moment"))
    sweep = jobs[start:end]
    outs = [job.call() for job in sweep]
    assert all(job.check(o) is None for job, o in zip(sweep, outs))
    mm = outs[0]
    assert sweep[0].check(dataclasses.replace(
        mm, phi={v: -x for v, x in mm.phi.items()}))
    outer = next(i for i, j in enumerate(sweep) if j.cls.startswith("chi"))
    bump = gk.laurent.LaurentPoly.monomial(
        (1,) + (0,) * (outs[outer].value.dim - 1))
    assert sweep[outer].check(dataclasses.replace(
        outs[outer], value=outs[outer].value + bump))
    sweep[outer].check(outs[outer])     # store the true value again
    wall = next(i for i, j in enumerate(sweep) if j.cls.startswith("wall"))
    res = outs[wall]
    assert sweep[wall].check(dataclasses.replace(res, ok=False))
    assert sweep[wall].check(dataclasses.replace(
        res, delta=res.delta + bump, residue=res.residue + bump))


def test_residue_sum_check(gk):
    """Drops that match their chamber values but leave a nonzero total."""
    poly = gk.laurent.LaurentPoly
    state = wl.Sweep(3, chis={0: {(1,): 1}, 1: {}, 2: {}})

    def wall(terms):
        p = poly(1, terms)
        return type("R", (), {"ok": True, "delta": p, "residue": p})()
    assert wl.check_wall(state, 0)(wall({(1,): 1})) is None
    assert wl.check_wall(state, 1)(wall({})) == \
        "vertex residues do not sum to zero"


def test_selftest_check(gk):
    jobs = wl.build_selftest(gk, 3, None)
    heavy = [j for j in jobs if j.heavy]
    assert len(heavy) == 2
    job = heavy[0]
    out = job.call()
    assert job.check(out) is None
    code, text, err = out
    assert job.check((2, text, err))
    assert job.check((0, text.replace("PASS", "FAIL", 1), err))
    assert job.check((0, text + "PASS  extra line\n", err))  # not byte equal
    assert heavy[1].check(out) is None                     # repeat matches


def test_phase_counts_wrong_answers_and_errors(gk, clock):
    good = wl.Job("good", lambda: 1, wl.check_multiplicity(1))
    wrong = wl.Job("wrong", lambda: 0, wl.check_multiplicity(1))

    def boom():
        raise ValueError("no")
    raising = wl.Job("raising", boom, wl.check_multiplicity(1))
    phase = run.Phase(clock, [good, wrong, raising])
    phase.run_round()
    assert (phase.attempted, phase.failed, phase.wrong) == (3, 2, 1)


def test_tracer_wraps_every_alias(gk, clock, tmp_path):
    tracer = Tracer(run.PACKAGE, clock)
    original = gk.laurent.LaurentPoly.__dict__["__mul__"]
    tracer.install()
    try:
        names = tracer.patched_names()
        assert "LaurentPoly.__rmul__" in names
        assert "gkmchar.characters.divide_exact" in names
        assert "gkmchar.divide_exact" in names
        p = gk.laurent.LaurentPoly.monomial((1, 0))
        q = p + 1
        _ = 3 * q           # __rmul__ with an int
        _ = q * q           # __mul__
        gk.laurent.divide_exact(q * gk.laurent.LaurentPoly(
            2, {(0, 0): 1, (1, 0): -1}), (1, 0))
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert gk.laurent.LaurentPoly.__dict__["__mul__"] is original
    assert snap["laurent.LaurentPoly.__mul__.calls"] == 3
    assert snap["laurent.LaurentPoly.__mul__.term_products"] == 2 + 4 + 4
    assert snap["laurent.divide_exact.calls"] == 1
    assert snap["laurent.divide_exact.terms_in"] == 2     # 1 - x^2
    assert set(snap) == set(metric_names())
