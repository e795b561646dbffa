import copy
import functools
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from gkmchar import cli, selftest
from gkmchar.characters import CharacterResult, character_expand, \
    character_oracle
from gkmchar.cli import main
from gkmchar.graphs import KClass, gen_projective, gen_weyl_orbit, \
    graph_to_data, positive_roots
from gkmchar.lattice import vscale
from gkmchar.laurent import LaurentPoly, render_poly
from gkmchar.randomgen import flag_fixtures, random_generic_xi, \
    standard_fixtures

DATA = os.path.join(os.path.dirname(__file__), "data")
CP1 = os.path.join(DATA, "cp1.json")
PROJ2 = os.path.join(DATA, "proj2.json")
BAD = os.path.join(DATA, "bad.json")
CYCLE = os.path.join(DATA, "cycle.json")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(["validate", CP1], capsys)
    assert code == 0
    assert "OK" in out


def test_validate_bad_graph(capsys):
    code, out, _ = run(["validate", BAD], capsys)
    assert code == 2
    assert "E_GKM" in out


def test_character_cp1(capsys):
    code, out, _ = run(["character", CP1, "--xi", "1,0"], capsys)
    assert code == 0
    assert out.strip() == "1*x^(-1,0) + 1 + 1*x^(1,0)"


def test_character_json_output(capsys):
    code, out, _ = run(["character", CP1, "--xi", "1,0", "--output", "json"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert {"coeff": 1, "exp": [0, 0]} in doc["character"]
    assert len(doc["character"]) == 3


def test_multiplicity_cp1(capsys):
    code, out, _ = run(["multiplicity", CP1, "--xi", "1,0",
                        "--alpha", "0,0"], capsys)
    assert code == 0
    assert out.strip().endswith("= 1")
    code, out, _ = run(["multiplicity", CP1, "--xi", "1,0",
                        "--alpha", "2,0"], capsys)
    assert out.strip().endswith("= 0")


def test_multiplicity_refuses_a_class_without_vertex_weights(tmp_path,
                                                             capsys):
    # twice the class x^alpha is still a class, but no monomial with
    # coefficient 1, so it names no vertex weights alpha_p
    with open(CP1) as fh:
        doc = json.load(fh)
    for terms in doc["classes"]["omega"].values():
        terms[0]["coeff"] = 2
    path = tmp_path / "cp1x2.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["multiplicity", str(path), "--xi", "1,0",
                          "--alpha", "0,0"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: class 'omega' is not monomial with unit "
                   "coefficients; cannot read vertex weights from it\n")


def test_reduce_cp1(capsys):
    code, out, _ = run(["reduce", CP1, "--xi", "1,0", "--c", "1/2"], capsys)
    assert code == 0
    assert "chi_red at c=1/2: 1" in out


def test_residue_cp1(capsys):
    code, out, _ = run(["residue", CP1, "--xi", "1,0"], capsys)
    assert code == 0
    assert "total: 0" in out


def test_qr_check_cp1(capsys):
    code, out, _ = run(["qr-check", CP1, "--xi", "1,0"], capsys)
    assert code == 0
    assert out.startswith("PASS  chi_red = 1")


def test_non_primitive_xi_is_usage_error(capsys):
    code, _, err = run(["character", CP1, "--xi", "2,0"], capsys)
    assert code == 1
    assert "not primitive" in err


def test_degenerate_xi_is_usage_error(capsys):
    code, _, err = run(["character", CP1, "--xi", "0,1"], capsys)
    assert code == 1
    assert "pairs to zero" in err


def test_missing_flag_is_usage_error(capsys):
    code, _, _ = run(["character", CP1], capsys)
    assert code == 1


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    character_json = json.dumps(
        {"character": [{"coeff": 1, "exp": [-1, 0]},
                       {"coeff": 1, "exp": [0, 0]},
                       {"coeff": 1, "exp": [1, 0]}],
         "class": "omega"}, indent=2, sort_keys=True) + "\n"
    calls = [
        (["character", CP1, "--xi", "1,0", "--output", "json"],
         0, character_json),
        (["multiplicity", CP1, "--xi", "1,0", "--alpha", "0,0"],
         0, "multiplicity of x^(0,0) = 1\n"),
        (["character", CP1], 1, ""),
        (["character", PROJ2, "--xi", "1,2"],
         0, "1 + 1*x^(0,1) + 1*x^(1,0)\n"),
    ]
    for argv, want_code, want_out in calls:
        code, out, _ = run(argv, capsys)
        assert (code, out) == (want_code, want_out), argv


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 1


def test_unknown_class_name(capsys):
    code, _, err = run(["character", CP1, "--xi", "1,0",
                        "--class", "nope"], capsys)
    assert code == 1
    assert "omega" in err


def test_selftest_deterministic(capsys):
    code1, out1, _ = run(["selftest", "--seed", "42"], capsys)
    code2, out2, _ = run(["selftest", "--seed", "42"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert all(line.startswith("PASS") for line in out1.strip().splitlines())


def test_selftest_other_seed_passes(capsys):
    code, out, _ = run(["selftest", "--seed", "7"], capsys)
    assert code == 0


def test_selftest_injected_corruption_fails(capsys):
    code, out, _ = run(["selftest", "--seed", "42", "--inject-corruption"],
                       capsys)
    assert code == 2
    assert "FAIL" in out
    assert "congruence violated" in out


def test_selftest_failure_keeps_the_battery_name(monkeypatch, capsys):
    # a battery that finds a counterexample reports it under the name it
    # passes under, in text and in JSON
    hull = ("hull containment, extremal weights, partition-count "
            "multiplicities")
    characters = ("character: expansion equals division route, direction "
                  "independent")
    cases = [
        ("multiplicity", lambda sym, pol, mu: -1,
         [(hull, "partition-count multiplicity mismatch on cp1")]),
        # one coefficient of the division route off by one: the exact
        # localization battery fails, and so does the battery that
        # compares the division route with the expansion
        ("character_oracle",
         lambda f: character_oracle(f) + LaurentPoly.one(f.action.n),
         [(characters, "division route disagrees with expansion on cp1"),
          ("numeric localization agreement",
           "localized sum differs from the character on cp1")]),
    ]
    for attr, fake, failures in cases:
        with monkeypatch.context() as patch:
            patch.setattr(selftest, attr, fake)
            code, out, _ = run(["selftest", "--seed", "42"], capsys)
            assert code == 2
            assert [line for line in out.splitlines()
                    if line.startswith("FAIL")] \
                == [f"FAIL  {name}  ({detail})" for name, detail in failures]
            code, out, _ = run(["selftest", "--seed", "42", "--output",
                                "json"], capsys)
            assert code == 2
            assert [r["name"] for r in json.loads(out)["results"]
                    if not r["ok"]] == [name for name, _ in failures]


def test_proj2_character(capsys):
    code, out, _ = run(["character", PROJ2, "--xi", "1,2"], capsys)
    assert code == 0
    assert out.strip() == "1 + 1*x^(0,1) + 1*x^(1,0)"


def _proj3_file(tmp_path, scale):
    """Projective 3-space with the symplectic class scaled by `scale`."""
    action, sym = gen_projective(3)
    values = {v: LaurentPoly.monomial(vscale(a, scale))
              for v, a in sym.alphas.items()}
    path = tmp_path / f"proj3x{scale}.json"
    path.write_text(json.dumps(graph_to_data(action, {"omega": values})))
    return str(path), KClass(action, values)


def test_steep_direction_character_matches_division_route(tmp_path, capsys):
    # the polarized expansion is cut by the dual cones at each vertex, so
    # a steep direction costs no more than the 4-term answer
    path, kclass = _proj3_file(tmp_path, 1)
    code, out, err = run(["character", path, "--xi=1,1000,1000000"], capsys)
    assert code == 0
    assert err == ""
    assert out.strip() == render_poly(character_oracle(kclass))


def test_steep_direction_flag_character_matches_division_route(tmp_path,
                                                               capsys):
    # Fl(4) has 6 weights per vertex in rank 3, so xi and the dual bases
    # of other vertices cannot cut its series; the dual-cone rays of each
    # vertex do, and the expansion stays near the 38-term answer
    action, sym = gen_weyl_orbit(positive_roots("A", 3), range(4))
    values = {v: LaurentPoly.monomial(a) for v, a in sym.alphas.items()}
    path = tmp_path / "fl4.json"
    path.write_text(json.dumps(graph_to_data(action, {"omega": values})))
    code, out, err = run(["character", str(path), "--xi=1,100,10000,1000000",
                          "--output", "json"], capsys)
    assert (code, err) == (0, "")
    want = character_oracle(KClass(action, values))
    got = {tuple(t["exp"]): t["coeff"] for t in json.loads(out)["character"]}
    assert len(got) == 38
    assert got == want.terms


def test_truncation_overflow_is_violation_not_traceback(tmp_path, capsys,
                                                        monkeypatch):
    # a term budget below the 20 terms of the answer makes the expansion
    # overflow; the CLI must report that as one error line, not a traceback
    monkeypatch.setattr(cli, "character_expand",
                        functools.partial(character_expand, term_budget=8))
    path, _ = _proj3_file(tmp_path, 3)
    code, out, err = run(["character", path, "--xi", "1,2,3"], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


# projective n-space: over the division budget of `gkmchar character`
BEYOND_BUDGET = {f"proj{n}": n for n in (5, 8, 12)}


def _character_runs(tmp_path):
    """(name, argv) of `character` on the symplectic class of every
    standard and flag fixture at a generic direction, and of each entry
    of BEYOND_BUDGET at xi = (1, ..., n)."""
    rng = random.Random(0)
    inputs = [(name, action, sym, random_generic_xi(action, rng))
              for name, (action, sym) in sorted(
                  {**standard_fixtures(), **flag_fixtures()}.items())]
    inputs += [(name,) + gen_projective(n) + (tuple(range(1, n + 1)),)
               for name, n in BEYOND_BUDGET.items()]
    runs = []
    for name, action, sym, xi in inputs:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(graph_to_data(action,
                                                 {"omega": sym.base.values})))
        runs.append((name, ["character", str(path),
                            "--xi=" + ",".join(map(str, xi))]))
    return runs


def test_character_checks_by_division_only_within_its_budget(
        tmp_path, capsys, monkeypatch):
    # every fixture is checked by the division route, projective 5-space
    # and up by the identity test in a prime field; on projective 12-space
    # the division route would multiply out 13 * 2^66 terms
    divided = []

    def oracle(f):
        divided.append(name)
        assert name not in BEYOND_BUDGET, f"division route on {name}"
        return character_oracle(f)

    monkeypatch.setattr(cli, "character_oracle", oracle)
    runs = _character_runs(tmp_path)
    for name, argv in runs:
        code, out, err = run(argv + ["--output", "json"], capsys)
        assert (code, err) == (0, ""), name
    assert divided == [name for name, _ in runs if name not in BEYOND_BUDGET]
    # the last run, projective 12-space, has 13 terms
    got = {tuple(t["exp"]): t["coeff"]
           for t in json.loads(out)["character"]}
    assert got == dict.fromkeys(
        [(0,) * 12] + [tuple(int(i == j) for j in range(12))
                       for i in range(12)], 1)


def test_character_reports_a_wrong_expansion_on_either_route(
        tmp_path, capsys, monkeypatch):
    # one coefficient of the expansion changed: each cross-check refuses
    # it with one error line, and exits 2
    def corrupted(f, pol, **kwargs):
        poly = character_expand(f, pol, **kwargs).poly
        return CharacterResult(poly + LaurentPoly(poly.dim,
                                                  {min(poly.terms): 1}))

    monkeypatch.setattr(cli, "character_expand", corrupted)
    for name, argv in _character_runs(tmp_path):
        code, out, err = run(argv, capsys)
        route = "localization sum at a point mod 2^61 - 1" \
            if name in BEYOND_BUDGET else "division route"
        assert (code, out) == (2, ""), name
        assert err == f"error: internal cross-check failed: expansion != " \
                      f"{route}\n", name


def test_oriented_cycle_is_violation_not_traceback(capsys):
    # the graph validates, but its edges 0->1->2->3->0 all pair
    # positively with (4, 3), so reduce finds no moment map
    assert run(["validate", CYCLE], capsys)[0] == 0
    code, out, err = run(["reduce", CYCLE, "--xi", "4,3", "--c", "1/2"],
                         capsys)
    assert (code, out) == (2, "")
    assert err == "error: oriented cycle: 0 -> 1 -> 2 -> 3 -> 0\n"


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("level", [
    "1e5000", "-1E+5000", "1e-5000", "1e999999999",
    pytest.param("1" * 4000 + "e4000", id="long-mantissa-e4000")])
def test_reduce_refuses_a_level_too_long_to_print(capsys, level, output):
    # a decimal exponent slips past the int digit limit that a plain
    # digit string meets: refused before Fraction expands it, or after,
    # when the parsed numerator or denominator has too many digits
    start = time.perf_counter()
    code, out, err = run(["reduce", PROJ2, "--xi=1,2", f"--c={level}",
                          "--output", output], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


def test_reduce_refuses_a_level_that_is_no_number(capsys):
    assert run(["reduce", PROJ2, "--xi=1,2", "--c=abc"], capsys) == \
        (1, "", "error: not a rational number: 'abc'\n")


def _write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _validate_doc(tmp_path, capsys, doc):
    return run(["validate", _write_doc(tmp_path, doc)], capsys)


def test_validate_non_object_document_is_violation(tmp_path, capsys):
    code, out, err = _validate_doc(tmp_path, capsys, [1, 2])
    assert code == 2
    assert out.splitlines() == ["E_SCHEMA at document: not a JSON object"]
    assert err == ""


def test_validate_edge_without_alpha_is_violation(tmp_path, capsys):
    with open(CP1) as fh:
        doc = json.load(fh)
    del doc["edges"][0]["alpha"]
    code, out, err = _validate_doc(tmp_path, capsys, doc)
    assert code == 2
    assert out.splitlines() == ["E_SCHEMA at edge#0: missing alpha"]
    assert err == ""
    doc["edges"][0] = {"alpha": [1, 0]}
    code, out, _ = _validate_doc(tmp_path, capsys, doc)
    assert code == 2
    assert out.splitlines() == ["E_SCHEMA at edge#0: missing from, to"]


def test_validate_vertices_not_a_list_is_violation(tmp_path, capsys):
    code, out, err = _validate_doc(tmp_path, capsys,
                                   {"n": 2, "vertices": 5, "edges": []})
    assert code == 2
    assert out.splitlines() == ["E_SCHEMA at vertices: not a JSON list"]
    assert err == ""


def test_validate_edges_not_a_list_is_violation(tmp_path, capsys):
    code, out, err = _validate_doc(tmp_path, capsys,
                                   {"n": 2, "vertices": ["p"], "edges": 5})
    assert code == 2
    assert out.splitlines() == ["E_SCHEMA at edges: not a JSON list"]
    assert err == ""
    with open(CP1) as fh:
        doc = json.load(fh)
    doc["edges"][0]["alpha"] = 5
    code, out, _ = _validate_doc(tmp_path, capsys, doc)
    assert code == 2
    assert out.splitlines() == ["E_SCHEMA at edge#0: alpha is not a JSON list"]


def test_negative_vector_flags_accept_both_spellings(capsys):
    spaced = run(["multiplicity", CP1, "--xi", "-1,0", "--alpha", "-1,0"],
                 capsys)
    glued = run(["multiplicity", CP1, "--xi=-1,0", "--alpha=-1,0"], capsys)
    assert spaced == glued
    assert spaced[0] == 0
    spaced = run(["character", CP1, "--xi", "-1,0"], capsys)
    glued = run(["character", CP1, "--xi=-1,0"], capsys)
    assert spaced == glued
    assert spaced[1].strip() == "1*x^(-1,0) + 1 + 1*x^(1,0)"


def _mutated_proj2(tmp_path, mutate):
    """tests/data/proj2.json, changed in place by mutate and written anew."""
    with open(PROJ2) as fh:
        doc = json.load(fh)
    mutate(doc)
    return _write_doc(tmp_path, doc)


@pytest.mark.parametrize("mutate, where", [
    (lambda d: d["edges"][0].update(alpha=[1.7, 0]), "edge#0: alpha"),
    (lambda d: d["edges"][1].update(alpha=[0, True]), "edge#1: alpha"),
    (lambda d: d.update(n=2.0), "n: n"),
    (lambda d: d["classes"]["omega"]["P1"][0].update(coeff=1.0),
     "class omega at P1: coeff"),
    (lambda d: d["classes"]["omega"]["P2"][0].update(exp=[0, 1.0]),
     "class omega at P2: exp"),
])
def test_non_integer_numbers_are_violations(tmp_path, capsys, mutate, where):
    # JSON floats and bools used to be truncated by int() and accepted;
    # validate reports the violation on stdout, the others on stderr
    path = _mutated_proj2(tmp_path, mutate)
    line = f"E_SCHEMA at {where} is not a JSON integer\n"
    assert run(["validate", path], capsys) == (2, line, "")
    for argv in (["character", path, "--xi", "1,2"],
                 ["qr-check", path, "--xi", "1,2"]):
        assert run(argv, capsys) == (2, "", line), argv


@pytest.mark.parametrize("mutate, line", [
    (lambda d: d.update(n="x"), "E_SCHEMA at n: n is not a JSON integer"),
    # Z^0 has no primitive xi and no exponent has a negative length; these
    # used to validate
    (lambda d: d.update(n=0), "E_SCHEMA at n: n is not positive"),
    (lambda d: d.update(n=-1), "E_SCHEMA at n: n is not positive"),
    (lambda d: d["edges"][0].update(alpha=[1, "a"]),
     "E_SCHEMA at edge#0: alpha is not a JSON integer"),
    # truncated to (1, 1), this weight used to fail the edge compatibility
    # check twice without the float being named
    (lambda d: d["edges"][0].update(alpha=[1.7, 1]),
     "E_SCHEMA at edge#0: alpha is not a JSON integer"),
    (lambda d: d.update(classes={"c": 5}),
     "E_SCHEMA at class c: not a JSON object"),
    (lambda d: d.pop("n"), "E_SCHEMA at document: missing n"),
    (lambda d: d.pop("vertices"), "E_SCHEMA at document: missing vertices"),
    (lambda d: d["classes"]["omega"].update(P0=[{"coeff": 1}]),
     "E_SCHEMA at class omega at P0: missing exp"),
    (lambda d: d["classes"]["omega"]["P0"][0].update(exp=[0, 0, 0]),
     "E_SCHEMA at class omega at P0: exp length 3 != 2"),
    (lambda d: d["classes"]["omega"].update(P0=5),
     "E_SCHEMA at class omega at P0: not a JSON list"),
    (lambda d: d.update(classes=[]), "E_SCHEMA at classes: not a JSON object"),
])
def test_malformed_document_is_one_schema_violation(tmp_path, capsys, mutate,
                                                   line):
    # each of these used to print a traceback in validate, or a different
    # or missing violation; the loader now names the problem once
    path = _mutated_proj2(tmp_path, mutate)
    assert run(["validate", path], capsys) == (2, line + "\n", "")
    assert run(["character", path, "--xi", "1,2"], capsys) == \
        (2, "", line + "\n")


def test_duplicate_vertex_is_violation(tmp_path, capsys):
    path = _mutated_proj2(tmp_path, lambda d: d["vertices"].append("P0"))
    line = "E_VERTEX at P0: listed 2 times\n"
    assert run(["validate", path], capsys) == (2, line, "")
    assert run(["reduce", path, "--xi", "1,2", "--c", "1/2"], capsys) == \
        (2, "", line)


def test_empty_vertex_set_is_violation(tmp_path, capsys):
    path = _write_doc(tmp_path, {"n": 2, "vertices": [], "edges": []})
    line = "E_VERTEX at vertices: empty vertex set\n"
    assert run(["validate", path], capsys) == (2, line, "")
    assert run(["character", path, "--xi", "1,2"], capsys) == (2, "", line)


def test_class_value_on_unknown_vertex_is_violation(tmp_path, capsys):
    path = _mutated_proj2(tmp_path, lambda d: d["classes"]["omega"].update(
        P9=[{"coeff": 1, "exp": [0, 0]}]))
    line = "E_COMPAT at class omega at P9: unknown vertex\n"
    assert run(["validate", path], capsys) == (2, line, "")
    assert run(["character", path, "--xi", "1,2"], capsys) == (2, "", line)


@pytest.mark.parametrize("mutate, graph, classes", [
    (lambda d: d["classes"]["omega"].update(
        P9=[{"coeff": 1, "exp": [0, 0]}]),
     [], ["E_COMPAT at class omega at P9: unknown vertex"]),
    (lambda d: d["classes"]["omega"]["P0"][0].update(exp=[0, 0, 0]),
     [], ["E_SCHEMA at class omega at P0: exp length 3 != 2"]),
    (lambda d: d.update(classes={"c": 5}),
     [], ["E_SCHEMA at class c: not a JSON object"]),
    (lambda d: d["classes"]["omega"]["P1"][0].update(exp=[0, 0]),
     [], ["class omega: E_COMPAT at edge P1->P2: vertex values are not "
          "congruent modulo the edge weight"]),
    (lambda d: d["edges"][0].update(alpha=[1.7, 0]),
     ["E_SCHEMA at edge#0: alpha is not a JSON integer"], []),
])
def test_validate_json_splits_violations_by_stage(tmp_path, capsys, mutate,
                                                  graph, classes):
    # a class the loader refuses is listed with the class violations, as
    # one that fails validate_class is
    path = _mutated_proj2(tmp_path, mutate)
    code, out, err = run(["validate", path, "--output", "json"], capsys)
    assert (code, err) == (2, "")
    assert json.loads(out) == {"graph_violations": graph,
                               "class_violations": classes}


def _json_paths(node, prefix=()):
    """The path to every value inside a JSON document."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_documents_keep_the_exit_code_contract(tmp_path_factory,
                                                       data):
    # replace or delete one value anywhere in a shipped document: every
    # subcommand answers 0, 1 or 2, and no exception leaves main
    name = data.draw(st.sampled_from(sorted(os.listdir(DATA))))
    with open(os.path.join(DATA, name)) as fh:
        doc = json.load(fh)
    # a direction of the document's own dimension, generic on every shipped
    # graph, so that a document the mutation leaves valid is computed on
    xi = ",".join(str(i) for i in range(1, doc["n"] + 1))
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(
            [None, True, 1.5, -1, 0, "x", [], [1, "a"], {}, {"a": [1]}])))
    target = tmp_path_factory.mktemp("fuzz") / "doc.json"
    target.write_text(json.dumps(doc))
    for argv in (["validate"], ["character", "--xi", xi],
                 ["reduce", "--xi", xi, "--c", "1/2"],
                 ["qr-check", "--xi", xi]):
        assert main(argv[:1] + [str(target)] + argv[1:]) in (0, 1, 2), argv


def _subcommands(path):
    """Every subcommand with --output json on a shipped document, with a
    direction generic on every shipped graph."""
    with open(path) as fh:
        n = json.load(fh)["n"]
    xi = "--xi=" + ",".join(str(i) for i in range(1, n + 1))
    alpha = "--alpha=" + ",".join(["0"] * n)
    return [["validate", path], ["character", path, xi],
            ["multiplicity", path, xi, alpha],
            ["reduce", path, xi, "--c", "1/3"], ["residue", path, xi],
            ["qr-check", path, xi]]


def test_json_output_is_json_dumps_byte_for_byte(capsys):
    runs = [argv for name in sorted(os.listdir(DATA))
            for argv in _subcommands(os.path.join(DATA, name))]
    runs.append(["selftest", "--seed", "3"])
    written = set()
    for argv in runs:
        code, out, _ = run(argv + ["--output", "json"], capsys)
        if out:
            written.add(argv[0])
            assert out == json.dumps(json.loads(out), indent=2,
                                     sort_keys=True) + "\n", argv
    # some runs fail on purpose (bad.json, qr-check where zero is
    # critical), but every subcommand writes JSON on some document
    assert written == {argv[0] for argv in runs}


json_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_payloads)
def test_json_text_is_json_dumps_byte_for_byte(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2,
                                                 sort_keys=True)


@st.composite
def laurent_polys(draw):
    n = draw(st.integers(1, 4))
    big = st.integers(-10**30, 10**30)
    exps = st.tuples(*[st.integers(-3, 3) | big] * n)
    coeffs = st.integers(-5, 5).filter(bool) | big.filter(bool)
    return LaurentPoly(n, draw(st.dictionaries(exps, coeffs, max_size=5)))


def _list_form(value):
    """value with each LaurentPoly replaced by its list of terms."""
    if isinstance(value, LaurentPoly):
        return [{"coeff": c, "exp": list(e)}
                for e, c in sorted(value.terms.items())]
    if isinstance(value, dict):
        return {k: _list_form(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_list_form(v) for v in value]
    return value


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    laurent_polys() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8))
def test_json_text_writes_a_polynomial_as_its_list_of_terms(payload):
    assert cli._json_text(payload) == json.dumps(_list_form(payload),
                                                 indent=2, sort_keys=True)


def _huge_coefficient_doc(tmp_path):
    """cp1.json with a class c whose values each sum two terms of
    9 * 10^4299 into one coefficient of 4301 digits, one more than the
    interpreter prints by default."""
    with open(CP1) as fh:
        doc = json.load(fh)
    term = {"coeff": 9 * 10**4299, "exp": [0, 0]}
    doc["classes"] = {"c": {"p": [term, term], "q": [term, term]}}
    return _write_doc(tmp_path, doc)


@pytest.mark.parametrize("argv", [
    ["character", "--xi=1,1"], ["character", "--xi=1,1", "--output", "json"],
    ["reduce", "--xi=1,1", "--c=1/2"],
    ["reduce", "--xi=1,1", "--c=1/2", "--output", "json"]])
def test_an_answer_too_long_to_print_is_a_usage_error(tmp_path, capsys,
                                                      argv):
    path = _huge_coefficient_doc(tmp_path)
    code, out, err = run([argv[0], path, *argv[1:], "--class", "c"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: the output holds an integer of more than "
                   f"{cli._int_digit_limit()} digits\n")


def test_json_output_renders_no_text(monkeypatch, capsys):
    def refuse(p):
        raise AssertionError("text rendered for --output json")

    monkeypatch.setattr(cli, "render_poly", refuse)
    for argv in _subcommands(CP1)[1:]:
        code, out, _ = run(argv + ["--output", "json"], capsys)
        assert code == 0 and out, argv


def _source_env():
    """The environment with this checkout's package directory on the
    path, for running `python -m gkmchar` with nothing installed."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


def test_module_entry_point_runs_the_cli(capsys):
    # a source checkout runs the CLI with the package directory on the path
    # and nothing installed
    proc = subprocess.run([sys.executable, "-m", "gkmchar", "selftest",
                           "--seed", "42"], env=_source_env(),
                          capture_output=True, timeout=120)
    code, out, _ = run(["selftest", "--seed", "42"], capsys)
    assert (proc.returncode, code) == (0, 0)
    assert proc.stdout == out.encode()


@pytest.mark.parametrize("argv", [
    ["selftest", "--output", "json"],
    ["character", PROJ2, "--xi=1,2", "--output", "json"],
])
def test_closed_stdout_exits_1_silently(argv):
    # the child's stdout is a pipe whose read end is closed before the
    # child starts, so its first write fails whatever the timing, as
    # under `gkmchar ... | head -c 0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "gkmchar", *argv],
                              env=_source_env(), stdout=write_end,
                              stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def _deep_nesting(depth=100_000):
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("argv", [["validate"], ["character", "--xi=1,2"]])
@pytest.mark.parametrize("where", ["document", "class value"])
def test_deeply_nested_document_is_usage_error(tmp_path, capsys, argv,
                                               where):
    # the JSON decoder gives up on deep nesting with RecursionError; the
    # file is unparsable like any other, not a traceback
    if where == "document":
        text = _deep_nesting()
    else:
        with open(PROJ2) as fh:
            doc = json.load(fh)
        doc["classes"]["omega"]["P0"] = "deep"
        text = json.dumps(doc).replace('"deep"', _deep_nesting())
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(argv[:1] + [str(path)] + argv[1:], capsys)
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert err.startswith(f"error: cannot parse {path}: ")
    assert len(err.splitlines()) == 1
