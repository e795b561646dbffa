import functools
import json
import os

import pytest

from gkmchar import cli
from gkmchar.characters import character_expand, character_oracle
from gkmchar.cli import main
from gkmchar.graphs import KClass, gen_projective, graph_to_data
from gkmchar.lattice import vscale
from gkmchar.laurent import LaurentPoly, render_poly

DATA = os.path.join(os.path.dirname(__file__), "data")
CP1 = os.path.join(DATA, "cp1.json")
PROJ2 = os.path.join(DATA, "proj2.json")
BAD = os.path.join(DATA, "bad.json")


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


def _validate_doc(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return run(["validate", str(path)], capsys)


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
