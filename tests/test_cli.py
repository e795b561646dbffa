import json
import os

import pytest

from gkmchar.cli import main
from gkmchar.graphs import gen_projective, graph_to_data

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


def test_truncation_overflow_is_violation_not_traceback(tmp_path, capsys):
    # a steep direction makes the polarized expansion outgrow its term
    # budget; the CLI must report that as one error line, not a traceback
    action, sym = gen_projective(3)
    path = tmp_path / "proj3.json"
    path.write_text(json.dumps(graph_to_data(
        action, {"omega": sym.base.values})))
    code, out, err = run(["character", str(path),
                          "--xi=1,1000,1000000"], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ")
