"""The CLI's exit code, stdout and stderr, byte for byte, against
tests/golden/cli.json: every subcommand of `test_cli._subcommands` on
every shipped document but those of CHARACTER_ONLY, which have only their
character runs, in text and in JSON, a few self-test seeds, one
with an injected corruption, the character run the README shows, the two
refusals of a vector option and one of a rational option.

Keys are the argv joined by spaces, with paths relative to the repository
root, where the runs are made.  The file lives outside tests/data/, whose
loops read every .json there as a graph.  After a deliberate change of
output, rewrite it from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

from gkmchar.cli import main
from test_cli import _subcommands

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.json"


# shipped documents pinned by their character runs alone: projective
# 5-space is there for the prime-field cross-check of `gkmchar character`
CHARACTER_ONLY = {"proj5.json"}


def _runs():
    runs = [argv + fmt
            for doc in sorted((ROOT / "tests" / "data").glob("*.json"))
            for argv in _subcommands(f"tests/data/{doc.name}")
            if argv[0] == "character" or doc.name not in CHARACTER_ONLY
            for fmt in ([], ["--output", "json"])]
    runs += [["selftest", "--seed", seed] for seed in ("42", "7", "54")]
    runs.append(["selftest", "--seed", "42", "--inject-corruption"])
    runs.append(["character", "tests/data/cp1.json", "--xi", "1,0"])
    # the two refusals of a vector option, and one of a rational option
    runs += [["character", "tests/data/proj2.json", "--xi=1,a"],
             ["multiplicity", "tests/data/proj2.json", "--xi=1,2",
              "--alpha=0,0,0"],
             ["reduce", "tests/data/proj2.json", "--xi=1,2", "--c=abc"]]
    return runs


def _outputs():
    """{argv joined by spaces: {exit, stdout, stderr}} run in ROOT."""
    got = {}
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in _runs():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            got[" ".join(argv)] = {"exit": code, "stdout": out.getvalue(),
                                   "stderr": err.getvalue()}
    finally:
        os.chdir(cwd)
    return got


def test_cli_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = _outputs()
    assert sorted(got) == sorted(golden)
    for key, want in golden.items():
        assert got[key] == want, key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_outputs(), indent=1, sort_keys=True)
                      + "\n")
