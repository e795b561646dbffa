"""Batch command-line front end.

Subcommands: validate, character, multiplicity, reduce, residue, qr-check,
selftest.  Graph input is the JSON format of the graphs module; all numeric
output is exact (integers, rationals as strings) and byte-deterministic
given input, flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from fractions import Fraction

from .lattice import NotPrimitive, dot, is_primitive
from .laurent import LaurentPoly, poly_sum, render_poly
from .graphs import ValidationError, class_violations, load_graph_file, \
    symplectic_class, validate_class
from .characters import InternalDivisionFailure, NotGeneric, \
    TruncationOverflow, character_expand, character_oracle, \
    division_numerator_size, localization_identity_test, multiplicity, \
    polarize
from .reduction import CycleError, NotRegular, ZeroNotRegular, chi_reduced, \
    moment_map, qr_check, vertex_residues
from .selftest import run_selftest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _parse_vec(text, n=None):
    try:
        vec = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"not an integer vector: {text!r}")
    if n is not None and len(vec) != n:
        raise CliError(f"vector {text!r} has length {len(vec)}, expected {n}")
    return vec


def _int_digit_limit():
    """The interpreter's limit on the digits of an int converted to or
    from a string, or 4300, its default, where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _parse_rational(text):
    """text as a Fraction whose numerator and denominator print within the
    interpreter's limit on int digits.  A decimal exponent beyond that
    limit is refused before Fraction expands it, which can take minutes."""
    limit = _int_digit_limit()
    exp = re.search(r"e([-+]?\d[\d_]*)\s*\Z", text, re.IGNORECASE)
    try:
        huge = exp is not None and abs(int(exp[1])) > limit
        value = None if huge else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"not a rational number: {text!r}")
    if huge or max(abs(value.numerator), value.denominator) >= 10 ** limit:
        raise CliError(f"rational number {text!r} has more than {limit} "
                       f"digits")
    return value


def _load(args):
    try:
        return load_graph_file(args.input)
    except ValidationError:
        raise
    except (OSError, ValueError, RecursionError) as exc:
        # unreadable, not JSON, or nested deeper than the decoder recurses
        raise CliError(f"cannot parse {args.input}: {exc}")


def _pick_class(action, classes, name):
    if name is None:
        if len(classes) == 1:
            name = next(iter(classes))
        else:
            raise CliError(
                f"--class required; available: {', '.join(sorted(classes)) or 'none'}")
    if name not in classes:
        raise CliError(f"no class named {name!r}; "
                       f"available: {', '.join(sorted(classes)) or 'none'}")
    return name, validate_class(action, classes[name])


def _require_xi(args, action):
    xi = _parse_vec(args.xi, action.n)
    if not is_primitive(xi):
        raise CliError(f"--xi {args.xi} is not primitive; refusing to rescale")
    for e in action.geometric_edges():
        if dot(e.weight, xi) == 0:
            raise CliError(
                f"--xi {args.xi} pairs to zero with edge {e.src}->{e.dst}")
    return xi


def _symplectic_from_class(action, values, name):
    alphas = {}
    for v, p in values.items():
        if len(p.terms) != 1 or next(iter(p.terms.values())) != 1:
            raise CliError(
                f"class {name!r} is not monomial with unit coefficients; "
                "cannot read vertex weights from it")
        alphas[v] = next(iter(p.terms))
    return symplectic_class(action, alphas)


def _emit(args, payload, text_lines):
    """Print payload as JSON, or for text output the lines that
    text_lines(), called only then, returns.  The whole output is rendered
    before any of it is printed, so an int too long to print (see
    _int_digit_limit) leaves stdout empty and raises CliError."""
    try:
        lines = ([_json_text(payload)] if args.output == "json"
                 else text_lines())
    except ValueError:
        raise CliError(f"the output holds an integer of more than "
                       f"{_int_digit_limit()} digits")
    for line in lines:
        print(line)


_ENCODE_STRING = json.encoder.encode_basestring_ascii


def _json_text(value, newline="\n"):
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for
    dicts with string keys, lists, strings, ints, bools and None, where a
    LaurentPoly stands for its list of {"coeff": c, "exp": [...]} terms in
    sorted exponent order.

    With indent set, json.dumps falls back to its pure-Python encoder.
    This writes the same layout, encodes strings with the C encoder and
    writes ints in place.  Bools and None go to json.dumps, whose output
    for a scalar does not depend on indent.
    """
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _ENCODE_STRING(value)
    inner = newline + "  "
    if kind is dict:
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _ENCODE_STRING(k) + ": " + (int.__repr__(v) if type(v) is int
                                        else _json_text(v, inner))
            for k, v in sorted(value.items())]) + newline + "}"
    if kind is list:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            int.__repr__(v) if type(v) is int else _json_text(v, inner)
            for v in value]) + newline + "]"
    if kind is LaurentPoly:
        # one %-template per polynomial, with a %d for the coefficient and
        # for each exponent entry: every polynomial written has dim >= 1
        if not value.terms:
            return "[]"
        key = inner + "  "
        entry = key + "  "
        template = ("{" + key + '"coeff": %d,' + key + '"exp": [' + entry
                    + ("," + entry).join(["%d"] * value.dim) + key + "]"
                    + inner + "}")
        return "[" + inner + ("," + inner).join([
            template % (c, *e) for e, c in sorted(value.terms.items())]) \
            + newline + "]"
    return json.dumps(value)


def cmd_validate(args):
    """Graph violations, then class violations, one line each.  The
    loader's violations name their class themselves; those of
    class_violations are prefixed with the class name."""
    graph, classes_bad = [], []
    try:
        action, classes = _load(args)
    except ValidationError as exc:
        lines = [str(v) for v in exc.violations]
        (classes_bad if exc.stage == "class" else graph).extend(lines)
    else:
        classes_bad = [f"class {name}: {v}" for name, values in classes.items()
                       for v in class_violations(action, values)]
        lines = classes_bad or ["OK  graph and classes valid"]
    _emit(args, {"graph_violations": graph, "class_violations": classes_bad},
          lambda: lines)
    return EXIT_VIOLATION if graph or classes_bad else EXIT_OK


# The cross-check of `character`: the division route while the terms it
# multiplies out (characters.division_numerator_size) number at most
# DIVISION_BUDGET, the identity test in a prime field above it, at a point
# drawn from a fixed seed, so that runs repeat.  Above 32 terms the
# identity test was the faster check on every input of the `characters`
# benchmark; at 32 and below, division was up to twice as fast on some.
DIVISION_BUDGET = 32


def cmd_character(args):
    action, classes = _load(args)
    name, kclass = _pick_class(action, classes, args.class_name)
    xi = _require_xi(args, action)
    chi = character_expand(kclass, polarize(action, xi)).poly
    if division_numerator_size(kclass) <= DIVISION_BUDGET:
        if chi != character_oracle(kclass):
            raise CliError("internal cross-check failed: expansion != "
                           "division route", EXIT_VIOLATION)
    elif not localization_identity_test(kclass, chi, random.Random(0)):
        raise CliError("internal cross-check failed: expansion != "
                       "localization sum at a point mod 2^61 - 1",
                       EXIT_VIOLATION)
    _emit(args, {"class": name, "character": chi},
          lambda: [render_poly(chi)])
    return EXIT_OK


def cmd_multiplicity(args):
    action, classes = _load(args)
    name, kclass = _pick_class(action, classes, args.class_name)
    sym = _symplectic_from_class(action, kclass.values, name)
    xi = _require_xi(args, action)
    alpha = _parse_vec(args.alpha, action.n)
    m = multiplicity(sym, polarize(action, xi), alpha)
    _emit(args, {"class": name, "alpha": list(alpha), "multiplicity": m},
          lambda: [f"multiplicity of x^({','.join(map(str, alpha))}) = {m}"])
    return EXIT_OK


def cmd_reduce(args):
    action, classes = _load(args)
    name, kclass = _pick_class(action, classes, args.class_name)
    xi = _require_xi(args, action)
    c = _parse_rational(args.level)
    mm = moment_map(action, xi)
    red = chi_reduced(kclass, mm, c).value
    _emit(args, {"class": name, "level": str(c),
                 "phi": {v: str(x) for v, x in mm.phi.items()},
                 "reduced_character": red},
          lambda: [
              "phi: " + ", ".join(f"{v}={mm.phi[v]}" for v in action.vertices),
              f"chi_red at c={c}: {render_poly(red)}"])
    return EXIT_OK


def cmd_residue(args):
    action, classes = _load(args)
    name, kclass = _pick_class(action, classes, args.class_name)
    xi = _require_xi(args, action)
    per_vertex = vertex_residues(kclass, xi, action.vertices)
    total = poly_sum(action.n, per_vertex.values())
    payload = {"class": name,
               "per_vertex": per_vertex, "total": total}

    def lines():
        return ([f"{v}: {render_poly(p)}" for v, p in per_vertex.items()]
                + [f"total: {render_poly(total)}"])

    _emit(args, payload, lines)
    return EXIT_OK


def cmd_qr_check(args):
    action, classes = _load(args)
    name, kclass = _pick_class(action, classes, args.class_name)
    sym = _symplectic_from_class(action, kclass.values, name)
    xi = _require_xi(args, action)
    res = qr_check(sym, xi)
    status = "PASS" if res.ok else "FAIL"
    payload = {"class": name, "ok": res.ok,
               "invariant_part": res.invariant_part,
               "reduced": res.reduced}
    _emit(args, payload,
          lambda: [f"{status}  chi_red = {render_poly(res.reduced)}"]
          + ([] if res.ok else
             [f"invariant part = {render_poly(res.invariant_part)}"]))
    return EXIT_OK if res.ok else EXIT_VIOLATION


def cmd_selftest(args):
    results = run_selftest(args.seed, corrupt=args.inject_corruption)
    payload = {"seed": args.seed,
               "results": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                           for r in results]}
    _emit(args, payload, lambda: [r.line() for r in results])
    return EXIT_OK if all(r.ok for r in results) else EXIT_VIOLATION


@functools.cache
def build_parser():
    """The gkmchar argument parser, built once per process: parse_args
    never mutates it, and building it costs more than a small job."""
    parser = argparse.ArgumentParser(
        prog="gkmchar",
        description="Exact characters, multiplicities and reductions for "
                    "torus actions on labeled graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_input=True, xi=False, **extra):
        """The subparser of name: its input, --output and, when it takes a
        direction, --xi, each option of extra in turn and --class."""
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("input", help="graph JSON file")
        p.add_argument("--output", choices=("text", "json"), default="text")
        if xi:
            p.add_argument("--xi", required=True,
                           help="integer vector, e.g. 1,0")
            for flag, kwargs in extra.items():
                p.add_argument(f"--{flag}", required=True, **kwargs)
            p.add_argument("--class", dest="class_name")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate)
    add("character", cmd_character, xi=True)
    add("multiplicity", cmd_multiplicity, xi=True,
        alpha=dict(help="weight, e.g. 0,1"))
    add("reduce", cmd_reduce, xi=True,
        c=dict(dest="level", help="regular level, e.g. 1/2"))
    add("residue", cmd_residue, xi=True)
    add("qr-check", cmd_qr_check, xi=True)

    p = add("selftest", cmd_selftest, needs_input=False)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--inject-corruption", action="store_true",
                   help="corrupt a fixture to exercise the failure path")

    return parser


VECTOR_FLAGS = ("--xi", "--alpha")


def _glue_negative_vectors(argv):
    """Rewrite `--xi -1,0` as `--xi=-1,0`: argparse takes a value that
    starts with a dash for an option and would refuse the spaced form."""
    out = []
    for tok in argv:
        if out and out[-1] in VECTOR_FLAGS and tok[:1] == "-" \
                and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    """Run one subcommand and return its exit code.  A stdout closed before
    the output is written, as by `gkmchar ... | head`, exits 1 with nothing
    on stderr: stdout then points at os.devnull, so the interpreter's last
    flush does not fail a second time."""
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return code


def _run(argv):
    parser = build_parser()
    argv = _glue_negative_vectors(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse insists on exit status 2 for bad usage; remap
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValidationError as exc:
        for v in exc.violations:
            print(str(v), file=sys.stderr)
        return EXIT_VIOLATION
    except (NotPrimitive, NotGeneric, NotRegular, ZeroNotRegular, CycleError,
            TruncationOverflow, InternalDivisionFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
