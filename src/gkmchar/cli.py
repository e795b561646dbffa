"""Batch command-line front end.

Subcommands: validate, character, multiplicity, reduce, residue, qr-check,
selftest.  Graph input is the JSON format of the graphs module; all numeric
output is exact (integers, rationals as strings) and byte-deterministic
given input, flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .lattice import NotPrimitive, dot, is_primitive
from .laurent import LaurentPoly, render_poly
from .graphs import ValidationError, Violation, action_violations, \
    load_graph_file, symplectic_class, validate_class
from .characters import InternalDivisionFailure, NotGeneric, \
    TruncationOverflow, character_expand, character_oracle, \
    localization_terms, multiplicity, polarize
from .residues import res_T
from .reduction import NotRegular, ZeroNotRegular, chi_reduced, moment_map, \
    qr_check
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


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"not a rational number: {text!r}")


def _load(args):
    try:
        return load_graph_file(args.input)
    except ValidationError:
        raise
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
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
        if dot(action.axial[e.eid], xi) == 0:
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
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args):
    import json as _json
    try:
        with open(args.input) as fh:
            doc = _json.load(fh)
    except (OSError, _json.JSONDecodeError) as exc:
        raise CliError(f"cannot parse {args.input}: {exc}")
    violations = _shape_violations(doc)
    if not violations:
        n = int(doc.get("n", 0))
        vertices = [str(v) for v in doc.get("vertices", [])]
        pairs = [(str(e["from"]), str(e["to"]),
                  tuple(int(x) for x in e["alpha"]), None)
                 for e in doc.get("edges", [])]
        violations = action_violations(n, vertices, pairs)
    class_viols = []
    if not violations:
        action, classes = load_graph_file(args.input)
        from .graphs import class_violations as _cv
        for name, values in classes.items():
            for v in _cv(action, values):
                class_viols.append((name, v))
    payload = {
        "graph_violations": [str(v) for v in violations],
        "class_violations": [f"class {name}: {v}" for name, v in class_viols],
    }
    lines = []
    for v in violations:
        lines.append(str(v))
    for name, v in class_viols:
        lines.append(f"class {name}: {v}")
    if not violations and not class_viols:
        lines.append("OK  graph and classes valid")
    _emit(args, payload, lines)
    return EXIT_OK if not violations and not class_viols else EXIT_VIOLATION


def _shape_violations(doc):
    """Problems that stop the document from being read at all: a top level
    that is not an object, vertices or edges that are not a list, or an
    edge without from, to or alpha, or whose alpha is not a list."""
    if not isinstance(doc, dict):
        return [Violation("E_SCHEMA", "document", "not a JSON object")]
    out = [Violation("E_SCHEMA", key, "not a JSON list")
           for key in ("vertices", "edges")
           if not isinstance(doc.get(key, []), list)]
    if out:
        return out
    for idx, e in enumerate(doc.get("edges", [])):
        missing = [k for k in ("from", "to", "alpha")
                   if not isinstance(e, dict) or k not in e]
        if missing:
            out.append(Violation("E_SCHEMA", f"edge#{idx}",
                                 "missing " + ", ".join(missing)))
        elif not isinstance(e["alpha"], list):
            out.append(Violation("E_SCHEMA", f"edge#{idx}",
                                 "alpha is not a JSON list"))
    return out


def cmd_character(args):
    action, classes = _load(args)
    name, kclass = _pick_class(action, classes, args.class_name)
    xi = _require_xi(args, action)
    chi = character_expand(kclass, polarize(action, xi)).poly
    check = character_oracle(kclass)
    if chi != check:
        raise CliError("internal cross-check failed: expansion != division "
                       "route", EXIT_VIOLATION)
    _emit(args, {"class": name, "character": _poly_payload(chi)},
          [render_poly(chi)])
    return EXIT_OK


def cmd_multiplicity(args):
    action, classes = _load(args)
    name, kclass = _pick_class(action, classes, args.class_name)
    sym = _symplectic_from_class(action, kclass.values, name)
    xi = _require_xi(args, action)
    alpha = _parse_vec(args.alpha, action.n)
    m = multiplicity(sym, polarize(action, xi), alpha)
    _emit(args, {"class": name, "alpha": list(alpha), "multiplicity": m},
          [f"multiplicity of x^({','.join(map(str, alpha))}) = {m}"])
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
                 "reduced_character": _poly_payload(red)},
          [f"phi: " + ", ".join(f"{v}={mm.phi[v]}" for v in action.vertices),
           f"chi_red at c={c}: {render_poly(red)}"])
    return EXIT_OK


def cmd_residue(args):
    action, classes = _load(args)
    name, kclass = _pick_class(action, classes, args.class_name)
    xi = _require_xi(args, action)
    terms = localization_terms(kclass)
    per_vertex = {v: res_T(terms[v], xi).total for v in action.vertices}
    total = LaurentPoly.zero(action.n)
    for p in per_vertex.values():
        total = total + p
    payload = {"class": name,
               "per_vertex": {v: _poly_payload(p)
                              for v, p in per_vertex.items()},
               "total": _poly_payload(total)}
    lines = [f"{v}: {render_poly(p)}" for v, p in per_vertex.items()]
    lines.append(f"total: {render_poly(total)}")
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
               "invariant_part": _poly_payload(res.invariant_part),
               "reduced": _poly_payload(res.reduced)}
    _emit(args, payload,
          [f"{status}  chi_red = {render_poly(res.reduced)}"]
          + ([] if res.ok else
             [f"invariant part = {render_poly(res.invariant_part)}"]))
    return EXIT_OK if res.ok else EXIT_VIOLATION


def cmd_selftest(args):
    results = run_selftest(args.seed, corrupt=args.inject_corruption)
    payload = {"seed": args.seed,
               "results": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                           for r in results]}
    _emit(args, payload, [r.line() for r in results])
    return EXIT_OK if all(r.ok for r in results) else EXIT_VIOLATION


def _poly_payload(p: LaurentPoly):
    return [{"coeff": c, "exp": list(e)} for e, c in sorted(p.terms.items())]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gkmchar",
        description="Exact characters, multiplicities and reductions for "
                    "torus actions on labeled graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_input=True, **extra):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("input", help="graph JSON file")
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate)

    p = add("character", cmd_character)
    p.add_argument("--xi", required=True, help="integer vector, e.g. 1,0")
    p.add_argument("--class", dest="class_name")

    p = add("multiplicity", cmd_multiplicity)
    p.add_argument("--xi", required=True)
    p.add_argument("--alpha", required=True, help="weight, e.g. 0,1")
    p.add_argument("--class", dest="class_name")

    p = add("reduce", cmd_reduce)
    p.add_argument("--xi", required=True)
    p.add_argument("--c", dest="level", required=True,
                   help="regular level, e.g. 1/2")
    p.add_argument("--class", dest="class_name")

    p = add("residue", cmd_residue)
    p.add_argument("--xi", required=True)
    p.add_argument("--class", dest="class_name")

    p = add("qr-check", cmd_qr_check)
    p.add_argument("--xi", required=True)
    p.add_argument("--class", dest="class_name")

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
    except (NotPrimitive, NotGeneric, NotRegular, ZeroNotRegular,
            TruncationOverflow, InternalDivisionFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
