"""Per-vertex residues and wall crossing on the projective plane.

Prints the circle residue of every localized vertex summand, checks that
they cancel in total, then sweeps the reduced character through all
chambers of the moment map and verifies each wall drop against the residue
of the crossed vertex.
"""

from fractions import Fraction

from gkmchar import (LaurentPoly, chi_reduced, gen_projective, render_poly,
                     symplectic_moment_map, vertex_residues,
                     wall_crossing_check)


def main():
    action, sym = gen_projective(2)
    xi = (2, 1)
    f = sym.base

    print(f"xi = {xi}")
    residues = vertex_residues(f, xi, action.vertices)
    for v, r in residues.items():
        print(f"residue at {v}: {render_poly(r)}")
    total = sum(residues.values(), LaurentPoly.zero(action.n))
    print(f"sum over vertices: {render_poly(total)}  (must be 0)")
    print()

    mm = symplectic_moment_map(sym, xi)
    crits = mm.critical_values()
    print("moment map:", {v: str(x) for v, x in mm.phi.items()})
    levels = [crits[0] - 1]
    levels += [(a + b) / 2 for a, b in zip(crits, crits[1:])]
    levels.append(crits[-1] + 1)
    for c in levels:
        red = chi_reduced(f, mm, c).value
        print(f"reduced character at c={c}: {render_poly(red)}")
    print()

    for i in range(len(crits)):
        res = wall_crossing_check(f, mm, levels[i], levels[i + 1])
        status = "ok" if res.ok else "VIOLATED"
        print(f"wall at {res.vertex}: drop {render_poly(res.delta)} "
              f"= vertex residue {render_poly(res.residue)}  ({status})")


if __name__ == "__main__":
    main()
