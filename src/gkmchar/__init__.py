"""Exact character, multiplicity and reduction computations for torus
actions on labeled graphs."""

from .lattice import (BasisChange, NotPrimitive, ZeroVector,
                      complete_to_basis, primitive_part, weight_from_basis,
                      weight_in_basis)
from .laurent import (DimMismatch, LaurentPoly, NotDivisible, PoleAtPoint,
                      RationalChar, ZeroWeight, congruent_mod_edge,
                      divide_exact, eval_mod, eval_numeric, render_poly)
from .graphs import (GkmAction, KClass, SymplecticClass, ValidationError,
                     Violation, action_violations, class_violations,
                     constant_class, gen_cp1_in_plane, gen_hirzebruch,
                     gen_product, gen_projective, gen_weyl_orbit,
                     graph_to_data, load_graph_data, load_graph_file,
                     positive_roots, restrict, symplectic_class,
                     validate_action, validate_class)
from .characters import (CharacterResult, HullReport, InternalDivisionFailure,
                         NotGeneric, Polarization, TruncationOverflow,
                         character_expand, character_oracle,
                         division_numerator_size, hull_report, hull_vertices,
                         in_convex_hull, kostant_count,
                         localization_identity_test, localization_terms,
                         multiplicity, polarize)
from .residues import (ResidueValue, ZForm, fiber_average_numeric, res_T,
                       to_z_form)
from .reduction import (CycleError, MomentMap, NotRegular, QrResult,
                        ReducedCharacter, WrongWallCount, ZeroNotRegular,
                        chi_reduced, edge_compat_check, moment_map, qr_check,
                        symplectic_moment_map, vertex_residues,
                        wall_crossing_check)

from .randomgen import (random_class, random_generic_xi,
                        random_pole_free_point, random_restriction,
                        random_ring_element, random_symplectic,
                        random_torus_point, random_vertex_star,
                        random_zero_regular_xi, standard_fixtures)
from .selftest import CheckResult, run_selftest

__version__ = "0.1.0"
