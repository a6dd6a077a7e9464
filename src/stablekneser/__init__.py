"""Stable Kneser graphs and their equivariant topology, computationally.

Builds the graphs and their dihedral symmetries, enumerates the alternating
oriented matroid, realizes the sphere maps numerically, computes GF(2)
homology of the graph complexes, and runs the Stiefel-Whitney calculus that
classifies each graph as a certified test graph or a non-test graph.
"""

from .charclasses import (ClassificationReport, GradedPoly, classify,
                          poly_invert, restrict, ring_for, total_sw_class,
                          vanishing_windows, wbar)
from .complexes import (FinitePoset, SimplicialComplex,
                        check_equivariance_combinatorial, covector_cells,
                        covector_to_hom, hom_betti, hom_cells, hom_poset,
                        neighbourhood_complex, order_complex, verify_nerve,
                        z2_betti)
from .geometry import (MomentConfig, OrthogonalRep, RealizationError,
                       borsuk_adjacent, eq3_deviations, max_edge_defect,
                       min_vertex_norm, moment_vectors, point_to_vertex,
                       representation, sign_vector_of_point, v_of_set,
                       verify_realization)
from .graphs import (DihedralElement, Graph, automorphism_group_order,
                     chromatic_number, dihedral_act, enumerate_stable_sets,
                     free_action_check, kneser_graph, stable_kneser_graph,
                     vertex_criticality_check, vertex_orbits)
from .matroid import (SignVector, count_covectors, covector_extension_feasible,
                      covector_leq, dihedral_act_sign, enumerate_cocircuits,
                      enumerate_covectors, is_covector, is_vector,
                      minimal_degree, parse_sign_vector, render_sign_vector)

__version__ = "0.1.0"
