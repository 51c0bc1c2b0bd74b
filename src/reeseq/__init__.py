"""Equivalence procedures for finite Rees matrix semigroups.

The package decides term and polynomial equivalence, identically-zero and
satisfiability questions over combinatorial Rees matrix semigroups (fast
paths for totally balanced and bordered structure matrices, exhaustive
oracles everywhere), builds the graph encodings behind those procedures,
generates coloring-hardness instances, and presents rank-1 matrix semigroups
over prime fields in Rees form.
"""

from .core import (Element, ONE, ReesSemigroup, StructureMatrix, ZERO,
                   combinatorial, element_str, format_matrix_file, is_regular,
                   load_matrix, matrix, pair, parse_matrix_file,
                   quotient_element, transpose_element, triple)
from .decide import (Verdict, brute_eq, brute_group_eq, brute_sat, brute_zero,
                     brute_zset, brute_zset_eq, classify_matrix, p_matchable,
                     pol_eq, pol_sat, pol_zero, pol_zset_eq, term_eq,
                     term_eq_group, term_eq_s1, term_profile, value_vector)
from .errors import (BudgetExceededError, EmptyWordError, GroupTableError,
                     InvalidElementError, IrregularMatrixError,
                     MissingAssignmentError, ParseError, ReesError,
                     UnsupportedMatrixError, WitnessSearchError)
from .graphs import (antichain, antichain_table, build_adjacency,
                     build_bipartite, build_identified, component_of,
                     component_sequencing, components, factor_variable_sets,
                     is_consistent, to_dot)
from .groups import (FiniteGroup, cyclic_group, finite_group, group_from_name,
                     trivial_group, units_group)
from .matrices import (RetractionPlan, all_ones, border, direct_sum,
                       hat_transform, hollow, identity, is_all_ones,
                       is_bordered, is_totally_balanced, permute, retract)
from .words import (Evaluation, Polynomial, Symbol, const, eliminate_variable,
                    evaluate, instance_size, left_sequencing, parse_polynomial,
                    permute_polynomial, poly, polynomial_str,
                    right_sequencing, substitute, substitute_elements,
                    transpose_polynomial, var, word_of)

__version__ = "0.1.0"
