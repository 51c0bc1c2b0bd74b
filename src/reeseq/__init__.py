"""Equivalence procedures for finite Rees matrix semigroups.

The package decides term and polynomial equivalence, identically-zero and
satisfiability questions over combinatorial Rees matrix semigroups (fast
paths for totally balanced and bordered structure matrices, exhaustive
oracles everywhere), builds the graph encodings behind those procedures,
generates coloring-hardness instances, and presents rank-1 matrix semigroups
over prime fields in Rees form.

The fields, oracles and reductions modules are imported on first access,
as reeseq.fields, reeseq.oracles and reeseq.reductions: the CLI's verdict
commands use none of them, and every CLI call is a new process that would
otherwise pay for them.  The exhaustive oracles (brute_eq, brute_zero,
brute_sat, brute_zset_eq and value_vector) are served from reeseq.oracles
the same way.
"""

import importlib

from .core import (Element, ONE, ReesSemigroup, StructureMatrix, ZERO,
                   combinatorial, element_str, format_matrix_file, is_regular,
                   load_matrix, matrix, pair, parse_matrix_file,
                   quotient_element, transpose_element, triple)
from .decide import (Verdict, brute_group_eq, classify_matrix, pol_eq,
                     pol_sat, pol_zero, pol_zset_eq, term_eq, term_eq_group,
                     term_eq_s1, term_profile)
from .errors import (BudgetExceededError, EmptyWordError, GroupTableError,
                     InvalidElementError, IrregularMatrixError,
                     MissingAssignmentError, ParseError, ReesError,
                     UnsupportedMatrixError, WitnessSearchError)
from .graphs import (antichain_table, build_adjacency, build_bipartite,
                     build_identified, components, to_dot)
from .groups import (FiniteGroup, cyclic_group, finite_group, group_from_name,
                     trivial_group, units_group)
from .matrices import (RetractionPlan, all_ones, border, direct_sum,
                       hat_transform, hollow, identity, is_all_ones,
                       is_bordered, permute, retract)
from .words import (Evaluation, Polynomial, Symbol, const,
                    eliminate_variables, evaluate, left_sequencing,
                    parse_polynomial, permute_polynomial, poly,
                    polynomial_str, right_sequencing, substitute,
                    transpose_polynomial, var, word_of)

__version__ = "0.1.0"

# the names the package serves from reeseq.oracles
_ORACLES = ("brute_eq", "brute_sat", "brute_zero", "brute_zset_eq",
            "value_vector")


def __getattr__(name):
    # PEP 562: called only for a name the package does not bind yet
    if name in ("fields", "oracles", "reductions"):
        return importlib.import_module(f".{name}", __name__)
    if name in _ORACLES:
        return getattr(__getattr__("oracles"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
