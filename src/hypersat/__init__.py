"""hypersat: 3-SAT sub-clause decomposition, thresholds, assignment
heuristics, 2-SAT reductions and hypernodal implication graphs.
"""

from .assignments import (CurveSeries, ExclusionReport, Thresholds, consumption_rate,
                          excluded_literals, generate_greedy, generate_heuristic,
                          random_assignment, subclause_count, subclause_total,
                          thresholds, unsolved_curve)
from .dimacs import DimacsError, emit_dimacs, parse_dimacs
from .formula import (Assignment, Clause, EvalReport, Formula, GuardrailError, Literal,
                      check_consistent, evaluate, formula, literal_str, make_clause,
                      make_literal, negate, parse_literal, random_formula, solve_exhaustive,
                      var_of)
from .hypernodal import (Expansion, HypernodalGraph, build_hypernodal, expand_literal,
                         expansion_to_dot, expansion_to_json, export_dot, family_to_dot,
                         find_contradictions, merge_active)
from .reduction import (HypothesisError, TwoSatResult, assignment_satisfies_2sat,
                        reduce_to_2sat, solve_2sat, verify_corollary1, verify_theorem)
from .subclauses import (InteractionMatrix, SubClauseSpace, build_space,
                         interaction_matrix, space_census)

__version__ = "0.1.0"
