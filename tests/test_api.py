import os
import subprocess
import sys
import types
from pathlib import Path

import hypersat

# Every public name of the package, so that adding or removing an export
# shows up in the diff of this list.
PUBLIC_NAMES = [
    "Assignment", "Clause", "CurveSeries", "DimacsError", "EvalReport",
    "ExclusionReport", "Expansion", "Formula", "GuardrailError", "HypernodalGraph",
    "HypothesisError", "InteractionMatrix", "Literal", "SubClauseSpace",
    "Thresholds", "TwoSatResult", "assignment_satisfies_2sat",
    "build_hypernodal", "build_space", "check_consistent", "consumption_rate",
    "emit_dimacs", "evaluate", "excluded_literals", "expand_literal", "expansion_to_dot",
    "expansion_to_json", "export_dot", "family_to_dot", "find_contradictions", "formula",
    "generate_greedy", "generate_heuristic",
    "interaction_matrix", "literal_str", "make_clause", "make_literal", "merge_active",
    "negate", "parse_dimacs", "parse_literal", "random_assignment", "random_formula",
    "reduce_to_2sat", "solve_2sat", "solve_exhaustive", "space_census", "subclause_count",
    "subclause_total", "thresholds", "unsolved_curve", "var_of", "verify_corollary1",
    "verify_theorem",
]


def test_public_names_are_pinned():
    # Submodules are attributes only once imported, so they are left out.
    names = sorted(name for name, value in vars(hypersat).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_importing_the_cli_loads_no_dataclasses_inspect_statistics_or_csv():
    # dataclasses' decorators and inspect were a third of a command's start-up;
    # statistics (with fractions and decimal) and csv serve no benchmarked
    # command. -S keeps site hooks out of the import graph; PYTHONPATH names
    # this copy.
    env = dict(os.environ, PYTHONPATH=str(Path(hypersat.__file__).parents[1]))
    code = ("import sys, hypersat.cli; print(sorted({'dataclasses', 'inspect', 'statistics', "
            "'fractions', 'decimal', 'csv'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"
