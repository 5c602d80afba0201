r"""Command-line surface: instance generation, sub-clause analysis, assignment
generation, 2-SAT reduction, verification suites, batch experiments and
graph and expansion-graph exports.

Exit codes: 0 success, 2 bad usage or parameters, 3 DIMACS parse error (a
non-ASCII byte among them, with its line), 4 size guardrail, 6 claim
falsified. Every exit-2 refusal, argparse's own included, is one `error:`
line. Every integer the CLI reads, a literal's number included, follows
formula._number (an optional sign, then ASCII digits), and every clause
ratio formula._ratio (the same with at most one '.'): "1_0", "nan", "1e308"
and non-ASCII digits exit 2. --assignment splits on commas and on DIMACS's
separator bytes (space, \t, \n, \r, \v, \f) alone; an empty one, like
one of separators only, is the empty assignment.
A verify suite that made no check at all ends its stderr summary line in
[vacuous] instead of [ok]; its JSON and its exit code are those of a passing
suite, so such a run alone exits 0.

`export --assignment`'s "merged graph consistent" means no witness path and
no SCC conflict: the assignment, complete or partial, extends to a solution
of the 2-SAT formula it induces; escaped implications only force literals.

Every command that reads or generates a formula refuses one over more than
INPUT_MAX_VARS (100,000) variables with exit 4, before allocating anything
per variable: a DIMACS header or --gen can name any n in a few bytes.
`verify` refuses an --n-range above EXPERIMENT_MAX_VARS (2000) with exit 4,
before any suite runs.

`reduce --out-base` checks that every sub-clause event is sound (its
sub-clause is its parent clause minus the negation of its creator) before it
writes BASE.cnf or BASE.provenance.json; an unsound event is a falsified
claim: an `error:` line on stderr, exit 6 and neither file written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

from . import experiments, verify
from .assignments import (MIN_CREATE_MAX_SOLVE_READING, TIE_BREAKS, consumption_rate,
                          excluded_literals, subclause_count, subclause_total, thresholds,
                          unsolved_curve)
from .dimacs import DimacsError, clause_texts, emit_dimacs, parse_dimacs
from .formula import (Assignment, Formula, GuardrailError, _number, _ratio, assignment_json,
                      check_consistent, evaluate, literal_str, make_literal, parse_literal,
                      random_formula, var_of)
from .hypernodal import (build_hypernodal, expand_literal, expansion_to_dot, expansion_to_json,
                         export_dot, family_to_dot, merge_active, merged_contradictions)
from .reduction import (UnsoundEventError, assignment_satisfies_2sat, provenance,
                        reduce_to_2sat, solve_2sat)
from .subclauses import build_space, interaction_matrix, literal_columns, space_census

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_GUARDRAIL = 4
EXIT_FALSIFIED = 6

# Variables a command accepts; build_space of an empty formula this size
# takes a fraction of a second.
INPUT_MAX_VARS = 100_000


def write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def emit(args, text: str) -> None:
    if getattr(args, "out", None):
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def check_vars(n: int) -> None:
    if n > INPUT_MAX_VARS:
        raise GuardrailError(f"commands are limited to n <= {INPUT_MAX_VARS} variables, "
                             f"got n = {n}")


def resolve_formula(args) -> tuple[Formula, str]:
    """The formula named by INPUT or --gen, and a label for it; refuses more
    than INPUT_MAX_VARS variables."""
    has_input = getattr(args, "input", None) is not None
    has_gen = getattr(args, "gen", None) is not None
    if has_input == has_gen:
        raise UsageError("exactly one input source required: INPUT path or --gen n,r,seed")
    if has_input:
        with open(args.input, "rb") as handle, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            f = parse_dimacs(handle.read())
        for warning in caught:
            sys.stderr.write(f"warning: {args.input} {warning.message}\n")
        check_vars(f.n)
        return f, args.input
    try:
        n_text, r_text, seed_text = args.gen.split(",")
        n, r, seed = _number(n_text), _ratio(r_text), _number(seed_text)
    except ValueError:
        raise UsageError(f"--gen expects 'n,r,seed', got {args.gen!r}") from None
    check_vars(n)   # before the draw, which is linear in n
    return random_formula(n, r, seed), f"gen(n={n},r={r},seed={seed})"


class UsageError(ValueError):
    pass


def parse_assignment(text: str, n: int) -> Assignment:
    """Accepts 'x0,-x1' style literals or DIMACS-signed integers, separated
    by commas and the bytes that separate DIMACS tokens (bytes.split)."""
    literals = []
    for token in text.replace(",", " ").encode("utf-8", "surrogatepass").split():
        token = token.decode("utf-8", "surrogatepass")
        if token.lstrip("-").startswith("x"):
            literals.append(parse_literal(token))
        else:
            try:
                value = _number(token)
            except ValueError:
                raise UsageError(f"cannot read literal {token!r}") from None
            if value == 0:
                raise UsageError("literal 0 is not valid")
            literals.append(make_literal(abs(value) - 1, negative=value < 0))
    for lit in literals:
        if var_of(lit) >= n:
            raise UsageError(f"literal {literal_str(lit)} out of range for n={n}")
    return check_consistent(literals)


def instance_filename(n: int, r: float, seed: int) -> str:
    r_text = f"{r:g}".replace(".", "p")
    return f"k3_n{n}_r{r_text}_s{seed}.cnf"


def cmd_gen(args) -> int:
    check_vars(args.n)   # every file gen writes must read back
    directory = args.out_dir or "."   # an empty --out-dir is the working directory too
    files = []
    for seed in range(args.seed, args.seed + args.count):
        f = random_formula(args.n, args.r, seed)
        if not files:   # after the first draw, so a refused instance leaves no directory
            os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, instance_filename(args.n, args.r, seed))
        write_atomic(path, emit_dimacs(f, comment=f"n={args.n} r={args.r} seed={seed}"))
        files.append(path)
    sys.stdout.write(dump_json({"files": files}))
    return EXIT_OK


def cmd_analyze(args) -> int:
    f, label = resolve_formula(args)
    report: dict = {"input": label, "n": f.n, "m": f.m, "ratio": f.ratio}
    space = build_space(f)
    occurrences = f.occurrences()
    all_literals = literal_columns(f.n)
    report["satisfied"] = {literal_str(lit): occurrences[lit] for lit in all_literals}
    report["subclauses"] = [
        {"id": sid, "literals": [literal_str(x) for x in pair],
         "creators": sorted({literal_str(creator) for creator, _ in events}),
         "parents": sorted({parent for _, parent in events})}
        for sid, (pair, events) in enumerate(zip(space.pairs, space.events()))]
    report["created"] = {literal_str(lit): sorted(space.created_by[lit])
                         for lit in all_literals}
    # The pairs read as a width-2 formula: its occurrences are the sub-clauses
    # containing each literal, ascending.
    subsat = Formula(f.n, tuple(space.pairs), width=2).occurrences()
    report["subsat"] = {literal_str(lit): subsat[lit] for lit in all_literals}
    th = thresholds(space)
    report["thresholds"] = {"minimum": th.minimum, "maximum": th.maximum}
    if f.n >= 2:
        census = space_census(space)
        report["census"] = {"possible": census.possible, "actual": census.actual,
                            "per_clause_bound": census.per_clause_bound,
                            "ratio": census.ratio}
    else:
        report["census"] = None
    if args.assignment is not None:
        a = parse_assignment(args.assignment, f.n)
        activated = sorted(space.activated(a))
        report["assignment"] = {
            "literals": assignment_json(a),
            "activated": activated,
            "subclause_count": subclause_count(space, a),
            "subclause_total": subclause_total(space, a),
            "fraction_satisfied": evaluate(f, a).fraction,
        }
    if args.matrix:
        write_atomic(args.matrix, interaction_matrix(space).to_csv())
        report["matrix_csv"] = args.matrix
    emit(args, dump_json(report))
    return EXIT_OK


def cmd_assign(args) -> int:
    f, label = resolve_formula(args)
    space = build_space(f)
    a = experiments.generate_assignment(args.heuristic, f, space,
                                        seed=args.seed, tie_break=args.tie_break)
    report = evaluate(f, a)
    payload: dict = {
        "input": label,
        "heuristic": args.heuristic,
        "tie_break": args.tie_break,
        "metadata": {"minCreateMaxSolve_reading": MIN_CREATE_MAX_SOLVE_READING},
        "assignment": assignment_json(a),
        "fraction_satisfied": report.fraction,
        "unsatisfied_clauses": list(report.unsatisfied_ids),
        "subclause_count": subclause_count(space, a),
        "subclause_total": subclause_total(space, a),
        "consumption_rate": consumption_rate(space, a) if a else None,
    }
    curve = unsolved_curve(space, a, sorted(a, key=var_of))
    payload["inflection"] = curve.inflection
    if args.curve_csv:
        write_atomic(args.curve_csv, curve.to_csv())
        payload["curve_csv"] = args.curve_csv
    if report.unsatisfied_ids:
        exclusion = excluded_literals(space, a)
        payload["exclusion"] = {
            "unsolved_subclauses": sorted(exclusion.unsolved),
            "excluded": assignment_json(exclusion.excluded),
            "allowed": assignment_json(exclusion.allowed),
        }
    emit(args, dump_json(payload))
    return EXIT_OK


def cmd_reduce(args) -> int:
    f, label = resolve_formula(args)
    space = build_space(f)
    if args.assignment is not None:
        a = parse_assignment(args.assignment, f.n)
    else:
        a = experiments.generate_assignment(args.heuristic, f, space, seed=args.seed)
    t = reduce_to_2sat(space, f, a)
    verdict = solve_2sat(t)
    violated = assignment_satisfies_2sat(t, a)
    payload = {
        "input": label,
        "assignment": assignment_json(a),
        "clauses": t.m,
        "satisfiable": verdict.satisfiable,
        "witness_variable": verdict.witness_variable,
        "assignment_satisfies": not violated,
        "violated": [[literal_str(x) for x in pair] for pair in violated],
    }
    if args.out_base:
        # Derived before either file is written, so a falsified claim leaves none.
        try:
            events = provenance(space, a)
        except UnsoundEventError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_FALSIFIED
        cnf_path = args.out_base + ".cnf"
        write_atomic(cnf_path, emit_dimacs(t, comment="2-sat reduction"))
        # One entry per line of BASE.cnf, in its order and rendered as it is.
        sidecar = [
            {"clause": text,
             "events": [{"creator": literal_str(creator), "parent_clause": parent}
                        for creator, parent in pair_events]}
            for text, pair_events in zip(clause_texts(list(events)), events.values())]
        sidecar_path = args.out_base + ".provenance.json"
        write_atomic(sidecar_path, dump_json(sidecar))
        payload["files"] = [cnf_path, sidecar_path]
    sys.stdout.write(dump_json(payload))
    return EXIT_OK


def parse_range(text: str) -> tuple[int, int]:
    """--n-range's 'lo..hi', with 3 <= lo <= hi: every width-3 suite draws n
    from lo..hi, and 2sat-oracle from 2..min(hi, 12)."""
    try:
        lo, hi = map(_number, text.split(".."))
    except ValueError:
        raise UsageError(f"--n-range expects 'lo..hi', got {text!r}") from None
    if not 3 <= lo <= hi:
        raise UsageError(f"--n-range expects 'lo..hi' with 3 <= lo <= hi, got {text!r}")
    return lo, hi


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    n_range = parse_range(args.n_range)
    if n_range[1] > experiments.EXPERIMENT_MAX_VARS:
        raise GuardrailError(f"verify is capped at n <= {experiments.EXPERIMENT_MAX_VARS}, "
                             f"got --n-range {args.n_range}")
    reports = verify.run_suites(names, args.instances, n_range, args.r, args.seed)
    for report in reports:
        print(report.summary_line(), file=sys.stderr)
    sys.stdout.write(dump_json([rep.to_json_dict() for rep in reports]))
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_FALSIFIED


def cmd_experiment(args) -> int:
    # --n and --r are passed only when given, so each experiment keeps its own defaults.
    sizes = {key: getattr(args, key) for key in ("n", "r") if getattr(args, key) is not None}
    if args.curve:
        result = experiments.run_curve_experiment(
            **sizes, instances=args.instances, seed=args.seed)
    else:
        result = experiments.run_fraction_experiment(
            **sizes, count=args.count, generators=tuple(args.generators.split(",")),
            seed=args.seed, tie_break=args.tie_break, with_curves=args.with_curves)
    payload = result.to_json_dict()
    if args.out_base:
        json_path = args.out_base + ".json"
        csv_path = args.out_base + ".csv"
        write_atomic(json_path, dump_json(payload))
        write_atomic(csv_path, result.to_csv())
        payload["files"] = [json_path, csv_path]
    sys.stdout.write(dump_json(payload))
    return EXIT_OK


def cmd_export(args) -> int:
    if args.dot and args.expand is None:
        raise UsageError("--dot needs --expand: the other exports are always DOT")
    f, _ = resolve_formula(args)
    space = build_space(f)
    if args.expand is not None:
        lit = parse_literal(args.expand)
        if var_of(lit) >= f.n:
            raise UsageError(f"--expand {literal_str(lit)} out of range for n={f.n}")
        if args.assignment is not None:
            raise UsageError("--expand and --assignment cannot be combined")
        expansion = expand_literal(space, lit, args.depth)
        text = expansion_to_dot(expansion) if args.dot else dump_json(expansion_to_json(expansion))
        emit(args, text)
        return EXIT_OK
    hg = build_hypernodal(space)
    if args.assignment is not None:
        a = parse_assignment(args.assignment, f.n)
        merged = merge_active(hg, a)
        text = export_dot(merged)
        report = merged_contradictions(merged, a)
        sys.stderr.write(f"merged graph consistent: {report.consistent}\n"
                         f"escaped implications: {len(report.escaped_implications)}, "
                         f"SCC conflicts: {len(report.scc_conflicts)}, "
                         f"witness paths: {len(report.witness_paths)}\n")
        if report.witness_paths:
            path = " -> ".join(literal_str(lit) for lit in report.witness_paths[0])
            sys.stderr.write(f"first witness path: {path}\n")
    else:
        text = family_to_dot(hg)
    emit(args, text)
    return EXIT_OK


# argparse names a value its type= reader refuses by the reader's __name__:
# "argument --n: invalid integer value: 'abc'".
def integer(text: str) -> int:
    return _number(text)


def ratio(text: str) -> float:
    return _ratio(text)


def count(text: str) -> int:
    """A number of files, instances or levels: _number's rule, and >= 0."""
    value = _number(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a refusal raises UsageError, for main to print
    as one `error:` line; its subparsers are of this class too."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    # argparse reads the terminal's width for every formatter it makes, one per
    # add_argument; every formatter here gets argparse's default width, read once.
    import shutil   # here, as argparse imports it: the CLI's import stays lighter
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(
        prog="hypersat",
        description="3-SAT sub-clause decomposition, thresholds, 2-SAT reductions "
                    "and hypernodal implication graphs.",
        formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=functools.partial(_Parser, formatter_class=formatter))

    p = sub.add_parser("gen", help="generate random DIMACS instances")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--r", type=ratio, default=4.25)
    p.add_argument("--seed", type=integer, default=1)
    p.add_argument("--count", type=count, default=1, help="files for seeds seed..seed+count-1")
    p.add_argument("--out-dir", default=".", help="default: .")
    p.set_defaults(func=cmd_gen)

    def add_input(p):
        p.add_argument("input", nargs="?", default=None, help="DIMACS CNF path")
        p.add_argument("--gen", default=None, metavar="N,R,SEED",
                       help="generate the instance instead of reading a file")

    p = sub.add_parser("analyze", help="sub-clause space report (optionally matrix CSV)")
    add_input(p)
    p.add_argument("--matrix", default=None, metavar="CSV", help="write interaction matrix")
    p.add_argument("--assignment", default=None, help="literals like '-x0,x1' or DIMACS ints")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("assign", help="generate an assignment and evaluate it")
    add_input(p)
    p.add_argument("--heuristic", required=True,
                   choices=experiments.GENERATORS)
    p.add_argument("--tie-break", choices=list(TIE_BREAKS), default="true")
    p.add_argument("--seed", type=integer, default=1, help="seed for --heuristic random")
    p.add_argument("--curve-csv", default=None, help="write the unsolved-sub-clause curve")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("reduce", help="assignment-induced 2-SAT reduction")
    add_input(p)
    p.add_argument("--assignment", default=None)
    p.add_argument("--heuristic", default="minCreate",
                   choices=experiments.GENERATORS)
    p.add_argument("--seed", type=integer, default=1)
    p.add_argument("--out-base", default=None,
                   help="write BASE.cnf and BASE.provenance.json")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="oracle-driven verification suites")
    p.add_argument("--suite", default="all",
                   choices=list(verify.SUITES) + ["all"])
    p.add_argument("--instances", type=count, default=500)
    p.add_argument("--n-range", default="6..12")
    p.add_argument("--r", type=ratio, default=4.25)
    p.add_argument("--seed", type=integer, default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="batch experiments (fractions or curves)")
    p.add_argument("--n", type=integer, default=None, help="default: the chosen experiment's own")
    p.add_argument("--r", type=ratio, default=None, help="default: the chosen experiment's own")
    p.add_argument("--count", type=count, default=100)
    p.add_argument("--generators", default="minCreateMaxSolve,greedy,random")
    p.add_argument("--tie-break", choices=list(TIE_BREAKS), default="true")
    p.add_argument("--seed", type=integer, default=1)
    p.add_argument("--with-curves", action="store_true",
                   help="record the inflection step per record")
    p.add_argument("--curve", action="store_true",
                   help="unsolved-sub-clause curve experiment over satisfiable instances")
    p.add_argument("--instances", type=count, default=120,
                   help="satisfiable instances to accept in --curve mode")
    p.add_argument("--out-base", default=None, help="write BASE.json and BASE.csv")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("export", help="DOT graphs and expansion graphs")
    add_input(p)
    p.add_argument("--dot", action="store_true",
                   help="with --expand: DOT instead of JSON")
    p.add_argument("--assignment", default=None, help="merged graph for this assignment")
    p.add_argument("--expand", default=None, metavar="LIT", help="expansion graph root literal")
    p.add_argument("--depth", type=count, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)
    return parser


LITERAL_OPTIONS = ("--assignment", "--expand")


def join_literal_values(argv: list[str]) -> list[str]:
    """Rewrite `OPTION VALUE` as `OPTION=VALUE` when OPTION is one of
    LITERAL_OPTIONS, or an abbreviation of one, and VALUE starts with a single
    '-'. argparse takes such a value, like '-x0,x1' or '-1,2', for an option
    and rejects it; joined to its option it is read as the value."""
    out: list[str] = []
    for token in argv:
        option = out[-1] if out else ""
        if (token.startswith("-") and not token.startswith("--") and len(option) > 2
                and any(name.startswith(option) for name in LITERAL_OPTIONS)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            join_literal_values(sys.argv[1:] if argv is None else list(argv)))
        return args.func(args)
    except DimacsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GuardrailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARDRAIL
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
