import argparse
import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersat import (build_space, cli, emit_dimacs, experiments, hypernodal, literal_str,
                      negate, parse_dimacs, parse_literal, random_formula, reduce_to_2sat,
                      verify)
from hypersat.assignments import MIN_CREATE_MAX_SOLVE_READING
from hypersat.dimacs import literal_to_dimacs
from hypersat.formula import GuardrailError
from hypersat.reduction import provenance
from hypersat.cli import (EXIT_FALSIFIED, EXIT_GUARDRAIL, EXIT_OK, EXIT_PARSE, EXIT_USAGE,
                          main)

from conftest import dimacs_texts
from dotcheck import check_dot


def run(capsys, *argv):
    """Exit code, stdout and stderr of one command."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_stdout_is_json_only(capsys):
    code, out, err = run(capsys, "verify", "--suite", "census", "--instances", "5")
    assert code == EXIT_OK
    [report] = json.loads(out)
    assert report["suite"] == "census" and report["checks"] == 5
    assert err.startswith("suite census: 5 checks")


def test_gen_refuses_other_widths(capsys, tmp_path):
    code, out, err = run(capsys, "gen", "--n", "6", "--k", "4", "--out-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert out == "" and err == "error: unrecognized arguments: --k 4\n"
    assert list(tmp_path.iterdir()) == []


# A ratio that is negative or not finite, a negative count of files or
# instances, and numbers that int() or float() reads but the CLI does not
# ("1_0", ARABIC-INDIC DIGIT SIX and "nan") in every kind of number an option
# holds; none of them may write a file or print more than one error line.
OUT_OF_RANGE = [
    ("gen", "--n", "5", "--r", "-1"),
    ("gen", "--n", "5", "--r", "inf"),
    ("gen", "--n", "5", "--count", "-1"),
    ("analyze", "--gen", "5,inf,1"),
    ("analyze", "--gen", "5,1e308,1"),
    ("verify", "--r", "-1"),
    ("verify", "--r", "inf"),
    ("verify", "--instances", "-3"),
    ("experiment", "--r", "inf"),
    ("experiment", "--count", "-1"),
    ("experiment", "--curve", "--instances", "-2"),
    ("export", "--gen", "5,4.25,1", "--expand", "x0", "--depth", "-1"),
    ("gen", "--n", "5", "--r", "-1", "--out-dir", "new"),
] + [argv for value in ("1_0", "\u0666", "nan") for argv in [
    ("gen", "--n", value),
    ("gen", "--n", "5", "--r", value),
    ("gen", "--n", "5", "--count", value),
    ("verify", "--seed", value),
    ("experiment", "--count", value),
    ("export", "--gen", "5,4.25,1", "--expand", "x0", "--depth", value),
    ("analyze", "--gen", f"{value},4.25,1"),
    ("analyze", "--gen", f"8,{value},1"),
    ("analyze", "--gen", f"8,4.25,{value}"),
    ("verify", "--n-range", f"{value}..8"),
    ("verify", "--n-range", f"6..{value}"),
]]


@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=[" ".join(argv) for argv in OUT_OF_RANGE])
def test_out_of_range_numbers_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_gen_analyze_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--n", "6", "--count", "2", "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    files = json.loads(out)["files"]
    assert len(files) == 2
    for path in files:
        code, out, _ = run(capsys, "analyze", path)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["input"] == path and report["n"] == 6


def test_assign_metadata_uses_reading_constant(capsys):
    code, out, _ = run(capsys, "assign", "--gen", "8,4.25,1", "--heuristic", "minCreateMaxSolve")
    assert code == EXIT_OK
    assert json.loads(out)["metadata"] == {"minCreateMaxSolve_reading":
                                           MIN_CREATE_MAX_SOLVE_READING}


def test_export_assignment_stdout_is_dot(capsys):
    assignment = "x0,x1,-x2,x3,x4,x5,-x6,x7"
    code, out, err = run(capsys, "export", "--gen", "30,4.25,2", "--assignment", assignment)
    assert code == EXIT_OK
    check_dot(out)
    assert out.startswith("digraph merged {")
    lines = err.splitlines()
    assert lines[0] == "merged graph consistent: False"
    assert lines[1].startswith("escaped implications: ")
    assert "SCC conflicts: " in lines[1] and "witness paths: " in lines[1]
    assert lines[2].startswith("first witness path: ")
    path = [parse_literal(x) for x in lines[2].removeprefix("first witness path: ").split(" -> ")]
    a = {parse_literal(x) for x in assignment.split(",")}
    assert len(path) >= 2 and path[0] in a and negate(path[-1]) in a


def test_export_consistent_assignment_has_no_witness(capsys, f3, tmp_path):
    path = tmp_path / "f3.cnf"
    path.write_text(emit_dimacs(f3))
    code, out, err = run(capsys, "export", str(path), "--assignment=-x0,-x1,x2")
    assert code == EXIT_OK
    check_dot(out)
    assert err.splitlines() == [
        "merged graph consistent: True",
        "escaped implications: 0, SCC conflicts: 0, witness paths: 0"]


def test_export_partial_assignment_with_forced_literals_is_consistent(capsys):
    # Two edges leave {-x0, x2}; each only forces its head, and no witness
    # path or SCC conflict refutes the assignment.
    code, out, err = run(capsys, "export", "--gen", "30,4.25,2", "--assignment=-x0,x2")
    assert code == EXIT_OK
    check_dot(out)
    assert err.splitlines() == [
        "merged graph consistent: True",
        "escaped implications: 2, SCC conflicts: 0, witness paths: 0"]


def test_export_assignment_builds_the_merged_graph_once(capsys, monkeypatch):
    # The DOT and the contradiction report read one merged graph.
    calls = []
    adjacency = hypernodal.implication_adjacency

    def counted(n, pairs):
        calls.append(n)
        return adjacency(n, pairs)

    monkeypatch.setattr(hypernodal, "implication_adjacency", counted)
    code, out, err = run(capsys, "export", "--gen", "30,4.25,2",
                         "--assignment", "x0,x1,-x2,x3,x4,x5,-x6,x7")
    assert code == EXIT_OK and calls == [30]
    assert digest(out) == "6b70a6e1c8dfbc47"
    assert err.splitlines() == [
        "merged graph consistent: False",
        "escaped implications: 10, SCC conflicts: 14, witness paths: 5",
        "first witness path: x0 -> x11 -> -x0"]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# stdout of fixed commands, pinned so that refactors keep it byte-identical.
PINNED_STDOUT = [
    (("verify", "--instances", "50", "--n-range", "6..16", "--seed", "3"), "4a535884c3ed98b4"),
    (("export", "--gen", "30,4.25,2"), "402aef1cd0441854"),
    (("export", "--gen", "30,4.25,2", "--assignment", "x0,x1,-x2,x3,x4,x5,-x6,x7"),
     "6b70a6e1c8dfbc47"),
    (("experiment", "--count", "5"), "c23cf7ab3cc51666"),
    (("analyze", "--gen", "30,4.25,2"), "1ca1f5899c3fb3cf"),
    (("assign", "--gen", "200,2.5,3", "--heuristic", "greedyDynamic", "--tie-break", "true"),
     "3d4b8628285c8ba2"),
    (("assign", "--gen", "200,2.5,3", "--heuristic", "greedyDynamic", "--tie-break", "false"),
     "621c43b71cda37fe"),
    (("reduce", "--gen", "200,4.25,1"), "3e1d35483fb9cfd1"),
    (("export", "--gen", "30,4.25,2", "--expand", "-x0"), "d48236fdafd83d37"),
    (("export", "--gen", "30,4.25,2", "--expand", "-x0", "--dot"), "0639f75bfac3f970"),
    (("experiment", "--curve", "--instances", "3"), "f44ca83c4ba4a72e"),
    (("verify",), "a867a33ffb3db046"),
    # n > 21 takes random_formula's rejection branch (SAMPLE_POOL_MAX).
    (("verify", "--n-range", "6..24", "--instances", "200", "--seed", "9"), "3663a472ce610fba"),
    (("experiment", "--count", "3", "--with-curves"), "19a38b52bb892681"),
] + [  # the other deterministic generators, both tie-breaks, same instance
    (("assign", "--gen", "200,2.5,3", "--heuristic", heuristic, "--tie-break", tie_break),
     expected) for heuristic, tie_break, expected in [
    ("minCreate", "true", "0c60e52059538411"),
    ("minCreate", "false", "b26efd341d6c5c7c"),
    ("minCreateMaxSolve", "true", "e468c64d67b575f9"),
    ("minCreateMaxSolve", "false", "bd69b3ae6b6c57bb"),
    ("maxSolve", "true", "3ca3706a87cb02b9"),
    ("maxSolve", "false", "5de57d32cd643302"),
    ("maxCreate", "true", "c49a2a55fc3b2d39"),
    ("maxCreate", "false", "b986592e41565e93"),
    ("greedy", "true", "2cc898e66d06f23e"),
    ("greedy", "false", "37f548b351b64769"),
]]


@pytest.mark.parametrize("argv,expected", PINNED_STDOUT,
                         ids=[" ".join(argv) for argv, _ in PINNED_STDOUT])
def test_pinned_stdout(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert digest(out) == expected


# Files whose path stdout echoes, so the file is pinned rather than stdout.
# A string pins the one CSV written; a dict maps each suffix --out-base adds
# to the digest of that file.
PINNED_FILES = [
    (("analyze", "--gen", "30,4.25,2", "--matrix"), "e510c5324eccbb5a"),
    (("assign", "--gen", "200,2.5,3", "--heuristic", "greedyDynamic", "--tie-break", "true",
      "--curve-csv"), "6378d667c4364c6c"),
    (("assign", "--gen", "200,2.5,3", "--heuristic", "greedyDynamic", "--tie-break", "false",
      "--curve-csv"), "bb7d462b670ebfc8"),
    (("experiment", "--count", "3", "--out-base"), "c996935e8e9d9120"),
    (("experiment", "--curve", "--instances", "3", "--out-base"), "9760e65b7a8f0de2"),
    (("reduce", "--gen", "30,4.25,2", "--out-base"),
     {".provenance.json": "9ad6c5e623c81722", ".cnf": "28e0edc9779b77e4"}),
    (("reduce", "--gen", "200,4.25,1", "--out-base"),
     {".provenance.json": "8df212b985d833b6", ".cnf": "f1136b3b2e56a060"}),
]


@pytest.mark.parametrize("argv,expected", PINNED_FILES,
                         ids=[" ".join(argv) for argv, _ in PINNED_FILES])
def test_pinned_file(capsys, tmp_path, argv, expected):
    # --out-base takes the path without its suffix; the other options take out.csv.
    base = tmp_path / "out"
    if isinstance(expected, str):
        expected = {".csv": expected}
    target = base if argv[-1] == "--out-base" else base.with_suffix(".csv")
    code, _, _ = run(capsys, *argv, str(target))
    assert code == EXIT_OK
    assert {suffix: digest((tmp_path / f"out{suffix}").read_text())
            for suffix in expected} == expected


def test_reduce_out_base_reads_back(capsys, tmp_path):
    base = tmp_path / "reduced"
    code, out, _ = run(capsys, "reduce", "--gen", "30,4.25,2", "--out-base", str(base))
    assert code == EXIT_OK
    payload = json.loads(out)
    cnf, sidecar = tmp_path / "reduced.cnf", tmp_path / "reduced.provenance.json"
    assert payload["files"] == [str(cnf), str(sidecar)]
    f = random_formula(30, 4.25, 2)
    space = build_space(f)
    a = frozenset(parse_literal(x) for x in payload["assignment"])
    t = reduce_to_2sat(space, f, a)
    assert parse_dimacs(cnf.read_bytes(), width=2) == t
    assert payload["clauses"] == t.m > 0

    # Entry i of the sidecar is line i of the CNF body.
    lines = [line.removesuffix(" 0") for line in cnf.read_text().splitlines()
             if line and line[0] not in "cp"]
    entries = json.loads(sidecar.read_text())
    assert [entry["clause"] for entry in entries] == lines
    assert lines == [" ".join(str(literal_to_dimacs(x)) for x in pair) for pair in t.clauses]
    assert [entry["events"] for entry in entries] == [
        [{"creator": literal_str(creator), "parent_clause": parent}
         for creator, parent in pair_events]
        for pair_events in provenance(space, a).values()]


def test_reduce_sidecar_clauses_are_the_cnf_lines_of_a_large_instance(capsys, tmp_path):
    # Both files render through one table; every literal sign and a
    # four-digit variable occur at n = 2000.
    base = tmp_path / "reduced"
    code, _, _ = run(capsys, "reduce", "--gen", "2000,4.25,1", "--out-base", str(base))
    assert code == EXIT_OK
    lines = (tmp_path / "reduced.cnf").read_text().splitlines()
    assert lines[:2] == ["c 2-sat reduction", f"p cnf 2000 {len(lines) - 2}"]
    entries = json.loads((tmp_path / "reduced.provenance.json").read_text())
    assert [entry["clause"] + " 0" for entry in entries] == lines[2:]
    assert len(entries) > 1000


# Commands whose --out takes the place of stdout.
OUT_COMMANDS = [
    ("analyze", "--gen", "30,4.25,2"),
    ("assign", "--gen", "200,2.5,3", "--heuristic", "greedyDynamic"),
    ("export", "--gen", "30,4.25,2"),
    ("export", "--gen", "30,4.25,2", "--expand", "-x0"),
]


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=[" ".join(argv) for argv in OUT_COMMANDS])
def test_out_file_holds_what_stdout_would(capsys, tmp_path, argv):
    code, expected, _ = run(capsys, *argv)
    assert code == EXIT_OK and expected
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == EXIT_OK
    assert out == ""
    assert path.read_text() == expected


@pytest.mark.parametrize("command", ["analyze", "reduce", "export"])
@pytest.mark.parametrize("value", ["-x0,x1", "-1,2"])
def test_assignment_may_start_with_a_negative_literal(capsys, command, value):
    base = (command, "--gen", "8,4.25,1")
    code, separate, _ = run(capsys, *base, "--assignment", value)
    assert code == EXIT_OK
    code, joined, _ = run(capsys, *base, f"--assignment={value}")
    assert code == EXIT_OK
    assert separate == joined
    if command != "export":
        payload = json.loads(separate)
        literals = payload["assignment"] if command == "reduce" else payload["assignment"]["literals"]
        assert literals == ["-x0", "x1"]


def test_expand_rejects_a_literal_out_of_range(capsys):
    code, out, err = run(capsys, "export", "--gen", "8,4.25,1", "--expand", "x8")
    assert code == EXIT_USAGE
    assert out == "" and "x8 out of range" in err


@pytest.mark.parametrize("extra", [[], ["--assignment", "x1"]], ids=["family", "merged"])
def test_dot_needs_expand(capsys, extra):
    code, out, err = run(capsys, "export", "--gen", "8,4.25,1", "--dot", *extra)
    assert code == EXIT_USAGE
    assert out == "" and "--dot" in err and "--expand" in err


def test_analyze_lists_every_copy_of_a_repeated_clause(capsys, tmp_path):
    # Clause 2 repeats clause 0: (x1 v x2) is created by -x0 in clauses 0 and
    # 2 and by x0 in clause 1.
    path = tmp_path / "repeated.cnf"
    path.write_text("p cnf 3 3\n1 2 3 0\n-1 2 3 0\n1 2 3 0\n")
    matrix = tmp_path / "matrix.csv"
    code, out, err = run(capsys, "analyze", str(path), "--matrix", str(matrix))
    assert code == EXIT_OK
    assert err == f"warning: {path} line 4: duplicate clause\n"
    subclauses = {tuple(entry["literals"]): entry for entry in json.loads(out)["subclauses"]}
    assert subclauses["x1", "x2"]["creators"] == ["-x0", "x0"]
    assert subclauses["x1", "x2"]["parents"] == [0, 1, 2]
    assert subclauses["x0", "x1"]["creators"] == ["-x2"]
    assert subclauses["x0", "x1"]["parents"] == [0, 2]
    header, *rows = [line.split(",") for line in matrix.read_text().splitlines()]
    cells = {subclause: dict(zip(header[1:], row[1:]))
             for subclause, row in zip(subclauses, rows)}
    assert cells["x1", "x2"] == {"-x0": "c", "x0": "c", "-x1": "x2", "x1": "s",
                                 "-x2": "x1", "x2": "s"}
    assert cells["x0", "x1"] == {"-x0": "x1", "x0": "s", "-x1": "x0", "x1": "s",
                                 "-x2": "c", "x2": ""}


def test_expand_refuses_an_assignment(capsys):
    for value in ("x1", ""):   # an empty --assignment is the empty assignment
        code, out, err = run(capsys, "export", "--gen", "8,4.25,1", "--expand", "x0",
                             "--assignment", value)
        assert code == EXIT_USAGE
        assert out == "" and "--expand" in err and "--assignment" in err


@pytest.mark.parametrize("option,value", [("--assign", "-x0,x1"), ("--expand", "-x0"),
                                          ("--exp", "-x0")])
def test_literal_option_or_abbreviation_may_take_a_negative_literal(capsys, option, value):
    base = ("export", "--gen", "8,4.25,1")
    code, separate, _ = run(capsys, *base, option, value)
    assert code == EXIT_OK
    code, joined, _ = run(capsys, *base, f"{option}={value}")
    assert code == EXIT_OK
    assert separate == joined
    if option != "--assign":
        assert json.loads(separate)["root"] == "-x0"


def test_experiment_leaves_unset_sizes_to_each_experiment(capsys, monkeypatch):
    calls = {}

    def fake(name, result):
        def run_experiment(**kwargs):
            calls[name] = kwargs
            return result
        return run_experiment

    monkeypatch.setattr(experiments, "run_fraction_experiment",
                        fake("fraction", experiments.ExperimentSummary(n=0, r=0.0)))
    monkeypatch.setattr(experiments, "run_curve_experiment",
                        fake("curve", experiments.CurveExperiment(n=0, r=0.0, method="")))
    assert run(capsys, "experiment", "--curve", "--instances", "3")[0] == EXIT_OK
    assert run(capsys, "experiment", "--count", "2")[0] == EXIT_OK
    assert "n" not in calls["curve"] and "r" not in calls["curve"]
    assert "n" not in calls["fraction"] and "r" not in calls["fraction"]
    assert run(capsys, "experiment", "--curve", "--n", "40", "--r", "2")[0] == EXIT_OK
    assert (calls["curve"]["n"], calls["curve"]["r"]) == (40, 2.0)


def test_fraction_experiment_holds_one_instance_at_a_time():
    # Each instance's formula and space are released before the next is
    # drawn, so the traced peak does not grow with the count.
    def peak(count):
        tracemalloc.start()
        try:
            experiments.run_fraction_experiment(
                500, count=count, generators=("minCreateMaxSolve", "greedy", "random"),
                seed=0, tie_break="true", with_curves=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(1)
    assert peak(5) <= 1.2 * one


def nearest_float_to_sqrt(q: Fraction) -> float:
    """The float nearest to sqrt(q), ties to even, found by comparing q,
    exactly, with the squares of the midpoints between x and its neighbouring
    floats. Ties happen: the stdev of two values is half their difference."""
    half_scale = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    x = math.ldexp(math.sqrt(q / 4 ** half_scale), half_scale)   # within a few ulps
    odd = lambda y: int(y / math.ulp(y)) & 1   # the last bit of y's significand
    while True:
        below, above = math.nextafter(x, 0), math.nextafter(x, math.inf)
        low, high = (((Fraction(x) + Fraction(y)) / 2) ** 2 for y in (below, above))
        if x > 0 and (q < low or q == low and odd(x)):
            x = below
        elif q > high or q == high and odd(x):
            x = above
        else:
            return x


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(
    st.lists(st.floats(min_value=0, max_value=1e300), min_size=2, max_size=40),
    st.lists(st.builds(lambda k, m: k / m, st.integers(0, 1000), st.integers(1, 1000)),
             min_size=2, max_size=40),
    st.lists(st.integers(0, 10**12), min_size=2, max_size=40)))
def test_summary_mean_and_pstdev_are_exact(values):
    summary = experiments.ExperimentSummary(n=0, r=0.0)
    summary.records = [experiments.InstanceRecord(i, 0, "g", x, 0, 0, 0, 0)
                       for i, x in enumerate(values)]
    payload = summary.to_json_dict()
    exact = [Fraction(x) for x in values]
    mean = sum(exact) / len(exact)
    variance = sum((x - mean) ** 2 for x in exact) / len(exact)
    assert payload["stdevs"]["g"] == nearest_float_to_sqrt(variance)
    assert payload["means"]["g"] == statistics.fmean(values)
    if sys.version_info >= (3, 11):   # 3.10's pstdev rounds twice
        assert payload["stdevs"]["g"] == statistics.pstdev(values)


def test_build_parser_reads_the_terminal_width_once(monkeypatch):
    calls = []
    terminal_size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *args: calls.append(args) or terminal_size(*args))
    helps = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        calls.clear()
        parser = cli.build_parser()
        commands = next(action.choices for action in parser._actions
                        if isinstance(action.choices, dict))
        parsers = [parser, *commands.values()]
        assert len(parsers) == 8
        helps[columns] = [p.format_help() for p in parsers]
        assert len(calls) <= 1
        # argparse's own formatter, which reads the width each time, writes the same help.
        for p in parsers:
            p.formatter_class = argparse.HelpFormatter
        assert [p.format_help() for p in parsers] == helps[columns]
    assert helps["40"] != helps["200"]


def test_malformed_dimacs_exits_3(capsys, tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 3 1\n1 2 x 0\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == EXIT_PARSE
    assert out == "" and "non-integer token" in err


def test_non_ascii_dimacs_exits_3_with_its_line(capsys, tmp_path):
    path = tmp_path / "bad.cnf"
    # Lines are numbered as bytes.splitlines splits them, at "\r" too.
    path.write_bytes(b"c a comment\rp cnf 3 1\n\xff1 2 3 0\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == EXIT_PARSE
    assert out == "" and err == "error: line 3: non-ASCII byte 0xff\n"


# Ranges no suite can draw from: empty, or below the three variables of a
# width-3 clause.
BAD_N_RANGES = [
    ("verify", "--n-range", "12..6"),
    ("verify", "--suite", "2sat-oracle", "--n-range", "1..1"),
    ("verify", "--suite", "census", "--n-range", "2..6"),
    ("verify", "--n-range", "6"),
]


@pytest.mark.parametrize("argv", BAD_N_RANGES, ids=[" ".join(argv) for argv in BAD_N_RANGES])
def test_bad_n_range_exits_2_before_any_suite(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: --n-range expects 'lo..hi'")


# A few bytes that name more variables than any command accepts: a DIMACS
# header, --gen and gen --n.
HUGE = [
    ("analyze", "HUGE"),
    ("reduce", "HUGE"),
    ("analyze", "--gen", "30000000,0,1"),
    ("assign", "--gen", "30000000,0,1", "--heuristic", "greedy"),
    ("export", "--gen", "30000000,0,1", "--expand", "x0"),
    ("gen", "--n", "30000000", "--r", "0"),
]


@pytest.mark.parametrize("argv", HUGE, ids=[" ".join(argv) for argv in HUGE])
def test_huge_variable_count_exits_4_fast(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    huge = tmp_path / "huge.cnf"
    huge.write_text("p cnf 30000000 1\n1 2 3 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, *[str(huge) if arg == "HUGE" else arg for arg in argv])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_GUARDRAIL
    assert out == "" and err == (f"error: commands are limited to n <= {cli.INPUT_MAX_VARS} "
                                 "variables, got n = 30000000\n")
    assert list(tmp_path.iterdir()) == [huge]


def test_the_variable_cap_admits_its_own_size():
    cli.check_vars(cli.INPUT_MAX_VARS)
    with pytest.raises(GuardrailError):
        cli.check_vars(cli.INPUT_MAX_VARS + 1)


@pytest.mark.parametrize("suite", ["census", "merge", "sandwich", "all"])
def test_verify_refuses_n_past_the_experiment_cap_before_any_suite(capsys, monkeypatch, suite):
    # The non-oracle suites have no cap of their own: two census instances at
    # n = 100,000 took seconds each.
    ran = []
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name,
                            lambda report, instance: ran.append((report, instance)))
    code, out, err = run(capsys, "verify", "--suite", suite,
                         "--n-range", f"6..{experiments.EXPERIMENT_MAX_VARS + 1}")
    assert code == EXIT_GUARDRAIL and ran == []
    assert out == "" and err == (f"error: verify is capped at n <= "
                                 f"{experiments.EXPERIMENT_MAX_VARS}, got --n-range "
                                 f"6..{experiments.EXPERIMENT_MAX_VARS + 1}\n")


def test_verify_admits_the_experiment_cap(capsys):
    cap = experiments.EXPERIMENT_MAX_VARS
    code, _, err = run(capsys, "verify", "--suite", "census", "--instances", "1",
                       "--n-range", f"{cap}..{cap}")
    assert code == EXIT_OK and err.endswith("[ok]\n")


# Inputs past a size guardrail: the oracle cap (n <= 26) and the experiment
# cap (n <= 2000).
GUARDED = [
    ("verify", "--n-range", "6..27"),
    ("experiment", "--n", "2001"),
    ("experiment", "--curve", "--n", "2001"),
]


@pytest.mark.parametrize("argv", GUARDED, ids=[" ".join(argv) for argv in GUARDED])
def test_guardrails_exit_4_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_GUARDRAIL
    assert out == "" and err.startswith("error: ")


def check_expansion_output(out, fmt, n):
    if fmt:
        check_dot(out)
    else:
        payload = json.loads(out)
        assert len(payload["levels"]) <= 2 * n


@pytest.mark.parametrize("fmt", [[], ["--dot"]], ids=["json", "dot"])
def test_deep_narrow_expansion_never_crashes(capsys, tmp_path, fmt):
    # Its tree grows by three nodes per level, for ever; its graph is one cycle.
    path = tmp_path / "deep.cnf"
    path.write_text("p cnf 4 2\n-1 2 3 0\n-2 1 4 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "export", str(path), "--expand", "x0", "--depth", "2000", *fmt)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK and err == ""
    check_expansion_output(out, fmt, 4)


# Expansions whose trees would be far too large to build: 58,661,689 nodes at
# depth 7 on n = 100; at n = 2000 the depth bound is never reached.
LARGE_EXPANSIONS = [
    ("--gen", "100,4.25,1", "--expand", "x0", "--depth", "7"),
    ("--gen", "2000,4.25,1", "--expand", "x0", "--depth", "1000000000"),
]


@pytest.mark.parametrize("fmt", [[], ["--dot"]], ids=["json", "dot"])
@pytest.mark.parametrize("argv", LARGE_EXPANSIONS,
                         ids=[" ".join(argv) for argv in LARGE_EXPANSIONS])
def test_large_expansion_exits_0_fast(capsys, monkeypatch, argv, fmt):
    # Times the expansion and its rendering, from the call of expand_literal
    # to that of emit, not the generation and scan of the instance.
    marks = []

    def timed(function):
        def call(*args):
            # CPU time of this process, which other processes cannot inflate.
            marks.append(time.process_time())
            return function(*args)
        return call

    monkeypatch.setattr(cli, "expand_literal", timed(cli.expand_literal))
    monkeypatch.setattr(cli, "emit", timed(cli.emit))
    code, out, err = run(capsys, "export", *argv, *fmt)
    start, end = marks
    assert end - start < 1.0
    assert code == EXIT_OK and err == ""
    check_expansion_output(out, fmt, int(argv[1].split(",")[0]))


def test_matrix_guardrail_leaves_no_file(capsys, tmp_path):
    # n = 1000 has 12,711 sub-clauses: 25.4M cells, over the 10^7 cap.
    path = tmp_path / "matrix.csv"
    code, out, err = run(capsys, "analyze", "--gen", "1000,4.25,1", "--matrix", str(path))
    assert code == EXIT_GUARDRAIL
    assert out == "" and "interaction matrix" in err
    assert list(tmp_path.iterdir()) == []


def test_a_suite_without_checks_is_vacuous_and_exits_0(capsys):
    # n = 3 at r = 0.1 has no clause, so every assignment satisfies it and
    # corollary1 resamples all 50 draws per wanted assignment.
    code, out, err = run(capsys, "verify", "--suite", "corollary1", "--n-range", "3..3",
                         "--r", "0.1", "--instances", "3")
    assert code == EXIT_OK
    assert err == ("suite corollary1: 0 checks over 3 instances, 0 falsifications, "
                   "0 skipped [vacuous]\n")
    assert json.loads(out) == [{"checks": 0, "details": {"satisfying_assignments_resampled": 1500},
                                "falsifications": 0, "instances": 3, "skipped": 0,
                                "suite": "corollary1"}]


def test_a_refused_draw_prints_no_summary_line(capsys):
    # At n = 3 and r = 3 there are fewer distinct clauses than m = 9. Seed 3
    # first draws n = 3 in the merge stream, after the other suites' streams
    # ran clean; every summary line waits for all of them.
    code, out, err = run(capsys, "verify", "--n-range", "3..6", "--r", "3", "--instances", "4",
                         "--seed", "3")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: cannot draw 9 distinct width-3 clauses over 3 variables (only 8 exist)\n"


STORED = {"n", "clauses", "pairs", "created_by"}
# Each command with the fields its spaces end with: what build_space stores,
# and solved_count where a heuristic reads it. verify builds one space per
# instance of its two width-3 streams.
SPACE_READERS = [
    (("analyze", "--gen", "40,4.25,1", "--assignment", "x0,-x1", "--matrix", "m.csv"), STORED),
    (("assign", "--gen", "40,4.25,1", "--heuristic", "greedyDynamic", "--curve-csv", "c.csv"),
     STORED),
    (("assign", "--gen", "40,4.25,1", "--heuristic", "maxSolve"), STORED | {"solved_count"}),
    (("reduce", "--gen", "40,4.25,1", "--out-base", "reduced"), STORED),
    (("export", "--gen", "40,4.25,1", "--assignment", "x0,-x1"), STORED),
    (("verify", "--instances", "1"), STORED),
]


@pytest.mark.parametrize("argv,fields", SPACE_READERS,
                         ids=[argv[0] + argv[-2] for argv, _ in SPACE_READERS])
def test_commands_leave_the_space_its_stored_fields(capsys, tmp_path, monkeypatch, argv, fields):
    # The space derives no table but solved_count, and that one only for a
    # heuristic that scores solved sub-clauses.
    monkeypatch.chdir(tmp_path)
    spaces = []

    def recorded(f):
        spaces.append(build_space(f))
        return spaces[-1]

    for module in (cli, verify, experiments):
        monkeypatch.setattr(module, "build_space", recorded)
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert len(spaces) == (2 if argv[0] == "verify" else 1)
    assert all(set(vars(space)) == fields for space in spaces)


def test_falsified_suite_exits_6(capsys, monkeypatch):
    def falsified(report, instance):
        report.checks = report.falsifications = 1

    monkeypatch.setitem(verify.SUITES, "census", falsified)
    code, out, err = run(capsys, "verify", "--suite", "census", "--instances", "3")
    assert code == EXIT_FALSIFIED
    [report] = json.loads(out)
    assert report["falsifications"] == 1 and "[FALSIFIED]" in err


@pytest.mark.parametrize("option,value", [("--assignment", "1_0"), ("--assignment", "\u0661"),
                                          ("--expand", "x\u0661"), ("--assignment", "1\u00a02"),
                                          ("--expand", "x0\u2028")])
def test_a_literal_whose_number_is_not_dimacs_exits_2(capsys, option, value):
    # int() reads "1_0" as 10 and ARABIC-INDIC DIGIT ONE as 1, and str.split
    # and str.strip take a no-break space and LINE SEPARATOR for separators;
    # DIMACS does none of these.
    command = "export" if option == "--expand" else "analyze"
    code, out, err = run(capsys, command, "--gen", "8,4.25,1", option, value)
    assert code == EXIT_USAGE
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_an_empty_assignment_is_the_empty_assignment(capsys):
    base = ("reduce", "--gen", "8,4.25,1")
    code, empty, _ = run(capsys, *base, "--assignment", "")
    assert code == EXIT_OK
    assert json.loads(empty)["assignment"] == []
    assert run(capsys, *base, "--assignment", " , ") == (EXIT_OK, empty, "")


def test_curve_refuses_a_ratio_that_draws_every_clause(capsys, monkeypatch):
    # At n = 3 the default r = 2.5 asks for m = 8 clauses, every width-3
    # clause over three variables: an unsatisfiable formula at every seed.
    draws = []
    monkeypatch.setattr(experiments, "random_formula", lambda *args, **kwargs: draws.append(args))
    code, out, err = run(capsys, "experiment", "--curve", "--n", "3")
    assert code == EXIT_USAGE
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert draws == []


@pytest.mark.parametrize("value,literals", [("x3", ["x3"]), ("-x3", ["-x3"]), ("+3", ["x2"]),
                                            ("007", ["x6"]), ("-4", ["-x3"]),
                                            ("+1,007", ["x0", "x6"])])
def test_assignment_reads_literals_and_dimacs_numbers(capsys, value, literals):
    code, out, _ = run(capsys, "analyze", "--gen", "8,4.25,1", "--assignment", value)
    assert code == EXIT_OK
    assert json.loads(out)["assignment"]["literals"] == literals


# --assignment and --expand values: literals, DIMACS numbers, numbers int()
# reads but DIMACS does not, 0, an inconsistent pair and a variable past every
# drawn n (at most 7).
LITERAL_POOL = ("x0", "-x1", "x0,-x1", "1,-2", "+1,007", "1_0", "\u0661", "x\u0661", "0",
                "x0,-x0", "x99")
# The lines export --assignment prints on stderr besides errors and warnings.
EXPORT_SUMMARY = ("merged graph consistent: ", "escaped implications: ", "first witness path: ")


@st.composite
def command_lines(draw):
    """A command and its options, to follow with a DIMACS input path."""
    value = draw(st.sampled_from(LITERAL_POOL))
    return draw(st.sampled_from([
        ["analyze"], ["assign", "--heuristic", "minCreate"], ["reduce"], ["export"],
        ["export", "--assignment", value], ["export", "--expand", value],
        ["export", "--expand", value, "--dot"]]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=dimacs_texts().filter(lambda case: case[1] == 3), argv=command_lines())
def test_cli_contract_on_generated_input(tmp_path_factory, case, argv):
    # The exit code is one the cli docstring names; stdout is empty unless the
    # command succeeds, and then it is JSON or DOT; stderr has only error and
    # warning lines and export's summary. The commands read width-3 clauses.
    text, _ = case
    path = tmp_path_factory.mktemp("fuzz") / "input.cnf"
    path.write_bytes(text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_GUARDRAIL, EXIT_FALSIFIED)
    if code != EXIT_OK:
        assert out == ""
    elif argv[0] == "export" and ("--expand" not in argv or "--dot" in argv):
        check_dot(out)
    else:
        json.loads(out)
    for line in err.splitlines():
        assert line.startswith(("error: ", "warning: ") + EXPORT_SUMMARY)


# Each pool is (usual values, edge values drawn one time in eight). The edge
# values are mostly refusals: negative, zero, "1_0", ARABIC-INDIC DIGIT SIX,
# NaN, a float past every count, empty and malformed. Sizes add HUGE_N, a
# variable count over INPUT_MAX_VARS; counts never do.
NOT_INTEGERS = ("1_0", "\u0666", "nan", "1e308", "", "abc")
HUGE_N = "30000000"
SIZES = (("3", "8"), ("-1", "0", HUGE_N) + NOT_INTEGERS)
DEPTHS = (("0", "2", HUGE_N), ("-1",) + NOT_INTEGERS)
# At most 30. At n = 3, r = 2.5 asks for all eight clauses, which --curve
# refuses before it draws.
EXPERIMENT_SIZES = (("3", "8", "30"), ("-1", "0") + NOT_INTEGERS)
SEEDS = (("1", "0", "-3", "007"), NOT_INTEGERS)
COUNTS = (("0", "1", "2"), ("-1",) + NOT_INTEGERS)
RATIOS = (("4.25", ".5", "2", "0"),
          ("-1", "inf", "1_0.5", "\u0664.\u0662\u0665") + NOT_INTEGERS)
N_RANGES = (("6..8", "3..3", "3..6"),
            ("12..6", "6", "-1..8", "\u0666..\u0668", "6..1_0", f"6..{HUGE_N}", "6..nan", ""))
LITERALS = (("x0", "-x1", "x0,-x1", "1,-2", "+1,007", "1\t2", "x0, -x1"),
            ("1_0", "\u0661", "x\u0661", "0", "x0,-x0", "x99", "1\u00a02", "x0\u2028", ""))
HEURISTICS = (experiments.GENERATORS, ("nope",))
TIE_BREAKS = (("true", "false"), ("maybe",))


@st.composite
def argv_lines(draw, directory):
    """A command line for any command, with any of its options; paths name
    files in `directory`, which holds a valid input.cnf."""
    def pick(pool):
        valid, bad = pool
        return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 0 else valid))

    def maybe(option, pool=None):
        if not draw(st.booleans()):
            return []
        return [option] if pool is None else [option, pick(pool)]

    n, r, seed = pick(SIZES), pick(RATIOS), pick(SEEDS)
    inputs = pick(([[str(directory / "input.cnf")], ["--gen", f"{n},{r},{seed}"]],
                   [[str(directory / "missing.cnf")], [], ["--gen", "8,4.25"], ["--gen", ""],
                    [str(directory / "input.cnf"), "--gen", f"{n},{r},{seed}"]]))
    outputs = ([str(directory / name) for name in ("out.txt", "out")], [str(directory)])
    command = draw(st.sampled_from(("gen", "analyze", "assign", "reduce", "verify",
                                    "experiment", "export", "nope", None)))
    if command == "gen":
        return ["gen", "--n", pick(SIZES), *maybe("--r", RATIOS), *maybe("--seed", SEEDS),
                *maybe("--count", COUNTS), "--out-dir", str(directory / "gen")]
    if command == "analyze":
        return ["analyze", *inputs, *maybe("--matrix", outputs),
                *maybe("--assignment", LITERALS), *maybe("--out", outputs)]
    if command == "assign":
        return ["assign", *inputs, "--heuristic", pick(HEURISTICS),
                *maybe("--tie-break", TIE_BREAKS), *maybe("--seed", SEEDS),
                *maybe("--curve-csv", outputs), *maybe("--out", outputs)]
    if command == "reduce":
        return ["reduce", *inputs, *maybe("--assignment", LITERALS),
                *maybe("--heuristic", HEURISTICS), *maybe("--seed", SEEDS),
                *maybe("--out-base", outputs)]
    if command == "verify":
        # --instances is always drawn: bare `verify` runs 500 instances per
        # suite, and test_pinned_stdout covers it.
        return ["verify", *maybe("--suite", (tuple(verify.SUITES) + ("all",), ("nope",))),
                "--instances", pick((("0", "1", "3"), COUNTS[1])),
                *maybe("--n-range", N_RANGES), *maybe("--r", RATIOS), *maybe("--seed", SEEDS)]
    if command == "experiment":
        return ["experiment", "--n", pick(EXPERIMENT_SIZES), *maybe("--r", RATIOS),
                *maybe("--count", COUNTS),
                *maybe("--generators", (("minCreateMaxSolve,greedy,random", "greedy"),
                                        ("nope", ""))),
                *maybe("--tie-break", TIE_BREAKS), *maybe("--seed", SEEDS),
                *maybe("--with-curves"), *maybe("--curve"), *maybe("--instances", COUNTS),
                *maybe("--out-base", outputs)]
    if command == "export":
        return ["export", *inputs, *maybe("--dot"), *maybe("--assignment", LITERALS),
                *maybe("--expand", LITERALS), *maybe("--depth", DEPTHS),
                *maybe("--out", outputs)]
    return [] if command is None else [command]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cli_contract_on_every_command_and_option(tmp_path_factory, f3, data):
    # The contract of test_cli_contract_on_generated_input, over argv: every
    # command, every option and values no option accepts. A verify suite's
    # summary line is the one more stderr line allowed.
    directory = tmp_path_factory.mktemp("argv")
    (directory / "input.cnf").write_text(emit_dimacs(f3))
    argv = data.draw(argv_lines(directory))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_GUARDRAIL, EXIT_FALSIFIED)
    if code != EXIT_OK or "--out" in argv:
        assert out == ""
    elif argv[0] == "export" and ("--expand" not in argv or "--dot" in argv):
        check_dot(out)
    else:
        json.loads(out)
    for line in err.splitlines():
        assert line.startswith(("error: ", "warning: ", "suite ") + EXPORT_SUMMARY)
