import hashlib
import json
import time

import pytest

from hypersat import (build_space, emit_dimacs, experiments, literal_str, negate,
                      parse_dimacs, parse_literal, random_formula, reduce_to_2sat, verify)
from hypersat.assignments import MIN_CREATE_MAX_SOLVE_READING
from hypersat.dimacs import literal_to_dimacs
from hypersat.reduction import provenance
from hypersat.cli import (EXIT_FALSIFIED, EXIT_GUARDRAIL, EXIT_OK, EXIT_PARSE, EXIT_USAGE,
                          main)

from dotcheck import check_dot


def run(capsys, *argv):
    """Exit code, stdout and stderr of one command; argparse's usage errors
    raise SystemExit, whose code is the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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
    assert out == "" and "--k 4" in err
    assert list(tmp_path.iterdir()) == []


# A ratio that is negative or not finite, and a negative count of files or
# instances; none of them may write a file or print to stdout.
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
    ("gen", "--n", "5", "--r", "-1", "--out-dir", "new"),
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=[" ".join(argv) for argv in OUT_OF_RANGE])
def test_out_of_range_numbers_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HYPERSAT_OUT", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and err
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
    code, out, err = run(capsys, "export", "--gen", "30,4.25,2", "--dot",
                         "--assignment", assignment)
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


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# stdout of fixed commands, pinned so that refactors keep it byte-identical.
PINNED_STDOUT = [
    (("verify", "--instances", "50", "--n-range", "6..16", "--seed", "3"), "4a535884c3ed98b4"),
    (("export", "--gen", "30,4.25,2", "--dot"), "aaf9ec493c26edf4"),
    (("export", "--gen", "30,4.25,2", "--dot", "--assignment", "x0,x1,-x2,x3,x4,x5,-x6,x7"),
     "6b70a6e1c8dfbc47"),
    (("experiment", "--count", "5"), "c23cf7ab3cc51666"),
    (("analyze", "--gen", "30,4.25,2"), "1ca1f5899c3fb3cf"),
    (("assign", "--gen", "200,2.5,3", "--heuristic", "greedyDynamic", "--tie-break", "true"),
     "3d4b8628285c8ba2"),
    (("assign", "--gen", "200,2.5,3", "--heuristic", "greedyDynamic", "--tie-break", "false"),
     "621c43b71cda37fe"),
    (("reduce", "--gen", "200,4.25,1"), "3e1d35483fb9cfd1"),
    (("export", "--gen", "30,4.25,2", "--expand", "-x0"), "29a3c655b6190789"),
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
PINNED_FILES = [
    (("analyze", "--gen", "30,4.25,2", "--matrix"), "e510c5324eccbb5a"),
    (("assign", "--gen", "200,2.5,3", "--heuristic", "greedyDynamic", "--tie-break", "true",
      "--curve-csv"), "6378d667c4364c6c"),
    (("assign", "--gen", "200,2.5,3", "--heuristic", "greedyDynamic", "--tie-break", "false",
      "--curve-csv"), "bb7d462b670ebfc8"),
    (("experiment", "--count", "3", "--out-base"), "c996935e8e9d9120"),
    (("experiment", "--curve", "--instances", "3", "--out-base"), "9760e65b7a8f0de2"),
]


@pytest.mark.parametrize("argv,expected", PINNED_FILES,
                         ids=[" ".join(argv) for argv, _ in PINNED_FILES])
def test_pinned_file(capsys, tmp_path, argv, expected):
    # --out-base takes the path without its suffix and writes BASE.csv.
    path = tmp_path / "out.csv"
    target = path.with_suffix("") if argv[-1] == "--out-base" else path
    code, _, _ = run(capsys, *argv, str(target))
    assert code == EXIT_OK
    assert digest(path.read_text()) == expected


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

    def key(pair):
        return " ".join(str(literal_to_dimacs(x)) for x in pair)

    # The sidecar is written with sorted keys: one per clause, each once.
    events = json.loads(sidecar.read_text())
    assert list(events) == sorted(key(pair) for pair in t.clauses)
    assert events == {key(pair): [{"creator": literal_str(creator), "parent_clause": parent}
                                  for creator, parent in pair_events]
                      for pair, pair_events in provenance(space, f, a).items()}


# Commands whose --out takes the place of stdout.
OUT_COMMANDS = [
    ("analyze", "--gen", "30,4.25,2"),
    ("assign", "--gen", "200,2.5,3", "--heuristic", "greedyDynamic"),
    ("export", "--gen", "30,4.25,2", "--dot"),
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
        assert json.loads(separate)["root"]["literal"] == "-x0"


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


def test_malformed_dimacs_exits_3(capsys, tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 3 1\n1 2 x 0\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == EXIT_PARSE
    assert out == "" and "non-integer token" in err


# Inputs past a size guardrail: the oracle cap (n <= 26), the experiment cap
# (n <= 2000) and the expansion cap (10^6 nodes; depth 7 here would predict
# 58,661,689).
GUARDED = [
    ("verify", "--n-range", "6..27"),
    ("experiment", "--n", "2001"),
    ("experiment", "--curve", "--n", "2001"),
    ("export", "--gen", "100,4.25,1", "--expand", "x0", "--depth", "7"),
]


@pytest.mark.parametrize("argv", GUARDED, ids=[" ".join(argv) for argv in GUARDED])
def test_guardrails_exit_4_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_GUARDRAIL
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("fmt", [[], ["--dot"]], ids=["json", "dot"])
def test_deep_narrow_expansion_never_crashes(capsys, tmp_path, fmt):
    # Three nodes per level: 6,001 nodes at depth 2000 pass the node cap, and
    # every level is one more frame of recursion in the build and the output.
    path = tmp_path / "deep.cnf"
    path.write_text("p cnf 4 2\n-1 2 3 0\n-2 1 4 0\n")
    code, out, err = run(capsys, "export", str(path), "--expand", "x0", "--depth", "2000", *fmt)
    assert code in (EXIT_OK, EXIT_GUARDRAIL)
    if code == EXIT_GUARDRAIL:
        assert out == "" and err.startswith("error: ")


def test_matrix_guardrail_leaves_no_file(capsys, tmp_path):
    # n = 1000 has 12,711 sub-clauses: 25.4M cells, over the 10^7 cap.
    path = tmp_path / "matrix.csv"
    code, out, err = run(capsys, "analyze", "--gen", "1000,4.25,1", "--matrix", str(path))
    assert code == EXIT_GUARDRAIL
    assert out == "" and "interaction matrix" in err
    assert list(tmp_path.iterdir()) == []


def test_falsified_suite_exits_6(capsys, monkeypatch):
    def falsified(instances, n_range, r, seed):
        return verify.SuiteReport(suite="census", instances=instances, checks=1,
                                  falsifications=1)

    monkeypatch.setitem(verify.SUITES, "census", falsified)
    code, out, err = run(capsys, "verify", "--suite", "census", "--instances", "3")
    assert code == EXIT_FALSIFIED
    [report] = json.loads(out)
    assert report["falsifications"] == 1 and "[FALSIFIED]" in err
