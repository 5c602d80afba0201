import json

from hypersat import emit_dimacs, negate, parse_literal
from hypersat.assignments import MIN_CREATE_MAX_SOLVE_READING
from hypersat.cli import EXIT_OK, EXIT_USAGE, main

from dotcheck import check_dot


def run(capsys, *argv):
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
    assert out == "" and "--k 4" in err
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
