import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypersat import (assignment_satisfies_2sat, build_hypernodal, build_space, evaluate,
                      find_contradictions, hypernodal, negate, random_formula, reduce_to_2sat,
                      solve_2sat, verify, verify_theorem)
from hypersat.cli import EXIT_FALSIFIED, EXIT_OK, main, parse_assignment
from hypersat.formula import GuardrailError
from hypersat.reduction import Corollary1Certificate, events_sound
from hypersat.subclauses import SubClauseSpace


def run_one(name, instances, n_range, r, seed):
    [report] = verify.run_suites([name], instances, n_range, r, seed)
    return report


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_runs_clean_through_the_common_signature(name):
    report = run_one(name, instances=8, n_range=(6, 10), r=4.25, seed=5)
    assert report.instances == 8
    assert report.checks > 0
    assert report.falsifications == 0 and report.ok
    assert report.summary_line().startswith(f"suite {report.suite}: ")


def test_suites_share_one_signature():
    # Every suite checks one instance, and run_suites has no defaults, since
    # the verify command's options are their one source.
    for name, suite in verify.SUITES.items():
        assert getattr(verify, suite.__name__) is suite
        assert list(inspect.signature(suite).parameters) == ["report", "instance"]
        assert [name in fed for _, fed in verify.STREAMS].count(True) == 1
    params = inspect.signature(verify.run_suites).parameters
    assert list(params) == ["names", "instances", "n_range", "r", "seed"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())


def test_suites_are_deterministic_per_seed():
    runs = [[vars(report) for report in verify.run_suites(list(verify.SUITES), instances=5,
                                                          n_range=(6, 9), r=4.25, seed=2)]
            for _ in range(2)]
    assert runs[0] == runs[1] and len(runs[0]) == len(verify.SUITES)


# (instances, n_range, seed); n > 21 takes random_formula's rejection branch.
RUNS = [(12, (6, 12), 1), (25, (4, 8), 7), (6, (20, 24), 9)]


@pytest.mark.parametrize("instances,n_range,seed", RUNS, ids=[f"seed{run[2]}" for run in RUNS])
def test_a_suite_alone_reports_as_in_a_full_run(monkeypatch, instances, n_range, seed):
    # Suites that share a stream share its draws, so leaving the others out
    # may not move a draw: each suite gets the same instances and reports the
    # same, alone or with the other five.
    seen = {name: [] for name in verify.SUITES}
    for name, suite in verify.SUITES.items():
        def check(report, instance, suite=suite, log=seen[name]):
            log.append((instance.i, instance.n, instance.r, instance.seed, instance.assignment))
            suite(report, instance)
        monkeypatch.setitem(verify.SUITES, name, check)
    full = verify.run_suites(list(verify.SUITES), instances, n_range, 4.25, seed)
    assert [report.suite for report in full] == list(verify.SUITES)
    for report in full:
        in_full, seen[report.suite][:] = list(seen[report.suite]), []
        alone = run_one(report.suite, instances, n_range, 4.25, seed)
        assert alone.to_json_dict() == report.to_json_dict()
        assert seen[report.suite] == in_full and len(in_full) == instances


def test_a_full_run_draws_each_formula_and_builds_each_space_once(monkeypatch):
    # One formula per instance of each of the three streams, and one space per
    # instance of the two width-3 streams, however many suites read them.
    calls = {"random_formula": 0, "build_space": 0}

    def counted(name):
        original = getattr(verify, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    verify.run_suites(list(verify.SUITES), instances=40, n_range=(6, 12), r=4.25, seed=1)
    assert calls["random_formula"] == 3 * 40
    assert calls["build_space"] <= 2 * 40


def test_twosat_oracle_caps_n_and_ignores_r():
    wide = run_one("2sat-oracle", instances=6, n_range=(6, 30), r=4.25, seed=4)
    capped = run_one("2sat-oracle", instances=6, n_range=(6, 12), r=9.0, seed=4)
    assert vars(wide) == vars(capped)


def test_oracle_suites_refuse_large_n(monkeypatch):
    # The refusal comes before any draw.
    monkeypatch.setattr(verify, "random_formula", None)
    with pytest.raises(GuardrailError):
        verify.run_suites(["theorem"], instances=1, n_range=(6, 40), r=4.25, seed=1)


@pytest.mark.parametrize("names", [["nope"], ["theorem", "nope"]])
def test_run_suites_refuses_an_unknown_name_before_any_draw(monkeypatch, names):
    # Refused before theorem's cap (n_range is past it here) and before any draw.
    draws = []
    monkeypatch.setattr(verify, "random_formula", lambda *args, **kwargs: draws.append(args))
    with pytest.raises(ValueError) as refused:
        verify.run_suites(names, instances=5, n_range=(6, 40), r=4.25, seed=1)
    assert type(refused.value) is ValueError
    assert str(refused.value) == ("unknown suites ['nope'], expected names from "
                                  f"{list(verify.SUITES)}")
    assert draws == []


def test_corollary1_runs_past_the_oracle_cap():
    # Its checks are evaluations, so no oracle caps its n.
    report = run_one("corollary1", instances=3, n_range=(30, 30), r=4.25, seed=1)
    assert report.checks == 3 * verify.ASSIGNMENTS_PER_INSTANCE
    assert report.falsifications == 0


def falsify_corollary1(monkeypatch, calls):
    """Make verify's corollary 1 check fail from call number `calls` on,
    recording every (formula, assignment) it was given."""
    seen = []

    def check(f, a, space):
        seen.append((f, a))
        return Corollary1Certificate(holds=len(seen) < calls, witnesses=(),
                                     unsatisfied_clauses=())

    monkeypatch.setattr(verify, "verify_corollary1", check)
    return seen


def test_falsification_carries_a_reproducer(monkeypatch):
    seen = falsify_corollary1(monkeypatch, calls=4)
    monkeypatch.setattr(verify, "ASSIGNMENTS_PER_INSTANCE", 2)
    report = run_one("corollary1", instances=3, n_range=(6, 8), r=4.25, seed=5)
    assert report.falsifications == 3 and not report.ok
    assert len(report.failures) == 3
    first = report.failures[0]
    assert sorted(first) == ["assignment", "instance", "n", "r", "seed", "suite"]
    assert (first["suite"], first["instance"], first["r"]) == ("corollary1", 1, 4.25)
    f, a = seen[3]
    assert random_formula(first["n"], first["r"], first["seed"]) == f
    argv = ["reduce", "--gen", f"{first['n']},{first['r']},{first['seed']}",
            "--assignment", ",".join(first["assignment"])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    payload = json.loads(out.getvalue())
    assert payload["input"] == f"gen(n={f.n},r=4.25,seed={first['seed']})"
    assert set(payload["assignment"]) == set(first["assignment"])
    assert payload["clauses"] == reduce_to_2sat(build_space(f), f, a).m
    assert report.to_json_dict()["failures"] == report.failures


def test_failures_are_bounded_and_left_out_when_empty(monkeypatch, capsys):
    clean = run_one("corollary1", instances=2, n_range=(6, 8), r=4.25, seed=5)
    assert clean.failures == [] and "failures" not in clean.to_json_dict()
    falsify_corollary1(monkeypatch, calls=1)
    report = run_one("corollary1", instances=3, n_range=(6, 8), r=4.25, seed=5)
    assert report.falsifications == 30
    assert len(report.failures) == verify.MAX_FAILURES == 10
    assert main(["verify", "--suite", "corollary1", "--instances", "2"]) == EXIT_FALSIFIED
    [payload] = json.loads(capsys.readouterr().out)
    assert payload["falsifications"] == 20 and len(payload["failures"]) == 10


# Credit each sub-clause to the literal its parent lost, not to that
# literal's negation.
UNSOUND_EVENTS = """
from hypersat.subclauses import SubClauseSpace
events = SubClauseSpace.events
SubClauseSpace.events = lambda space: [[(creator ^ 1, parent) for creator, parent in sid_events]
                                       for sid_events in events(space)]
"""


def test_an_unsound_event_fails_theorem_and_reduce(monkeypatch, tmp_path, capsys):
    # Teardown restores the sound events that UNSOUND_EVENTS replaces.
    monkeypatch.setattr(SubClauseSpace, "events", SubClauseSpace.events)
    exec(UNSOUND_EVENTS, {})
    report = run_one("theorem", instances=3, n_range=(6, 8), r=4.25, seed=5)
    assert report.checks > 0 and report.falsifications == report.checks
    first = report.failures[0]
    assert (first["suite"], first["seed"]) == ("theorem", 5 + 7919 * (first["instance"] + 1))
    f = random_formula(first["n"], first["r"], first["seed"])
    a = parse_assignment(",".join(first["assignment"]), f.n)
    assert not evaluate(f, a).unsatisfied_ids
    space = build_space(f)
    assert verify_theorem(f, a, space).holds
    assert not events_sound(space, space.events())
    capsys.readouterr()
    # A falsified claim: exit 6, an error line and neither file written.
    assert main(["reduce", "--gen", "30,4.25,2", "--out-base", str(tmp_path / "out")]) \
        == EXIT_FALSIFIED
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a sub-clause event is not its parent clause minus the negation "
                   "of its creator\n")
    assert list(tmp_path.iterdir()) == []


def test_an_unsound_event_exits_6_under_python_O():
    # The check is no assert statement, so -O does not strip it.
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    code = UNSOUND_EVENTS + """
import sys
from hypersat.cli import main
sys.exit(main(["verify", "--suite", "theorem", "--instances", "3"]))
"""
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                            text=True)
    assert result.returncode == EXIT_FALSIFIED
    assert "[FALSIFIED]" in result.stderr
    assert json.loads(result.stdout)[0]["failures"]


def test_a_merged_graph_without_edges_fails_merge(monkeypatch):
    # Every assignment looks consistent to an empty merged graph, while its
    # 2-SAT formula and its unsolved sub-clauses say otherwise.
    seen = []

    def no_edges(space, a):
        seen.append((space, a))
        return [[] for _ in range(2 * space.n)]

    monkeypatch.setattr(hypernodal, "merge_active", no_edges)
    report = run_one("merge", instances=40, n_range=(6, 12), r=4.25, seed=1)
    assert report.checks == 40 and report.falsifications == 40
    first = report.failures[0]
    space, a = seen[first["instance"]]
    f = random_formula(first["n"], first["r"], first["seed"])
    assert f.clauses == space.clauses
    assert parse_assignment(",".join(first["assignment"]), f.n) == a
    monkeypatch.undo()
    assert not find_contradictions(build_hypernodal(build_space(f)), a).consistent


def test_a_flipped_2sat_assignment_fails_2sat_oracle(monkeypatch):
    # The other polarity of every variable keeps the verdict but, on most
    # satisfiable instances, violates a clause.
    seen = []

    def flipped(t):
        verdict = solve_2sat(t)
        if verdict.satisfiable:
            verdict = verdict._replace(assignment=frozenset(map(negate, verdict.assignment)))
        seen.append((t, verdict))
        return verdict

    monkeypatch.setattr(verify, "solve_2sat", flipped)
    report = run_one("2sat-oracle", instances=40, n_range=(6, 12), r=4.25, seed=1)
    assert report.checks == 40 and report.falsifications == 32
    first = report.failures[0]
    t, verdict = seen[first["instance"]]
    assert random_formula(first["n"], first["r"], first["seed"], k=2) == t
    assert parse_assignment(",".join(first["assignment"]), t.n) == verdict.assignment
    assert assignment_satisfies_2sat(t, verdict.assignment)
