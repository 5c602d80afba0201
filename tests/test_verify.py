import inspect

import pytest

from hypersat import verify
from hypersat.formula import GuardrailError


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_runs_clean_through_the_common_signature(name):
    report = verify.SUITES[name](instances=8, n_range=(6, 10), r=4.25, seed=5)
    assert report.instances == 8
    assert report.checks > 0
    assert report.falsifications == 0 and report.ok
    assert report.summary_line().startswith(f"suite {report.suite}: ")


def test_suites_share_one_signature():
    for suite in verify.SUITES.values():
        params = list(inspect.signature(suite).parameters)
        assert params[:4] == ["instances", "n_range", "r", "seed"]


def test_suites_are_deterministic_per_seed():
    for suite in verify.SUITES.values():
        runs = [vars(suite(instances=5, n_range=(6, 9), r=4.25, seed=2)) for _ in range(2)]
        assert runs[0] == runs[1]


def test_twosat_oracle_caps_n_and_ignores_r():
    wide = verify.twosat_oracle_suite(instances=6, n_range=(6, 30), r=4.25, seed=4)
    capped = verify.twosat_oracle_suite(instances=6, n_range=(6, 12), r=9.0, seed=4)
    assert vars(wide) == vars(capped)


def test_oracle_suites_refuse_large_n():
    for name in ("theorem", "corollary1"):
        with pytest.raises(GuardrailError):
            verify.SUITES[name](instances=1, n_range=(6, 40), r=4.25, seed=1)
