import json

import pytest

from qconc.stateio import canonical_dumps
from qconc.validate import SUITES, SuiteReport, run_suites

# cheap-enough sample counts for a smoke pass over every suite
_SMOKE = 40


def test_registry_contents():
    expected = {
        "pure",
        "lu-invariance",
        "rank2-roundtrip",
        "rank2-sep2",
        "rank2-degenerate",
        "projection2",
        "xstate",
        "xstate-invariant",
        "ladder",
        "bounds",
        "rank4-max",
        "threshold",
        "region",
        "inversions",
        "shots",
    }
    assert set(SUITES) == expected


def test_unknown_suite_rejected():
    with pytest.raises(KeyError, match="no-such-suite"):
        run_suites(names=["no-such-suite"], samples=10)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_smokes(name):
    reports = run_suites(names=[name], samples=_SMOKE, seed=1)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.suite == name
    assert rep.samples >= 1
    assert rep.mean_deviation <= rep.max_deviation + 1e-15
    if rep.tolerance is not None:
        assert rep.passed == (rep.violations == 0)


def test_exact_suites_pass_at_smoke_scale():
    graded = [n for n in SUITES if n not in ("rank2-sep2", "xstate-invariant")]
    reports = run_suites(names=graded, samples=_SMOKE, seed=3)
    for rep in reports:
        assert rep.passed, f"{rep.suite}: max deviation {rep.max_deviation}"


def test_report_only_suites_never_grade():
    reports = run_suites(
        names=["rank2-sep2", "xstate-invariant"], samples=_SMOKE, seed=3
    )
    for rep in reports:
        assert rep.tolerance is None
        assert rep.passed
        assert rep.notes


def test_to_dict_is_json_ready():
    rep = run_suites(names=["pure"], samples=_SMOKE, seed=2)[0]
    payload = rep.to_dict()
    text = canonical_dumps(payload)
    back = json.loads(text)
    assert back["suite"] == "pure"
    assert back["samples"] == rep.samples
    assert isinstance(back["worst"], list)
    assert isinstance(back["extra"], dict)


def test_seed_determines_the_report():
    a = run_suites(names=["bounds", "pure"], samples=_SMOKE, seed=5)
    b = run_suites(names=["bounds", "pure"], samples=_SMOKE, seed=5)
    c = run_suites(names=["bounds", "pure"], samples=_SMOKE, seed=6)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    assert [r.to_dict() for r in a] != [r.to_dict() for r in c]


def test_suite_selection_preserves_seed_streams():
    # a suite's stream is tied to its registry slot, not the request order
    alone = run_suites(names=["ladder"], samples=_SMOKE, seed=4)[0]
    among = run_suites(
        names=["pure", "ladder", "bounds"], samples=_SMOKE, seed=4
    )
    ladder = next(r for r in among if r.suite == "ladder")
    assert ladder.to_dict() == alone.to_dict()


def test_default_runs_everything():
    reports = run_suites(samples=5, seed=0)
    assert [r.suite for r in reports] == list(SUITES)


def test_report_is_a_frozen_record():
    rep = SuiteReport(
        suite="demo", samples=1, passed=True, max_deviation=0.0, mean_deviation=0.0,
        violations=0,
    )
    with pytest.raises(AttributeError):
        rep.passed = False
