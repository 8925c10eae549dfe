import hashlib
import json
import platform

import numpy as np
import pytest

from qconc import validate
from qconc.concurrence import concurrence_oracle
from qconc.errors import DomainError, I1Zero, Infeasible
from qconc.estimators import assemble_xstate, xstate_concurrence_invariant
from qconc.invariants import invariant_vector
from qconc.measurement import (
    MeasurementRecord,
    lambda_from_szpz,
    lambdas_from_correlations,
)
from qconc.qstate import _record, decompose
from qconc.stateio import canonical_dumps
from qconc.validate import SUITES, SuiteReport, _chunk_sizes, run_suites, sample_xstate

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


@pytest.mark.parametrize("seed", [33, 34, 96])
def test_projection2_holds_its_gate_where_the_expanded_form_cancelled(seed):
    """At these seeds the sample stream of the state-by-state samplers drew
    states on which the expanded discriminant (I1 - I2)^2/4 - (I1 + I2)/2
    + 1/4 cancelled quarter-sized terms down to a value near zero and missed
    the gate by up to 1.3e-7; those states are kept, stream-independent, in
    test_estimators.py."""
    (report,) = run_suites(["projection2"], samples=200, seed=seed)
    assert report.tolerance == 1e-8
    assert report.max_deviation <= 1e-8
    assert report.passed


@pytest.mark.parametrize(
    "samples, sizes",
    [
        (1, [1]),
        (200, [200]),
        (2500, [2500]),
        (2501, [1251, 1250]),
        (10_000, [2500] * 4),
        (20_000, [2500] * 8),
    ],
)
def test_chunks_are_the_fewest_within_the_cap_split_evenly(samples, sizes):
    assert _chunk_sizes(samples) == sizes


#: sha256 of the canonical JSON of run_suites(["pure", "lu-invariance"],
#: 20000, seed=0) in the eight-chunk layout, regenerated when the oracle moved
#: to the pivoted Cholesky factor, when the invariants moved to one IEEE
#: operation per product and sum, when the rank-2 roots and the Haar samplers
#: moved to closed forms, when the roots of every rank moved to one kernel
#: over the factor's entry lists, and when batch_random_mixed's diagonal lost
#: its imaginary round-off (lu-invariance moved), with numpy 2.4.6 on x86-64.
#: The oracle's SVD for ranks 3 and 4 and lu-invariance's u @ mats @ u^H
#: still run on BLAS/LAPACK, whose last bits depend on the numpy build and
#: the CPU's kernels, so other builds cannot compare bytes
_STACKED_20K_SHA256 = "7935d974bd2e8df337cc16f1de0aab7d354247d9ee41a0a9dfdb1e310f774e6d"


_RECORDED_BUILD = pytest.mark.skipif(
    np.__version__ != "2.4.6" or platform.machine() != "x86_64",
    reason="digest recorded with numpy 2.4.6 on x86-64",
)


def _sha256(reports) -> str:
    return hashlib.sha256(canonical_dumps([r.to_dict() for r in reports]).encode()).hexdigest()


@_RECORDED_BUILD
def test_capped_chunks_keep_the_stacked_suites_bytes_at_20000():
    """At 20000 samples the cap gives the same eight chunks of 2500 as the
    fixed layout did, so the stacked suites keep every byte."""
    assert _sha256(run_suites(["pure", "lu-invariance"], 20_000, seed=0)) == _STACKED_20K_SHA256


#: sha256 of the canonical JSON of every suite's report at 200 samples and
#: seed 0, recorded on the same build as _STACKED_20K_SHA256; regenerated when
#: xstate-invariant, rank4-max and shots moved to spawned chunk streams and
#: batch_random_mixed's diagonal lost its imaginary round-off (lu-invariance),
#: and when region built its states with rank4_max_matrix in place of X-state
#: weights (only region's mean_deviation moved)
_ALL_200_SHA256 = "0b47dddbef588ee21d1937f0e30cfd52211d67425c0f4cfb7639c32f85a3557e"


@_RECORDED_BUILD
def test_every_suite_keeps_its_bytes_at_200():
    assert _sha256(run_suites(None, 200, seed=0)) == _ALL_200_SHA256


def test_no_suite_stack_takes_a_spectrum(monkeypatch):
    """Every stack the suites check is accepted by its Cholesky certificate,
    so validation runs no eigvalsh."""
    calls = []

    def counting(m, *args, eigvalsh=np.linalg.eigvalsh, **kwargs):
        calls.append(np.shape(m))
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    run_suites(None, 200, seed=0)
    assert calls == []


#: what each suite, sampled or on a fixed grid, must reach through a module
#: binding of validate at call time, so that a patched binding (a test's or a
#: tracer's) sees it
_GRADED = ["check_states", "batch_oracle"]
_CALLEES = {
    "pure": ["batch_random_pure", "estimate_pure", "batch_oracle"],
    "lu-invariance": ["batch_random_mixed", "batch_haar_u2", "batch_invariants", "batch_oracle"],
    "rank2-roundtrip": [
        "sample_nondegenerate_rank2", "reconstruct_rank2", "rank2_matrix", "batch_invariants",
        *_GRADED,
    ],
    "rank2-sep2": ["sample_rank2_sep", "rank2_sep_matrix", "estimate_rank2_sep2", *_GRADED],
    "rank2-degenerate": [
        "sample_rank2_degenerate", "rank2_degenerate_matrix", "estimate_rank2_degenerate",
        *_GRADED,
    ],
    "projection2": [
        "sample_rank2_degenerate", "rank2_degenerate_matrix", "estimate_projection2", *_GRADED,
    ],
    "xstate": ["sample_xstate", "xstate_matrix", "xstate_concurrence", *_GRADED],
    "xstate-invariant": ["sample_xstate", "xstate_matrix", "_xstate_invariant", *_GRADED],
    "bounds": ["rank3_bound", "rank4_bound", *_GRADED],
    "rank4-max": ["rank4_max_matrix", "rank4_max_concurrence", *_GRADED],
    "shots": ["rank3_max_matrix", "rank4_max_matrix", "check_states", "sample_expectation"],
    "region": ["rank4_region", "rank4_max_matrix", "batch_oracle"],
    "threshold": [
        "rank3_max_matrix", "rank3_threshold", "rank3_max_concurrence", *_GRADED,
    ],
    "inversions": [
        "rank3_max_matrix", "rank4_max_matrix", "check_states", "expectation",
        "lambdas_from_correlations", "lambda_from_szpz",
    ],
}


@pytest.mark.parametrize("suite", sorted(_CALLEES))
def test_suites_reach_their_callees_through_module_bindings(monkeypatch, suite):
    names = _CALLEES[suite]
    calls = dict.fromkeys(names, 0)

    def recording(name):
        fn = getattr(validate, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(validate, name, recording(name))
    run_suites([suite], samples=_SMOKE, seed=0)
    assert [name for name, n in calls.items() if n == 0] == []


def test_shots_counts_the_trials_it_cannot_grade(monkeypatch):
    """Skipped infeasible rank-4 inversions and clamped rank-3 weights are
    counted. On the real streams neither happens at these sizes, so they are
    forced here: every sampled correlation reads +1, which puts the rank-3
    weight 3/2 outside [0, 1] and the rank-4 weights (-2, 3) off the simplex."""
    (rep,) = run_suites(["shots"], samples=_SMOKE, seed=1)
    assert (rep.extra["infeasible_trials"], rep.extra["clamped_lambdas"]) == (0, 0)

    def all_plus_one(mats, obs, shots, rng):
        n = len(mats)
        return MeasurementRecord(obs, np.ones(n), shots, np.zeros(n))

    monkeypatch.setattr(validate, "sample_expectation", all_plus_one)
    (rep,) = run_suites(["shots"], samples=_SMOKE, seed=1)
    assert (rep.extra["infeasible_trials"], rep.extra["clamped_lambdas"]) == (_SMOKE, _SMOKE)
    assert rep.extra["pair_success_rate"] == 0.0
    assert not rep.passed


#: the fixed-grid suite that builds its grid in slices, and the sampled
#: suites whose kernels build one stack, or two, per chunk
_CHUNK_BOUND = ["xstate-invariant", "ladder", "rank4-max", "shots", "pure"]


def test_no_suite_stacks_more_than_a_chunk(monkeypatch):
    """Past two chunks' worth of samples, no stack that is validated or
    handed to the oracle holds more than _CHUNK_CAP states."""
    sizes = {"check_states": [], "batch_oracle": []}

    def recording(name):
        fn = getattr(validate, name)

        def call(mats):
            sizes[name].append(len(mats))
            return fn(mats)

        return call

    for name in sizes:
        monkeypatch.setattr(validate, name, recording(name))
    # the spies count in this process only, so the chunks run here
    monkeypatch.setattr(validate, "_workers", lambda: 1)
    samples = 2 * validate._CHUNK_CAP + 1
    reports = run_suites(_CHUNK_BOUND, samples=samples, seed=0)
    assert [r.suite for r in reports] == _CHUNK_BOUND
    assert max(sizes["check_states"] + sizes["batch_oracle"]) <= validate._CHUNK_CAP
    # xstate-invariant, ladder and rank4-max validate and grade each state
    # once; shots validates its rank-3 and its rank-4 stack once each and
    # grades none with the oracle; pure builds its states valid and grades
    # each once
    assert sum(sizes["check_states"]) == 5 * samples
    assert sum(sizes["batch_oracle"]) == 4 * samples


def test_xstate_invariant_counts_are_per_row_single_calls(monkeypatch):
    """The I1Zero and DomainError counts of the block call equal those of
    the single calls on the same states, and the graded rows are the ones
    whose single call returns."""
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(sample_xstate(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(validate, "sample_xstate", recording)
    (rep,) = run_suites(["xstate-invariant"], samples=300, seed=3)
    counts = {I1Zero: 0, DomainError: 0}
    evaluated = []
    for k in range(300):
        rho = assemble_xstate(_record(drawn[0], k))
        try:
            value = xstate_concurrence_invariant(invariant_vector(decompose(rho)))
        except (I1Zero, DomainError) as exc:
            counts[type(exc)] += 1
            continue
        evaluated.append(abs(value - concurrence_oracle(rho).value))
    assert counts[DomainError] > 0
    assert rep.extra["i1_zero"] == counts[I1Zero]
    assert rep.extra["domain_errors"] == counts[DomainError]
    assert rep.extra["evaluated"] == len(evaluated) == rep.samples
    assert rep.max_deviation == max(evaluated)


def test_shots_counts_are_per_row_single_calls(monkeypatch):
    """The clamped and infeasible counts of the block calls equal those of
    single calls on the same sampled correlations, here spread over [-1, 1]
    so that both happen on a share of the rows."""
    means = {}
    spread = np.random.default_rng(8)

    def spread_records(mats, obs, shots, rng):
        means.setdefault(obs, []).append(spread.uniform(-1.0, 1.0, size=len(mats)))
        return MeasurementRecord(obs, means[obs][-1], shots, np.full(len(mats), 0.01))

    monkeypatch.setattr(validate, "sample_expectation", spread_records)
    # one spread generator and one record of its draws, so the chunks run here
    monkeypatch.setattr(validate, "_workers", lambda: 1)
    samples = 2 * validate._CHUNK_CAP + 1
    (rep,) = run_suites(["shots"], samples=samples, seed=2)
    # each chunk samples rank-3 zz, then rank-4 xx, then rank-4 zz
    zz = means[("z", "z")]
    zz3 = np.concatenate(zz[0::2]).tolist()
    zz4 = np.concatenate(zz[1::2]).tolist()
    xx4 = np.concatenate(means[("x", "x")]).tolist()
    assert len(zz3) == len(zz4) == len(xx4) == samples
    clamped = sum(lambda_from_szpz(v).clamped for v in zz3)
    infeasible = 0
    for sxpx, szpz in zip(xx4, zz4):
        try:
            lambdas_from_correlations(sxpx, szpz, tol=1.0)
        except Infeasible:
            infeasible += 1
    assert 0 < clamped < samples and 0 < infeasible < samples
    assert rep.extra["clamped_lambdas"] == clamped
    assert rep.extra["infeasible_trials"] == infeasible
