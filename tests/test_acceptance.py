"""Acceptance gate: every release-blocking property at full scale.

Each test covers one numbered criterion and emits a [PASS]/[FAIL] line with
its runtime through the `acceptance` fixture. Scales, tolerances, and budgets
are deliberately hard-coded here rather than shared with the library so the
gate cannot drift silently.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qconc.bounds import (
    REGION_INFEASIBLE,
    assemble_rank3_max,
    rank4_region,
)
from qconc.concurrence import concurrence_oracle
from qconc.errors import ReconstructionDegenerate
from qconc.estimators import (
    Rank2Canonical,
    local_observables_rank2,
    reconstruct_rank2,
)
from qconc.qstate import bell_state, werner_state
from qconc.stateio import canonical_dumps, report_header
from qconc.validate import run_suites

SEED = 20260816
_R = 1.0 / math.sqrt(2.0)

REPORTS_DIR = Path(__file__).resolve().parents[1] / "reports"


def test_criterion_1_oracle_closed_forms(acceptance):
    with acceptance(
        1, "oracle closed forms on bell, product, and werner states", budget=1.0
    ):
        for kind in ("phi+", "phi-", "psi+", "psi-"):
            rho = bell_state(kind).density()
            assert abs(concurrence_oracle(rho).value - 1.0) <= 1e-12

        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(1000):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            rho = np.outer(psi, psi.conj())
            worst = max(worst, concurrence_oracle(rho).value)
        assert worst <= 1e-10

        for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
            want = max(0.0, (3.0 * p - 1.0) / 2.0)
            got = concurrence_oracle(werner_state(p)).value
            assert abs(got - want) <= 1e-10


def test_criterion_2_pure_state_formula(acceptance):
    with acceptance(
        2, "pure-state concurrence formula with purity residuals", budget=5.0
    ):
        rep = run_suites(names=["pure"], samples=10_000, seed=SEED)[0]
        assert rep.samples == 10_000
        assert rep.max_deviation <= 1e-8
        assert rep.extra["max_purity_residual"] <= 1e-10
        assert rep.passed


def test_criterion_3_local_unitary_invariance(acceptance):
    with acceptance(
        3, "local-unitary invariance of the invariants and the oracle", budget=10.0
    ):
        rep = run_suites(names=["lu-invariance"], samples=10_000, seed=SEED)[0]
        assert rep.samples == 10_000
        assert rep.tolerance == 1e-9
        assert rep.max_deviation <= 1e-9
        assert rep.passed


def test_criterion_4_rank2_reconstruction(acceptance):
    with acceptance(
        4, "rank-2 reconstruction roundtrip and degenerate raises", budget=10.0
    ):
        rep = run_suites(names=["rank2-roundtrip"], samples=1000, seed=SEED)[0]
        assert rep.samples == 1000
        assert rep.tolerance == 1e-6
        assert rep.max_deviation <= 1e-6
        assert rep.passed

        # the three singular parameter slices must refuse, not extrapolate
        g, b0 = 0.9, 0.7
        degenerate_cases = (
            Rank2Canonical(nu=0.4, alpha=0.0, beta=b0, gamma=1.2, eta=0.8),
            Rank2Canonical(
                nu=0.35,
                alpha=0.8,
                beta=math.atan(1.0 / (math.tan(0.8) * math.cos(g))),
                gamma=g,
                eta=0.7,
            ),
            Rank2Canonical(
                nu=0.45,
                alpha=math.atan(math.tan(b0) * math.cos(1.1)),
                beta=b0,
                gamma=1.1,
                eta=0.6,
            ),
        )
        for params in degenerate_cases:
            p, s = local_observables_rank2(params)
            with pytest.raises(ReconstructionDegenerate):
                reconstruct_rank2(p, s)


def test_criterion_5_family_formulas(acceptance):
    with acceptance(
        5,
        "family formulas against the oracle, statistical reports persisted",
        budget=20.0,
    ):
        exact = run_suites(
            names=["rank2-degenerate", "projection2", "xstate", "ladder"],
            samples=1000,
            seed=SEED,
        )
        for rep in exact:
            assert rep.samples == 1000
            assert rep.tolerance == 1e-8
            assert rep.max_deviation <= 1e-8
            assert rep.passed, rep.suite

        # the two report-only candidates are measured, never thresholded
        statistical = run_suites(
            names=["rank2-sep2", "xstate-invariant"], samples=1000, seed=SEED
        )
        # the persisted reports are golden: a run compares against the
        # committed file and writes one only where none exists, so a drifted
        # report fails on every run until the file is deliberately replaced;
        # xstate-invariant.json was last replaced when that suite moved from
        # one stream to spawned chunk streams
        REPORTS_DIR.mkdir(exist_ok=True)
        for rep in statistical:
            assert rep.tolerance is None
            path = REPORTS_DIR / f"{rep.suite}.json"
            payload = {
                "header": report_header(seed=SEED, samples=1000),
                "report": rep.to_dict(),
            }
            text = canonical_dumps(payload)
            if not path.exists():
                path.write_text(text, encoding="utf-8")
            assert path.read_text(encoding="utf-8") == text, f"{path.name} drifted"
            back = json.loads(text)
            assert back["report"]["suite"] == rep.suite
            assert back["report"]["notes"]


def test_criterion_6_bounds_threshold_region_inversions(acceptance):
    with acceptance(
        6,
        "bound dominance, threshold bracket, region boundary, weight inversions",
        budget=30.0,
    ):
        rep = run_suites(names=["bounds"], samples=10_000, seed=SEED)[0]
        assert rep.samples == 10_000
        assert rep.violations == 0
        assert rep.passed

        # the balanced-span threshold lands strictly inside (0.74, 0.76)
        assert concurrence_oracle(assemble_rank3_max(0.74, _R, _R)).value > 0.0
        assert concurrence_oracle(assemble_rank3_max(0.76, _R, _R)).value <= 1e-12

        # boundary cells straddle the line; one grid step moves the linear
        # form by at most 9 h, which also keeps the cell within one spacing
        # of the line in plane distance (9 h < h sqrt(145))
        grid_n = 101
        h = 1.0 / (grid_n - 1)
        rows = rank4_region(grid_n)
        classes = {(round(l1, 9), round(l2, 9)): k for l1, l2, k in rows}
        boundary = []
        for l1, l2, k in rows:
            if k == REGION_INFEASIBLE:
                continue
            for d1, d2 in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
                nb = classes.get((round(l1 + d1, 9), round(l2 + d2, 9)))
                if nb is not None and nb != REGION_INFEASIBLE and nb != k:
                    boundary.append(abs(9.0 * l1 + 8.0 * l2 - 6.0))
                    break
        assert boundary
        assert max(boundary) <= 9.0 * h + 1e-12
        assert max(boundary) < h * math.sqrt(145.0)

        rep = run_suites(names=["inversions"], samples=1000, seed=SEED)[0]
        assert rep.tolerance == 1e-10
        assert rep.max_deviation <= 1e-10
        assert rep.passed


def test_criterion_7_shot_noise_recovery(acceptance):
    with acceptance(7, "finite-shot weight recovery within five standard errors"):
        rep = run_suites(names=["shots"], samples=1000, seed=SEED)[0]
        assert rep.extra["shots"] == 10_000
        assert rep.extra["lambda_success_rate"] >= 0.99
        assert rep.extra["pair_success_rate"] >= 0.99
        assert rep.passed
