import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import RECORDED_BUILD, UNREADABLE, bloch_payload, edge_states, write_state

import qconc.cli
import qconc.validate
from qconc.cli import main
from qconc.concurrence import concurrence_oracle
from qconc.errors import InvalidState
from qconc.estimators import Rank2Canonical, assemble_rank2
from qconc.invariants import invariant_vector
from qconc.qstate import DensityOperator, check_states, decompose, random_rank_k, werner_state
from qconc.stateio import (
    canonical_dumps,
    read_state,
    state_to_dict,
)
from qconc.validate import SuiteReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: sha256 of the `gen --named` output of each named state. The Bell states'
#: signed zeros come from bell_state's outer product of complex amplitudes;
#: no BLAS call touches these bytes
_NAMED_SHA256 = {
    "bell-phi+": "4566ff1063e2317665a8eb380b08b1aee194f86ecb30a304c89ebd85fe5f8e45",
    "bell-phi-": "c9a4604b913d35cce1793dd1776ed76207b6fc7095aefa689ed47c514d9ba318",
    "bell-psi+": "74a33e01091663dede1ffc0067ede8983151ed01ef1e2f564fb516b5e0a39814",
    "bell-psi-": "f4569427c2e01fba15841887c482c2c811af7143a563fb19f6e3374269165d16",
    "werner:0.8": "660ecb9ac538860c4c882672761acef41c8eb3eaf77a608b2613d28cbb39841f",
    "ladder:0.3": "e6318404ea6f4c21ce97f47ba0f6acbb855a0f3f12dd5a10c07f3c6e70cc1bfc",
    "xstate:0.1,0.3,0.3,0.3,0.2": "3d967794bc9e534b1eab0510b77ee7ac59468fbd13c9529f1a5df6108a4a8a9a",
}


_Z = -0.0
#: Bloch-form state files, each with the sha256 of its
#: `concurrence --format json` report: the decompositions of
#: random_rank_k(k, 1) in canonical text, fields with signed zeros (phi+,
#: |00>, and the Werner state of weight 1/2), and phi+ as integers. The
#: lambdas of the states of rank 3 and 4, that Werner state's included, come
#: from LAPACK's SVD
_BLOCH_REPORTS = {
    "rank1": (1, "01f67d37041ac86e6d94e6279756b0465b396f87838b495756fc2b9f3db5785d"),
    "rank2": (2, "41bc871e04346f4800dcc149e67a5c86c89121f5832087d4e3ac8282dc65e7bc"),
    "rank3": (3, "c0b64782d6c29a17ee0e048f6da207dc60cb9f1a31cd7b048d4bbc5248be0246"),
    "rank4": (4, "c10419ceb0a3e4d0c4fccc920db388a1733dca5ca2116e853efbef305e37e190"),
    "phi+-signed-zeros": (
        {"p": [_Z] * 3, "s": [_Z] * 3, "pi": [[1.0, _Z, _Z], [_Z, -1.0, _Z], [_Z, _Z, 1.0]]},
        "4b343596ec1d20a9ba09860fc25eb2e1497ec6d77e906d1020cf6372292138d9",
    ),
    "00-signed-zeros": (
        {"p": [_Z, _Z, 1.0], "s": [_Z, _Z, 1.0], "pi": [[_Z] * 3, [_Z] * 3, [_Z, _Z, 1.0]]},
        "779c23dedd4c320b7b41977dedb657ce2d6ff4e371629fe4a455843bab57e89c",
    ),
    "werner-signed-zeros": (
        {"p": [_Z, 0.0, _Z], "s": [0.0, _Z, _Z],
         "pi": [[0.5, _Z, 0.0], [_Z, -0.5, _Z], [0.0, _Z, 0.5]]},
        "efe6c2a2cfbca6fcbf382ffb5b911414f1dd42a92b8a334406dfc6d31fa4ded4",
    ),
    "phi+-integers": (
        '{"bloch": {"p": [0, 0, 0], "s": [0, 0, 0], "pi": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}}\n',
        "4b343596ec1d20a9ba09860fc25eb2e1497ec6d77e906d1020cf6372292138d9",
    ),
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=RECORDED_BUILD) if name in ("rank3", "rank4", "werner-signed-zeros")
    else name
    for name in _BLOCH_REPORTS
])
def test_bloch_form_report_bytes_are_pinned(capsys, tmp_path, name):
    """The reports of Bloch-form files keep their bytes: the file is decoded
    once and its matrix is the signed sum of its fields."""
    state, digest = _BLOCH_REPORTS[name]
    if isinstance(state, int):
        state = canonical_dumps(bloch_payload(random_rank_k(state, 1)))
    elif isinstance(state, dict):
        state = json.dumps({"bloch": state})
    path = tmp_path / "state.json"
    path.write_text(state)
    code, out, _ = run(capsys, "concurrence", str(path), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGen:
    def test_named_bell_state(self, capsys):
        code, out, err = run(capsys, "gen", "--named", "bell-phi+")
        assert code == 0
        payload = json.loads(out)
        assert "matrix" in payload
        assert "seed" not in payload["header"]  # deterministic state
        assert "rank=1" in err

    @pytest.mark.parametrize("name", sorted(_NAMED_SHA256))
    def test_named_state_bytes_are_pinned(self, capsys, name):
        code, out, _ = run(capsys, "gen", "--named", name)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == _NAMED_SHA256[name]

    def test_random_state_records_its_seed(self, capsys):
        code, out, _ = run(capsys, "gen", "--rank", "3", "--seed", "17")
        assert code == 0
        assert json.loads(out)["header"]["seed"] == 17

    def test_random_state_is_reproducible(self, capsys):
        _, first, _ = run(capsys, "gen", "--rank", "2", "--seed", "5")
        _, second, _ = run(capsys, "gen", "--rank", "2", "--seed", "5")
        assert first == second

    def test_rank_and_named_conflict(self, capsys):
        code, _, err = run(capsys, "gen", "--rank", "2", "--named", "bell-phi+")
        assert code == 1
        assert "exactly one" in err

    @pytest.mark.parametrize("name", ["ghz", "bell-foo", "phi+", "bell-phi+:1"])
    def test_unknown_name_lists_the_choices(self, capsys, name):
        code, out, err = run(capsys, "gen", "--named", name)
        assert (code, out) == (1, "")
        assert err == (
            f"error: unknown named state {name!r}; choose from bell-phi+, bell-phi-, bell-psi+,"
            " bell-psi-, werner:p, xstate:u+,w1,w2,u-,zre[,zim], ladder:lam\n"
        )

    def test_bad_parameter_value(self, capsys):
        code, _, _ = run(capsys, "gen", "--named", "werner:1.5")
        assert code == 1

    def test_negative_seed_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "gen", "--rank", "2", "--seed", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --seed: ")

    def test_writes_to_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        code, out, _ = run(capsys, "gen", "--named", "werner:0.5", "--out", str(path))
        assert code == 0
        assert out == ""
        assert "matrix" in json.loads(path.read_text())


class TestConcurrence:
    def test_bell_pipe_text(self, capsys, tmp_path):
        path = tmp_path / "bell.json"
        run(capsys, "gen", "--named", "bell-psi-", "--out", str(path))
        code, out, _ = run(capsys, "concurrence", str(path))
        assert code == 0
        assert "oracle" in out
        line = next(l for l in out.splitlines() if l.startswith("oracle"))
        assert float(line.split()[-1]) == pytest.approx(1.0, abs=1e-10)

    def test_werner_json_report(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        run(capsys, "gen", "--named", "werner:0.5", "--out", str(path))
        code, out, _ = run(capsys, "concurrence", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"] == pytest.approx(0.25, abs=1e-10)
        assert payload["rank"] == 4
        assert len(payload["lambdas"]) == 4
        assert "i6" in payload["invariants"]

    def test_estimates_cover_detected_families(self, capsys, tmp_path):
        path = tmp_path / "l.json"
        run(capsys, "gen", "--named", "ladder:0.5", "--out", str(path))
        code, out, _ = run(capsys, "concurrence", str(path), "--format", "json")
        assert code == 0
        names = {e["name"] for e in json.loads(out)["estimates"]}
        assert {"projection2", "xstate-direct", "ladder-rho11"} <= names

    def test_estimate_rows_report_errors_not_crashes(self, capsys, tmp_path):
        path = tmp_path / "l.json"
        run(capsys, "gen", "--named", "ladder:0.5", "--out", str(path))
        _, out, _ = run(capsys, "concurrence", str(path), "--format", "json")
        rows = json.loads(out)["estimates"]
        assert all(("value" in r) != ("error" in r) for r in rows)

    def test_nan_tolerance_is_a_usage_error(self, capsys, tmp_path):
        # a NaN tolerance once went into the JSON header as NaN, which is not JSON
        path = tmp_path / "w.json"
        run(capsys, "gen", "--named", "werner:0.5", "--out", str(path))
        code, out, err = run(capsys, "concurrence", str(path), "--tol", "nan", "--format", "json")
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --tol: ")

    @pytest.mark.parametrize("tol", ["inf", "1e999", "-1", "1"])
    def test_unbounded_or_negative_tolerance_is_a_usage_error(self, capsys, tmp_path, tol):
        # an infinite tolerance, and later a finite one of 1, made every
        # state a ladder state
        path = tmp_path / "w.json"
        run(capsys, "gen", "--named", "werner:0.5", "--out", str(path))
        _, out, _ = run(capsys, "concurrence", str(path), "--format", "json")
        assert not any(e["name"].startswith("ladder") for e in json.loads(out)["estimates"])
        code, out, err = run(capsys, "concurrence", str(path), "--tol", tol, "--format", "json")
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --tol: ")

    @pytest.mark.parametrize("tol", ["-1e-5", "-1.5E+3", "-.5e2", "-inf"])
    def test_negative_tolerance_text_reaches_the_range_check(self, capsys, tmp_path, tol):
        # argparse's default pattern read -1e-5 as an option and complained
        # that --tol was missing its value
        path = tmp_path / "w.json"
        run(capsys, "gen", "--named", "werner:0.5", "--out", str(path))
        code, out, err = run(capsys, "concurrence", str(path), "--tol", tol)
        assert (code, out) == (1, "")
        assert err == f"error: argument --tol: {tol} is not in the range 0.0<=x<=0.001\n"

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "concurrence", "/nonexistent/state.json")
        assert code == 1

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "concurrence", str(path))
        assert code == 1

    def test_unphysical_state(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"bloch": {"p": [0, 0, 2.0], "s": [0, 0, 0], "pi": [[0] * 3] * 3}}
        ))
        code, _, _ = run(capsys, "concurrence", str(path))
        assert code == 1

    def test_nan_matrix_payload(self, capsys, tmp_path):
        entries = [[{"re": 0.0, "im": 0.0} for _ in range(4)] for _ in range(4)]
        for i in range(4):
            entries[i][i]["re"] = 0.25
        entries[0][0]["re"] = float("nan")
        path = tmp_path / "nan-matrix.json"
        path.write_text(json.dumps({"matrix": entries}))
        code, out, err = run(capsys, "concurrence", str(path))
        assert code == 1
        assert out == ""
        assert "error: InvalidState" in err

    def test_nan_bloch_payload(self, capsys, tmp_path):
        path = tmp_path / "nan-bloch.json"
        path.write_text(json.dumps(
            {"bloch": {"p": [float("nan"), 0, 0], "s": [0, 0, 0], "pi": [[0] * 3] * 3}}
        ))
        code, out, err = run(capsys, "concurrence", str(path))
        assert code == 1
        assert out == ""
        assert "error: InvalidState" in err


@pytest.mark.parametrize("k", range(4))
def test_a_basis_state_at_the_trace_tolerance_gets_a_report(capsys, tmp_path, k):
    """Basis state k with trace 1 + 0.9e-10 passes validation, and I1 =
    (1 + 0.9e-10)^2 takes the pure estimate's radicand to -1.8e-10, beyond
    its 1e-10 tolerance: the report exits 0 with that error as the pure
    entry."""
    path = tmp_path / "basis.json"
    write_state(path, DensityOperator(np.diag(np.eye(4)[k]) * (1.0 + 0.9e-10)))
    code, out, _ = run(capsys, "concurrence", str(path), "--format", "json")
    assert code == 0
    pure = [e for e in json.loads(out)["estimates"] if e["name"] == "pure"]
    assert len(pure) == 1 and set(pure[0]) == {"name", "error"}
    assert pure[0]["error"].startswith("DomainError: radicand ")


#: estimate rows of three family reports, as the report path wrote them when
#: it still decomposed every state twice and validated a whole ladder state
#: to compare against: (name, value) or (name, error type)
_FAMILY_REPORTS = {
    "ladder": (
        2,
        0.7,
        [
            ("rank2-reconstruction", "ReconstructionDegenerate"),
            ("rank2-sep2", 0.9539392014169457),
            ("xstate-direct", 0.7),
            ("xstate-invariant", 0.0),
            ("ladder-rho11", 0.7),
            ("ladder-szpz", 0.7),
        ],
    ),
    "xstate": (
        4,
        0.03338505354221877,
        [("xstate-direct", 0.03338505354221888), ("xstate-invariant", "DomainError")],
    ),
    "rank2": (
        2,
        0.4416747817212996,
        [
            ("rank2-reconstruction", 0.44167478172129987),
            ("rank2-sep2", 0.9443660326742664),
        ],
    ),
}


def _family_state(capsys, tmp_path, family):
    path = tmp_path / f"{family}.json"
    if family == "rank2":
        params = Rank2Canonical(nu=0.7, alpha=0.5, beta=0.9, gamma=2.0, eta=0.6)
        write_state(path, assemble_rank2(params))
    else:
        named = {"ladder": "ladder:0.3", "xstate": "xstate:0.1,0.3,0.4,0.2,0.15,0.05"}
        run(capsys, "gen", "--named", named[family], "--out", str(path))
    return path


@pytest.mark.parametrize("eps", [1e-10, 1e-11])
@pytest.mark.parametrize("basis", ["diagonal", "haar"])
def test_the_reported_rank_is_the_oracles(capsys, tmp_path, eps, basis):
    """Spectrum (0.5, 0.3, 0.2 - eps, eps): the oracle keeps four pivots, and
    the report prints that rank, text and JSON alike."""
    v = np.eye(4)
    if basis == "haar":
        g = np.random.default_rng(7).standard_normal((4, 8)).view(complex)
        v, _ = np.linalg.qr(g)
    m = (v * [0.5, 0.3, 0.2 - eps, eps]) @ v.conj().T
    path = tmp_path / "state.json"
    write_state(path, DensityOperator((m + m.conj().T) / 2))
    code, out, _ = run(capsys, "concurrence", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["rank"] == concurrence_oracle(read_state(path)).rank == 4
    code, out, _ = run(capsys, "concurrence", str(path))
    assert code == 0 and "\nrank        4\n" in out


@pytest.mark.parametrize("family", sorted(_FAMILY_REPORTS))
def test_family_json_reports_are_unchanged(capsys, tmp_path, family):
    path = _family_state(capsys, tmp_path, family)
    code, out, _ = run(capsys, "concurrence", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rank, oracle, rows = _FAMILY_REPORTS[family]
    rho = read_state(path)
    diag = concurrence_oracle(rho)
    assert payload["rank"] == rank
    assert payload["oracle"] == diag.value == pytest.approx(oracle, abs=1e-12)
    assert payload["lambdas"] == list(diag.lambdas)
    assert payload["invariants"] == invariant_vector(decompose(rho)).to_dict()
    got = payload["estimates"]
    assert [e["name"] for e in got] == [name for name, _ in rows]
    for entry, (_, expected) in zip(got, rows):
        if isinstance(expected, str):
            assert set(entry) == {"name", "error"}
            assert entry["error"].startswith(expected + ": ")
        else:
            assert set(entry) == {"name", "value", "deviation"}
            assert entry["value"] == pytest.approx(expected, abs=1e-12)
            assert entry["deviation"] == abs(entry["value"] - payload["oracle"])


class TestValidateCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "validate", "--suite", "pure", "--suite", "bounds",
            "--samples", "30", "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert [s["suite"] for s in payload["suites"]] == ["pure", "bounds"]
        assert payload["header"]["seed"] == 2

    def test_output_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys, "validate", "--suite", "ladder", "--samples", "25",
                "--seed", "7", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_flag_is_gone(self, capsys):
        code, _, err = run(capsys, "validate", "--threads", "2", "--samples", "5")
        assert code == 1
        assert "--threads" in err

    @pytest.mark.parametrize("command", ["validate", "gen"])
    def test_format_flag_is_gone(self, capsys, command):
        code, _, err = run(capsys, command, "--format", "json")
        assert code == 1
        assert "--format" in err

    def test_negative_seed_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "validate", "--seed", "-1", "--suite", "pure", "--samples", "1"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --seed: ")

    def test_oversized_sample_count_is_a_usage_error(self, capsys, monkeypatch):
        """--samples is at most 10^7, about 4000 chunks a suite: a larger
        count ends in one error line before any chunk is planned."""
        monkeypatch.setattr(qconc.validate, "run_suites", mock.Mock(side_effect=AssertionError))
        code, out, err = run(capsys, "validate", "--suite", "pure", "--samples", "1000000000000000")
        assert (code, out) == (1, "")
        assert err == (
            "error: argument --samples: 1000000000000000 is not in the range 1<=x<=10000000\n"
        )
        ran = []
        monkeypatch.setattr(qconc.validate, "run_suites", lambda *a, **kw: ran.append(kw) or [])
        assert run(capsys, "validate", "--samples", "10000000")[0] == 0
        assert ran == [{"samples": 10**7, "seed": 0}]

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "validate", "--suite", "bogus", "--samples", "5")
        assert code == 1
        assert "bogus" in err

    def test_failure_exits_two(self, capsys, monkeypatch):
        bad = SuiteReport(
            suite="pure", samples=1, passed=False, max_deviation=1.0,
            mean_deviation=1.0, violations=1, tolerance=1e-8,
        )
        monkeypatch.setattr(qconc.validate, "run_suites", lambda *a, **kw: [bad])
        code, out, _ = run(capsys, "validate", "--suite", "pure", "--samples", "1")
        assert code == 2
        assert json.loads(out)["all_passed"] is False


class TestGrids:
    def test_region_csv(self, capsys):
        code, out, _ = run(capsys, "region", "--resolution", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda1,lambda2,class"
        assert len(lines) == 1 + 25
        assert lines[1].startswith("0,0,")

    def test_ladder_endpoints(self, capsys):
        code, out, _ = run(capsys, "ladder", "--resolution", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lam,concurrence,szpz,rho11"
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first == pytest.approx([0.0, 1.0, -1.0, 0.0], abs=1e-12)
        assert last == pytest.approx([1.0, 0.0, 1.0, 1.0], abs=1e-12)

    def test_ladder_json_rows(self, capsys):
        code, out, _ = run(capsys, "ladder", "--resolution", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 3

    def test_resolution_validated(self, capsys):
        code, _, _ = run(capsys, "region", "--resolution", "1")
        assert code == 1

    @pytest.mark.parametrize("command", ["ladder", "region"])
    def test_a_grid_too_large_to_allocate_ends_in_an_error_line(self, capsys, command):
        """10^15 ticks need 7.11 PiB, more than a 64-bit process can address,
        so the allocation fails before any memory is taken."""
        code, out, err = run(capsys, command, "--resolution", "1000000000000000")
        assert (code, out) == (1, "")
        assert err.startswith("error: out of memory: Unable to allocate 7.11 PiB")
        assert err.count("\n") == 1


class TestStdinPath:
    def test_dash_reads_stdin(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "state.json"
        run(capsys, "gen", "--named", "bell-phi+", "--out", str(path))
        import io
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(path.read_text())
        )
        code, out, _ = run(capsys, "concurrence", "-", "--format", "json")
        assert code == 0
        assert json.loads(out)["oracle"] == pytest.approx(1.0, abs=1e-10)


class TestOutPath:
    #: a report of each kind; STATE stands for a rank-3 state file
    LINES = [
        ["concurrence", "STATE"],
        ["concurrence", "STATE", "--format", "json"],
        ["gen", "--rank", "3"],
        ["region", "--format", "json"],
        ["validate", "--suite", "pure", "--samples", "5"],
    ]

    @pytest.mark.parametrize("argv", LINES, ids=" ".join)
    def test_out_gets_the_bytes_of_stdout(self, capsys, tmp_path, argv):
        state, path = tmp_path / "state.json", tmp_path / "report.out"
        write_state(state, random_rank_k(3, 1))
        argv = [str(state) if arg == "STATE" else arg for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--out", str(path)) == (0, "", err)
        assert path.read_bytes() == out.encode()

    @pytest.mark.parametrize("where", ["directory", "inside-a-missing-directory"])
    def test_an_unwritable_out_ends_in_one_error_line(self, capsys, tmp_path, where):
        path = tmp_path if where == "directory" else tmp_path / "missing" / "report.out"
        code, out, err = run(capsys, "gen", "--rank", "3", "--out", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_a_report_written_in_short_pieces_is_whole(self, capsys, monkeypatch, tmp_path):
        """os.write may take only part of what it is given; the report goes
        out in as many writes as that takes."""
        argv = ["validate", "--suite", "pure", "--samples", "5"]
        _, out, _ = run(capsys, *argv)
        write, sizes = os.write, []

        def short_write(fd, data):
            sizes.append(write(fd, data[:7]))
            return sizes[-1]

        monkeypatch.setattr(os, "write", short_write)
        path = tmp_path / "report.out"
        assert run(capsys, *argv, "--out", str(path))[0] == 0
        assert path.read_bytes() == out.encode()
        assert max(sizes) == 7


def test_a_failed_svd_ends_in_an_error_line(capsys, monkeypatch, tmp_path):
    path = tmp_path / "rank4.json"
    write_state(path, random_rank_k(4, 1))

    def failed_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failed_svd)
    code, out, err = run(capsys, "concurrence", str(path))
    assert (code, out) == (1, "")
    assert err == "error: EigSolveFailure: SVD did not converge\n"


def test_an_interrupt_ends_in_one_error_line_and_exit_130(capsys, monkeypatch):
    """Ctrl-C raises KeyboardInterrupt in the running command; main reports
    it in one line, with no traceback, and returns the shell's SIGINT code."""

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(qconc.validate, "run_suites", interrupted)
    assert run(capsys, "validate", "--suite", "pure", "--samples", "5") == (
        130, "", "error: interrupted\n"
    )


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_unreadable_input_ends_in_an_error_line(capsys, monkeypatch, tmp_path, kind, source):
    data, message = UNREADABLE[kind]
    if source == "file":
        path = tmp_path / "state.json"
        path.write_bytes(data)
        arg = str(path)
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        arg = "-"
    code, out, err = run(capsys, "concurrence", arg)
    assert code == 1
    assert out == ""
    assert err.startswith("error: InvalidState: " + message)


# -- fuzzed state payloads ---------------------------------------------------

#: numbers that stress parsing and validation: non-finite, overflowing the
#: Bloch sum, beyond float range as JSON integers, subnormal
_ODD_NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, -(10**400), 5e-324]
_NON_NUMBERS = ["0.5", None, [], {}, True]
_VALUES = st.one_of(
    st.floats(), st.sampled_from(_ODD_NUMBERS), st.sampled_from(_NON_NUMBERS)
)


def _payload(rho, form):
    return state_to_dict(rho) if form == "matrix" else bloch_payload(rho)


def _leaves(payload):
    """(container, key) of every number of a matrix or Bloch payload."""
    if "matrix" in payload:
        return [(e, k) for row in payload["matrix"] for e in row for k in ("re", "im")]
    b = payload["bloch"]
    return [(b[v], i) for v in ("p", "s") for i in range(3)] + [
        (row, j) for row in b["pi"] for j in range(3)
    ]


def _lists(payload):
    """Every list of a matrix or Bloch payload."""
    if "matrix" in payload:
        return [payload["matrix"], *payload["matrix"]]
    b = payload["bloch"]
    return [b["p"], b["s"], b["pi"], *b["pi"]]


@st.composite
def _state_payloads(draw):
    """A random state's payload in either form, with some numbers replaced,
    optionally all by one value, and optionally one list reshaped."""
    rho = random_rank_k(draw(st.integers(1, 4)), draw(st.integers(0, 2**16)))
    payload = _payload(rho, draw(st.sampled_from(["matrix", "bloch"])))
    leaves = _leaves(payload)
    if draw(st.booleans()):
        value = draw(_VALUES)
        for container, key in leaves:
            container[key] = value
    else:
        for k in draw(st.lists(st.integers(0, len(leaves) - 1), max_size=3)):
            container, key = leaves[k]
            container[key] = draw(_VALUES)
    lists = _lists(payload)
    target = lists[draw(st.integers(0, len(lists) - 1))]
    reshape = draw(st.sampled_from(["none", "drop", "extend", "wrap"]))
    if reshape == "drop":
        target.pop()
    elif reshape == "extend":
        target.append(target[0])
    elif reshape == "wrap":
        target[0] = [target[0]]
    return payload


def _uniform(value, form):
    """A payload of the given form with every number set to value."""
    payload = _payload(werner_state(0.0), form)
    for container, key in _leaves(payload):
        container[key] = value
    return payload


@settings(max_examples=150, deadline=None)
@example(_uniform(1e308, "bloch"))
@example(_uniform(1e308, "matrix"))
@example(_uniform(10**400, "matrix"))
@example(_uniform(10**400, "bloch"))
@given(_state_payloads())
def test_fuzzed_payloads_end_in_a_result_or_an_error(tmp_path_factory, payload):
    """Every payload ends in exit 0 with an oracle in [0, 1] or in exit 1 with
    an error line; no exception or warning leaves main."""
    folder = tmp_path_factory.getbasetemp()
    state, report = folder / "fuzz-state.json", folder / "fuzz-report.json"
    state.write_text(json.dumps(payload))
    report.write_text("")
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["concurrence", str(state), "--format", "json", "--out", str(report)])
    if code == 0:
        oracle = json.loads(report.read_text())["oracle"]
        assert math.isfinite(oracle) and 0.0 <= oracle <= 1.0
    else:
        assert code == 1
        assert err.getvalue().startswith("error: ")


def _scaled_singlet(factor):
    """The singlet, an X state and the ladder's lam = 0, times factor."""
    return np.array([[0, 0, 0, 0], [0, 0.5, -0.5, 0], [0, -0.5, 0.5, 0], [0, 0, 0, 0]]) * factor


@settings(max_examples=100, deadline=None)
# xstate-direct reads 1 + 0.99e-10 off the first, ladder-szpz 1 + 4e-13 off
# the second, unless the estimates are held to [0, 1]
@example(_scaled_singlet(1.0 + 0.99e-10))
@example(_scaled_singlet(1.0 + 8e-13))
@given(edge_states())
def test_edge_states_end_in_a_unit_interval_oracle_or_an_error(tmp_path_factory, m):
    """A state at the acceptance tolerances of validation ends in exit 0 with
    an oracle and every estimate in [0, 1], or, only when validation rejects
    it, in exit 1 with an error line; the family estimates whose checks are
    tighter than validation's report an error."""
    folder = tmp_path_factory.getbasetemp()
    state, report = folder / "edge-state.json", folder / "edge-report.json"
    matrix = [[{"re": v.real, "im": v.imag} for v in row] for row in m]
    state.write_text(json.dumps({"matrix": matrix}))
    report.write_text("")
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["concurrence", str(state), "--format", "json", "--out", str(report)])
    if code == 0:
        payload = json.loads(report.read_text())
        assert 0.0 <= payload["oracle"] <= 1.0
        for entry in payload["estimates"]:
            assert "error" in entry or 0.0 <= entry["value"] <= 1.0, entry
    else:
        assert code == 1
        assert err.getvalue().startswith("error: ")
        with pytest.raises(InvalidState):
            check_states(m[None])


# -- command lines -----------------------------------------------------------

_COMMANDS = ["gen", "concurrence", "validate", "region", "ladder"]


@pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in _COMMANDS], ids=" ".join)
def test_help_exits_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert " ".join(["qconc", *argv[:-1]]) in out


def test_empty_command_line_is_a_usage_error(capsys):
    code, out, err = run(capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["concurrence", "--form", "json"], ["validate", "--sam", "5"], ["gen", "--nam", "bell-phi+"]],
    ids=" ".join,
)
def test_abbreviated_options_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert argv[1] in err


#: usage errors of every kind; argparse left to itself would end each with
#: exit 2, which here means that a suite failed
_USAGE_ERRORS = [
    ["bogus"],
    ["gen", "--rank", "9"],
    ["gen", "--rank"],
    ["gen", "--named", "bell-phi+", "extra"],
    ["concurrence", "--format", "xml"],
    ["concurrence", "--tol", "0x10"],
    ["validate", "--samples", "0"],
    ["validate", "--samples", "1e999"],
    ["validate", "--samples", "10000001"],
    ["region", "--resolution", "1"],
    ["ladder", "--resolution", "nan"],
    ["ladder", "--threads", "2"],
]


@pytest.mark.parametrize("argv", _USAGE_ERRORS, ids=" ".join)
def test_usage_errors_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1


#: command lines whose first word is not a command, each command's help,
#: the usage errors above (an unknown command word among them), and lines
#: argparse reads in less common ways
_ROUTED_LINES = [
    [], ["--help"], ["-h", "gen"], ["--", "gen", "--rank", "1"], ["gen", "--", "--rank"],
    *([command, flag] for command in _COMMANDS for flag in ("-h", "--help")),
    *_USAGE_ERRORS,
    ["concurrence", "--tol", "-1e-5"], ["gen", "--rank=2"], ["concurrence", "a", "b"],
]
#: lines that parse, with a command word first
_PARSED_LINES = [
    ["gen", "--rank=2"],
    ["concurrence"],
    ["concurrence", "-", "--tol", "0", "--format", "json", "--out", "r.json"],
    ["validate", "--suite", "pure", "--suite", "bounds", "--samples", "5", "--seed", "3"],
    ["region", "--resolution", "3", "--format", "json"],
    ["ladder", "--out", "-"],
]


@pytest.mark.parametrize("argv", _ROUTED_LINES, ids=lambda argv: " ".join(argv) or "(empty)")
def test_the_command_parser_answers_as_the_top_level_parser(capsys, monkeypatch, argv):
    """main parses a line that starts with a command word with that
    command's own parser; with no command parsers to pick from it parses
    every line with the top-level parser, and each line gives the same exit
    code, output and error line either way."""
    picked = run(capsys, *argv)
    monkeypatch.setattr(qconc.cli, "_COMMAND_PARSERS", {})
    assert run(capsys, *argv) == picked


@pytest.mark.parametrize("argv", _PARSED_LINES, ids=" ".join)
def test_the_command_parser_gives_the_top_level_namespace(argv):
    command = qconc.cli._COMMAND_PARSERS[argv[0]]
    assert command.parse_args(argv[1:]) == qconc.cli._PARSER.parse_args(argv)


# -- fuzzed command lines ----------------------------------------------------

#: option values that stress parsing: negative, not a number, infinite,
#: overflowing to infinity, hexadecimal
_ODD_TEXTS = ["-1", "nan", "inf", "1e999", "0x10"]
#: suites that take a few milliseconds at 20 samples
_CHEAP_SUITES = ["pure", "ladder", "rank4-max", "threshold", "shots", "xstate-invariant"]
#: the state file, relative to the directory a fuzzed command line runs in
_STATE = "state.json"


def _ints(low, high):
    return st.integers(low, high).map(str)


_OUT = st.sampled_from(["report.out", "-"])
_FORMATS = st.sampled_from(["json", "text", "csv", "xml"])
_SEEDS = _ints(-2, 2**70)
_RESOLUTIONS = _ints(-1, 20)
#: every command's options, with values in and around their valid ranges;
#: sizes (--samples, --resolution) never exceed 20
_OPTIONS = {
    "gen": {
        "--rank": _ints(-1, 5),
        "--named": st.sampled_from(
            ["bell-phi+", "werner:0.5", "werner:nan", "ladder:0.3", "ladder:inf",
             "xstate:0.1,0.3,0.4,0.2,0.15", "xstate:1", "ghz"]
        ),
        "--seed": _SEEDS,
        "--out": _OUT,
    },
    "concurrence": {"--tol": st.floats().map(repr), "--format": _FORMATS, "--out": _OUT},
    "validate": {
        "--suite": st.sampled_from(_CHEAP_SUITES + ["bogus"]),
        "--samples": _ints(-1, 20),
        "--seed": _SEEDS,
        "--out": _OUT,
    },
    "region": {"--resolution": _RESOLUTIONS, "--format": _FORMATS, "--out": _OUT},
    "ladder": {"--resolution": _RESOLUTIONS, "--format": _FORMATS, "--out": _OUT},
}


@st.composite
def _command_lines(draw):
    """A command and up to four option groups, each an option with a drawn
    value, an odd text, no value, an abbreviated name, or an unknown option
    or --help; then the groups that bound the run's size, the state path of
    concurrence or the state of gen; all shuffled."""
    command = draw(st.sampled_from(_COMMANDS))
    options = _OPTIONS[command]
    groups = []
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(sorted(options)))
        kind = draw(st.sampled_from(["value", "odd", "missing", "abbreviated", "unknown", "help"]))
        if kind == "value":
            groups.append([name, draw(options[name])])
        elif kind == "odd":
            groups.append([name, draw(st.sampled_from(_ODD_TEXTS))])
        elif kind == "missing":
            groups.append([name])
        elif kind == "abbreviated":
            groups.append([name[: draw(st.integers(3, len(name) - 1))], draw(options[name])])
        elif kind == "unknown":
            groups.append(["--threads", "2"])
        else:
            groups.append(["--help"])
    if command == "validate":
        groups.append(["--samples", draw(_ints(1, 20))])
        groups.append(["--suite", draw(st.sampled_from(_CHEAP_SUITES))])
    elif command in ("region", "ladder"):
        groups.append(["--resolution", draw(_ints(2, 20))])
    elif command == "concurrence":
        groups.append(draw(st.sampled_from([[_STATE], ["-"], [], ["missing.json"]])))
    else:
        name = draw(st.sampled_from(["--rank", "--named"]))
        groups.append([name, draw(_ints(1, 4) if name == "--rank" else options[name])])
    return [command] + [token for group in draw(st.permutations(groups)) for token in group]


@settings(max_examples=300, deadline=None)
@example(argv=[], rank=1)
@example(argv=["concurrence", "--help"], rank=1)
@example(argv=["concurrence", "--form", "json", _STATE], rank=2)
@example(argv=["concurrence", _STATE, "--tol", "inf"], rank=2)
@example(argv=["concurrence", "--tol", "nan", "--format", "json"], rank=3)
@example(argv=["gen", "--rank", "2", "--seed", "-1"], rank=1)
@example(argv=["validate", "--seed", "-1", "--suite", "pure", "--samples", "1"], rank=1)
@given(_command_lines(), st.integers(1, 4))
def test_fuzzed_command_lines_end_in_a_result_or_an_error_line(argv, rank):
    """Every command line ends in exit 0, or 2 from validate, with output, or
    in exit 1 with one error line; no exception, exit or warning leaves main.
    It runs in a fresh directory holding a state of the given rank, which is
    also on stdin."""
    text = canonical_dumps(state_to_dict(random_rank_k(rank, 0)))
    out, err = io.StringIO(), io.StringIO()
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        work = Path(folder)
        (work / _STATE).write_text(text)
        os.chdir(work)
        try:
            with warnings.catch_warnings(), mock.patch.object(sys, "stdin", io.StringIO(text)):
                warnings.simplefilter("error")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
        finally:
            os.chdir(start)
        written = [
            f.read_text() for f in work.iterdir()
            if f.name != _STATE or f.read_text() != text
        ]
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert code == 0 or (code == 2 and argv[0] == "validate")
        assert out.getvalue() or any(written)
