import json

import pytest

import qconc.cli as cli_mod
from qconc.cli import main
from qconc.validate import SuiteReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_named_bell_state(self, capsys):
        code, out, err = run(capsys, "gen", "--named", "bell-phi+")
        assert code == 0
        payload = json.loads(out)
        assert "matrix" in payload
        assert "seed" not in payload["header"]  # deterministic state
        assert "rank=1" in err

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

    def test_unknown_name_lists_the_choices(self, capsys):
        code, _, err = run(capsys, "gen", "--named", "ghz")
        assert code == 1
        assert "bell-phi+" in err

    def test_bad_parameter_value(self, capsys):
        code, _, _ = run(capsys, "gen", "--named", "werner:1.5")
        assert code == 1

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

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "validate", "--suite", "bogus", "--samples", "5")
        assert code == 1
        assert "bogus" in err

    def test_failure_exits_two(self, capsys, monkeypatch):
        bad = SuiteReport(
            suite="pure", samples=1, passed=False, max_deviation=1.0,
            mean_deviation=1.0, violations=1, tolerance=1e-8,
        )
        monkeypatch.setattr(cli_mod, "run_suites", lambda *a, **kw: [bad])
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
