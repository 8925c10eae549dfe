"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload at a few samples, in process, and checks that:

* every metric ``BENCHMARK.json`` declares is emitted with its unit, and the
  end-to-end ones and ``failed_frac`` are printed by name;
* the tracer replaces every binding of a traced function, reports a target
  that does not exist as missing, and restores every binding afterwards;
* a wrong reference value, or a report digest that differs at the same seed,
  counts as a failed operation, so ``failed_frac`` rises above 0;
* ``run.py`` exits nonzero when the source tree is absent.

Exits 0 when all checks hold, 1 otherwise.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import qconc  # noqa: E402
import qconc.cli  # noqa: E402
import qconc.validate  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from layertrace import TARGETS, Tracer  # noqa: E402

WORK = ROOT / ".bench_out" / "selftest"
FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def bindings() -> dict:
    """Every name bound in a qconc module, class body or the suite registry."""
    snap = {}
    for key, mod in list(sys.modules.items()):
        if key == "qconc" or key.startswith("qconc."):
            snap.update({(key, attr): value for attr, value in vars(mod).items()})
    for cls in (qconc.DensityOperator, qconc.Rank3Mixture, qconc.Rank4Mixture):
        snap.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    snap.update({("SUITES", k): v for k, v in qconc.validate.SUITES.items()})
    return snap


def changed(before: dict) -> list:
    after = bindings()
    return [key for key, value in before.items() if after.get(key) is not value]


def test_metrics_printed(spec, setup) -> None:
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = worker.measure(name, 1, 0, trace, str(WORK / name), tiny=True)
            lines = run.report_lines(result, setup, {"sha": None, "dirty": None}, spec)
            record = run.final_record(result, setup, spec)
            declared = spec["per_layer" if trace else "end_to_end"]
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in record["metrics"].items()}
            check(got == units, f"{name} trace {trace}: every declared metric emitted with its unit")
            values = [v["value"] for v in record["metrics"].values()]
            check(
                all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                f"{name} trace {trace}: every metric value is a finite number",
            )
            check(record["correct"] and record["failed"] == 0, f"{name} trace {trace}: no failed operation")
            text = "\n".join(lines)
            printed = ["failed_frac"] + ([] if trace else [f"{n} " for n in units])
            if name == "report-mixed" and not trace:
                printed += ["latency_p50_ms", "latency_p99_ms", "reports_per_s"]
            if trace:
                printed += ["cli.import_s", "trace.overhead_frac", "byte-identical to untraced: yes"]
            missing = [p for p in printed if p not in text]
            check(not missing, f"{name} trace {trace}: printed by name {missing or ''}")
            if not trace:
                for n, unit in units.items():
                    line = next((ln for ln in lines if ln.startswith(n + " ")), "")
                    check(f" {unit}" in line, f"{name}: {n} printed with unit {unit}")


def test_tracer_restores() -> None:
    before = bindings()
    original_main = qconc.cli.main
    original_oracle = qconc.concurrence_oracle
    gone = ("validate.gone", "qconc.validate", "no_such_function", None)
    tracer = Tracer(TARGETS + (gone,))
    tracer.install()
    try:
        check(qconc.cli.main is not original_main, "tracer wraps cli.main")
        check(
            qconc.validate.concurrence_oracle is qconc.cli.concurrence_oracle
            and qconc.cli.concurrence_oracle is not original_oracle,
            "tracer wraps every module's binding of concurrence_oracle",
        )
        check(tracer.missing == ["validate.gone"], "a target that does not exist is reported missing")
    finally:
        not_restored = tracer.restore()
    check(not not_restored and not changed(before), "tracer restores every binding")
    worker.measure("validate-stacked", 1, 0, 1, str(WORK / "restore"), tiny=True)
    check(not changed(before), "a traced measurement leaves every binding restored")


def test_wrong_reference_fails() -> None:
    report = workloads.build("report-mixed", 1, str(WORK / "wrong-ref"), tiny=True)
    report.references[0] += 1e-6
    first = report.run(qconc.cli.main)
    check(first.failed / first.attempted > 0, "a wrong reference value raises failed_frac above 0")
    validate = workloads.build("validate-loop", 1, str(WORK / "wrong-digest"), tiny=True)
    validate.run(qconc.cli.main)
    validate.reference_digests[0] = "0" * 64
    second = validate.run(qconc.cli.main)
    check(second.failed / second.attempted > 0, "a differing report digest raises failed_frac above 0")


def test_needs_source_tree() -> None:
    bare = WORK / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report-mixed", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(), "run.py fails without src/qconc")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        spec = run.load_spec()
        setup = run.measure_setup(run.child_env())
        test_metrics_printed(spec, setup)
        test_tracer_restores()
        test_wrong_reference_fails()
        test_needs_source_tree()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
