"""qconc benchmark: run a workload from the source tree and print its metrics.

    python3 bench/run.py [--workload validate-loop|validate-stacked|report-mixed|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it needs ``src/qconc`` next to
``bench/``. Each workload runs in its own fresh single-threaded interpreter
with ``PYTHONPATH=src``. Set-up time is measured in separate fresh
interpreters. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it holds the per-layer metrics. Everything measured, with the environment,
is also written to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: pairs of fresh interpreters timed for ``setup_s``, see ``measure_setup``
SETUP_PROBES = 15
PROBE = (
    "import time; t = time.perf_counter(); import qconc.cli; "
    "print(time.perf_counter() - t, flush=True)"
)
#: the same with numpy, qconc's one heavy dependency, in place of qconc.cli
BASE_PROBE = "import numpy; print(0.0, flush=True)"
#: median time of ``BASE_PROBE`` on the reference machine (2-core x86_64,
#: Python 3.11.7, numpy 2.4.6); ``setup_s`` is in seconds of that machine
BASE_REF_S = 0.14
#: the worker may run this long beyond ``--seconds`` (warm-up, last pass)
WORKER_GRACE_S = 120


class BenchError(Exception):
    """The benchmark itself could not run."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def git_state() -> dict:
    """Commit and dirty flag of the checkout, or nulls outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"sha": None, "dirty": None}
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def _probe(code, env) -> tuple[float, str]:
    """Seconds from spawning ``python -c code`` to its first output line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not line.strip():
        raise BenchError(f"probe {code!r} failed: {err.strip()[-500:]}")
    return ready, line


def measure_setup(env) -> dict:
    """Time fresh interpreters that import ``qconc.cli``, each paired with
    one that imports only numpy, started just before it.

    ``ready_s`` is spawn to ``qconc.cli`` imported, ``import_s`` the import
    statement alone, ``base_s`` spawn to numpy imported. The machine's speed
    drifts by tens of percent between runs, for both kinds of interpreter
    alike, so ``setup_s`` scales ``ready_s`` by ``base_s``, see
    ``setup_seconds``.
    """
    setup = {"ready_s": [], "import_s": [], "base_s": []}
    for _ in range(SETUP_PROBES):
        setup["base_s"].append(_probe(BASE_PROBE, env)[0])
        ready, line = _probe(PROBE, env)
        setup["ready_s"].append(ready)
        setup["import_s"].append(float(line))
    return setup


def setup_seconds(setup) -> float:
    """Set-up time on a machine where ``BASE_PROBE`` takes ``BASE_REF_S``:
    the median over pairs of ``ready_s / base_s``, times ``BASE_REF_S``. A
    change to qconc's import moves it by the same share as the raw time,
    while the machine's drift cancels within each pair."""
    ratios = [r / b for r, b in zip(setup["ready_s"], setup["base_s"])]
    return BASE_REF_S * statistics.median(ratios)


def run_worker(workload, seed, seconds, trace, env) -> dict:
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    result_path = OUT / f"{stem}-trace{trace}.worker.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(workdir), "--result", str(result_path),
    ]
    if trace:
        cmd += ["--spans", str(OUT / f"{stem}-spans.jsonl")]
    timeout = seconds + WORKER_GRACE_S
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
        if proc.returncode != 0:
            raise BenchError(f"worker for {workload} failed:\n{proc.stderr[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} ran over {timeout:g} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        result_path.unlink(missing_ok=True)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def published_digests(workload, seed):
    try:
        with open(BENCH / "digests.json", encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def end_to_end_value(name, result, setup):
    values = {
        "setup_s": setup_seconds(setup),
        "wall_cal": result["wall_cal"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return values[name]


def per_layer_value(name, result, setup):
    """Value of a per-layer metric; 0 for a function that was never called."""
    tracing = result["tracing"]
    if name == "cli.import_s":
        return statistics.median(setup["import_s"])
    if name == "trace.overhead_frac":
        return tracing["overhead_frac"]
    if name.startswith("layer."):
        _, layer, field = name.split(".")
        value = tracing["layers"][layer][field]
    elif ".raised." in name:
        func, kind = name.split(".raised.")
        value = tracing["functions"].get(func, {}).get("raised", {}).get(kind, 0)
    else:
        func, _, field = name.rpartition(".")
        value = tracing["functions"].get(func, {}).get(field)
    if value is None:
        return 0.0
    is_count = name.endswith((".calls", ".states", ".bytes")) or ".raised." in name
    return int(value) if is_count and float(value).is_integer() else value


def report_lines(result, setup, git, spec) -> list[str]:
    r = result
    env = r["environment"]
    blas = env["blas"].get("blas", {})
    lines = [
        f"== {r['workload']}  seed {r['seed']}  trace {r['trace']}",
        "environment: nproc {nproc}  python {py}  numpy {np}  blas {blas}  {threads}  git {sha}{dirty}".format(
            nproc=env["nproc"], py=env["python"], np=env["numpy"],
            blas=f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            threads=" ".join(f"{k}={v}" for k, v in env["thread_env"].items()),
            sha=git["sha"] or "unknown", dirty=" (dirty)" if git["dirty"] else "",
        ),
    ]
    failed_frac = r["failed"] / r["attempted"]
    lines.append(f"{'failed_frac':<44} {failed_frac:.6g}  ({r['failed']} of {r['attempted']} operations)")
    lines += [f"  problem: {p}" for p in r["problems"]]
    if not r["trace"]:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        notes = {
            "setup_s": f"scaled by a numpy-only interpreter, {len(setup['ready_s'])} pairs; "
                       f"raw median {statistics.median(setup['ready_s']):.6g} s, "
                       f"numpy-only {statistics.median(setup['base_s']):.6g} s",
            "wall_cal": f"median over {r['passes']} passes of pass time over the adjacent kernel times",
            "peak_rss_mb": "ru_maxrss of the workload process after its warm-up pass",
        }
        for name, unit in units.items():
            lines.append(f"{name:<44} {end_to_end_value(name, r, setup):.6g} {unit}  {notes.get(name, '')}")
        lines.append(f"{'wall_s':<44} {r['wall_s']:.6g} s  median of {r['passes']} passes, "
                     "follows the machine's speed drift")
        if "reports" in r:
            rep = r["reports"]
            beyond = int(rep["samples"] * 0.01)
            lines.append(f"{'latency_p50_ms':<44} {rep['latency_p50_ms']:.6g} ms  over {rep['samples']} reports")
            lines.append(f"{'latency_p99_ms':<44} {rep['latency_p99_ms']:.6g} ms  ({beyond} reports beyond it)")
            lines.append(f"{'reports_per_s':<44} {rep['reports_per_s']:.6g} 1/s  one closed-loop client")
    else:
        t = r["tracing"]
        lines.append(f"{'cli.import_s':<44} {statistics.median(setup['import_s']):.6g} s")
        lines.append(f"{'trace.overhead_frac':<44} {t['overhead_frac']:.6g}  traced {t['wall_s']:.6g} s "
                     f"against untraced {r['wall_s']:.6g} s per pass")
        lines.append(f"trace outputs byte-identical to untraced: {'yes' if t['outputs_identical'] else 'NO'}")
        lines.append(f"trace missing targets: {', '.join(t['missing']) or 'none'}")
        lines.append(f"trace wrappers restored: {'yes' if not t['not_restored'] else 'NO ' + ', '.join(t['not_restored'])}")
        for layer, v in t["layers"].items():
            lines.append(f"layer.{layer:<38} {fmt(v['us_per_state'])} us/state  {fmt(v['self_s'])} s self  {fmt(v['states'])} states")
        idle = [name for name, v in t["functions"].items() if not v["calls"]]
        for name, v in t["functions"].items():
            if name.startswith("validate.suite."):
                lines.append(f"{name + '.s':<44} {fmt(v['total_s'])} s")
                continue
            if not v["calls"]:
                continue
            extra = ""
            if "states" in v:
                extra += f"  {fmt(v['states'])} states  {fmt(v['us_per_state'])} us/state"
            if "bytes" in v:
                extra += f"  {fmt(v['bytes'])} bytes"
            if v["raised"]:
                extra += "  raised " + " ".join(f"{k}={fmt(c)}" for k, c in v["raised"].items())
            lines.append(f"{name:<44} {fmt(v['calls'])} calls  {fmt(v['self_s'])} s self  "
                         f"{fmt(v['us_per_call'])} us/call{extra}")
        lines.append(f"not called in this workload: {', '.join(idle) or 'none'}")
    published = published_digests(r["workload"], r["seed"])
    verdict = ("no published digest for this seed" if published is None
               else "matches published" if published == r["digests"] else "DIFFERS from published")
    for key, digest in r["digests"].items():
        lines.append(f"digest {r['workload']} seed {r['seed']} {key}: {digest}")
    lines.append(f"digests {verdict} (bench/digests.json)")
    return lines


def fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def final_record(result, setup, spec) -> dict:
    """The JSON object of the last output line."""
    if result["trace"]:
        value, declared = per_layer_value, spec["per_layer"]
    else:
        value, declared = end_to_end_value, spec["end_to_end"]
    metrics = {
        m["name"]: {"value": value(m["name"], result, setup), "unit": m["unit"]}
        for m in declared
    }
    identical = not result["trace"] or result["tracing"]["outputs_identical"]
    return {
        "correct": result["failed"] == 0 and identical,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_one(workload, seed, seconds, trace, spec, git) -> dict:
    env = child_env()
    setup = measure_setup(env)
    result = run_worker(workload, seed, seconds, trace, env)
    record = final_record(result, setup, spec)
    for line in report_lines(result, setup, git, spec):
        print(line)
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**record, "git": git, "setup": setup, "result": result}, fh, indent=1, sort_keys=True)
    return record


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="qconc benchmark")
    parser.add_argument("--workload", default="all", choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qconc" / "cli.py").is_file():
        print(f"bench: no qconc source tree at {SRC / 'qconc'}; run inside a checkout", file=sys.stderr)
        return 2
    try:
        git = git_state()
        names = workloads if args.workload == "all" else [args.workload]
        records = {w: run_one(w, args.seed, args.seconds, args.trace, spec, git) for w in names}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        final = next(iter(records.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{w}.{k}": v for w, r in records.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
