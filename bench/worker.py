"""Measure one workload in this interpreter and write the result as JSON.

``run.py`` starts this file in a fresh single-threaded process per workload:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR --result FILE

After one warm-up pass, which also fixes the reference digests, the worker
repeats passes until ``--seconds`` have gone by and times the calibration
kernel between them. With ``--trace 1`` it alternates untraced and traced
passes, compares their outputs byte for byte and reports per-layer
statistics from the traced ones only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import qconc.cli
import workloads
from layertrace import Tracer
from run import THREAD_VARS

#: at least this many measured passes, however long they take
MIN_PASSES = 3


def call_cli(argv) -> int:
    # looked up on every call, so that a traced pass goes through the wrapper
    return qconc.cli.main(argv)


def environment() -> dict:
    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {
        key: {k: dep.get(k) for k in ("name", "version", "openblas configuration") if dep.get(k)}
        for key, dep in build.items()
        if key in ("blas", "lapack")
    }
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def timed_calibration() -> float:
    start = time.perf_counter()
    workloads.calibrate()
    return time.perf_counter() - start


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass statistics of every traced function."""
    funcs = {}
    for name, s in sorted(tracer.stats.items()):
        entry = {
            "calls": s.calls / passes,
            "self_s": s.self_s / passes,
            "total_s": s.total_s / passes,
            "us_per_call": 1e6 * s.self_s / s.calls if s.calls else None,
        }
        if s.states or name.startswith("validate.batch_"):
            entry["states"] = s.states / passes
            entry["us_per_state"] = 1e6 * s.self_s / s.states if s.states else None
        if s.bytes:
            entry["bytes"] = s.bytes / passes
        entry["raised"] = {k: v / passes for k, v in sorted(s.raised.items())}
        funcs[name] = entry
    return funcs


#: a quantity computed on both the scalar and the batch path, counted per state
LAYER_PARTS = {
    "state": ("qstate.DensityOperator",),
    "decompose": ("qstate.decompose", "validate.batch_decompose"),
    "invariants": ("invariants.invariant_vector", "validate.batch_invariants"),
    "oracle": ("concurrence.concurrence_oracle", "validate.batch_oracle"),
}


def layer_totals(funcs: dict) -> dict:
    out = {}
    for layer, parts in LAYER_PARTS.items():
        self_s = sum(funcs[p]["self_s"] for p in parts if p in funcs)
        states = sum(funcs[p].get("states", funcs[p]["calls"]) for p in parts if p in funcs)
        out[layer] = {
            "self_s": self_s,
            "states": states,
            "us_per_state": 1e6 * self_s / states if states else None,
        }
    return out


def write_spans(path: str, spans: list) -> None:
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, request in spans:
            fh.write(
                json.dumps(
                    {"name": name, "start": start - t0, "end": end - t0,
                     "parent": parent, "request": request}
                )
                + "\n"
            )


def measure(name, seed, seconds, trace, workdir, spans_path=None, tiny=False) -> dict:
    """Run the workload for ``seconds`` and return every measurement."""
    workload = workloads.build(name, seed, workdir, tiny=tiny)
    warmup = workload.run(call_cli)
    # read before the first calibration kernel runs, so that the peak is
    # qconc's; the passes are deterministic, so later ones reach the same peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes, traced = [], []
    tracer = Tracer() if trace else None
    not_restored: list[str] = []
    deadline = time.perf_counter() + seconds

    def done() -> bool:
        counts = (len(passes), len(traced)) if trace else (len(passes),)
        return time.perf_counter() >= deadline and min(counts) >= MIN_PASSES

    # each untraced pass over the mean of the kernel times just before and
    # just after it, so that the pass is paired with the machine's speed then
    calibrations = [timed_calibration()]
    ratios = []
    while not done():
        passes.append(workload.run(call_cli))
        calibrations.append(timed_calibration())
        ratios.append(passes[-1].wall_s / statistics.fmean(calibrations[-2:]))
        if tracer is None:
            continue
        tracer.keep_spans = not traced
        tracer.install()
        try:
            traced.append(workload.run(call_cli))
        finally:
            not_restored += tracer.restore()
        if len(traced) == 1 and spans_path:
            write_spans(spans_path, tracer.spans)
            tracer.spans.clear()
        calibrations.append(timed_calibration())

    every = [warmup] + passes + traced
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(bool(trace)),
        "passes": len(passes),
        "attempted": sum(p.attempted for p in every),
        "failed": sum(p.failed for p in every) + len(not_restored),
        "problems": [msg for p in every for msg in p.problems][:10]
        + [f"not restored after tracing: {b}" for b in not_restored],
        "wall_s": statistics.median(p.wall_s for p in passes),
        "wall_cal": statistics.median(ratios),
        "pass_walls_s": [p.wall_s for p in passes],
        "calibrations_s": calibrations,
        "peak_rss_mb": peak_rss_mb,
        "digests": workload.digests(),
        "environment": environment(),
    }
    if workload.kind == "report":
        latencies = [t for p in passes for t in p.latencies]
        result["reports"] = {
            "latency_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
            "latency_p99_ms": 1e3 * float(np.percentile(latencies, 99)),
            "samples": len(latencies),
            "reports_per_s": len(latencies) / sum(latencies),
        }
    if tracer is not None:
        funcs = layer_metrics(tracer, len(traced))
        traced_wall = statistics.median(p.wall_s for p in traced)
        result["tracing"] = {
            "passes": len(traced),
            "wall_s": traced_wall,
            "overhead_frac": traced_wall / result["wall_s"] - 1.0,
            "outputs_identical": all(p.digests == workload.reference_digests for p in traced),
            "missing": tracer.missing,
            "not_restored": not_restored,
            "functions": funcs,
            "layers": layer_totals(funcs),
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    result = measure(
        args.workload, args.seed, args.seconds, args.trace, args.workdir, args.spans
    )
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
