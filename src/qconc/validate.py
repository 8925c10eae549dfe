"""Monte-Carlo validation suites comparing every formula to the exact oracle.

Each suite draws reproducible samples from its target family, evaluates the
formula under test next to the oracle, and reduces the deviations into a
SuiteReport: sample count, max and mean deviation, violation count against
the suite tolerance, and the worst offenders with enough state detail to
replay them. Suites with no trusted closed form (the rank-2 invariant
candidate, the X-state invariant expression) carry no tolerance; they always
pass and exist to publish statistics.

Every sampled suite draws a chunk's parameters as one block (a family
dataclass with array fields, or arrays), builds the chunk's raw (n, 4, 4)
stack, validates it with one check_states call (`pure` and `lu-invariance`
build theirs valid) and evaluates decomposition, invariants, the oracle and
the closed form under test on it, one call each; the family suites share
that kernel (_family). The samplers draw (n, k) blocks: uniform rows, or a
Dirichlet or normal block followed by uniform blocks; only the rank-2
rejection sampler walks its rows, to keep each state's first accepted try.
Parameter dataclasses of single states are built only for the offenders a
report prints. A sampled suite is split into the fewest chunks of at most
_CHUNK_CAP states, split evenly, each on its own spawned seed stream
(_tasks); run_suites plans every requested suite's chunks first and runs
them (_chunk_results): in this process when every suite has one chunk, when
one CPU is usable or when the platform cannot fork, and otherwise on one
pool of forked workers, one per usable CPU, that inherit the chunk kernels
and return each chunk's deviations, offenders and extras. Each suite
(_chunked_suite) merges its chunks in spawn order as they arrive, so results
depend only on the seed and the sample count, not on where the chunks ran,
and memory stays bounded at any sample count. The suites that draw nothing
evaluate fixed grids in this process: `ladder` builds and checks its grid in
slices of the chunk sizes; `threshold`, `region` and `inversions` take one
stack.
"""

from __future__ import annotations

import math
import os
import signal
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Callable

import numpy as np

from .bounds import (
    REGION_ENTANGLED,
    REGION_INFEASIBLE,
    REGION_SEPARABLE,
    Rank3Mixture,
    Rank4Mixture,
    rank3_bound,
    rank3_max_concurrence,
    rank3_max_matrix,
    rank3_threshold,
    rank4_bound,
    rank4_max_concurrence,
    rank4_max_matrix,
    rank4_region,
)
# concurrence_oracle runs in no suite; it stays bound here because the
# benchmark's self-test (bench/selftest.py) checks that its tracer wraps
# every module's binding of it, this one included
from .concurrence import batch_oracle, concurrence_oracle  # noqa: F401
from .errors import DomainError, I1Zero, Infeasible, SamplerExhausted, WorkerLost
from .estimators import (
    Rank2Canonical,
    Rank2Degenerate,
    Rank2SepDecomp,
    XState,
    estimate_projection2,
    estimate_pure,
    estimate_rank2_degenerate,
    estimate_rank2_sep2,
    ladder_concurrence,
    ladder_from_correlation,
    ladder_matrix,
    local_observables_rank2,
    rank2_degenerate_matrix,
    rank2_matrix,
    rank2_sep_matrix,
    reconstruct_rank2,
    xstate_concurrence,
    xstate_matrix,
)
from .estimators import _xstate_invariant
from .invariants import InvariantVector, batch_invariants, purity_residuals
from .measurement import (
    _weights,
    expectation,
    lambda_from_szpz,
    lambdas_from_correlations,
    sample_expectation,
)
from .qstate import (
    REJECTION_LIMIT,
    _cos_sin,
    _one_or_block,
    _record,
    batch_decompose,
    batch_random_mixed,
    check_states,
)


# ---------------------------------------------------------------------------
# stacked samplers
# ---------------------------------------------------------------------------


def batch_random_pure(rng, n: int) -> np.ndarray:
    """n Haar-random 4-component unit vectors, shape (n, 4)."""
    z = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def batch_haar_u2(rng, n: int) -> np.ndarray:
    """n Haar-random 2x2 unitaries, shape (n, 2, 2): the Q of a complex Gaussian
    block z's QR with R's diagonal positive, in closed form: z's first column
    normalized, (a, b), then (-b*, a*) times the phase of its product with z's second."""
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    a, b = z[:, 0, 0], z[:, 1, 0]
    norm = np.sqrt((a.real * a.real + a.imag * a.imag) + (b.real * b.real + b.imag * b.imag))
    a, b = a / norm, b / norm
    w = a * z[:, 1, 1] - b * z[:, 0, 1]
    phase = w / np.sqrt(w.real * w.real + w.imag * w.imag)
    return np.stack([np.stack([a, -b.conj() * phase], 1), np.stack([b, a.conj() * phase], 1)], 1)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    samples: int
    passed: bool
    max_deviation: float
    mean_deviation: float
    violations: int
    tolerance: float | None = None
    worst: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    notes: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _jsonable(value):
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name)) for f in fields(value)
        }
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


#: the worst states a report lists, most deviant first
TOP_OFFENDERS = 3


def _top_offenders(devs: np.ndarray, payload_fn) -> list:
    order = np.argsort(devs)[::-1][:TOP_OFFENDERS]
    return [
        {"deviation": float(devs[i]), **payload_fn(int(i))}
        for i in order
        if devs[i] > 0.0
    ]


def _report(
    name: str,
    devs: np.ndarray,
    tolerance: float | None,
    offenders: list,
    extra: dict | None = None,
    notes: str = "",
    passed_override: bool | None = None,
) -> SuiteReport:
    devs = np.asarray(devs, dtype=float)
    n = int(devs.size)
    max_dev = float(devs.max()) if n else 0.0
    mean_dev = float(devs.mean()) if n else 0.0
    violations = int((devs > tolerance).sum()) if tolerance is not None else 0
    return SuiteReport(
        suite=name,
        samples=n,
        passed=violations == 0 if passed_override is None else passed_override,
        max_deviation=max_dev,
        mean_deviation=mean_dev,
        violations=violations,
        tolerance=tolerance,
        worst=_jsonable(offenders),
        extra=_jsonable(extra or {}),
        notes=notes,
    )


#: most states in one chunk: it bounds the size of a chunk's stacked arrays
#: (about 2.5 MB of matrices at the cap)
_CHUNK_CAP = 2500


def _chunk_sizes(samples: int) -> list[int]:
    """The fewest chunks of at most _CHUNK_CAP states, split evenly, the first
    ones a state larger; they depend only on the sample count."""
    n_chunks = max(1, -(-samples // _CHUNK_CAP))
    base, remainder = divmod(samples, n_chunks)
    sizes = [base + (1 if i < remainder else 0) for i in range(n_chunks)]
    return [s for s in sizes if s > 0]


def _slices(samples: int) -> list[slice]:
    """The chunks of _chunk_sizes as consecutive slices; one empty slice for none."""
    ends = np.cumsum([0] + _chunk_sizes(samples)).tolist()
    return [slice(a, b) for a, b in zip(ends, ends[1:])] or [slice(0, 0)]


def _tasks(suite, seq, samples: int) -> list | None:
    """A chunked suite's chunks, (kernel, rng, size) each, on the sizes of
    _chunk_sizes and streams spawned from the suite's; None for a fixed-grid
    suite."""
    kernel = getattr(suite, "kernel", None)
    if kernel is None:
        return None
    sizes = _chunk_sizes(samples)
    return [(kernel, np.random.default_rng(s), m) for s, m in zip(seq.spawn(len(sizes)), sizes)]


def _chunked_suite(name: str, kernel: Callable, tolerance, notes: str, extra=None, passed=None):
    """The suite that merges the results of kernel(rng, n) on its chunks (see
    _tasks), given in spawn order: the deviations, the offenders and the
    kernels' own extras; extra(devs, extras) gives the report's extras and
    passed(devs, report_extras) its verdict."""

    def suite(results):
        devs = np.concatenate([r[0] for r in results])
        offenders = sorted((o for r in results for o in r[1]), key=lambda o: -o["deviation"])
        merged = None if extra is None else extra(devs, [r[2] for r in results if len(r) > 2])
        verdict = None if passed is None else passed(devs, merged)
        return _report(name, devs, tolerance, offenders[:TOP_OFFENDERS], merged, notes, verdict)

    suite.kernel = kernel
    return suite


def _workers() -> int:
    """The processes a multi-chunk run may use: one per CPU this process may
    run on, or one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: a worker's copy of the running call's tasks, see _chunk_results
_TASKS: list = []


def _adopt(tasks: list) -> None:
    """Start a worker: keep its forked copy of the tasks, and leave SIGINT to
    the parent, which cancels what has not started and waits for the rest."""
    global _TASKS
    _TASKS = tasks
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_task(index: int):
    kernel, rng, n = _TASKS[index]
    return kernel(rng, n)


@contextmanager
def _chunk_results(tasks: list, multi_chunk: bool):
    """An iterator over the tasks' results, (devs, offenders[, extras]) each,
    in task order. They are computed in this process, as they are read, when
    no suite has more than one chunk, when one CPU is usable or when the
    platform cannot fork. Otherwise one pool of forked workers, one per
    usable CPU and at most one per task, runs them all: the workers inherit
    the tasks with the kernel closures, which are never pickled, so only task
    indices go out and results come back. A worker's exception is raised
    here as it was raised there; a worker that dies raises WorkerLost. No
    worker outlives the block."""
    workers = min(_workers(), len(tasks)) if multi_chunk else 1
    if workers < 2:
        yield (kernel(rng, n) for kernel, rng, n in tasks)
        return
    # imported here, so that a single-chunk run loads no process machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: the kernels are closures, which cannot be pickled, and
    # a spawned worker would import numpy and qconc again; a fork context
    # hands the initializer's arguments to the child unpickled
    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(
        workers, mp_context=context, initializer=_adopt, initargs=(tasks,)
    )
    try:
        futures = [pool.submit(_run_task, i) for i in range(len(tasks))]
        yield (future.result() for future in futures)
    except BrokenProcessPool as exc:
        raise WorkerLost(f"a worker process ended before returning its chunk: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


def _summed(counts: list) -> dict:
    """The chunks' count dicts, summed key by key."""
    return {key: sum(c[key] for c in counts) for key in counts[0]}


# ---------------------------------------------------------------------------
# family samplers
# ---------------------------------------------------------------------------


#: (low, high) of the uniform draws behind one canonical rank-2 try, in
#: draw order: nu, alpha, beta, gamma, eta
_RANK2_DRAWS = (
    (0.05, 0.95),
    (0.1, math.pi / 2.0 - 0.1),
    (0.1, math.pi / 2.0 - 0.1),
    (0.15, 2.0 * math.pi - 0.15),
    (0.1, math.pi / 2.0 - 0.1),
)


def _clear_of_guards(params: Rank2Canonical):
    """Whether canonical rank-2 parameters (or each row of a block) keep clear
    of every reconstruction guard."""
    p, s = local_observables_rank2(params)
    ca, sa = _cos_sin(params.alpha)
    return (
        (abs(params.gamma - math.pi) >= 0.15)
        & (abs(params.beta - math.pi / 4.0) >= 0.05)
        & (np.abs(np.concatenate([p[..., :2], s[..., :2]], axis=-1)).min(axis=-1) >= 1e-2)
        & (abs(sa * p[..., 0] + ca * s[..., 0]) >= 1e-2)
    )


def sample_nondegenerate_rank2(rng, n=None) -> Rank2Canonical:
    """Canonical rank-2 parameters kept clear of every reconstruction guard.

    Each try draws one row of five uniforms; a state takes the first try
    that clears the guards, and raises SamplerExhausted after
    REJECTION_LIMIT tries. An int n gives a block of n states: rows are
    drawn in blocks and the accepted ones kept in order, so the block holds
    what n single calls return, and the generator ends where theirs would.
    A single call is the n=1 call.
    """
    exhausted = f"no rank-2 draw cleared the guards in {REJECTION_LIMIT} draws"
    m = 1 if n is None else n
    lows, highs = np.array(_RANK2_DRAWS).T
    kept = []
    tries = 0  # tries of the state being drawn
    while len(kept) < m:
        # at most one row per state still missing, so no row past the last
        # accepted one is ever drawn
        rows = rng.uniform(lows, highs, size=(m - len(kept), len(lows)))
        for row, ok in zip(rows, _clear_of_guards(Rank2Canonical(*rows.T))):
            tries += 1
            if ok:
                kept.append(row)
                tries = 0
            elif tries == REJECTION_LIMIT:
                raise SamplerExhausted(exhausted)
    block = Rank2Canonical(*np.array(kept).reshape(-1, len(lows)).T)
    return _one_or_block(block, n)


def sample_rank2_sep(rng, n=None) -> Rank2SepDecomp:
    """Random separable-plus-pure rank-2 parameters, or a block of n: one row
    of five uniforms each (the a/b angle, lam, mu, theta, phase)."""
    lows = (0.05, 0.0, 0.0, 0.0, 0.0)
    highs = (math.pi / 2.0 - 0.05, 1.0, 1.0, math.pi / 2.0, 2.0 * math.pi)
    u = rng.uniform(lows, highs, size=(1 if n is None else n, 5))
    t, lam, mu, theta, phase = u.T
    cos_t, sin_t = _cos_sin(t)
    block = Rank2SepDecomp(lam=lam, mu=mu, a=sin_t, b=cos_t, theta=theta, phase=phase)
    return _one_or_block(block, n)


def sample_rank2_degenerate(rng, lam=None, n=None) -> Rank2Degenerate:
    """Random degenerate-family parameters, or a block of n.

    A block draws an (n, 3) block of normals (each row normalized to the
    psi amplitudes), then n phases and, unless lam is given, n weights; a
    single call is the block's n=1 call.
    """
    m = 1 if n is None else n
    v = rng.normal(size=(m, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=m)
    weight = rng.uniform(0.0, 1.0, size=m) if lam is None else np.full(m, float(lam))
    r1, c, r2 = np.abs(v).T
    block = Rank2Degenerate(lam=weight, r1=r1, r2=r2, c=c * np.exp(1j * phase))
    return _one_or_block(block, n)


def sample_xstate(rng, rank3: bool = False, n=None) -> XState:
    """Random X state, or a block of n; rank3=True zeroes one outer corner as
    in the physical class.

    A block draws an (n, k) block of Dirichlet weights, then (for rank3) n
    corner choices, n coherence radii bounded by sqrt(w1 w2) and n phases;
    a single call is the block's n=1 call.
    """
    m = 1 if n is None else n
    if rank3:
        w = rng.dirichlet(np.ones(3), size=m)
        corner = rng.uniform(size=m) < 0.5
        u_plus = np.where(corner, 0.0, w[:, 2])
        u_minus = np.where(corner, w[:, 2], 0.0)
        w1, w2 = w[:, 0], w[:, 1]
    else:
        u_plus, w1, w2, u_minus = rng.dirichlet(np.ones(4), size=m).T
    r = rng.uniform(0.0, np.sqrt(w1 * w2))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=m)
    block = XState(u_plus=u_plus, w1=w1, w2=w2, u_minus=u_minus, z=r * np.exp(1j * phase))
    return _one_or_block(block, n)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _pure(rng, n):
    amps = batch_random_pure(rng, n)
    mats = np.einsum("ni,nj->nij", amps, amps.conj())
    inv = _invariants(mats)
    formula = estimate_pure(inv)
    res1, res2 = purity_residuals(inv.i1, inv.i2, inv.i6)
    residual = float(np.maximum(np.abs(res1), np.abs(res2)).max())
    return *_graded(lambda i: {"amplitudes": amps[i]}, formula, batch_oracle(mats)), residual


def _lu_invariance(rng, n):
    per_rank = [n // 4] * 4
    per_rank[3] += n - sum(per_rank)
    mats = np.concatenate(
        [batch_random_mixed(rng, m, rank) for rank, m in zip((1, 2, 3, 4), per_rank) if m > 0]
    )
    ua = batch_haar_u2(rng, mats.shape[0])
    ub = batch_haar_u2(rng, mats.shape[0])
    u = np.einsum("nij,nkl->nikjl", ua, ub).reshape(-1, 4, 4)
    rotated = u @ mats @ u.conj().transpose(0, 2, 1)
    inv0 = batch_invariants(*batch_decompose(mats))
    inv1 = batch_invariants(*batch_decompose(rotated))
    c0 = batch_oracle(mats)
    c1 = batch_oracle(rotated)
    devs = np.maximum(np.abs(inv0 - inv1).max(axis=1), np.abs(c0 - c1))
    return _graded(lambda i: {"matrix": mats[i]}, c1, c0, devs)


def _invariants(mats: np.ndarray) -> InvariantVector:
    """The invariants of a stack, as a block."""
    return InvariantVector(*batch_invariants(*batch_decompose(mats)).T)


def _graded(state, estimates, oracle, devs=None):
    """Deviations (|estimate - oracle| per state unless given) and the worst
    offenders, state(i) giving offender i's state; a family's parameter row
    is built as a dataclass only for the offenders a report prints."""
    devs = np.abs(estimates - oracle) if devs is None else devs
    payload = lambda i: {
        "oracle": float(oracle[i]),
        "estimate": float(estimates[i]),
        "state": _jsonable(state(i)),
    }
    return devs, _top_offenders(devs, payload)


def _family(draw: Callable, build: Callable, estimate: Callable) -> Callable:
    """The kernel of a family suite: draw(rng, n) a block of parameters,
    build and check its stack, and grade estimate(params, mats) against the
    oracle."""

    def kernel(rng, n):
        params = draw(rng, n)
        mats = check_states(build(params))
        return _graded(lambda i: _record(params, i), estimate(params, mats), batch_oracle(mats))

    return kernel


def _rank2_roundtrip(rng, n):
    params = sample_nondegenerate_rank2(rng, n)
    recs = reconstruct_rank2(*local_observables_rank2(params))
    mats = check_states(np.concatenate([rank2_matrix(params), rank2_matrix(recs)]))
    inv = batch_invariants(*batch_decompose(mats))
    c = batch_oracle(mats)
    devs = np.maximum(np.abs(inv[:n] - inv[n:]).max(axis=1), np.abs(c[:n] - c[n:]))
    return _graded(lambda i: _record(params, i), c[n:], c[:n], devs)


def _invariant_xstate(rng, n):
    states = sample_xstate(rng, rank3=True, n=n)
    mats = check_states(xstate_matrix(states))
    value, guards = _xstate_invariant(_invariants(mats))
    value = guards.settle(value, (I1Zero, DomainError))
    i1_zero, domain_errors = guards.failed(I1Zero), guards.failed(DomainError)
    kept = np.flatnonzero(~(i1_zero | domain_errors))
    state = lambda i: _record(states, kept[i])
    devs, offenders = _graded(state, value[kept], batch_oracle(mats)[kept])
    counts = {
        "requested": n,
        "evaluated": int(kept.size),
        "i1_zero": int(i1_zero.sum()),
        "domain_errors": int(domain_errors.sum()),
    }
    return devs, offenders, counts


def _suite_ladder(seq, samples):
    lams = np.linspace(0.0, 1.0, max(samples, 2))
    oracle, szpz = [], []
    for rows in _slices(lams.size):
        mats = check_states(ladder_matrix(lams[rows]))
        oracle.append(batch_oracle(mats))
        szpz.append(expectation(mats, ("z", "z")))
    oracle, szpz = np.concatenate(oracle), np.concatenate(szpz)
    devs = np.maximum(
        np.abs(ladder_concurrence(lams) - oracle),
        np.abs(ladder_from_correlation(szpz) - oracle),
    )
    payload = lambda i: {"state": {"lam": float(lams[i])}}
    return _report(
        "ladder",
        devs,
        1e-8,
        _top_offenders(devs, payload),
        notes="1 - lam and the z-z correlation readout along the singlet ladder line",
    )


def _bounds(rng, n):
    half = n // 2
    m3 = Rank3Mixture.random(rng, n=half)
    m4 = Rank4Mixture.random(rng, n=n - half)
    vals = np.concatenate([rank3_bound(m3), rank4_bound(m4)])
    oracle = batch_oracle(check_states(np.concatenate([m3.matrix(), m4.matrix()])))
    margins = vals - oracle
    devs = np.maximum(0.0, -margins)
    order = np.argsort(margins)[:TOP_OFFENDERS]
    offenders = [
        {
            "deviation": float(devs[i]),
            "margin": float(margins[i]),
            "oracle": float(oracle[i]),
            "estimate": float(vals[i]),
            "state": _jsonable(_record(m3, i) if i < half else _record(m4, i - half)),
        }
        for i in order
    ]
    return devs, offenders


def _rank4_max(rng, n):
    l1 = rng.uniform(0.0, 1.0, size=n)
    l2 = rng.uniform(0.0, 1.0 - l1)
    literal = rank4_max_concurrence(l1, l2)
    oracle = batch_oracle(check_states(rank4_max_matrix(l1, l2)))
    exact = np.maximum(0.0, 1.0 - 1.5 * l1 - 4.0 * l2 / 3.0)
    positive = literal > 1e-6
    literal_dev = float(np.abs(np.maximum(literal, 0.0) - oracle).max())
    state = lambda i: {"lambda1": l1[i], "lambda2": l2[i]}
    return *_graded(state, exact, oracle), (literal_dev, oracle[positive] / literal[positive])


def _rank4_max_extra(devs, chunks) -> dict:
    ratios = np.concatenate([r for _, r in chunks])
    return {
        "literal_max_deviation": max(d for d, _ in chunks),
        "oracle_to_formula_ratio_min": float(ratios.min()) if ratios.size else 0.0,
        "oracle_to_formula_ratio_max": float(ratios.max()) if ratios.size else 0.0,
        "boundary_root_1": abs(rank4_max_concurrence(0.0, 0.75)),
        "boundary_root_2": abs(rank4_max_concurrence(2.0 / 3.0, 0.0)),
    }


def _suite_threshold(seq, samples):
    r = 1.0 / math.sqrt(2.0)
    bracket = check_states(rank3_max_matrix(np.array([0.74, 0.76]), r, r))
    low, high = batch_oracle(bracket).tolist()
    angles = np.linspace(0.05, math.pi / 4.0, max(samples, 2))
    b, a = _cos_sin(angles)
    roots = np.abs(rank3_max_concurrence(rank3_threshold(a, b), a, b))
    passed = bool(low > 0.0 and high <= 1e-12 and roots.max() <= 1e-12)
    payload = lambda i: {"state": {"angle": float(angles[i])}}
    return _report(
        "threshold",
        roots,
        1e-12,
        _top_offenders(roots, payload),
        extra={"oracle_at_0.74": low, "oracle_at_0.76": high},
        notes="three-quarters threshold bracket and the closed-form root identity",
        passed_override=passed,
    )


def _suite_region(seq, samples):
    grid_n = 101
    rows = rank4_region(grid_n)
    h = 1.0 / (grid_n - 1)
    # rank4_region is row-major over the (lambda1, lambda2) ticks, so grid
    # neighbours are neighbouring entries of these (grid_n, grid_n) arrays
    classes = np.array([k for _, _, k in rows]).reshape(grid_n, grid_n)
    l1, l2 = np.array([row[:2] for row in rows]).reshape(grid_n, grid_n, 2).transpose(2, 0, 1)
    feasible = classes != REGION_INFEASIBLE
    # valid by construction, so unchecked
    oracle = batch_oracle(rank4_max_matrix(l1[feasible], l2[feasible]))
    kinds = classes[feasible]
    separable = kinds == REGION_SEPARABLE
    mismatches = int(
        np.count_nonzero((kinds == REGION_ENTANGLED) & (oracle <= 1e-12))
        + np.count_nonzero(separable & (oracle > 1e-12))
    )
    # a boundary cell has a feasible grid neighbour of the other class
    across = (classes[:-1] != classes[1:]) & feasible[:-1] & feasible[1:]
    along = (classes[:, :-1] != classes[:, 1:]) & feasible[:, :-1] & feasible[:, 1:]
    boundary = np.zeros_like(feasible)
    boundary[:-1] |= across
    boundary[1:] |= across
    boundary[:, :-1] |= along
    boundary[:, 1:] |= along
    boundary_margin = float(np.abs(9 * l1 + 8 * l2 - 6.0)[boundary].max(initial=0.0))
    boundary_ok = boundary_margin < 9.0 * h + 1e-12
    devs = oracle[separable]
    passed = bool(mismatches == 0 and boundary_ok)
    return _report(
        "region",
        devs,
        1e-12,
        [],
        extra={
            "grid_n": grid_n,
            "mismatches": mismatches,
            "boundary_margin": boundary_margin,
            "boundary_budget": 9.0 * h,
        },
        notes=(
            "grid classes against assembled-state oracle values; boundary "
            "cells must straddle the line within one cell's worth of 9 l1 + 8 l2"
        ),
        passed_override=passed,
    )


def _suite_inversions(seq, samples):
    angles = (math.pi / 4.0, math.pi / 6.0, 1.0)
    lam = np.repeat(np.linspace(0.0, 1.0, 21), len(angles))
    a = np.tile([math.sin(t) for t in angles], 21)
    b = np.tile([math.cos(t) for t in angles], 21)
    l1, l2 = np.array(
        [(w1, w2) for w1 in np.linspace(0.0, 1.0, 11) for w2 in np.linspace(0.0, 1.0 - w1, 6)]
    ).T
    mats = check_states(
        np.concatenate([rank3_max_matrix(lam, a, b), rank4_max_matrix(l1, l2)])
    )
    szpz = expectation(mats, ("z", "z"))
    sxpx = expectation(mats[lam.size :], ("x", "x"))
    est = lambdas_from_correlations(sxpx, szpz[lam.size :])
    pairs = np.stack([np.abs(est.lambda1 - l1), np.abs(est.lambda2 - l2)], axis=1)
    devs = np.concatenate([np.abs(lambda_from_szpz(szpz[: lam.size]).value - lam), pairs.ravel()])
    return _report(
        "inversions",
        devs,
        1e-10,
        [],
        notes="noiseless weight-recovery round-trips from exact correlations",
    )


#: shots behind each sampled expectation value of the shots suite
_SHOTS = 10_000


def _shots(rng, n):
    r = 1.0 / math.sqrt(2.0)
    lam = rng.uniform(0.05, 0.95, size=n)
    l1 = rng.uniform(0.1, 0.7, size=n)
    l2 = rng.uniform(0.1, 0.9 - l1)
    zz3 = sample_expectation(check_states(rank3_max_matrix(lam, r, r)), ("z", "z"), _SHOTS, rng)
    rank4 = check_states(rank4_max_matrix(l1, l2))
    xx4 = sample_expectation(rank4, ("x", "x"), _SHOTS, rng)
    zz4 = sample_expectation(rank4, ("z", "z"), _SHOTS, rng)

    estimates = lambda_from_szpz(zz3.expectation)
    errs = np.abs(estimates.value - lam)
    sigma = 0.75 * np.maximum(zz3.std_error, 1e-12)

    xx_err, zz_err = xx4.std_error, zz4.std_error
    band1 = 5.0 * np.maximum(np.sqrt(4.0 * xx_err**2 + zz_err**2), 1e-12)
    band2 = 5.0 * np.maximum(1.5 * np.sqrt(xx_err**2 + zz_err**2), 1e-12)
    pairs, guards = _weights(xx4.expectation, zz4.expectation, 1.0)
    pairs = guards.settle(pairs, Infeasible)
    infeasible = guards.failed(Infeasible)
    graded = ~infeasible & (np.abs(pairs.lambda1 - l1) <= band1)
    counts = {
        "lam_ok": int(np.count_nonzero(errs <= 5.0 * sigma)),
        "pair_ok": int(np.count_nonzero(graded & (np.abs(pairs.lambda2 - l2) <= band2))),
        "clamped_lambdas": int(np.count_nonzero(estimates.clamped)),
        "infeasible_trials": int(np.count_nonzero(infeasible)),
    }
    return errs / (5.0 * sigma), [], counts


def _shots_extra(devs, chunks) -> dict:
    counts = _summed(chunks)
    return {
        "shots": _SHOTS,
        "lambda_success_rate": counts.pop("lam_ok") / devs.size,
        "pair_success_rate": counts.pop("pair_ok") / devs.size,
        "required_rate": 0.99,
        **counts,
    }


#: registry order is load-bearing: each suite's seed stream is spawned by index.
#: A sampled suite carries its kernel and is called with its chunks' results;
#: a fixed-grid suite is called with its stream and the sample count.
#: The lambdas look the samplers, builders and closed forms up when called,
#: so a rebound module name (a test's monkeypatch, bench/layertrace.py) runs;
#: forked workers run what was bound when run_suites was called.
SUITES: dict[str, Callable] = {
    "pure": _chunked_suite(
        "pure", _pure, 1e-8,
        "sqrt(1 - I1) against the oracle on Haar-random pure states",
        extra=lambda devs, residuals: {
            "max_purity_residual": max(residuals),
            "purity_residual_tolerance": 1e-10,
        },
        passed=lambda devs, extra: bool(
            devs.max() <= 1e-8 and extra["max_purity_residual"] <= 1e-10
        ),
    ),
    "lu-invariance": _chunked_suite(
        "lu-invariance", _lu_invariance, 1e-9,
        "max change of I1..I9 and the oracle under random local unitaries",
    ),
    "rank2-roundtrip": _chunked_suite(
        "rank2-roundtrip", _rank2_roundtrip, 1e-6,
        "invariants and concurrence after local-data reconstruction",
    ),
    "rank2-sep2": _chunked_suite(
        "rank2-sep2",
        _family(
            lambda rng, n: sample_rank2_sep(rng, n),
            lambda params: rank2_sep_matrix(params),
            lambda params, mats: estimate_rank2_sep2(_invariants(mats)),
        ),
        None,
        "statistical grading of the two-invariant rank-2 candidate "
        "max(sqrt(1-I1), sqrt(1-I2)); report only, no tolerance",
        extra=lambda devs, _: {
            "within_1e-6": int((devs <= 1e-6).sum()),
            "above_0.1": int((devs > 0.1).sum()),
        },
    ),
    "rank2-degenerate": _chunked_suite(
        "rank2-degenerate",
        _family(
            lambda rng, n: sample_rank2_degenerate(rng, n=n),
            lambda params: rank2_degenerate_matrix(params),
            lambda params, mats: estimate_rank2_degenerate(params),
        ),
        1e-8,
        "(1 - lam) 2 r1 |c| against the oracle on the orthogonal-projector family",
    ),
    "projection2": _chunked_suite(
        "projection2",
        _family(
            lambda rng, n: sample_rank2_degenerate(rng, lam=0.5, n=n),
            lambda params: rank2_degenerate_matrix(params),
            lambda params, mats: estimate_projection2(_invariants(mats)),
        ),
        1e-8,
        "single-qubit-invariant closed form on equal-weight projections",
    ),
    "xstate": _chunked_suite(
        "xstate",
        _family(
            lambda rng, n: sample_xstate(rng, n=n),
            lambda params: xstate_matrix(params),
            lambda params, mats: xstate_concurrence(params),
        ),
        1e-8,
        "2 max(0, |z| - sqrt(u+ u-)) against the oracle on X states",
    ),
    "xstate-invariant": _chunked_suite(
        "xstate-invariant", _invariant_xstate, None,
        "invariant-only X-state expression in its literal form; "
        "domain failures counted, deviations reported, no tolerance",
        extra=lambda devs, counts: _summed(counts),
    ),
    "ladder": _suite_ladder,
    "bounds": _chunked_suite(
        "bounds", _bounds, 1e-9,
        "dominance of the separable-decomposition bounds over the oracle "
        "on random rank-3 and rank-4 mixtures; offenders are the thinnest margins",
    ),
    "rank4-max": _chunked_suite(
        "rank4-max", _rank4_max, 1e-12,
        "max(0, 1 - 3 lam1/2 - 4 lam2/3) against the oracle on the maximal "
        "rank-4 family; the literal closed form, half of it, is reported "
        "through its deviation, its oracle ratio and its boundary roots",
        extra=_rank4_max_extra,
    ),
    "threshold": _suite_threshold,
    "region": _suite_region,
    "inversions": _suite_inversions,
    "shots": _chunked_suite(
        "shots", _shots, None,
        "finite-shot weight recovery must land within five combined "
        "standard errors in at least 99 percent of trials; infeasible "
        "pairs count as misses",
        extra=_shots_extra,
        passed=lambda devs, extra: bool(
            extra["lambda_success_rate"] >= 0.99 and extra["pair_success_rate"] >= 0.99
        ),
    ),
}


def run_suites(names=None, samples: int = 1000, seed: int = 0) -> list[SuiteReport]:
    """Run the named suites (all by default) with per-suite spawned seeds:
    plan every chunked suite's chunks first, run them (_chunk_results), and
    merge each suite as its chunks arrive; fixed-grid suites run here."""
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {unknown}")
    root = np.random.SeedSequence(seed)
    streams = dict(zip(SUITES, root.spawn(len(SUITES))))
    plans = [_tasks(SUITES[name], streams[name], samples) for name in names]
    tasks = [task for plan in plans if plan for task in plan]
    multi_chunk = any(len(plan) > 1 for plan in plans if plan)
    with _chunk_results(tasks, multi_chunk) as results:
        return [
            SUITES[name](streams[name], samples)
            if plan is None
            else SUITES[name]([next(results) for _ in plan])
            for name, plan in zip(names, plans)
        ]
