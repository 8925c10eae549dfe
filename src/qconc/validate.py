"""Monte-Carlo validation suites comparing every formula to the exact oracle.

Each suite draws reproducible samples from its target family, evaluates the
formula under test next to the oracle, and reduces the deviations into a
SuiteReport: sample count, max and mean deviation, violation count against
the suite tolerance, and the worst offenders with enough state detail to
replay them. Suites with no trusted closed form (the rank-2 invariant
candidate, the X-state invariant expression) carry no tolerance; they always
pass and exist to publish statistics.

Every suite runs as planned chunks, kernel(draw, n) each, giving the
chunk's deviations, offenders and extras. A sampled suite's chunks are the
fewest of at most _CHUNK_CAP states, split evenly, each drawing from its own
generator spawned from the suite's seed stream (_spawned). A grid is a chunk
whose draw is fixed: `ladder` and `threshold` split their points the same
way and hand each chunk its run of them (_grid); `region` and `inversions`
take one fixed stack, one chunk each (_one_stack). A sampled chunk draws its
parameters as one block (a family dataclass with array fields, or arrays),
builds its raw (n, 4, 4) stack, validates it with one check_states call
(`pure` and `lu-invariance` build theirs valid) and evaluates decomposition,
invariants, the oracle and the closed form under test on it, one call each;
a family suite's kernel (_xstate, say) is just those calls. The samplers
draw (n, k) blocks: uniform rows, or a Dirichlet or normal block followed by
uniform blocks; both rejection samplers draw in rounds and give up after
REJECTION_LIMIT rounds, the rank-2 one keeping the first n accepted rows.
Parameter dataclasses of single states are built only for the
offenders a report prints. run_suites plans every requested suite's chunks
first, as (kernel, draw, size) tasks, and runs them (_chunk_results): in
this process when every suite has one chunk, when one CPU is usable or when
the platform cannot fork, and otherwise split round-robin between this
process and forked workers, one process per usable CPU in all, which inherit
the chunk kernels and send their results back through pipes while this
process runs its own share. Once every chunk has run, each suite
(_chunked_suite) merges its chunks' results in spawn order and ranks
offenders by deviation, then by the lowest index, so results depend only on
the seed and the sample count, not on where or in how many chunks the
states ran. A chunk's result is its deviations, a few offenders and its
extras, so a process holds one chunk's stack at a time, and a float per
state.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass, field, fields
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
    _orthonormal,
    _outer,
    _record,
    batch_decompose,
    batch_random_mixed,
    check_states,
)
from .stateio import _jsonable


# ---------------------------------------------------------------------------
# stacked samplers
# ---------------------------------------------------------------------------


def batch_random_pure(rng, n: int) -> np.ndarray:
    """n Haar-random 4-component unit vectors, shape (n, 4): the _orthonormal
    column of a complex Gaussian (n, 4, 1) block."""
    return _orthonormal(rng.normal(size=(n, 4, 1)) + 1j * rng.normal(size=(n, 4, 1)))[:, :, 0]


def batch_haar_u2(rng, n: int) -> np.ndarray:
    """n Haar-random 2x2 unitaries, shape (n, 2, 2): the _orthonormal columns
    of a complex Gaussian (n, 2, 2) block, its QR's Q with R's diagonal positive."""
    return _orthonormal(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    """One suite's report (_chunked_suite): passed implies violations == 0."""

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
        """The fields as they are: the kernels' offenders and the merged extras
        are JSON data already, so nothing is copied or converted."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: the worst states a report lists, most deviant first
TOP_OFFENDERS = 3


def _worst_first(keys: np.ndarray, item) -> list:
    """item(i) for the TOP_OFFENDERS smallest keys, NaN first and the lowest
    index first among equal keys, so that neither the chunking nor numpy's
    sort dispatch moves them."""
    return [item(int(i)) for i in np.lexsort((keys, ~np.isnan(keys)))[:TOP_OFFENDERS]]


def _top_offenders(devs: np.ndarray, payload_fn) -> list:
    """The largest positive deviations, NaN first (_worst_first)."""
    worst = _worst_first(-devs, lambda i: {"deviation": float(devs[i]), **payload_fn(i)})
    return [o for o in worst if not o["deviation"] <= 0.0]


#: most states in one chunk: it bounds the size of a chunk's stacked arrays
#: (about 2.5 MB of matrices at the cap)
_CHUNK_CAP = 2500


def _chunk_sizes(samples: int) -> list[int]:
    """The fewest chunks of at most _CHUNK_CAP states, split evenly, the first
    ones a state larger; they depend only on the sample count."""
    n_chunks = max(1, -(-samples // _CHUNK_CAP))
    base, remainder = divmod(samples, n_chunks)
    return [base + (1 if i < remainder else 0) for i in range(n_chunks)]


def _spawned(seq, samples: int) -> list:
    """A sampled suite's chunks, (generator, size) each: the sizes of
    _chunk_sizes, each with its own stream spawned from the suite's."""
    sizes = _chunk_sizes(samples)
    return [(np.random.default_rng(s), m) for s, m in zip(seq.spawn(len(sizes)), sizes)]


def _grid(start: float, stop: float) -> Callable:
    """The chunks of a suite on the grid linspace(start, stop, max(samples,
    2)), (run, size) each: its consecutive runs of the sizes of _chunk_sizes."""

    def chunks(seq, samples: int) -> list:
        sizes = _chunk_sizes(max(samples, 2))
        points = np.linspace(start, stop, sum(sizes))
        return list(zip(np.split(points, np.cumsum(sizes)[:-1]), sizes))

    return chunks


def _one_stack(seq, samples: int) -> list:
    """The one chunk of a suite whose stack is fixed: it draws nothing."""
    return [(None, None)]


def _chunked_suite(
    name: str, kernel: Callable, tolerance, notes: str, extra=None, checks=None,
    chunks: Callable = _spawned, rank: Callable = lambda offender: -offender["deviation"],
):
    """The suite that merges the results of kernel(draw, n) on its chunks
    (chunks(seq, samples)), given in spawn order, into its one report: the
    deviations, the offenders, ranked by rank(offender) as each kernel ranked
    its own, then by spawn order (_worst_first), and the kernels' own extras,
    extra(devs, extras) giving the report's. Each deviation not at or below the
    tolerance, NaN too, is a violation; a pass needs none and checks(report_extras)."""

    def suite(results) -> SuiteReport:
        devs = np.concatenate([r[0] for r in results])
        pooled = [o for r in results for o in r[1]]
        offenders = _worst_first(np.array([rank(o) for o in pooled]), pooled.__getitem__)
        merged = {} if extra is None else extra(devs, [r[2] for r in results if len(r) > 2])
        violations = int(np.count_nonzero(~(devs <= tolerance))) if tolerance is not None else 0
        return SuiteReport(
            suite=name,
            samples=int(devs.size),
            passed=violations == 0 and (checks is None or bool(checks(merged))),
            max_deviation=float(devs.max()) if devs.size else 0.0,
            mean_deviation=float(devs.mean()) if devs.size else 0.0,
            violations=violations,
            tolerance=tolerance,
            worst=offenders,
            extra=_jsonable(merged),
            notes=notes,
        )

    suite.kernel, suite.chunks = kernel, chunks
    return suite


def _workers() -> int:
    """The processes a multi-chunk run may use, the calling one included: one
    per CPU this process may run on, or one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(tasks: list, first: int, step: int) -> tuple:
    """The results of tasks first, first + step, ... in order, up to the
    first that raises, and that task's (index, exception), or None."""
    results = []
    for index in range(first, len(tasks), step):
        kernel, draw, n = tasks[index]
        try:
            results.append(kernel(draw, n))
        except Exception as exc:
            return results, (index, exc)
    return results, None


def _work(tasks: list, first: int, step: int, write: int, mask) -> None:
    """A forked worker: ignore SIGINT, which is the caller's to handle, and
    restore the signal mask, run its share, write the pickled outcome to the
    pipe and end the process. It never returns into the caller's stack, runs
    no atexit handler and flushes no inherited buffer. An outcome that
    cannot be pickled is sent as a WorkerLost."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        outcome = _share(tasks, first, step)
        try:
            data = pickle.dumps(outcome)
        except Exception as exc:
            lost = WorkerLost(f"a worker process could not send its chunk results: {exc!r}")
            data = pickle.dumps(([], (first, lost)))
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _chunk_results(tasks: list, multi_chunk: bool) -> list:
    """The tasks' results, (devs, offenders[, extras]) each, in task order.
    They are computed in this process when no suite has more than one chunk,
    when one CPU is usable or when the platform cannot fork. Otherwise the
    call forks W - 1 workers, W = _workers() at most one per task, and task i
    runs in process i mod W, this one being process 0: the workers inherit
    the tasks with their kernels, which are never pickled, and each sends its
    results back pickled through its own pipe while this process runs its
    share. The error raised is that of the first failing task, as inline:
    each process stops at its first failure, and the lowest index wins. A
    worker that ends without sending its results counts as failing at its
    first task with WorkerLost. No worker outlives the call: an interrupt or
    any other error here kills every worker still running."""
    workers = min(_workers(), len(tasks)) if multi_chunk else 1
    if workers < 2:
        return [kernel(draw, n) for kernel, draw, n in tasks]
    running = {}  # pid -> the read end of its pipe, for each worker not yet reaped
    try:
        for first in range(1, workers):
            read, write = os.pipe()
            # an interrupt waits until the worker is in `running`, where it
            # is killed if need be
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _work(tasks, first, workers, write, mask)
                running[pid] = open(read, "rb")
            except OSError:
                os.close(read)
                raise
            finally:
                os.close(write)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        outcomes = [_share(tasks, 0, workers)]
        for first, (pid, pipe) in enumerate(list(running.items()), 1):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del running[pid]
            try:
                outcomes.append(pickle.loads(data))
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(status)
                lost = WorkerLost(
                    f"a worker process ended before returning its chunk (exit status {code})"
                )
                outcomes.append(([], (first, lost)))
    finally:
        for pid, pipe in running.items():
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [outcomes[i % workers][0][i // workers] for i in range(len(tasks))]


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


def _clear_of_guards(params: Rank2Canonical, p, s):
    """Whether canonical rank-2 parameters (or each row of a block), with
    their polarizations p, s from local_observables_rank2, keep clear of
    every reconstruction guard."""
    ca, sa = _cos_sin(params.alpha)
    return (
        (abs(params.gamma - math.pi) >= 0.15)
        & (abs(params.beta - math.pi / 4.0) >= 0.05)
        & (np.abs(np.concatenate([p[..., :2], s[..., :2]], axis=-1)).min(axis=-1) >= 1e-2)
        & (abs(sa * p[..., 0] + ca * s[..., 0]) >= 1e-2)
    )


def sample_nondegenerate_rank2(rng, n: int) -> tuple[Rank2Canonical, np.ndarray, np.ndarray]:
    """(block, p, s): a block of n canonical rank-2 parameters kept clear of
    every reconstruction guard, and its (n, 3) polarizations from
    local_observables_rank2, which the guards computed.

    Each round draws an (n, 5) block of uniform rows and keeps the rows that
    clear the guards; the block is the first n kept rows in draw order, so
    each state takes the first row of the stream that clears them. Raises
    SamplerExhausted after REJECTION_LIMIT rounds.
    """
    lows, highs = np.array(_RANK2_DRAWS).T
    kept = []
    for _ in range(REJECTION_LIMIT):
        rows = rng.uniform(lows, highs, size=(n, len(lows)))
        params = Rank2Canonical(*rows.T)
        p, s = local_observables_rank2(params)
        keep = _clear_of_guards(params, p, s)
        kept.append((rows[keep], p[keep], s[keep]))
        if sum(len(k[0]) for k in kept) >= n:
            rows, p, s = (np.concatenate(x)[:n] for x in zip(*kept))
            return Rank2Canonical(*rows.T), p, s
    raise SamplerExhausted(f"{REJECTION_LIMIT} rounds kept fewer than {n} rank-2 rows")


def sample_rank2_sep(rng, n: int) -> Rank2SepDecomp:
    """A block of n random separable-plus-pure rank-2 parameters: one row of
    five uniforms each (the a/b angle, lam, mu, theta, phase)."""
    lows = (0.05, 0.0, 0.0, 0.0, 0.0)
    highs = (math.pi / 2.0 - 0.05, 1.0, 1.0, math.pi / 2.0, 2.0 * math.pi)
    t, lam, mu, theta, phase = rng.uniform(lows, highs, size=(n, 5)).T
    cos_t, sin_t = _cos_sin(t)
    return Rank2SepDecomp(lam=lam, mu=mu, a=sin_t, b=cos_t, theta=theta, phase=phase)


def sample_rank2_degenerate(rng, n: int, lam=None) -> Rank2Degenerate:
    """A block of n random degenerate-family parameters.

    Draws an (n, 3, 1) block of normals (each column made a unit vector by
    _orthonormal, the psi amplitudes), then n phases and, unless lam is
    given, n weights.
    """
    v = _orthonormal(rng.normal(size=(n, 3, 1)))[:, :, 0]
    phase = rng.uniform(0.0, 2.0 * math.pi, size=n)
    weight = rng.uniform(0.0, 1.0, size=n) if lam is None else np.full(n, float(lam))
    r1, c, r2 = np.abs(v).T
    return Rank2Degenerate(lam=weight, r1=r1, r2=r2, c=c * np.exp(1j * phase))


def sample_xstate(rng, n: int, rank3: bool = False) -> XState:
    """A block of n random X states; rank3=True zeroes one outer corner as in
    the physical class.

    Draws an (n, k) block of Dirichlet weights, then (for rank3) n corner
    choices, n coherence radii bounded by sqrt(w1 w2) and n phases.
    """
    if rank3:
        w = rng.dirichlet(np.ones(3), size=n)
        corner = rng.uniform(size=n) < 0.5
        u_plus = np.where(corner, 0.0, w[:, 2])
        u_minus = np.where(corner, w[:, 2], 0.0)
        w1, w2 = w[:, 0], w[:, 1]
    else:
        u_plus, w1, w2, u_minus = rng.dirichlet(np.ones(4), size=n).T
    r = rng.uniform(0.0, np.sqrt(w1 * w2))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return XState(u_plus=u_plus, w1=w1, w2=w2, u_minus=u_minus, z=r * np.exp(1j * phase))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _pure(rng, n):
    amps = batch_random_pure(rng, n)
    mats = _outer(amps)
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
    return _graded(lambda i: {"matrix": mats[i]}, *_changes(np.concatenate([mats, rotated])))


def _changes(mats: np.ndarray):
    """For a stack of 2n states: the oracle of the last n, of the first n, and
    each pair i, n + i's largest change of I1..I9 and of the oracle."""
    n = len(mats) // 2
    inv = batch_invariants(*batch_decompose(mats))
    c = batch_oracle(mats)
    return c[n:], c[:n], np.maximum(np.abs(inv[:n] - inv[n:]).max(axis=1), np.abs(c[:n] - c[n:]))


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


def _rank2_sep2(rng, n):
    params = sample_rank2_sep(rng, n)
    mats = check_states(rank2_sep_matrix(params))
    estimates = estimate_rank2_sep2(_invariants(mats))
    return _graded(lambda i: _record(params, i), estimates, batch_oracle(mats))


def _rank2_degenerate(rng, n):
    params = sample_rank2_degenerate(rng, n)
    mats = check_states(rank2_degenerate_matrix(params))
    estimates = estimate_rank2_degenerate(params)
    return _graded(lambda i: _record(params, i), estimates, batch_oracle(mats))


def _projection2(rng, n):
    params = sample_rank2_degenerate(rng, n, lam=0.5)
    mats = check_states(rank2_degenerate_matrix(params))
    estimates = estimate_projection2(_invariants(mats))
    return _graded(lambda i: _record(params, i), estimates, batch_oracle(mats))


def _xstate(rng, n):
    params = sample_xstate(rng, n)
    mats = check_states(xstate_matrix(params))
    estimates = xstate_concurrence(params)
    return _graded(lambda i: _record(params, i), estimates, batch_oracle(mats))


def _rank2_roundtrip(rng, n):
    params, p, s = sample_nondegenerate_rank2(rng, n)
    recs = reconstruct_rank2(p, s)
    mats = check_states(np.concatenate([rank2_matrix(params), rank2_matrix(recs)]))
    return _graded(lambda i: _record(params, i), *_changes(mats))


def _invariant_xstate(rng, n):
    states = sample_xstate(rng, n, rank3=True)
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


def _ladder(lams, n):
    mats = check_states(ladder_matrix(lams))
    oracle = batch_oracle(mats)
    devs = np.maximum(
        np.abs(ladder_concurrence(lams) - oracle),
        np.abs(ladder_from_correlation(expectation(mats, ("z", "z"))) - oracle),
    )
    return devs, _top_offenders(devs, lambda i: {"state": {"lam": float(lams[i])}})


def _bounds(rng, n):
    half = n // 2
    m3 = Rank3Mixture.random(rng, half)
    m4 = Rank4Mixture.random(rng, n - half)
    vals = np.concatenate([rank3_bound(m3), rank4_bound(m4)])
    oracle = batch_oracle(check_states(np.concatenate([m3.matrix(), m4.matrix()])))
    margins = vals - oracle
    devs = np.maximum(0.0, -margins)
    payload = lambda i: {
        "deviation": float(devs[i]),
        "margin": float(margins[i]),
        "oracle": float(oracle[i]),
        "estimate": float(vals[i]),
        "state": _jsonable(_record(m3, i) if i < half else _record(m4, i - half)),
    }
    return devs, _worst_first(margins, payload)


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


def _threshold(angles, n):
    b, a = _cos_sin(angles)
    roots = np.abs(rank3_max_concurrence(rank3_threshold(a, b), a, b))
    return roots, _top_offenders(roots, lambda i: {"state": {"angle": float(angles[i])}})


def _threshold_bracket(devs, _) -> dict:
    r = 1.0 / math.sqrt(2.0)
    bracket = check_states(rank3_max_matrix(np.array([0.74, 0.76]), r, r))
    low, high = batch_oracle(bracket).tolist()
    return {"oracle_at_0.74": low, "oracle_at_0.76": high}


def _region(_, n):
    grid_n = 101
    h = 1.0 / (grid_n - 1)
    # rank4_region is row-major over the (lambda1, lambda2) ticks, so grid
    # neighbours are neighbouring entries of these (grid_n, grid_n) arrays
    l1, l2, classes = (a.reshape(grid_n, grid_n) for a in rank4_region(grid_n))
    feasible = classes != REGION_INFEASIBLE
    # valid by construction, so unchecked
    oracle = batch_oracle(rank4_max_matrix(l1[feasible], l2[feasible]))
    kinds = classes[feasible]
    separable = kinds == REGION_SEPARABLE
    # the tolerance alone gates the separable cells' oracle
    mismatches = int(np.count_nonzero((kinds == REGION_ENTANGLED) & (oracle <= 1e-12)))
    # a boundary cell has a feasible grid neighbour of the other class
    across = (classes[:-1] != classes[1:]) & feasible[:-1] & feasible[1:]
    along = (classes[:, :-1] != classes[:, 1:]) & feasible[:, :-1] & feasible[:, 1:]
    boundary = np.zeros_like(feasible)
    boundary[:-1] |= across
    boundary[1:] |= across
    boundary[:, :-1] |= along
    boundary[:, 1:] |= along
    boundary_margin = float(np.abs(9 * l1 + 8 * l2 - 6.0)[boundary].max(initial=0.0))
    return oracle[separable], [], {
        "grid_n": grid_n, "mismatches": mismatches,
        "boundary_margin": boundary_margin, "boundary_budget": 9.0 * h,
    }


def _inversions(_, n):
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
    return devs, []


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
#: Every suite is a _chunked_suite: it carries its kernel and its chunk plan
#: (sampled unless it names a grid) and is called with its chunks' results.
#: The kernels look the samplers, builders and closed forms up in this
#: module's globals when called, so a rebound module name (a test's
#: monkeypatch, bench/layertrace.py) runs; forked workers run what was bound
#: when run_suites was called.
SUITES: dict[str, Callable] = {
    "pure": _chunked_suite(
        "pure", _pure, 1e-8,
        "sqrt(1 - I1) against the oracle on Haar-random pure states",
        extra=lambda devs, residuals: {
            "max_purity_residual": max(residuals),
            "purity_residual_tolerance": 1e-10,
        },
        checks=lambda extra: extra["max_purity_residual"] <= extra["purity_residual_tolerance"],
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
        "rank2-sep2", _rank2_sep2, None,
        "statistical grading of the two-invariant rank-2 candidate "
        "max(sqrt(1-I1), sqrt(1-I2)); report only, no tolerance",
        extra=lambda devs, _: {
            "within_1e-6": int((devs <= 1e-6).sum()),
            "above_0.1": int((devs > 0.1).sum()),
        },
    ),
    "rank2-degenerate": _chunked_suite(
        "rank2-degenerate", _rank2_degenerate, 1e-8,
        "(1 - lam) 2 r1 |c| against the oracle on the orthogonal-projector family",
    ),
    "projection2": _chunked_suite(
        "projection2", _projection2, 1e-8,
        "single-qubit-invariant closed form on equal-weight projections",
    ),
    "xstate": _chunked_suite(
        "xstate", _xstate, 1e-8,
        "2 max(0, |z| - sqrt(u+ u-)) against the oracle on X states",
    ),
    "xstate-invariant": _chunked_suite(
        "xstate-invariant", _invariant_xstate, None,
        "invariant-only X-state expression in its literal form; "
        "domain failures counted, deviations reported, no tolerance",
        extra=lambda devs, counts: _summed(counts),
    ),
    "ladder": _chunked_suite(
        "ladder", _ladder, 1e-8,
        "1 - lam and the z-z correlation readout along the singlet ladder line",
        chunks=_grid(0.0, 1.0),
    ),
    "bounds": _chunked_suite(
        "bounds", _bounds, 1e-9,
        "dominance of the separable-decomposition bounds over the oracle "
        "on random rank-3 and rank-4 mixtures; offenders are the thinnest margins",
        rank=lambda offender: offender["margin"],
    ),
    "rank4-max": _chunked_suite(
        "rank4-max", _rank4_max, 1e-12,
        "max(0, 1 - 3 lam1/2 - 4 lam2/3) against the oracle on the maximal "
        "rank-4 family; the literal closed form, half of it, is reported "
        "through its deviation, its oracle ratio and its boundary roots",
        extra=_rank4_max_extra,
    ),
    "threshold": _chunked_suite(
        "threshold", _threshold, 1e-12,
        "three-quarters threshold bracket and the closed-form root identity",
        extra=_threshold_bracket,
        checks=lambda extra: extra["oracle_at_0.74"] > 0.0 and extra["oracle_at_0.76"] <= 1e-12,
        chunks=_grid(0.05, math.pi / 4.0),
    ),
    "region": _chunked_suite(
        "region", _region, 1e-12,
        "grid classes against assembled-state oracle values; boundary "
        "cells must straddle the line within one cell's worth of 9 l1 + 8 l2",
        extra=lambda devs, chunks: chunks[0],
        checks=lambda extra: (
            extra["mismatches"] == 0 and extra["boundary_margin"] < extra["boundary_budget"] + 1e-12
        ),
        chunks=_one_stack,
    ),
    "inversions": _chunked_suite(
        "inversions", _inversions, 1e-10,
        "noiseless weight-recovery round-trips from exact correlations",
        chunks=_one_stack,
    ),
    "shots": _chunked_suite(
        "shots", _shots, None,
        "finite-shot weight recovery must land within five combined "
        "standard errors in at least 99 percent of trials; infeasible "
        "pairs count as misses",
        extra=_shots_extra,
        checks=lambda extra: (
            min(extra["lambda_success_rate"], extra["pair_success_rate"]) >= extra["required_rate"]
        ),
    ),
}


def run_suites(names=None, samples: int = 1000, seed: int = 0) -> list[SuiteReport]:
    """Run the named suites (all by default) with per-suite spawned seeds:
    plan every suite's chunks first, run them all (_chunk_results), then
    merge each suite's results."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {unknown}")
    root = np.random.SeedSequence(seed)
    streams = dict(zip(SUITES, root.spawn(len(SUITES))))
    plans = [
        [(SUITES[name].kernel, draw, n) for draw, n in SUITES[name].chunks(streams[name], samples)]
        for name in names
    ]
    tasks = [task for plan in plans for task in plan]
    multi_chunk = any(len(plan) > 1 for plan in plans)
    results = iter(_chunk_results(tasks, multi_chunk))
    return [SUITES[name]([next(results) for _ in plan]) for name, plan in zip(names, plans)]
