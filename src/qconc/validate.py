"""Monte-Carlo validation suites comparing every formula to the exact oracle.

Each suite draws reproducible samples from its target family, evaluates the
formula under test next to the oracle, and reduces the deviations into a
SuiteReport: sample count, max and mean deviation, violation count against
the suite tolerance, and the worst offenders with enough state detail to
replay them. Suites with no trusted closed form (the rank-2 invariant
candidate, the X-state invariant expression) carry no tolerance; they always
pass and exist to publish statistics.

Heavy suites vectorize the linear algebra over stacked (n, 4, 4) arrays and
split their sampling into fixed chunks; chunks own spawned seed streams and
are merged in spawn order, so results depend only on the seed and the
sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable

import numpy as np

from .bounds import (
    REGION_ENTANGLED,
    REGION_INFEASIBLE,
    REGION_SEPARABLE,
    Rank3Mixture,
    Rank4Mixture,
    assemble_rank3_max,
    assemble_rank4_max,
    rank3_bound,
    rank3_max_concurrence,
    rank3_threshold,
    rank4_bound,
    rank4_max_concurrence,
    rank4_region,
)
from .concurrence import batch_oracle, concurrence_oracle
from .errors import DomainError, I1Zero, Infeasible
from .estimators import (
    Rank2Canonical,
    Rank2Degenerate,
    Rank2SepDecomp,
    XState,
    assemble_ladder,
    assemble_rank2,
    assemble_rank2_degenerate,
    assemble_rank2_sep,
    assemble_xstate,
    estimate_projection2,
    estimate_rank2_degenerate,
    estimate_rank2_sep2,
    ladder_concurrence,
    ladder_from_correlation,
    local_observables_rank2,
    reconstruct_rank2,
    xstate_concurrence,
    xstate_concurrence_invariant,
)
from .invariants import batch_invariants, invariant_vector
from .measurement import (
    expectation,
    lambda_from_szpz,
    lambdas_from_correlations,
    sample_expectation,
)
from .qstate import batch_decompose, decompose


# ---------------------------------------------------------------------------
# stacked samplers
# ---------------------------------------------------------------------------


def batch_random_pure(rng, n: int) -> np.ndarray:
    """n Haar-random 4-component unit vectors, shape (n, 4)."""
    z = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def batch_haar_u2(rng, n: int) -> np.ndarray:
    """n Haar-random 2x2 unitaries, shape (n, 2, 2)."""
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def batch_random_mixed(rng, n: int, rank: int) -> np.ndarray:
    """n random rank-`rank` density matrices, shape (n, 4, 4)."""
    z = rng.normal(size=(n, 4, rank)) + 1j * rng.normal(size=(n, 4, rank))
    q, _ = np.linalg.qr(z)
    w = rng.dirichlet(np.ones(rank), size=n)
    while True:
        bad = w.min(axis=1) < 1e-6
        if not bad.any():
            break
        w[bad] = rng.dirichlet(np.ones(rank), size=int(bad.sum()))
    return np.einsum("nik,nk,njk->nij", q, w, q.conj())


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
        return {
            "suite": self.suite,
            "samples": self.samples,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "max_deviation": self.max_deviation,
            "mean_deviation": self.mean_deviation,
            "violations": self.violations,
            "worst": self.worst,
            "extra": self.extra,
            "notes": self.notes,
        }


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


def _top_offenders(devs: np.ndarray, payload_fn, keep: int = 3) -> list:
    order = np.argsort(devs)[::-1][:keep]
    return [
        {"deviation": float(devs[i]), **payload_fn(int(i))}
        for i in order
        if devs[i] > 0.0
    ]


def _merge_offenders(groups, keep: int = 3) -> list:
    merged = [o for grp in groups for o in grp]
    merged.sort(key=lambda o: o["deviation"], reverse=True)
    return merged[:keep]


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
    if passed_override is None:
        passed = violations == 0
    else:
        passed = passed_override
    return SuiteReport(
        suite=name,
        samples=n,
        passed=passed,
        max_deviation=max_dev,
        mean_deviation=mean_dev,
        violations=violations,
        tolerance=tolerance,
        worst=_jsonable(offenders),
        extra=_jsonable(extra or {}),
        notes=notes,
    )


#: chunk count is fixed so reports depend only on the seed and sample count;
#: it also bounds the size of each chunk's stacked arrays
_CHUNKS = 8


def _run_chunked(kernel: Callable, seq: np.random.SeedSequence, samples: int):
    """Split `samples` across fixed seed-spawned chunks; merge in spawn order."""
    n_chunks = max(1, min(_CHUNKS, samples))
    base, remainder = divmod(samples, n_chunks)
    sizes = [base + (1 if i < remainder else 0) for i in range(n_chunks)]
    sizes = [s for s in sizes if s > 0]
    children = seq.spawn(len(sizes))
    results = [kernel(np.random.default_rng(c), m) for c, m in zip(children, sizes)]
    devs = np.concatenate([r[0] for r in results])
    offenders = _merge_offenders([r[1] for r in results])
    extras = [r[2] for r in results if len(r) > 2]
    return devs, offenders, extras


# ---------------------------------------------------------------------------
# family samplers
# ---------------------------------------------------------------------------


def sample_nondegenerate_rank2(rng) -> Rank2Canonical:
    """Canonical rank-2 parameters kept clear of every reconstruction guard."""
    half_pi = math.pi / 2.0
    while True:
        params = Rank2Canonical(
            nu=rng.uniform(0.05, 0.95),
            alpha=rng.uniform(0.1, half_pi - 0.1),
            beta=rng.uniform(0.1, half_pi - 0.1),
            gamma=rng.uniform(0.15, 2.0 * math.pi - 0.15),
            eta=rng.uniform(0.1, half_pi - 0.1),
        )
        if abs(params.gamma - math.pi) < 0.15:
            continue
        if abs(params.beta - math.pi / 4.0) < 0.05:
            continue
        p, s = local_observables_rank2(params)
        if min(abs(p[0]), abs(p[1]), abs(s[0]), abs(s[1])) < 1e-2:
            continue
        sa, ca = math.sin(params.alpha), math.cos(params.alpha)
        if abs(sa * p[0] + ca * s[0]) < 1e-2:
            continue
        return params


def sample_rank2_sep(rng) -> Rank2SepDecomp:
    t = rng.uniform(0.05, math.pi / 2.0 - 0.05)
    return Rank2SepDecomp(
        lam=rng.uniform(0.0, 1.0),
        mu=rng.uniform(0.0, 1.0),
        a=math.sin(t),
        b=math.cos(t),
        theta=rng.uniform(0.0, math.pi / 2.0),
        phase=rng.uniform(0.0, 2.0 * math.pi),
    )


def sample_rank2_degenerate(rng, lam=None) -> Rank2Degenerate:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return Rank2Degenerate(
        lam=rng.uniform(0.0, 1.0) if lam is None else lam,
        r1=abs(v[0]),
        r2=abs(v[2]),
        c=abs(v[1]) * np.exp(1j * phase),
    )


def sample_xstate(rng, rank3: bool = False) -> XState:
    """Random X state; rank3=True zeroes one outer corner as in the physical class."""
    if rank3:
        w = rng.dirichlet(np.ones(3))
        corner = rng.uniform() < 0.5
        u_plus, u_minus = (0.0, w[2]) if corner else (w[2], 0.0)
        w1, w2 = w[0], w[1]
    else:
        w = rng.dirichlet(np.ones(4))
        u_plus, w1, w2, u_minus = w
    zmax = math.sqrt(w1 * w2)
    z = rng.uniform(0.0, zmax) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return XState(u_plus=u_plus, w1=w1, w2=w2, u_minus=u_minus, z=z)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_pure(seq, samples):
    def kernel(rng, n):
        amps = batch_random_pure(rng, n)
        mats = np.einsum("ni,nj->nij", amps, amps.conj())
        p, s, pi = batch_decompose(mats)
        i1 = np.einsum("ni,ni->n", p, p)
        formula = np.sqrt(np.clip(1.0 - i1, 0.0, None))
        oracle = batch_oracle(mats)
        devs = np.abs(formula - oracle)
        res1 = np.abs(i1 - np.einsum("ni,ni->n", s, s))
        trace_t = np.einsum("nij,nij->n", pi, pi)
        res2 = np.abs(2.0 * i1 + trace_t - 3.0)
        residual = float(np.maximum(res1, res2).max()) if n else 0.0
        payload = lambda i: {
            "oracle": float(oracle[i]),
            "estimate": float(formula[i]),
            "state": {"amplitudes": _jsonable(amps[i])},
        }
        return devs, _top_offenders(devs, payload), residual

    devs, offenders, extras = _run_chunked(kernel, seq, samples)
    residual = max(extras) if extras else 0.0
    passed = bool(devs.max() <= 1e-8 and residual <= 1e-10) if devs.size else True
    return _report(
        "pure",
        devs,
        1e-8,
        offenders,
        extra={"max_purity_residual": residual, "purity_residual_tolerance": 1e-10},
        notes="sqrt(1 - I1) against the oracle on Haar-random pure states",
        passed_override=passed,
    )


def _suite_lu_invariance(seq, samples):
    def kernel(rng, n):
        per_rank = [n // 4] * 4
        per_rank[3] += n - sum(per_rank)
        stacks = []
        for rank, m in zip((1, 2, 3, 4), per_rank):
            if m > 0:
                stacks.append(batch_random_mixed(rng, m, rank))
        mats = np.concatenate(stacks)
        ua = batch_haar_u2(rng, mats.shape[0])
        ub = batch_haar_u2(rng, mats.shape[0])
        u = np.einsum("nij,nkl->nikjl", ua, ub).reshape(-1, 4, 4)
        rotated = u @ mats @ u.conj().transpose(0, 2, 1)
        inv0 = batch_invariants(*batch_decompose(mats))
        inv1 = batch_invariants(*batch_decompose(rotated))
        c0 = batch_oracle(mats)
        c1 = batch_oracle(rotated)
        devs = np.maximum(np.abs(inv0 - inv1).max(axis=1), np.abs(c0 - c1))
        payload = lambda i: {
            "oracle": float(c0[i]),
            "estimate": float(c1[i]),
            "state": {"matrix": _jsonable(mats[i])},
        }
        return devs, _top_offenders(devs, payload)

    devs, offenders, _ = _run_chunked(kernel, seq, samples)
    return _report(
        "lu-invariance",
        devs,
        1e-9,
        offenders,
        notes="max change of I1..I9 and the oracle under random local unitaries",
    )


def _suite_rank2_roundtrip(seq, samples):
    def kernel(rng, n):
        devs = np.empty(n)
        payloads = []
        for i in range(n):
            params = sample_nondegenerate_rank2(rng)
            p, s = local_observables_rank2(params)
            rec = reconstruct_rank2(p, s)
            rho0 = assemble_rank2(params)
            rho1 = assemble_rank2(rec)
            inv0 = invariant_vector(decompose(rho0)).as_array()
            inv1 = invariant_vector(decompose(rho1)).as_array()
            c0 = concurrence_oracle(rho0).value
            c1 = concurrence_oracle(rho1).value
            devs[i] = max(np.abs(inv0 - inv1).max(), abs(c0 - c1))
            payloads.append((params, c0, c1))
        payload = lambda i: {
            "oracle": float(payloads[i][1]),
            "estimate": float(payloads[i][2]),
            "state": _jsonable(payloads[i][0]),
        }
        return devs, _top_offenders(devs, payload)

    devs, offenders, _ = _run_chunked(kernel, seq, samples)
    return _report(
        "rank2-roundtrip",
        devs,
        1e-6,
        offenders,
        notes="invariants and concurrence after local-data reconstruction",
    )


def _suite_rank2_sep2(seq, samples):
    def kernel(rng, n):
        devs = np.empty(n)
        payloads = []
        for i in range(n):
            params = sample_rank2_sep(rng)
            rho = assemble_rank2_sep(params)
            est = estimate_rank2_sep2(invariant_vector(decompose(rho)))
            orc = concurrence_oracle(rho).value
            devs[i] = abs(est - orc)
            payloads.append((params, orc, est))
        payload = lambda i: {
            "oracle": float(payloads[i][1]),
            "estimate": float(payloads[i][2]),
            "state": _jsonable(payloads[i][0]),
        }
        return devs, _top_offenders(devs, payload)

    devs, offenders, _ = _run_chunked(kernel, seq, samples)
    return _report(
        "rank2-sep2",
        devs,
        None,
        offenders,
        extra={
            "within_1e-6": int((devs <= 1e-6).sum()),
            "above_0.1": int((devs > 0.1).sum()),
        },
        notes=(
            "statistical grading of the two-invariant rank-2 candidate "
            "max(sqrt(1-I1), sqrt(1-I2)); report only, no tolerance"
        ),
    )


def _suite_rank2_degenerate(seq, samples):
    def kernel(rng, n):
        devs = np.empty(n)
        payloads = []
        for i in range(n):
            params = sample_rank2_degenerate(rng)
            est = estimate_rank2_degenerate(params)
            orc = concurrence_oracle(assemble_rank2_degenerate(params)).value
            devs[i] = abs(est - orc)
            payloads.append((params, orc, est))
        payload = lambda i: {
            "oracle": float(payloads[i][1]),
            "estimate": float(payloads[i][2]),
            "state": _jsonable(payloads[i][0]),
        }
        return devs, _top_offenders(devs, payload)

    devs, offenders, _ = _run_chunked(kernel, seq, samples)
    return _report(
        "rank2-degenerate",
        devs,
        1e-8,
        offenders,
        notes="(1 - lam) 2 r1 |c| against the oracle on the orthogonal-projector family",
    )


def _suite_projection2(seq, samples):
    def kernel(rng, n):
        devs = np.empty(n)
        payloads = []
        for i in range(n):
            params = sample_rank2_degenerate(rng, lam=0.5)
            rho = assemble_rank2_degenerate(params)
            est = estimate_projection2(invariant_vector(decompose(rho)))
            orc = concurrence_oracle(rho).value
            devs[i] = abs(est - orc)
            payloads.append((params, orc, est))
        payload = lambda i: {
            "oracle": float(payloads[i][1]),
            "estimate": float(payloads[i][2]),
            "state": _jsonable(payloads[i][0]),
        }
        return devs, _top_offenders(devs, payload)

    devs, offenders, _ = _run_chunked(kernel, seq, samples)
    return _report(
        "projection2",
        devs,
        1e-8,
        offenders,
        notes="single-qubit-invariant closed form on equal-weight projections",
    )


def _suite_xstate(seq, samples):
    def kernel(rng, n):
        devs = np.empty(n)
        payloads = []
        for i in range(n):
            x = sample_xstate(rng)
            est = xstate_concurrence(x)
            orc = concurrence_oracle(assemble_xstate(x)).value
            devs[i] = abs(est - orc)
            payloads.append((x, orc, est))
        payload = lambda i: {
            "oracle": float(payloads[i][1]),
            "estimate": float(payloads[i][2]),
            "state": _jsonable(payloads[i][0]),
        }
        return devs, _top_offenders(devs, payload)

    devs, offenders, _ = _run_chunked(kernel, seq, samples)
    return _report(
        "xstate",
        devs,
        1e-8,
        offenders,
        notes="2 max(0, |z| - sqrt(u+ u-)) against the oracle on X states",
    )


def _suite_xstate_invariant(seq, samples):
    rng = np.random.default_rng(seq)
    devs = []
    payloads = []
    i1_zero = 0
    domain_errors = 0
    for _ in range(samples):
        x = sample_xstate(rng, rank3=True)
        orc = concurrence_oracle(assemble_xstate(x)).value
        try:
            est = xstate_concurrence_invariant(
                invariant_vector(decompose(assemble_xstate(x)))
            )
        except I1Zero:
            i1_zero += 1
            continue
        except DomainError:
            domain_errors += 1
            continue
        devs.append(abs(est - orc))
        payloads.append((x, orc, est))
    devs = np.asarray(devs, dtype=float)
    payload = lambda i: {
        "oracle": float(payloads[i][1]),
        "estimate": float(payloads[i][2]),
        "state": _jsonable(payloads[i][0]),
    }
    offenders = _top_offenders(devs, payload) if devs.size else []
    return _report(
        "xstate-invariant",
        devs,
        None,
        offenders,
        extra={
            "requested": samples,
            "evaluated": int(devs.size),
            "i1_zero": i1_zero,
            "domain_errors": domain_errors,
        },
        notes=(
            "invariant-only X-state expression in its literal form; "
            "domain failures counted, deviations reported, no tolerance"
        ),
    )


def _suite_ladder(seq, samples):
    lams = np.linspace(0.0, 1.0, max(samples, 2))
    devs = np.empty(lams.size)
    for i, lam in enumerate(lams):
        rho = assemble_ladder(float(lam))
        orc = concurrence_oracle(rho).value
        szpz = expectation(rho, ("z", "z"))
        devs[i] = max(
            abs(ladder_concurrence(float(lam)) - orc),
            abs(ladder_from_correlation(szpz) - orc),
        )
    payload = lambda i: {"state": {"lam": float(lams[i])}}
    return _report(
        "ladder",
        devs,
        1e-8,
        _top_offenders(devs, payload),
        notes="1 - lam and the z-z correlation readout along the singlet ladder line",
    )


def _suite_bounds(seq, samples):
    def kernel(rng, n):
        half = n // 2
        margins = np.empty(n)
        payloads = []
        mats = []
        vals = []
        for i in range(n):
            if i < half:
                m = Rank3Mixture.random(rng)
                vals.append(rank3_bound(m))
            else:
                m = Rank4Mixture.random(rng)
                vals.append(rank4_bound(m))
            payloads.append(m)
            mats.append(m.assemble().matrix)
        oracle = batch_oracle(np.asarray(mats))
        margins = np.asarray(vals) - oracle
        devs = np.maximum(0.0, -margins)
        order = np.argsort(margins)[:3]
        offenders = [
            {
                "deviation": float(devs[i]),
                "margin": float(margins[i]),
                "oracle": float(oracle[i]),
                "estimate": float(vals[i]),
                "state": _jsonable(payloads[i]),
            }
            for i in order
        ]
        return devs, offenders

    devs, offenders, _ = _run_chunked(kernel, seq, samples)
    return _report(
        "bounds",
        devs,
        1e-9,
        offenders,
        notes=(
            "dominance of the separable-decomposition bounds over the oracle "
            "on random rank-3 and rank-4 mixtures; offenders are the thinnest margins"
        ),
    )


def _suite_rank4_max(seq, samples):
    rng = np.random.default_rng(seq)
    l1 = rng.uniform(0.0, 1.0, size=samples)
    l2 = rng.uniform(0.0, 1.0 - l1)
    literal = np.array([rank4_max_concurrence(a, b) for a, b in zip(l1, l2)])
    mats = np.array([assemble_rank4_max(a, b).matrix for a, b in zip(l1, l2)])
    oracle = batch_oracle(mats)
    exact = np.maximum(0.0, 1.0 - 1.5 * l1 - 4.0 * l2 / 3.0)
    devs = np.abs(exact - oracle)
    positive = literal > 1e-6
    ratios = oracle[positive] / literal[positive]
    payload = lambda i: {
        "oracle": float(oracle[i]),
        "estimate": float(exact[i]),
        "state": {"lambda1": float(l1[i]), "lambda2": float(l2[i])},
    }
    return _report(
        "rank4-max",
        devs,
        1e-12,
        _top_offenders(devs, payload),
        extra={
            "literal_max_deviation": float(
                np.abs(np.maximum(literal, 0.0) - oracle).max()
            ),
            "oracle_to_formula_ratio_min": float(ratios.min()) if ratios.size else 0.0,
            "oracle_to_formula_ratio_max": float(ratios.max()) if ratios.size else 0.0,
            "boundary_root_1": abs(rank4_max_concurrence(0.0, 0.75)),
            "boundary_root_2": abs(rank4_max_concurrence(2.0 / 3.0, 0.0)),
        },
        notes=(
            "max(0, 1 - 3 lam1/2 - 4 lam2/3) against the oracle on the maximal "
            "rank-4 family; the literal closed form, half of it, is reported "
            "through its deviation, its oracle ratio and its boundary roots"
        ),
    )


def _suite_threshold(seq, samples):
    r = 1.0 / math.sqrt(2.0)
    low = concurrence_oracle(assemble_rank3_max(0.74, r, r)).value
    high = concurrence_oracle(assemble_rank3_max(0.76, r, r)).value
    angles = np.linspace(0.05, math.pi / 4.0, max(samples, 2))
    roots = np.empty(angles.size)
    for i, t in enumerate(angles):
        a, b = math.sin(t), math.cos(t)
        roots[i] = abs(rank3_max_concurrence(rank3_threshold(a, b), a, b))
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
    feasible = [(l1, l2, k) for l1, l2, k in rows if k != REGION_INFEASIBLE]
    arr = np.array([(l1, l2) for l1, l2, _ in feasible])
    u = arr[:, 0] / 4.0 + arr[:, 1] / 3.0
    rest = 1.0 - arr.sum(axis=1)
    w = arr[:, 0] / 4.0 + arr[:, 1] / 6.0 + rest / 2.0
    z = arr[:, 1] / 6.0 + rest / 2.0
    mats = np.zeros((arr.shape[0], 4, 4), dtype=complex)
    mats[:, 0, 0] = u
    mats[:, 3, 3] = u
    mats[:, 1, 1] = w
    mats[:, 2, 2] = w
    mats[:, 1, 2] = z
    mats[:, 2, 1] = z
    oracle = batch_oracle(mats)
    mismatches = 0
    sep_devs = []
    for (l1, l2, k), c in zip(feasible, oracle):
        if k == REGION_ENTANGLED and c <= 1e-12:
            mismatches += 1
        if k == REGION_SEPARABLE:
            sep_devs.append(float(c))
            if c > 1e-12:
                mismatches += 1
    classes = {(round(l1, 10), round(l2, 10)): k for l1, l2, k in rows}
    boundary_margin = 0.0
    for l1, l2, k in rows:
        if k == REGION_INFEASIBLE:
            continue
        for dl1, dl2 in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
            nb = classes.get((round(l1 + dl1, 10), round(l2 + dl2, 10)))
            if nb is not None and nb != k and nb != REGION_INFEASIBLE:
                boundary_margin = max(boundary_margin, abs(9 * l1 + 8 * l2 - 6.0))
    boundary_ok = boundary_margin < 9.0 * h + 1e-12
    devs = np.asarray(sep_devs, dtype=float)
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
    devs = []
    for lam in np.linspace(0.0, 1.0, 21):
        for t in (math.pi / 4.0, math.pi / 6.0, 1.0):
            a, b = math.sin(t), math.cos(t)
            szpz = expectation(assemble_rank3_max(float(lam), a, b), ("z", "z"))
            est = lambda_from_szpz(szpz)
            devs.append(abs(est.value - lam))
    for l1 in np.linspace(0.0, 1.0, 11):
        for l2 in np.linspace(0.0, 1.0 - l1, 6):
            rho = assemble_rank4_max(float(l1), float(l2))
            est = lambdas_from_correlations(
                expectation(rho, ("x", "x")), expectation(rho, ("z", "z"))
            )
            devs.append(abs(est.lambda1 - l1))
            devs.append(abs(est.lambda2 - l2))
    devs = np.asarray(devs)
    return _report(
        "inversions",
        devs,
        1e-10,
        [],
        notes="noiseless weight-recovery round-trips from exact correlations",
    )


def _suite_shots(seq, samples):
    rng = np.random.default_rng(seq)
    shots = 10_000
    r = 1.0 / math.sqrt(2.0)
    ratios = []
    lam_ok = 0
    pair_ok = 0
    for _ in range(samples):
        lam = rng.uniform(0.05, 0.95)
        rec = sample_expectation(
            assemble_rank3_max(lam, r, r), ("z", "z"), shots, rng
        )
        sigma = 0.75 * max(rec.std_error, 1e-12)
        err = abs(lambda_from_szpz(rec.expectation).value - lam)
        ratios.append(err / (5.0 * sigma))
        if err <= 5.0 * sigma:
            lam_ok += 1
    for _ in range(samples):
        l1 = rng.uniform(0.1, 0.7)
        l2 = rng.uniform(0.1, 0.9 - l1)
        rho = assemble_rank4_max(l1, l2)
        rx = sample_expectation(rho, ("x", "x"), shots, rng)
        rz = sample_expectation(rho, ("z", "z"), shots, rng)
        s1 = math.sqrt(4.0 * rx.std_error**2 + rz.std_error**2)
        s2 = 1.5 * math.sqrt(rx.std_error**2 + rz.std_error**2)
        try:
            est = lambdas_from_correlations(rx.expectation, rz.expectation, tol=1.0)
        except Infeasible:
            continue
        if abs(est.lambda1 - l1) <= 5.0 * max(s1, 1e-12) and abs(
            est.lambda2 - l2
        ) <= 5.0 * max(s2, 1e-12):
            pair_ok += 1
    lam_rate = lam_ok / samples
    pair_rate = pair_ok / samples
    passed = bool(lam_rate >= 0.99 and pair_rate >= 0.99)
    return _report(
        "shots",
        np.asarray(ratios),
        None,
        [],
        extra={
            "shots": shots,
            "lambda_success_rate": lam_rate,
            "pair_success_rate": pair_rate,
            "required_rate": 0.99,
        },
        notes=(
            "finite-shot weight recovery must land within five combined "
            "standard errors in at least 99 percent of trials"
        ),
        passed_override=passed,
    )


#: registry order is load-bearing: each suite's seed stream is spawned by index
SUITES: dict[str, Callable] = {
    "pure": _suite_pure,
    "lu-invariance": _suite_lu_invariance,
    "rank2-roundtrip": _suite_rank2_roundtrip,
    "rank2-sep2": _suite_rank2_sep2,
    "rank2-degenerate": _suite_rank2_degenerate,
    "projection2": _suite_projection2,
    "xstate": _suite_xstate,
    "xstate-invariant": _suite_xstate_invariant,
    "ladder": _suite_ladder,
    "bounds": _suite_bounds,
    "rank4-max": _suite_rank4_max,
    "threshold": _suite_threshold,
    "region": _suite_region,
    "inversions": _suite_inversions,
    "shots": _suite_shots,
}


def run_suites(names=None, samples: int = 1000, seed: int = 0) -> list[SuiteReport]:
    """Run the named suites (all by default) with per-suite spawned seeds."""
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suites: {unknown}")
    root = np.random.SeedSequence(seed)
    streams = root.spawn(len(SUITES))
    order = {name: i for i, name in enumerate(SUITES)}
    return [SUITES[name](streams[order[name]], samples) for name in names]
