"""The three benchmark workloads: inputs from a seed, one pass of work, checks.

Every workload drives the public CLI entry ``qconc.cli.main([...])`` in
process and checks every output, so a fast wrong answer counts as a failed
operation. An operation is one suite of a ``validate`` report or one
``concurrence`` report. A workload runs in passes of fixed size; the first
pass fixes the reference digests that every later pass, traced or not, must
reproduce byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import click
import numpy as np

#: suites whose kernels loop over per-state Python calls
LOOP_SUITES = (
    "rank2-roundtrip",
    "rank2-sep2",
    "rank2-degenerate",
    "projection2",
    "xstate",
    "xstate-invariant",
    "ladder",
    "bounds",
    "rank4-max",
    "shots",
)
LOOP_SAMPLES = 200

#: suites whose work is in the stacked ``batch_*`` primitives
STACKED_SUITES = ("pure", "lu-invariance")
STACKED_SAMPLES = 20_000
#: fixed-size suites; ``threshold`` scales its angle grid with ``--samples``,
#: so they run in a second call at a small fixed count
FIXED_SUITES = ("region", "threshold", "inversions")
FIXED_SAMPLES = 200

CORPUS_SIZE = 400
#: allowed distance between the reported oracle and the benchmark's reference
REFERENCE_TOL = 1e-8

#: sizes for the self-test
TINY = {"loop": 8, "stacked": 64, "fixed": 8, "corpus": 16}


@dataclass
class Pass:
    """Outcome of one pass: per-call latencies, operations, digests."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _truncate(path: str) -> None:
    open(path, "w").close()


def _timed(main, argv) -> tuple[int, float]:
    start = time.perf_counter()
    code = main(argv)
    return code, time.perf_counter() - start


class ValidateWorkload:
    """One or more ``qconc validate`` calls at fixed suites and sample counts."""

    kind = "validate"

    def __init__(self, calls, seed: int, workdir: str):
        self.calls = []
        for i, (suites, samples) in enumerate(calls):
            out = os.path.join(workdir, f"validate-{i}.json")
            argv = ["validate", "--samples", str(samples), "--seed", str(seed), "--out", out]
            for suite in suites:
                argv += ["--suite", suite]
            self.calls.append((argv, out, tuple(suites)))
        self.reference_digests: list[str] | None = None

    def run(self, main) -> Pass:
        result = Pass()
        for i, (argv, out, suites) in enumerate(self.calls):
            _truncate(out)
            code, seconds = _timed(main, argv)
            result.latencies.append(seconds)
            result.attempted += len(suites)
            data = _read(out)
            digest = _sha256(data) if data is not None else ""
            result.digests.append(digest)
            label = f"validate call {i} ({', '.join(suites)})"
            if code != 0 or data is None:
                result.fail(len(suites), f"{label}: exit code {code}")
                continue
            try:
                report = json.loads(data)
                passed = {s["suite"]: s["passed"] is True for s in report["suites"]}
                all_passed = report["all_passed"] is True
            except (ValueError, KeyError, TypeError) as exc:
                result.fail(len(suites), f"{label}: unreadable report: {exc}")
                continue
            bad = [s for s in suites if not passed.get(s, False)]
            if not all_passed and not bad:
                bad = list(suites)
            if bad:
                result.fail(len(bad), f"{label}: failed suites {bad}")
            elif self.reference_digests is not None and digest != self.reference_digests[i]:
                result.fail(len(suites), f"{label}: report digest differs at the same seed")
        if self.reference_digests is None:
            self.reference_digests = list(result.digests)
        return result

    def digests(self) -> dict:
        return {f"validate-{i}": d for i, d in enumerate(self.reference_digests or [])}


# ---------------------------------------------------------------------------
# report corpus and its references
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_YY = np.kron(_Y, _Y)
_AXES = (_X, _Y, _Z)
_BELL = (
    np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
)
_SINGLET = _BELL[3]

#: the corpus cycles through these kinds, so every seed has the same mix
KINDS = ("haar1", "haar2", "haar3", "haar4", "werner", "bell", "ladder", "xstate")
#: every fourth round of the cycle is sent as a Bloch payload
BLOCH_EVERY = 4
#: smallest weight of a Haar-random mixture, so its rank is unambiguous
HAAR_WEIGHT_FLOOR = 0.01


def wootters_reference(rho: np.ndarray, rank: int) -> float:
    """Textbook Wootters concurrence of a state of known rank.

    lambda_i are the square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), in decreasing order. That product has rank
    at most ``rank``, so its smallest ``4 - rank`` eigenvalues are exact
    zeros and are set so; their round-off would otherwise enter as its
    square root.
    """
    product = rho @ _YY @ rho.conj() @ _YY
    mu = np.sort(np.linalg.eigvals(product).real)[::-1]
    mu[rank:] = 0.0
    lam = np.sqrt(np.clip(mu, 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _hermitian(m: np.ndarray) -> np.ndarray:
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def _haar_state(rng, rank: int) -> tuple[np.ndarray, float]:
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    q, _ = np.linalg.qr(g)
    w = HAAR_WEIGHT_FLOOR + (1.0 - rank * HAAR_WEIGHT_FLOOR) * rng.dirichlet(np.ones(rank))
    rho = _hermitian((q * w) @ q.conj().T)
    return rho, wootters_reference(rho, rank)


def _werner_state(rng, p: float | None = None) -> tuple[np.ndarray, float]:
    bell = _BELL[int(rng.integers(4))]
    p = rng.uniform(0.0, 1.0) if p is None else p
    rho = _hermitian(p * np.outer(bell, bell.conj()) + (1.0 - p) * np.eye(4) / 4.0)
    return rho, max(0.0, (3.0 * p - 1.0) / 2.0)


def _ladder_state(rng) -> tuple[np.ndarray, float]:
    lam = rng.uniform(0.0, 1.0)
    rho = lam * np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    rho += (1.0 - lam) * np.outer(_SINGLET, _SINGLET.conj())
    return _hermitian(rho), 1.0 - lam


def _x_state(rng) -> tuple[np.ndarray, float]:
    """X state with inner coherence z and, half the time, outer coherence y."""
    u_plus, w1, w2, u_minus = rng.dirichlet(np.ones(4))
    z = math.sqrt(w1 * w2) * rng.uniform() * np.exp(2j * math.pi * rng.uniform())
    y = 0.0
    if rng.uniform() < 0.5:
        y = math.sqrt(u_plus * u_minus) * rng.uniform() * np.exp(2j * math.pi * rng.uniform())
    rho = np.diag([u_plus, w1, w2, u_minus]).astype(complex)
    rho[1, 2], rho[2, 1] = z, np.conj(z)
    rho[0, 3], rho[3, 0] = y, np.conj(y)
    c = 2.0 * max(0.0, abs(z) - math.sqrt(u_plus * u_minus), abs(y) - math.sqrt(w1 * w2))
    return _hermitian(rho), c


def _matrix_payload(rho: np.ndarray) -> dict:
    return {
        "matrix": [[{"re": float(v.real), "im": float(v.imag)} for v in row] for row in rho]
    }


def _bloch_payload(rho: np.ndarray) -> dict:
    def ev(a, b):
        return float(np.trace(rho @ np.kron(a, b)).real)

    return {
        "bloch": {
            "p": [ev(a, _I2) for a in _AXES],
            "s": [ev(_I2, b) for b in _AXES],
            "pi": [[ev(a, b) for b in _AXES] for a in _AXES],
        }
    }


def make_corpus(seed: int, size: int) -> list[tuple[str, dict, float]]:
    """(kind, state payload, reference concurrence) for ``size`` states."""
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(size):
        kind = KINDS[i % len(KINDS)]
        if kind.startswith("haar"):
            rho, ref = _haar_state(rng, int(kind[-1]))
        elif kind == "werner":
            rho, ref = _werner_state(rng)
        elif kind == "bell":
            rho, ref = _werner_state(rng, p=1.0)
        elif kind == "ladder":
            rho, ref = _ladder_state(rng)
        else:
            rho, ref = _x_state(rng)
        bloch = (i // len(KINDS)) % BLOCH_EVERY == BLOCH_EVERY - 1
        payload = _bloch_payload(rho) if bloch else _matrix_payload(rho)
        corpus.append((kind + ("-bloch" if bloch else ""), payload, ref))
    return corpus


# ---------------------------------------------------------------------------
# calibration kernel
# ---------------------------------------------------------------------------
# A shared machine changes speed by tens of percent within seconds, and by
# up to twice over minutes, for all code alike. Every workload therefore
# times one fixed kernel between its passes, and each pass time over the
# kernel times on either side of it cancels the drift. The kernel is the
# benchmark's own code on fixed inputs, so a change to qconc never moves it.

_CAL_RNG = np.random.default_rng(12345)
_CAL_STATES = [
    json.dumps(_matrix_payload(_haar_state(_CAL_RNG, 1 + i % 4)[0])) for i in range(256)
]


@click.group()
def _cal_cli() -> None:
    """Stand-in command group, parsed like the qconc CLI."""


@_cal_cli.command("report")
@click.argument("state_path")
@click.option("--tol", type=float, default=1e-10)
@click.option("--out", "out_path", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text")
def _cal_report(state_path, tol, out_path, fmt):
    return {"state": state_path, "tol": tol, "out": out_path, "format": fmt}


def _reference_report(text: str, args: dict) -> float:
    """One state through the benchmark's own report pipeline: read the JSON
    matrix, check it, decompose it over the Pauli basis, take the textbook
    concurrence, write canonical JSON text."""
    payload = json.loads(text)
    rho = np.array([[complex(e["re"], e["im"]) for e in row] for row in payload["matrix"]])
    report = {
        "args": args,
        "bloch": _bloch_payload(rho)["bloch"],
        "oracle": wootters_reference(rho, 4),
        "eigenvalues": np.linalg.eigvalsh(rho).tolist(),
        "hermiticity": float(np.abs(rho - rho.conj().T).max()),
    }
    return len(json.dumps(report, sort_keys=True, indent=2)) + report["oracle"]


def calibrate() -> float:
    """A click command and the report pipeline over 150 of 256 fixed states
    of rank 1 to 4, as in ``report-mixed`` but without file I/O."""
    acc = 0.0
    for i in range(150):
        args = _cal_cli.main(
            ["report", "state.json", "--format", "json", "--out", "r.json"], standalone_mode=False
        )
        acc += _reference_report(_CAL_STATES[i * 37 % len(_CAL_STATES)], args)
    return acc


class ReportWorkload:
    """Closed loop, one client: ``concurrence <file> --format json --out <file>``."""

    kind = "report"

    def __init__(self, seed: int, workdir: str, size: int = CORPUS_SIZE):
        corpus = make_corpus(seed, size)
        self.kinds = [kind for kind, _, _ in corpus]
        self.references = [ref for _, _, ref in corpus]
        self.calls = []
        inputs = hashlib.sha256()
        for i, (_, payload, _) in enumerate(corpus):
            state = os.path.join(workdir, f"state-{i:04d}.json")
            out = os.path.join(workdir, f"report-{i:04d}.json")
            text = json.dumps(payload)
            inputs.update(text.encode())
            with open(state, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.calls.append((["concurrence", state, "--format", "json", "--out", out], out))
        self.corpus_digest = inputs.hexdigest()
        self.reference_digests: list[str] | None = None

    def run(self, main) -> Pass:
        result = Pass()
        for i, (argv, out) in enumerate(self.calls):
            _truncate(out)
            code, seconds = _timed(main, argv)
            result.latencies.append(seconds)
            result.attempted += 1
            data = _read(out)
            digest = _sha256(data) if data is not None else ""
            result.digests.append(digest)
            label = f"report {i} ({self.kinds[i]})"
            if code != 0 or data is None:
                result.fail(1, f"{label}: exit code {code}")
                continue
            try:
                oracle = float(json.loads(data)["oracle"])
            except (ValueError, KeyError, TypeError) as exc:
                result.fail(1, f"{label}: unreadable report: {exc}")
                continue
            ref = self.references[i]
            if not (math.isfinite(oracle) and 0.0 <= oracle <= 1.0):
                result.fail(1, f"{label}: oracle {oracle!r} outside [0, 1]")
            elif abs(oracle - ref) > REFERENCE_TOL:
                result.fail(1, f"{label}: oracle {oracle!r} but reference {ref!r}")
            elif self.reference_digests is not None and digest != self.reference_digests[i]:
                result.fail(1, f"{label}: output differs from the first pass")
        if self.reference_digests is None:
            self.reference_digests = list(result.digests)
        return result

    def digests(self) -> dict:
        outputs = hashlib.sha256("".join(self.reference_digests or []).encode())
        return {"corpus": self.corpus_digest, "reports": outputs.hexdigest()}


WORKLOADS = ("validate-loop", "validate-stacked", "report-mixed")


def build(name: str, seed: int, workdir: str, tiny: bool = False):
    """The named workload with inputs drawn from ``seed``, files under ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    if name == "validate-loop":
        samples = TINY["loop"] if tiny else LOOP_SAMPLES
        return ValidateWorkload([(LOOP_SUITES, samples)], seed, workdir)
    if name == "validate-stacked":
        calls = [
            (STACKED_SUITES, TINY["stacked"] if tiny else STACKED_SAMPLES),
            (FIXED_SUITES, TINY["fixed"] if tiny else FIXED_SAMPLES),
        ]
        return ValidateWorkload(calls, seed, workdir)
    if name == "report-mixed":
        return ReportWorkload(seed, workdir, TINY["corpus"] if tiny else CORPUS_SIZE)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
