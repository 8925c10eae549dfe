"""Shared fixtures and an independent reference concurrence.

The reference deliberately takes the textbook route: general (non-Hermitian)
eigenvalues of rho @ rho_tilde through np.linalg.eigvals. It shares no code
path with the library oracle, at the price of about 1e-8 of noise on
eigenvalues near zero, so comparisons against it use tolerances around 1e-6.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)


def wootters_reference(matrix: np.ndarray) -> float:
    tilde = _YY @ matrix.conj() @ _YY
    ev = np.linalg.eigvals(matrix @ tilde)
    lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def bloch_payload(rho) -> dict:
    """The Bloch form of a state file's payload, the one besides the matrix."""
    from qconc.qstate import decompose

    b = decompose(rho)
    return {"bloch": {"p": b.p.tolist(), "s": b.s.tolist(), "pi": b.pi.tolist()}}


def write_state(path, rho) -> None:
    """A state file in the matrix form, as canonical text."""
    from qconc.stateio import canonical_dumps, state_to_dict

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(state_to_dict(rho)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def reference():
    return wootters_reference


# -- acceptance reporting -----------------------------------------------------

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance():
    """Context manager recording one [PASS]/[FAIL] verdict line per criterion.

    The body runs under a timer; an optional runtime budget in seconds is
    itself part of the criterion. Lines are replayed in the terminal summary
    so they survive pytest's output capture.
    """

    @contextmanager
    def criterion(index, label, budget=None):
        start = time.perf_counter()
        ok = False
        try:
            yield
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed >= budget:
                raise AssertionError(
                    f"runtime {elapsed:.2f} s exceeds the {budget:g} s budget"
                )
            ok = True
        finally:
            elapsed = time.perf_counter() - start
            verdict = "PASS" if ok else "FAIL"
            line = f"[{verdict}] {index}/7 {label} ({elapsed:.2f} s)"
            _ACCEPTANCE_LINES.append(line)
            print(line)

    return criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
