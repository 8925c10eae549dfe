"""Shared fixtures and an independent reference concurrence.

The reference deliberately takes the textbook route: general (non-Hermitian)
eigenvalues of rho @ rho_tilde through np.linalg.eigvals. It shares no code
path with the library oracle, at the price of about 1e-8 of noise on
eigenvalues near zero, so comparisons against it use tolerances around 1e-6.
"""

import platform
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)


def wootters_reference(matrix: np.ndarray) -> float:
    tilde = _YY @ matrix.conj() @ _YY
    ev = np.linalg.eigvals(matrix @ tilde)
    lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def concurrence_pure(c) -> float:
    """Concurrence of a pure state from its four unit-norm amplitudes:
    2 |c00 c11 - c01 c10|, a reference the oracle shares no code with."""
    return float(2.0 * abs(c[0] * c[3] - c[1] * c[2]))


def one_state(sampler, rng, **kwargs):
    """The single-state dataclass of a sampler's n = 1 block."""
    from qconc.qstate import _record

    return _record(sampler(rng, 1, **kwargs), 0)


#: marks a test whose digest takes bits from BLAS or LAPACK, which depend on
#: the numpy build and the CPU's kernels: it runs on the build it was
#: recorded with
RECORDED_BUILD = pytest.mark.skipif(
    np.__version__ != "2.4.6" or platform.machine() != "x86_64",
    reason="digest recorded with numpy 2.4.6 on x86-64",
)


def rank2_block(rng, n: int):
    """The parameter block of sample_nondegenerate_rank2, without the
    polarizations it hands back."""
    from qconc.validate import sample_nondegenerate_rank2

    return sample_nondegenerate_rank2(rng, n)[0]


#: just inside the acceptance tolerances of check_states (1e-10 each)
EDGE = 0.99e-10


@st.composite
def edge_states(draw) -> np.ndarray:
    """A matrix at the edges of what validation accepts: a Bell state, a
    computational basis state or a random state of rank 1-4, with its
    smallest eigenvalue set in [-EDGE, 0], its trace scaled to within EDGE
    of 1 and an anti-Hermitian part whose residual |m - m^H| is up to EDGE
    at one entry."""
    from qconc.qstate import bell_state, random_rank_k

    base = draw(
        st.one_of(
            st.sampled_from(["phi+", "phi-", "psi+", "psi-"]).map(
                lambda kind: bell_state(kind).matrix
            ),
            st.integers(0, 3).map(lambda k: np.diag(np.eye(4)[k])),
            st.builds(
                lambda k, seed: random_rank_k(k, seed).matrix,
                st.integers(1, 4),
                st.integers(0, 2**32 - 1),
            ),
        )
    )
    w, v = np.linalg.eigh(base)
    w[0] = draw(st.floats(-EDGE, 0.0))
    w *= draw(st.floats(1.0 - EDGE, 1.0 + EDGE)) / w.sum()
    m = (v * w) @ v.conj().T
    m = (m + m.conj().T) / 2
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    skew = np.zeros((4, 4), dtype=complex)
    skew[i, j] += draw(st.floats(0.0, EDGE)) / 2 * (1j if i == j else 1.0)
    return m + skew - skew.conj().T


#: state inputs that are no JSON text a state can come from (cut off inside
#: the payload, nested past the parser's recursion limit, bytes that are not
#: UTF-8), each with the start of the InvalidState message that reading it
#: ends in
UNREADABLE = {
    "truncated": (b'{"matrix": [[{"re": 0.5, "im"', "input is not valid JSON: "),
    "nested": (b"[" * 100_000 + b"]" * 100_000, "input is nested too deeply: "),
    "not-utf8": (b'{"matrix": "\xe9\xff"}', "input is not UTF-8 text: "),
}


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
