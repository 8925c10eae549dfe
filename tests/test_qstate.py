import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qconc.qstate as qstate
from conftest import edge_states
from qconc.concurrence import concurrence_oracle
from qconc.errors import InvalidState, NotAState
from qconc.qstate import (
    _PAULI_GRID,
    ID2,
    PSD_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochDecomposition,
    _cos_sin,
    _math,
    DensityOperator,
    assemble,
    batch_decompose,
    bell_state,
    check_states,
    decompose,
    random_rank_k,
    rank_of,
    werner_state,
)
from qconc.validate import (
    batch_haar_u2,
    batch_random_mixed,
    batch_random_pure,
    sample_nondegenerate_rank2,
)

_SIGMAS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class TestDensityOperator:
    def test_accepts_valid_state(self):
        rho = DensityOperator(np.eye(4) / 4.0)
        assert rho.purity() == pytest.approx(0.25)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidState):
            DensityOperator(np.eye(3) / 3.0)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.2
        with pytest.raises(InvalidState):
            DensityOperator(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidState):
            DensityOperator(np.eye(4) / 2.0)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(InvalidState):
            DensityOperator(m)

    def test_matrix_is_immutable(self):
        rho = werner_state(0.0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


def _reference_defect(m):
    """The single-state checks written out one by one, in their fixed order:
    the message a 4x4 matrix is rejected with, or None if it is a state."""
    if not np.isfinite(m).all():
        return "entries must be finite"
    if np.abs(m - m.conj().T).max() > 1e-10:
        return "matrix is not Hermitian within tolerance"
    tr = np.trace(m).real
    if abs(tr - 1.0) > 1e-10:
        return f"trace is {tr}, expected 1"
    low = np.linalg.eigvalsh(m)[0]
    if low < -1e-10:
        return f"smallest eigenvalue {low} is negative"
    return None


def _rejection(fn, arg):
    """The InvalidState message fn(arg) raises, or None if it returns."""
    try:
        fn(arg)
    except InvalidState as exc:
        return str(exc)
    return None


def _non_finite(m):
    m[1, 2] = np.nan
    return m


def _infinite_diagonal(m):
    m[2, 2] = np.inf
    return m


def _non_hermitian(m):
    m[0, 3] += 1e-6
    return m


def _wrong_trace(m):
    return 1.01 * m


def _negative_eigenvalue(m):
    return np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)


_DEFECTS = {
    "non-finite": _non_finite,
    "infinite-diagonal": _infinite_diagonal,
    "non-hermitian": _non_hermitian,
    "trace": _wrong_trace,
    "negative-eigenvalue": _negative_eigenvalue,
}


def _valid_stack(n=7):
    return np.stack([random_rank_k(1 + k % 4, seed=k).matrix for k in range(n)])


def _psd_edge_state(low, seed):
    """A Hermitian matrix of spectrum (low, w1, w2, w3) in a Haar basis, the
    w a random split of 1 - low, so its trace is one."""
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    w = np.concatenate([[low], (1.0 - low) * rng.dirichlet(np.ones(3))])
    m = (v * w) @ v.conj().T
    return (m + m.conj().T) / 2


class TestCheckStates:
    @pytest.mark.parametrize("defect", sorted(_DEFECTS))
    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_bad_state_in_a_stack_raises_its_single_state_message(
        self, defect, position
    ):
        mats = _valid_stack()
        mats[position] = _DEFECTS[defect](mats[position].copy())
        expected = _reference_defect(mats[position])
        assert expected is not None
        assert _rejection(DensityOperator, mats[position]) == expected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _rejection(check_states, mats) == expected

    @pytest.mark.parametrize("first", sorted(_DEFECTS))
    @pytest.mark.parametrize("second", sorted(_DEFECTS))
    def test_first_bad_state_in_stack_order_wins(self, first, second):
        mats = _valid_stack()
        mats[2] = _DEFECTS[first](mats[2].copy())
        mats[5] = _DEFECTS[second](mats[5].copy())
        assert _rejection(check_states, mats) == _reference_defect(mats[2])

    # 1 - 1e-5 lies inside the certificate's margin, so eigvalsh decides it
    @pytest.mark.parametrize("factor", [1 + 1e-3, 1 - 1e-3, 1 - 1e-5])
    @pytest.mark.parametrize("seed", range(4))
    def test_the_psd_edge_follows_the_eigvalsh_rule(self, factor, seed):
        """lambda_min = -PSD_TOL (1 +- 1e-3): below the edge a state is
        rejected with eigvalsh's message, above it accepted, alone or in a
        stack."""
        m = _psd_edge_state(-PSD_TOL * factor, seed)
        expected = _reference_defect(m)
        assert (expected is None) == (factor < 1)
        assert _rejection(DensityOperator, m) == expected
        mats = _valid_stack()
        mats[3] = m
        assert _rejection(check_states, mats) == expected

    def test_returns_a_read_only_copy(self):
        mats = _valid_stack()
        out = check_states(mats)
        np.testing.assert_array_equal(out, mats)
        assert out.dtype == complex
        with pytest.raises(ValueError):
            out[0, 0, 0] = 1.0
        mats[0, 0, 0] = 2.0
        assert out[0, 0, 0] != 2.0

    def test_rows_equal_density_operator_matrices(self):
        mats = _valid_stack()
        out = check_states(mats)
        for k, m in enumerate(mats):
            np.testing.assert_array_equal(out[k], DensityOperator(m).matrix)

    def test_empty_stack(self):
        assert check_states(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 3), (1, 4, 4, 1)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(InvalidState):
            check_states(np.zeros(shape))

    def test_rejects_non_numeric_input(self):
        with pytest.raises(InvalidState, match="numeric"):
            check_states([{"re": 0.25, "im": 0.0}])


class TestCheckStatesWithoutCertificate(TestCheckStates):
    """Every TestCheckStates case with np.linalg.cholesky raising, so that
    every stack goes to the eigvalsh fallback: verdicts and messages hold."""

    @pytest.fixture(autouse=True)
    def _no_certificate(self, monkeypatch):
        def refuse(a, *args, **kwargs):
            raise np.linalg.LinAlgError("certificate disabled")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)


_ENTRY = st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.inf), 0.3])


@st.composite
def _stacks(draw):
    """Small stacks of random states, some with one entry replaced or nudged."""
    mats = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        m = random_rank_k(
            draw(st.integers(min_value=1, max_value=4)),
            seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        ).matrix.copy()
        kind = draw(st.sampled_from(["valid", "entry", "nudge", "scale"]))
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        if kind == "entry":
            m[i, j] = draw(_ENTRY)
        elif kind == "nudge":
            m[i, j] += draw(st.floats(min_value=-1e-9, max_value=1e-9))
        elif kind == "scale":
            m *= 1.0 + draw(st.floats(min_value=-1e-9, max_value=1e-9))
        mats.append(m)
    return np.stack(mats)


@settings(max_examples=200, deadline=None)
@given(_stacks())
def test_check_states_accepts_exactly_when_every_state_does(mats):
    per_state = [_rejection(DensityOperator, m) for m in mats]
    assert per_state == [_reference_defect(m) for m in mats]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _rejection(check_states, mats)
    assert stacked == next((msg for msg in per_state if msg is not None), None)


def _verdict(fn, m):
    """What fn(m) does: the type, message and lowest_eigenvalue of what it
    raises, or the bytes of the matrix it returns."""
    try:
        out = fn(m)
    except Exception as exc:  # the type is part of the verdict
        return type(exc), str(exc), getattr(exc, "lowest_eigenvalue", None)
    return out.tobytes()


def _one_acceptance_rule(m):
    """Assert that DensityOperator(m) accepts what check_states(m[None])
    accepts, with the same matrix, and raises what it raises otherwise, and
    that it keeps its matrix's 32 floats; return the verdict."""
    m = np.asarray(m, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = _verdict(lambda x: DensityOperator(x).matrix, m)
        stacked = _verdict(lambda x: check_states(x[None])[0], m)
    assert single == stacked
    if isinstance(single, bytes):
        assert np.array(DensityOperator(m)._parts).tobytes() == single
    return single


def _ulps(x: float, n: int) -> list:
    """x and the n floats on either side of it."""
    return [x] + [y for k in range(1, n + 1) for y in (x - k * math.ulp(x), x + k * math.ulp(x))]


_INTERIOR = werner_state(0.5).matrix


@pytest.mark.parametrize("direction", [1.0, 1j, "diagonal"] + [np.exp(0.3j * k) for k in range(1, 21)])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_hermiticity_residuals_at_the_tolerance_take_one_rule(direction, at):
    """One entry moved so that its Hermiticity residual is 1e-10, or the
    clearance edge 1e-10 - 2e-15, or a few ulps either side: by r times a
    unit direction off the diagonal, or by i r / 2 on it. Both verdicts
    occur."""
    verdicts = set()
    for r in _ulps(1e-10, 8) + _ulps(1e-10 - 2e-15, 8):
        m = _INTERIOR.copy()
        if isinstance(direction, str):
            m[at, at] += 0.5j * r
        else:
            m[[(0, 1), (2, 1), (3, 2)][at]] += r * direction  # entries that are zero
        verdict = _one_acceptance_rule(m)
        verdicts.add(verdict[1] if isinstance(verdict, tuple) else "accepted")
    assert verdicts == {"accepted", "matrix is not Hermitian within tolerance"}


#: the first three diagonal entries of the trace tests: dyadic ones, and
#: random ones whose sums round differently in different orders
_HEADS = [(0.25, 0.25, 0.25)] + np.random.default_rng(36).dirichlet(np.ones(4), 40)[:, :3].tolist()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_trace_residuals_at_the_tolerance_take_one_rule(sign):
    """Traces 1 +- 1e-10 and 1 +- (1e-10 - 2e-15), reached through the last
    diagonal entry and a few ulps of it either side. Both verdicts occur."""
    verdicts = set()
    for head in _HEADS:
        for gap in (1e-10, 1e-10 - 2e-15):
            for last in _ulps(1.0 - sum(head) + sign * gap, 12):
                m = np.diag([*head, last]).astype(complex)
                verdict = _one_acceptance_rule(m)
                verdicts.add(verdict[1].split(" is ")[0] if isinstance(verdict, tuple) else "accepted")
    assert verdicts == {"accepted", "trace"}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_anywhere_takes_one_rule(value):
    """Every real and imaginary part of every entry, in turn."""
    for k in range(32):
        m = _INTERIOR.copy()
        m.view(float).reshape(32)[k] = value
        assert _one_acceptance_rule(m) == (InvalidState, "entries must be finite", None)


@pytest.mark.parametrize("seed", range(4))
def test_a_smallest_eigenvalue_near_the_psd_tolerance_takes_one_rule(seed):
    """lambda_min around -PSD_TOL and around the certificate's shift
    -(PSD_TOL - 1e-14), inside and outside."""
    for low in (-PSD_TOL * (1 + 1e-3), -PSD_TOL * (1 - 1e-3), -PSD_TOL * (1 - 1e-5),
                -(PSD_TOL - 1e-14) * (1 + 1e-4), -(PSD_TOL - 1e-14) * (1 - 1e-4), -1e-12):
        _one_acceptance_rule(_psd_edge_state(low, seed))


@st.composite
def _near_the_edges(draw) -> np.ndarray:
    """A random state with one part of one entry moved by up to 3e-10 (so
    with a Hermiticity residual up to there), its diagonal scaled by up to
    1 +- 3e-10, or one part replaced by a non-finite value."""
    m = random_rank_k(draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**32 - 1))).matrix.copy()
    parts = m.view(float).reshape(32)
    k = draw(st.integers(0, 31))
    kind = draw(st.sampled_from(["nudge", "scale", "non-finite"]))
    if kind == "nudge":
        parts[k] += draw(st.floats(-3e-10, 3e-10))
    elif kind == "scale":
        m *= 1.0 + draw(st.floats(-3e-10, 3e-10))
    else:
        parts[k] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(edge_states(), _near_the_edges()))
def test_density_operator_accepts_exactly_what_check_states_does(m):
    _one_acceptance_rule(m)


def test_only_a_state_the_float_checks_do_not_clear_meets_check_states(monkeypatch):
    """A state well inside the tolerances is accepted on its floats and its
    certificate; one at the Hermiticity tolerance goes to check_states, which
    accepts it."""
    calls = []

    def counting(mats, check=qstate.check_states):
        calls.append(np.shape(mats))
        return check(mats)

    monkeypatch.setattr(qstate, "check_states", counting)
    for k in (1, 2, 3, 4):
        DensityOperator(random_rank_k(k, seed=k).matrix)
    assert calls == []
    m = _INTERIOR.copy()
    m[0, 1] += 1e-10
    DensityOperator(m)
    assert calls == [(1, 4, 4)]


def test_the_caller_cannot_change_a_state_after_construction():
    """The matrix is a read-only copy that shares no memory with the
    caller's array, and the oracle and decompose read the floats it was
    checked on."""
    m = random_rank_k(3, seed=3).matrix.copy()
    rho = DensityOperator(m)
    want = (rho.matrix.tobytes(), concurrence_oracle(rho), decompose(rho).pi.tobytes())
    assert not np.shares_memory(rho.matrix, m)
    m[:] = np.eye(4) / 4.0
    assert (rho.matrix.tobytes(), concurrence_oracle(rho), decompose(rho).pi.tobytes()) == want
    assert np.array(rho._parts).tobytes() == want[0]
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
    assert "_parts" not in repr(rho) and "_columns" not in repr(rho)


def _pushed_states(rank: int, eps: float, seed: int) -> np.ndarray:
    """300 batch_random_mixed states of a rank, with the smallest eigenvalue
    set to -eps and what it loses added to the largest, so the trace stays
    one."""
    w, v = np.linalg.eigh(batch_random_mixed(np.random.default_rng(seed), 300, rank))
    w[:, -1] += w[:, 0] + eps
    w[:, 0] = -eps
    m = np.einsum("nik,nk,njk->nij", v, w, v.conj())
    return (m + m.conj().swapaxes(1, 2)) / 2


def _factor_certifies(m) -> bool:
    """Whether one state's floats clear the float checks and its factor
    certifies it, with no check_states call."""
    parts = m.ravel().view(float).tolist()
    re, im = parts[0::2], parts[1::2]
    columns = [(lr, li) for _, lr, li in qstate._pivoted_factor(re, im)]
    return qstate._clears(parts) and qstate._factor_certified(re, im, columns)


@pytest.mark.parametrize("eps", [1e-12, 5e-11, 9.9e-11, 1e-10, 1.01e-10, 2e-10])
def test_the_factor_certificate_is_sound_at_the_psd_edge(eps):
    """States of ranks 1-4 pushed to lambda_min = -eps: DensityOperator
    accepts exactly what check_states accepts, with the same message and
    lowest_eigenvalue otherwise, and the factor certifies no state that
    check_states rejects: well inside the margin it certifies them all, and
    near the edge none, leaving them to check_states."""
    certified = 0
    for rank in (1, 2, 3, 4):
        for m in _pushed_states(rank, eps, seed=rank):
            verdict = _one_acceptance_rule(m)
            if _factor_certifies(m):
                assert isinstance(verdict, bytes)
                certified += 1
    if eps == 1e-12:
        assert certified == 1200
    if eps >= 9.9e-11:
        assert certified == 0


def test_states_and_decompositions_compare_by_value():
    """Operators and decompositions are equal when their entries are, -0.0
    and 0.0 alike, with equal hashes; different ones are unequal, and no
    comparison raises."""
    a, b, c = werner_state(0.5), werner_state(0.5), werner_state(0.4)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert a != "werner" and len({a, b, c, DensityOperator(a.matrix)}) == 2
    pa, pb, pc = decompose(a), decompose(b), decompose(c)
    assert pa == pb and not pa != pb and hash(pa) == hash(pb)
    assert pa != pc and pa != a and len({pa, pb, pc}) == 2
    zero, signed = np.zeros(3), np.array([-0.0, 0.0, -0.0])
    left = BlochDecomposition(p=zero, s=zero, pi=np.eye(3))
    right = BlochDecomposition(p=signed, s=signed, pi=np.eye(3))
    assert left == right and hash(left) == hash(right)
    basis = [DensityOperator(np.diag([1.0, 0.0, z, 0.0])) for z in (0.0, -0.0)]
    assert basis[0] == basis[1] and hash(basis[0]) == hash(basis[1])


def test_pauli_pair_matches_kron():
    for i, a in enumerate((ID2,) + _SIGMAS):
        for j, b in enumerate((ID2,) + _SIGMAS):
            np.testing.assert_array_equal(_PAULI_GRID[i, j], np.kron(a, b))


def test_decompose_assemble_roundtrip_named_states():
    for rho in (werner_state(0.0), werner_state(0.7), bell_state("phi-")):
        back = assemble(decompose(rho))
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=4))
def test_decompose_assemble_roundtrip_random(seed, k):
    """The Pauli expansion is exact: assemble(decompose(rho)) == rho."""
    rho = random_rank_k(k, seed)
    back = assemble(decompose(rho))
    assert np.abs(back.matrix - rho.matrix).max() < 1e-13


def _einsum_decompose(mats):
    """The decomposition as a contraction with the Pauli grid, how the fields
    were computed before they were summed over matrix entries."""
    comp = np.einsum("nab,ijba->nij", np.ascontiguousarray(mats, dtype=complex), _PAULI_GRID).real
    return [np.ascontiguousarray(x) for x in (comp[:, 1:, 0], comp[:, 0, 1:], comp[:, 1:, 1:])]


def _decomposition_stacks():
    rng = np.random.default_rng(2014)
    stacks = [batch_random_mixed(rng, 300, k) for k in (1, 2, 3, 4)]
    amps = batch_random_pure(rng, 300)
    stacks.append(np.einsum("ni,nj->nij", amps, amps.conj()))
    named = [bell_state(k).matrix for k in ("phi+", "phi-", "psi+", "psi-")]
    signed_zeros = np.full((4, 4), complex(-0.0, -0.0))
    np.fill_diagonal(signed_zeros, 0.25)
    stacks.append(np.stack(named + [werner_state(0.3).matrix, signed_zeros]))
    return stacks


@pytest.mark.parametrize("stack", range(6), ids=["rank1", "rank2", "rank3", "rank4", "pure", "named"])
def test_decompose_matches_the_pauli_grid_contraction_bit_for_bit(stack):
    """Each field, a sum of four signed entries from +0.0, has the bits the
    einsum over the Pauli grid gave, signed zeros included, on a stack and
    on each of its rows."""
    mats = _decomposition_stacks()[stack]
    expected = _einsum_decompose(mats)
    for got, want in zip(batch_decompose(mats), expected):
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    for k, m in enumerate(mats):
        bloch = decompose(m)
        for got, want in zip((bloch.p, bloch.s, bloch.pi), expected):
            assert got.tobytes() == want[k].tobytes()


@np.errstate(over="ignore", invalid="ignore")
def _grid_matrix(bloch):
    """The matrix as assemble built it before the float sums: field times
    Pauli product accumulated over the grid from the identity, then scaled
    by 1/4 as assemble scales, in Python floats."""
    m = np.array(_PAULI_GRID[0, 0], dtype=complex)
    for i in range(3):
        m += bloch.p[i] * _PAULI_GRID[i + 1, 0]
        m += bloch.s[i] * _PAULI_GRID[0, i + 1]
        for j in range(3):
            m += bloch.pi[i, j] * _PAULI_GRID[i + 1, j + 1]
    return np.array([0.25 * x for x in m.ravel().view(float).tolist()]).view(complex).reshape(4, 4)


#: Bloch fields at the edges of the sums: signed zeros, and (a Werner state
#: with A polarized along y) an entry whose real sum is the smallest negative
#: subnormal next to a negative imaginary part, which scales to -0.0
_EDGE_FIELDS = [
    ([-0.0] * 3, [-0.0] * 3, [[1.0, -0.0, -0.0], [-0.0, -1.0, -0.0], [-0.0, -0.0, 1.0]]),
    ([-0.0, -0.0, 1.0], [0.0, -0.0, 1.0], [[-0.0] * 3, [-0.0] * 3, [-0.0, -0.0, 1.0]]),
    ([-5e-324, 1e-3, 0.0], [0.0] * 3, [[0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 0.5]]),
]


@pytest.mark.parametrize(
    "stack", range(7), ids=["rank1", "rank2", "rank3", "rank4", "pure", "named", "edges"]
)
def test_assemble_matches_the_pauli_grid_accumulation_bit_for_bit(stack):
    """Each float of the assembled matrix, a signed sum of fields scaled by
    1/4, has the bits of the former grid accumulation, signed zeros included."""
    if stack < 6:
        blochs = [decompose(m) for m in _decomposition_stacks()[stack]]
    else:
        blochs = [BlochDecomposition(p=p, s=s, pi=pi) for p, s, pi in _EDGE_FIELDS]
    for bloch in blochs:
        assert assemble(bloch).matrix.tobytes() == _grid_matrix(bloch).tobytes()


@pytest.mark.parametrize(
    "p, part", [([-5e-324, 1e-3, 0.0], "real"), ([1e-3, 5e-324, 0.0], "imag")]
)
def test_assemble_zero_signs_hold_on_every_simd_build(p, part):
    """A Werner state with A polarized in the x-y plane, whose sums at (0, 2)
    and (1, 3) have a negative subnormal real or imaginary part. Scaled by
    1/4 in Python floats, each is -0.0 with numpy's SIMD dispatch on or off.
    numpy's complex multiply gave the real part -0.0 in its FMA loops and
    +0.0 with them off, and the imaginary part +0.0 on both."""
    pi = [[0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, 0.5]]
    m = assemble(BlochDecomposition(p=p, s=[0.0] * 3, pi=pi)).matrix
    for at in ((0, 2), (1, 3)):
        x = getattr(m[at], part)
        assert x == 0.0 and math.copysign(1.0, x) == -1.0


@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_assemble_of_overflowing_fields_raises_entries_must_be_finite(where):
    """Huge finite fields overflow a sum to inf, and the scaling makes a NaN
    next to it; the validation check names it, with no spectrum."""
    big = 1.7e308
    if where == "diagonal":
        bloch = BlochDecomposition(p=[0.0, 0.0, big], s=[0.0, 0.0, big], pi=np.zeros((3, 3)))
    else:
        pi = [[0.0] * 3, [0.0] * 3, [big, 0.0, 0.0]]
        bloch = BlochDecomposition(p=np.zeros(3), s=[big, 0.0, 0.0], pi=pi)
    assert not np.isfinite(_grid_matrix(bloch)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidState, match="^entries must be finite$") as caught:
            assemble(bloch)
    assert caught.value.lowest_eigenvalue is None


def test_decompose_builds_the_fields_the_constructor_would():
    """decompose skips the constructor's finiteness check, not its form:
    read-only float arrays of shapes (3,), (3,) and (3, 3) with the same bits."""
    for k in (1, 2, 3, 4):
        bloch = decompose(random_rank_k(k, seed=k))
        built = BlochDecomposition(p=bloch.p, s=bloch.s, pi=bloch.pi)
        for got, want in zip((bloch.p, bloch.s, bloch.pi), (built.p, built.s, built.pi)):
            assert got.shape == want.shape and got.dtype == want.dtype == float
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 1.0


def test_rank_of_counts_the_oracles_factor_columns():
    """rank_of counts the oracle's factor columns, for an operator or its
    matrix."""
    for k in (1, 2, 3, 4):
        rho = random_rank_k(k, seed=k)
        assert rank_of(rho) == rank_of(rho.matrix) == concurrence_oracle(rho).rank == k


def test_rank_of_validates_a_raw_array():
    with pytest.raises(InvalidState, match="^trace is 0.5, expected 1$"):
        rank_of(np.eye(4) / 8.0)


def test_decompose_rejects_unphysical_matrix():
    with pytest.raises(InvalidState):
        decompose(np.diag([1.2, 0.0, 0.0, -0.2]).astype(complex))


def test_assemble_rejects_unphysical_bloch():
    # correlation matrix far outside the tetrahedron of physical states
    bad = BlochDecomposition(p=np.zeros(3), s=np.zeros(3), pi=2.0 * np.eye(3))
    with pytest.raises(NotAState, match=r"^assembled matrix has eigenvalue -1\.25; data is unphysical$"):
        assemble(bad)


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """The shapes np.linalg.eigvalsh is called on, in call order."""
    shapes = []

    def counting(m, eigvalsh=np.linalg.eigvalsh):
        shapes.append(np.shape(m))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return shapes


def test_assemble_takes_no_spectrum_of_a_valid_payload(eigvalsh_shapes):
    """The DensityOperator check accepts a valid payload by its factor's
    certificate, with no eigvalsh; assemble takes a spectrum only to name a
    negative eigenvalue."""
    rho = assemble(decompose(random_rank_k(3, seed=3)))
    assert eigvalsh_shapes == []
    assert rank_of(rho) == 3


def test_assemble_takes_one_spectrum_of_an_unphysical_payload(eigvalsh_shapes):
    """The eigenvalue NotAState names is the one the failed check took on
    its one-state stack; assemble takes no second spectrum."""
    bad = BlochDecomposition(p=np.zeros(3), s=np.zeros(3), pi=2.0 * np.eye(3))
    with pytest.raises(NotAState, match=r"^assembled matrix has eigenvalue -1\.25; "):
        assemble(bad)
    assert eigvalsh_shapes == [(1, 4, 4)]


def test_rank_of_exact_ranks():
    for k in (1, 2, 3, 4):
        assert rank_of(random_rank_k(k, seed=k)) == k


def test_rank_of_named_states():
    assert rank_of(bell_state("phi+")) == 1
    assert rank_of(werner_state(0.0)) == 4
    assert rank_of(werner_state(1.0)) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_haar_unitary_is_unitary(seed):
    for u in batch_haar_u2(np.random.default_rng(seed), 4):
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


class TestLocalUnitary:
    def test_rotations_transform_bloch_fields(self):
        """decompose(u rho u+) must equal the rotated Bloch fields of rho."""
        u_a, u_b = batch_haar_u2(np.random.default_rng(21), 2)
        u = np.kron(u_a, u_b)
        rho = random_rank_k(3, seed=5)
        ra, rb = _rotation(u_a), _rotation(u_b)
        before = decompose(rho)
        after = decompose(DensityOperator(u @ rho.matrix @ u.conj().T))
        np.testing.assert_allclose(after.p, ra @ before.p, atol=1e-12)
        np.testing.assert_allclose(after.s, rb @ before.s, atol=1e-12)
        np.testing.assert_allclose(after.pi, ra @ before.pi @ rb.T, atol=1e-12)


def _rotation(u: np.ndarray) -> np.ndarray:
    """Rotation R[i, j] = Tr(sigma_i u sigma_j u^dag) / 2 that u induces on a
    Bloch vector."""
    ud = u.conj().T
    return np.array([[0.5 * np.trace(a @ u @ b @ ud).real for b in _SIGMAS] for a in _SIGMAS])


def test_random_pure_is_deterministic_by_seed():
    a, b, c = (batch_random_pure(np.random.default_rng(s), 3) for s in (42, 42, 43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_rank_k_validates_rank_argument():
    with pytest.raises(ValueError):
        random_rank_k(5, seed=0)


def test_bell_state_is_a_projector():
    rho = bell_state("psi-")
    assert isinstance(rho, DensityOperator)
    assert rho.purity() == pytest.approx(1.0)


def test_bell_state_unknown_kind():
    with pytest.raises(ValueError):
        bell_state("sigma+")


def test_werner_weight_range():
    with pytest.raises(ValueError):
        werner_state(1.5)


def test_werner_interpolates_purity():
    assert werner_state(0.0).purity() == pytest.approx(0.25)
    assert werner_state(1.0).purity() == pytest.approx(1.0)


# -- block math ---------------------------------------------------------------


def _per_entry(fn, *args) -> np.ndarray:
    """fn called once per entry: the bits a block's rows must keep."""
    n = next(len(a) for a in args if isinstance(a, np.ndarray))
    cols = [a.tolist() if isinstance(a, np.ndarray) else [a] * n for a in args]
    return np.array([fn(*row) for row in zip(*cols)], dtype=float)


def _bits(x) -> list:
    """The IEEE bit patterns of a float array, so signed zeros and NaNs count."""
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


def _rank2_doubled_angles() -> np.ndarray:
    """2 alpha and 2 beta of sampled rank-2 states, the angles whose cosines
    local_observables_rank2 takes."""
    params, _, _ = sample_nondegenerate_rank2(np.random.default_rng(0), 5000)
    return np.concatenate([2.0 * params.alpha, 2.0 * params.beta])


_LIBM_ANGLES = {
    "uniform-0-2pi": lambda: np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, 100_000),
    "rank2-doubled": _rank2_doubled_angles,
    "edges": lambda: np.array([0.0, -0.0, math.pi / 4.0, math.pi / 2.0, math.pi]),
}


@pytest.mark.parametrize("angles", list(_LIBM_ANGLES))
def test_numpy_cos_sin_have_libm_bits(angles):
    """Blocks take np.cos and np.sin only because they give math.cos and
    math.sin's bits on every angle; numpy does not promise this, and its SIMD
    dispatch could change it, so it is checked here."""
    x = _LIBM_ANGLES[angles]()
    assert _bits(np.cos(x)) == _bits(_per_entry(math.cos, x))
    assert _bits(np.sin(x)) == _bits(_per_entry(math.sin, x))
    assert [_bits(v) for v in _cos_sin(x)] == [_bits(np.cos(x)), _bits(np.sin(x))]


_EDGE_VALUES = [0.0, -0.0, math.nan, -math.nan, 1.0, -1.0, 0.5, math.inf, -math.inf]


@pytest.mark.parametrize("fn", [max, min])
def test_block_max_min_keep_python_ties(fn):
    a = np.repeat(_EDGE_VALUES, len(_EDGE_VALUES))
    b = np.tile(_EDGE_VALUES, len(_EDGE_VALUES))
    for args in [(a, b), (b, a), (a, 0.0), (0.0, a), (a, -0.0), (-0.0, a), (math.nan, a), (a, math.nan)]:
        assert _bits(_math(fn, *args)) == _bits(_per_entry(fn, *args))


def test_block_max_keeps_the_first_of_a_tie_or_a_nan():
    assert _bits(_math(max, 0.0, np.array([math.nan]))) == _bits([0.0])
    assert _bits(_math(max, np.array([-0.0]), 0.0)) == _bits([-0.0])
    assert _bits(_math(min, np.array([0.0]), -0.0)) == _bits([0.0])
    assert np.isnan(_math(max, np.array([math.nan]), 0.0)).all()


def test_block_sqrt_cos_sin_match_the_per_entry_call():
    rng = np.random.default_rng(3)
    spread = rng.uniform(0.0, 1.0, 10_000) * 10.0 ** rng.integers(-300, 300, 10_000)
    edges = np.array([0.0, -0.0, math.nan, math.inf, 5e-324, 0.25, 2.0, 1.7976931348623157e308])
    for x in (spread, edges):
        assert _bits(_math(math.sqrt, x)) == _bits(_per_entry(math.sqrt, x))
    for x in (rng.uniform(-50.0, 50.0, 10_000), np.array([0.0, -0.0, math.nan, 1e300])):
        for fn in (math.cos, math.sin):
            assert _bits(_math(fn, x)) == _bits(_per_entry(fn, x))


@pytest.mark.parametrize(
    "fn, bad", [(math.sqrt, -1.0), (math.sqrt, -math.inf), (math.cos, math.inf), (math.sin, -math.inf)]
)
def test_block_outside_the_domain_raises_the_math_error(fn, bad):
    """A block with one entry outside the domain raises the ValueError of that
    entry's single call, not numpy's NaN and RuntimeWarning."""
    with pytest.raises(ValueError) as single:
        fn(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as block:
            _math(fn, np.array([1.0, bad, 2.0]))
    assert str(block.value) == str(single.value)
