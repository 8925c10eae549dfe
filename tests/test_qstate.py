import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconc.errors import InvalidState, NotAState, NotNormalized
from qconc.qstate import (
    _PAULI_GRID,
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochDecomposition,
    DensityOperator,
    PureState,
    assemble,
    batch_decompose,
    bell_state,
    check_states,
    decompose,
    random_rank_k,
    rank_of,
    werner_state,
)
from qconc.validate import batch_haar_u2, batch_random_mixed, batch_random_pure

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


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(NotNormalized):
            PureState(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_zero_vector_rejected(self):
        with pytest.raises(NotNormalized):
            PureState(np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(NotNormalized):
            PureState([bad, 0.0, 0.0, 0.0])

    def test_density_is_projector(self):
        rho = bell_state("psi-").density()
        assert rho.purity() == pytest.approx(1.0)


def test_pauli_pair_matches_kron():
    for i, a in enumerate((ID2,) + _SIGMAS):
        for j, b in enumerate((ID2,) + _SIGMAS):
            np.testing.assert_array_equal(_PAULI_GRID[i, j], np.kron(a, b))


def test_decompose_assemble_roundtrip_named_states():
    for rho in (werner_state(0.0), werner_state(0.7), bell_state("phi-").density()):
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
    named = [bell_state(k).density().matrix for k in ("phi+", "phi-", "psi+", "psi-")]
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


def test_density_operator_keeps_the_spectrum_of_its_check():
    """The spectrum check_states computed is kept: eigenvalues() returns a
    copy of it, equal to eigvalsh of the matrix, and rank_of reads it."""
    for k in (1, 2, 3, 4):
        rho = random_rank_k(k, seed=k)
        evals = rho.eigenvalues()
        assert evals.tobytes() == np.linalg.eigvalsh(rho.matrix).tobytes()
        evals[:] = 0.0
        assert rho.eigenvalues().tobytes() == np.linalg.eigvalsh(rho.matrix).tobytes()
        assert rank_of(rho) == rank_of(rho.matrix) == k


def test_decompose_rejects_unphysical_matrix():
    with pytest.raises(InvalidState):
        decompose(np.diag([1.2, 0.0, 0.0, -0.2]).astype(complex))


def test_assemble_rejects_unphysical_bloch():
    # correlation matrix far outside the tetrahedron of physical states
    bad = BlochDecomposition(p=np.zeros(3), s=np.zeros(3), pi=2.0 * np.eye(3))
    with pytest.raises(NotAState, match=r"^assembled matrix has eigenvalue -1\.25; data is unphysical$"):
        assemble(bad)


def test_assemble_takes_one_spectrum_of_a_valid_payload(monkeypatch):
    """The DensityOperator check's spectrum is the only one a valid payload
    costs; assemble takes another only to name a negative eigenvalue."""
    bloch = decompose(random_rank_k(3, seed=3))
    shapes = []

    def counting(m, eigvalsh=np.linalg.eigvalsh):
        shapes.append(np.shape(m))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rho = assemble(bloch)
    assert shapes == [(1, 4, 4)]
    assert rank_of(rho) == 3


def test_rank_of_exact_ranks():
    for k in (1, 2, 3, 4):
        assert rank_of(random_rank_k(k, seed=k)) == k


def test_rank_of_named_states():
    assert rank_of(bell_state("phi+").density()) == 1
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


def test_bell_state_unknown_kind():
    with pytest.raises(ValueError):
        bell_state("sigma+")


def test_werner_weight_range():
    with pytest.raises(ValueError):
        werner_state(1.5)


def test_werner_interpolates_purity():
    assert werner_state(0.0).purity() == pytest.approx(0.25)
    assert werner_state(1.0).purity() == pytest.approx(1.0)
