"""The closed-form kernels against the LAPACK routes they replace.

The rank-2 roots of the oracle are the singular values of a 2 x 2 block,
and the samplers' 2 x 2 Haar unitary and 4 x r orthonormal columns are a QR.
No kernel calls BLAS or LAPACK, so the pinned digests of the roots and of
the rank-k sampler hold under every BLAS kernel; the LAPACK references are
met within a few units of double precision.
"""

import hashlib

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from conftest import RECORDED_BUILD

from qconc.concurrence import _rank2_roots, batch_lambdas, concurrence_oracle
from qconc.qstate import SIGMA_Y, _orthonormal, batch_random_mixed, random_rank_k
from qconc.validate import batch_haar_u2, batch_random_pure

_YY = np.kron(SIGMA_Y, SIGMA_Y).real
#: two columns with M^T (sy x sy) M = 1, spanning |01> and |10>
_M2 = np.array([[0, 0], [1, 1j], [1, -1j], [0, 0]]) / np.sqrt(2)


def _su2(rng, n):
    """n random SU(2) matrices: u^T sy u = det(u) sy = sy."""
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    q, _ = np.linalg.qr(z)
    return q / np.sqrt(np.linalg.det(q))[:, None, None]


def _factors(rng, sigma):
    """(n, 4, 2) factors W whose blocks W^T (sy x sy) W have the singular
    values sigma (n, 2): W = (u x v) M2 sigma^1/2 U^T for a Takagi
    factorization U sigma U^T, spread over all four entries by a local SU(2)
    pair, which keeps the block."""
    n = len(sigma)
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    q, _ = np.linalg.qr(z)
    c = np.sqrt(sigma)[:, :, None] * q.transpose(0, 2, 1)
    local = np.einsum("nij,nkl->nikjl", _su2(rng, n), _su2(rng, n)).reshape(n, 4, 4)
    return local @ (_M2 @ c)


def _random(rng, n):
    return rng.normal(size=(n, 4, 2)) + 1j * rng.normal(size=(n, 4, 2))


def _near_ties(rng, n):
    scale = rng.uniform(0.01, 1.0, n)
    d = 10.0 ** rng.uniform(-16.0, -1.0, n)
    return _factors(rng, np.stack([scale, scale * (1.0 - d)], axis=1))


def _singular(rng, n):
    return _factors(rng, np.stack([rng.uniform(0.01, 1.0, n), np.zeros(n)], axis=1))


_INPUTS = {"random": _random, "near-ties": _near_ties, "singular": _singular}


def _columns(w):
    """The kernel's arguments for (n, 4, 2) factors, a (2, 2, 4, n) array:
    [c, p, i] is part p (real, imaginary) of entry i of column c (x, y)."""
    return np.stack([w.real, w.imag], axis=1).transpose(3, 1, 2, 0).copy()


@pytest.mark.parametrize("kind", list(_INPUTS))
def test_rank2_roots_match_the_svd(kind):
    w = _INPUTS[kind](np.random.default_rng(31), 4000)
    s1, s2 = _rank2_roots(*_columns(w))
    ref = np.linalg.svd(w.transpose(0, 2, 1) @ _YY @ w, compute_uv=False)
    err = np.maximum(np.abs(s1 - ref[:, 0]), np.abs(s2 - ref[:, 1]))
    assert (err <= 2e-15 * ref[:, 0]).all(), (err / ref[:, 0]).max()
    assert (s1 >= s2).all()


@pytest.mark.parametrize("kind", list(_INPUTS))
def test_rank2_roots_of_a_block_are_its_float_calls(kind):
    w = _INPUTS[kind](np.random.default_rng(32), 200)
    columns = _columns(w)
    block = np.stack(_rank2_roots(*columns), axis=1)
    for k, row in enumerate(block):
        assert_array_equal(_rank2_roots(*columns[..., k].tolist()), row)


def _mixture(*vectors):
    return sum(np.outer(v, v.conj()) for v in vectors) / len(vectors)


_E = np.eye(4)
_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)


@pytest.mark.parametrize(
    "m, roots",
    [
        # both columns on |00> and |01>: B = 0
        pytest.param(_mixture(_E[0], _E[1]), (0.0, 0.0), id="zero-block"),
        # B = [[0, 0], [0, 1/2]]: a zero first column, so no rotation
        pytest.param(_mixture(_E[0], _PSI_PLUS), (0.5, 0.0), id="zero-first-column"),
    ],
)
def test_rank2_roots_of_blocks_with_a_zero_column(m, roots):
    diag = concurrence_oracle(m)
    assert diag.lambdas == pytest.approx(roots + (0.0, 0.0), abs=1e-15)
    assert_array_equal(batch_lambdas(m[None])[0], diag.lambdas)


#: sha256 of the little-endian bytes of the (2, n) rank-2 roots below. Every
#: operation of the kernel is one IEEE double operation with no BLAS or LAPACK
#: call, so the digest holds on every platform and BLAS kernel.
_RANK2_ROOTS_SHA256 = "c0d5e2d6b22b2d9fa2d99b414ef093d4b9cc65e55b6d7c61bff3d96ad1bfe40b"


def test_rank2_root_bits_are_pinned():
    columns = np.random.default_rng(2026).uniform(-1.0, 1.0, (2, 2, 4, 2000))
    roots = np.ascontiguousarray(np.stack(_rank2_roots(*columns)), dtype="<f8")
    assert hashlib.sha256(roots.tobytes()).hexdigest() == _RANK2_ROOTS_SHA256


def _haar_u2_reference(rng, n):
    """The earlier sampler: LAPACK's QR, with R's diagonal made positive."""
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


# seed 4 gave a unitarity residual of 1.11e-15, over the bound, with the
# earlier closed-form 2 x 2 QR; Gram-Schmidt stays under 6.7e-16 at seeds 0-39
@pytest.mark.parametrize("seed", [33, 4])
def test_haar_u2_is_the_positive_diagonal_qr(seed):
    u = batch_haar_u2(np.random.default_rng(seed), 20000)
    ref = _haar_u2_reference(np.random.default_rng(seed), 20000)
    assert np.abs(u - ref).max() <= 1e-13
    gram = u.conj().transpose(0, 2, 1) @ u
    assert np.abs(gram - np.eye(2)).max() <= 1e-15


def test_haar_samplers_are_the_one_orthonormal_kernel():
    """batch_random_pure draws the (n, 4) real, then imaginary, normals it
    always drew and takes the kernel's one column of them; batch_haar_u2 is
    the kernel of its (n, 2, 2) block; both bit for bit."""
    rng = np.random.default_rng(36)
    z = rng.normal(size=(500, 4)) + 1j * rng.normal(size=(500, 4))
    assert_array_equal(
        batch_random_pure(np.random.default_rng(36), 500), _orthonormal(z[:, :, None])[:, :, 0]
    )
    rng = np.random.default_rng(37)
    z = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
    assert_array_equal(batch_haar_u2(np.random.default_rng(37), 500), _orthonormal(z))


def _random_mixed_reference(rng, n, rank):
    """The earlier sampler's states: LAPACK's QR of the same Gaussian block,
    and the same weights."""
    z = rng.normal(size=(n, 4, rank)) + 1j * rng.normal(size=(n, 4, rank))
    q, _ = np.linalg.qr(z)
    w = rng.dirichlet(np.ones(rank), size=n)
    return np.einsum("nik,nk,njk->nij", q, w, q.conj()), w


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_random_mixed_matches_the_qr(rank):
    mats = batch_random_mixed(np.random.default_rng(34), 5000, rank)
    ref, w = _random_mixed_reference(np.random.default_rng(34), 5000, rank)
    assert w.min() >= 1e-6  # no redraw, so both took the same draws
    assert np.abs(mats - ref).max() <= 1e-14
    evals = np.linalg.eigvalsh(mats)
    assert (evals[:, 4 - rank] > 1e-7).all() and (np.abs(evals[:, : 4 - rank]) < 1e-14).all()


#: sha256 of the little-endian bytes of batch_lambdas on 3000 rank-1 states
#: (|B| from the entry lists, no matmul) and of the complex matrices of
#: random_rank_k(k, seed), k = 1-4, seeds 0-49 (no QR); neither depends on
#: the BLAS kernel. The states' digest was regenerated when the diagonal's
#: imaginary round-off was set to 0.0, and when _orthonormal's projections
#: moved to np.einsum (the bytes the states had with numpy's SIMD dispatch
#: off); neither digest depends on that dispatch now
_RANK1_ROOTS_SHA256 = "14dc7add02ffcf07be059b7d4b128114c581228ded5a6ed5e8ac4559c60a311d"
_RANK_K_STATES_SHA256 = "b1f52d028079ce8b8b1789d2fe304418f007dedfae4611d15a9734a5846600e8"


@RECORDED_BUILD
def test_rank1_root_bits_are_pinned():
    mats = batch_random_mixed(np.random.default_rng(35), 3000, 1)
    lam = np.ascontiguousarray(batch_lambdas(mats), dtype="<f8")
    assert hashlib.sha256(lam.tobytes()).hexdigest() == _RANK1_ROOTS_SHA256


@RECORDED_BUILD
def test_random_rank_k_bits_are_pinned():
    mats = [random_rank_k(k, seed).matrix for k in (1, 2, 3, 4) for seed in range(50)]
    data = np.ascontiguousarray(mats, dtype="<c16")
    assert hashlib.sha256(data.tobytes()).hexdigest() == _RANK_K_STATES_SHA256
