"""Exact concurrence of a two-qubit state.

The oracle reads the spin-flip roots off a factor rho = W W^dagger, as the
singular values of a complex-symmetric block whose size is the rank of the
state, so neither an eigenproblem nor a non-Hermitian product is solved and
states of any rank stay well conditioned. W comes from an outer-product
Cholesky with complete diagonal pivoting: pivots at or below EIG_CLAMP times
the largest diagonal entry count as zero, and the factorization stops once
no state has a pivot left above that cut. The factor and the roots are
written once each, over the matrix entries split into real and imaginary
parts, which are floats for one state or (n,) arrays for a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigSolveFailure
from .qstate import _float_parts, _unit, _validated_matrix

#: pivots at or below this fraction of the largest diagonal entry count as zero
EIG_CLAMP = 1e-12

#: flat row-major positions of (i, j) below the diagonal and of (j, i), then i, j
_LOWER = [(4 * i + j, 4 * j + i, i, j) for i in range(1, 4) for j in range(i)]


@dataclass(frozen=True)
class ConcurrenceDiagnostics:
    """Spin-flip roots (descending), concurrence, and rank: the factor's columns."""

    lambdas: tuple[float, float, float, float]
    value: float
    rank: int


def _value(l1, l2, l3, l4):
    """Concurrence of descending roots (floats or (n,) arrays), held to [0, 1]."""
    return _unit(l1 - (l2 + l3 + l4))


def _pivot(diag):
    """Position and value of the largest of four diagonal entries, the first
    on ties."""
    value = max(diag)
    return diag.index(value), value


def _column(at, entries) -> list:
    """Column `at` of 16 row-major entries."""
    return entries[at::4]


def _block_pivot(diag):
    """_pivot row by row for (n,) arrays: a selector for _block_column (the
    winners of the first pair, of the second pair, and between the pairs) and
    the pivots."""
    d0, d1, d2, d3 = diag
    first, second = d1 > d0, d3 > d2
    low, high = np.where(first, d1, d0), np.where(second, d3, d2)
    upper = high > low
    return (first, second, upper), np.where(upper, high, low)


def _block_column(at, entries) -> list:
    """_column row by row for (n,) arrays, at a selector of _block_pivot."""
    first, second, upper = at
    return [
        np.where(upper, np.where(second, x3, x2), np.where(first, x1, x0))
        for x0, x1, x2, x3 in (entries[0:4], entries[4:8], entries[8:12], entries[12:16])
    ]


#: the steps that depend on the entry type: pivot, column, square root and
#: whether any pivot passes, for floats and for (n,) arrays
_FLOAT_STEPS = (_pivot, _column, math.sqrt, bool)
_BLOCK_STEPS = (_block_pivot, _block_column, np.sqrt, np.ndarray.any)


def _pivoted_factor(re, im):
    """Columns of a factor W W^dagger = rho by outer-product Cholesky with
    complete diagonal pivoting, up to the last pivot above EIG_CLAMP times
    the largest diagonal entry.

    re and im are rho's 16 row-major entries split in real and imaginary
    parts, each a float or an (n,) array, so the arithmetic is real and a
    block's rows get their single-state bits; only the lower triangle and
    the real diagonal are read, and both lists are overwritten with the
    Schur complements. Each step takes the largest diagonal entry of the
    Schur complement as pivot and stops once no row's pivot is above the
    cut. It yields each column as (kept, real parts, imaginary parts), with
    lists of four entries: kept is True for one state, and for a block marks
    the rows whose pivot passed, so it sums to their ranks. The Schur
    complement's diagonal never grows, so a row that has stopped never
    passes the cut again, and the columns past its rank, computed for the
    rows still running, are never read.
    """
    pivot_of, column, sqrt, passes = (
        _BLOCK_STEPS if isinstance(re[0], np.ndarray) else _FLOAT_STEPS
    )
    for k in (0, 5, 10, 15):
        im[k] = 0.0
    for low, up, _, _ in _LOWER:
        re[up], im[up] = re[low], -im[low]
    last = None
    for step in range(4):
        at, pivot = pivot_of(re[::5])
        if last is None:
            cut = EIG_CLAMP * pivot
        kept = pivot > cut
        if not passes(kept):
            return
        if last is not None:  # the last column's outer product, off the diagonal
            lr, li = last
            for low, up, i, j in _LOWER:
                re[low] = re[up] = re[low] - (lr[i] * lr[j] + li[i] * li[j])
                x = im[low] - (li[i] * lr[j] - lr[i] * li[j])
                im[low], im[up] = x, -x
        root = sqrt(pivot)
        lr = [x / root for x in column(at, re)]
        li = [x / root for x in column(at, im)]
        yield kept, lr, li
        if step < 3:  # the diagonal of the next Schur complement
            for k, a, b in zip((0, 5, 10, 15), lr, li):
                re[k] = re[k] - (a * a + b * b)
        last = lr, li


def _flip(u, v):
    """(Re, Im) of u^T (sy x sy) v = u1 v2 + u2 v1 - u0 v3 - u3 v0 from those of u, v."""
    (ur, ui), (vr, vi) = u, v
    re = (ur[1] * vr[2] - ui[1] * vi[2]) + (ur[2] * vr[1] - ui[2] * vi[1])
    im = (ur[1] * vi[2] + ui[1] * vr[2]) + (ur[2] * vi[1] + ui[2] * vr[1])
    re = re - ((ur[0] * vr[3] - ui[0] * vi[3]) + (ur[3] * vr[0] - ui[3] * vi[0]))
    return re, im - ((ur[0] * vi[3] + ui[0] * vr[3]) + (ur[3] * vi[0] + ui[3] * vr[0]))


def _rank2_roots(x, y):
    """Roots s1 >= s2 of W = [x y], each column given as its entries' real and
    imaginary parts (floats, or (n,) arrays): the singular values of
    B = W^T (sigma_y x sigma_y) W = [[a, b], [b, c]]. The Givens rotation
    [[u*, v*], [-v, u]], (u, v) = (a, b)/r, r = sqrt(|a|^2 + |b|^2) ((1, 0) if
    r = 0), takes B to [[r, t], [0, h]]; LAPACK's DLAS2 (Demmel and Kahan),
    less its overflow scaling, gives s1 = (sqrt((r + h)^2 + |t|^2) +
    sqrt((r - h)^2 + |t|^2)) / 2 and s2 = r |h| / s1, neither cancelling at
    ties. Only + - * / and sqrt act, so block rows keep single-state bits."""
    sqrt, least = (np.sqrt, np.minimum) if isinstance(x[0][0], np.ndarray) else (math.sqrt, min)
    (ar, ai), (br, bi), (cr, ci) = _flip(x, x), _flip(x, y), _flip(y, y)
    r = sqrt((ar * ar + ai * ai) + (br * br + bi * bi))
    flat = r == 0
    r1 = r + flat
    ur, ui, vr, vi = ar / r1 + flat, ai / r1, br / r1, bi / r1
    tr = (ur * br + ui * bi) + (vr * cr + vi * ci)
    ti = (ur * bi - ui * br) + (vr * ci - vi * cr)
    hr = (ur * cr - ui * ci) - (vr * br - vi * bi)
    hi = (ur * ci + ui * cr) - (vr * bi + vi * br)
    tt = tr * tr + ti * ti
    h = sqrt(hr * hr + hi * hi)
    s1 = 0.5 * (sqrt((r + h) * (r + h) + tt) + sqrt((r - h) * (r - h) + tt))
    # s1 > 0 where r > 0; and r h <= s1^2, up to the last bit at ties
    return s1, least(s1, r * h / (s1 + flat))


def _roots(columns) -> list:
    """Descending roots of a factor's k columns, each given as its entries'
    real and imaginary parts (floats, or (n,) arrays): the singular values of
    the complex-symmetric B = W^T (sigma_y x sigma_y) W, whose entries are
    _flip's, so |B| for k = 1, _rank2_roots for k = 2 and LAPACK's SVD for
    k = 3, 4, the only call that can depend on the BLAS kernel. The 4 - k
    trailing roots, exact zeros, are left out."""
    if len(columns) == 1:
        re, im = _flip(columns[0], columns[0])
        return [np.sqrt(re * re + im * im)]
    if len(columns) == 2:
        return list(_rank2_roots(*columns))
    k = len(columns)
    if isinstance(columns[0][0][0], np.ndarray):
        b = np.empty(columns[0][0][0].shape + (k, k), dtype=complex)
        for i, u in enumerate(columns):
            for j, v in enumerate(columns[: i + 1]):
                re, im = _flip(u, v)
                b.real[..., i, j] = b.real[..., j, i] = re
                b.imag[..., i, j] = b.imag[..., j, i] = im
    else:  # one state: B as Python complex numbers, made an array once
        b = [[0j] * k for _ in range(k)]
        for i, u in enumerate(columns):
            for j, v in enumerate(columns[: i + 1]):
                b[i][j] = b[j][i] = complex(*_flip(u, v))
        b = np.array(b)
    try:
        return list(np.linalg.svd(b, compute_uv=False).T)
    except np.linalg.LinAlgError as exc:
        raise EigSolveFailure(str(exc)) from exc


def batch_lambdas(mats: np.ndarray) -> np.ndarray:
    """Descending spin-flip roots of an (n, 4, 4) stack of trusted states.

    The roots are read off a factor of rho, not its square root: for rho =
    W W^dagger they are the singular values of the complex-symmetric B =
    W^T (sigma_y x sigma_y) W, since B B^dagger has the spectrum of
    rho rho_tilde (Wootters 1998; Uhlmann 2000). W comes from an outer-product
    Cholesky with complete diagonal pivoting (backward stable on semidefinite
    matrices, Higham 1990), which reveals the rank: pivots at or below
    EIG_CLAMP times the largest diagonal entry count as zero, so round-off in
    the null space cannot leak sqrt(eps)-sized noise into the roots, and the
    factorization stops once no state has a pivot left above that cut. A
    state with k pivots kept has k columns, so B is k x k (with no SVD for
    k <= 2) and its 4 - k trailing roots are exact zeros. The factor and the
    roots are the ones :func:`concurrence_oracle` computes on floats, here on
    (n,) arrays of entries grouped by rank, so each row has its single-state
    bits.
    """
    parts = _float_parts(mats)
    rank, columns = 0, []
    # a row past its rank divides by a pivot at or below the cut, maybe zero
    # or negative, for columns that are never read
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for kept, lr, li in _pivoted_factor(parts[0::2], parts[1::2]):
            rank = rank + kept
            columns.append((lr, li))
    lam = np.zeros((len(mats), 4))
    ranks = set(rank.tolist()) if isinstance(rank, np.ndarray) else {rank}
    for k in ranks - {0}:  # at most four groups of rows, one per rank
        rows = slice(None) if len(ranks) == 1 else rank == k
        group = [([x[rows] for x in lr], [x[rows] for x in li]) for lr, li in columns[:k]]
        lam[rows, :k] = np.transpose(_roots(group))
    return lam


def batch_oracle(mats: np.ndarray) -> np.ndarray:
    """Concurrence of each state in an (n, 4, 4) stack of trusted states."""
    return _value(*batch_lambdas(mats).T)


def concurrence_oracle(rho) -> ConcurrenceDiagnostics:
    """Exact concurrence for any two-qubit density operator.

    A raw array is validated first and raises InvalidState if unphysical;
    the roots are :func:`batch_lambdas`' on floats, descending from _roots.
    """
    parts = _float_parts(_validated_matrix(rho))
    columns = [(lr, li) for _, lr, li in _pivoted_factor(parts[0::2], parts[1::2])]
    lam = tuple(map(float, _roots(columns))) + (0.0,) * (4 - len(columns))
    return ConcurrenceDiagnostics(lambdas=lam, value=_value(*lam), rank=len(columns))
