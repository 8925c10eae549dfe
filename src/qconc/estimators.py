"""Concurrence estimators that need only local data or a few invariants.

Each estimator targets a specific family of low-rank states:

* pure states, where sqrt(1 - I1) is exact;
* the canonical rank-2 family, whose five parameters are recoverable from
  the two local polarization vectors alone;
* rank-2 mixtures of a separable pair with a pure state, where
  max(sqrt(1 - I1), sqrt(1 - I2)) is evaluated as a candidate formula and
  checked against the oracle by the validation harness;
* rank-2 mixtures of a product basis state with an orthogonal pure state,
  including the equal-weight two-dimensional projections and the ladder
  line, where closed forms are exact;
* X-shaped states with inner coherence, with both the direct closed form
  and an invariant-only expression that the harness grades empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, I1Zero, NotPure, ReconstructionDegenerate
from .invariants import InvariantVector, purity_residuals
from .qstate import (
    DensityOperator,
    _check_ab,
    _check_correlation,
    _check_finite,
    _check_nonnegative,
    _check_unit_interval,
    _check_unit_sum,
    _cos_sin,
    _Guards,
    _math,
    _outer,
    _outside,
    _per_row,
    _unit,
    _vec4,
)

PURITY_RESIDUAL_TOL = 1e-6
DEGENERACY_TOL = 1e-8
RADICAND_TOL = 1e-10

_TWO_PI = 2.0 * math.pi
_FLOAT_MAX = float(np.finfo(float).max)

#: |00><00|
_P00 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
_P00.flags.writeable = False


# Every closed form below takes floats for one state, or a block (an
# InvariantVector or family dataclass with (n,) array fields) and gives the
# rows' results bit for bit; a block raises what its first failing row raises.


def _guard_radicand(guards: _Guards, x):
    """Clamp a slightly negative radicand to zero; reject a clearly negative
    or a non-finite one."""
    # past the largest finite float on either side: inf, -inf or NaN
    guards.check(_outside(x, -_FLOAT_MAX, _FLOAT_MAX), DomainError, "radicand {} is not finite", x)
    guards.check(
        x < -RADICAND_TOL, DomainError, "radicand {} is negative beyond tolerance {}", x, RADICAND_TOL
    )
    return _math(max, x, 0.0)


def estimate_pure(inv: InvariantVector) -> float:
    """Concurrence of a pure state from its polarization alone: sqrt(1 - I1).

    Raises NotPure unless both purity residuals are within 1e-6, so NaN
    invariants raise too.
    """
    guards = _Guards()
    r1, r2 = purity_residuals(inv.i1, inv.i2, inv.i6)
    bad = _outside(r1, -PURITY_RESIDUAL_TOL, PURITY_RESIDUAL_TOL)
    bad = bad | _outside(r2, -PURITY_RESIDUAL_TOL, PURITY_RESIDUAL_TOL)
    guards.check(bad, NotPure, "purity residuals ({}, {}) exceed {}", r1, r2, PURITY_RESIDUAL_TOL)
    return guards.settle(_math(math.sqrt, _guard_radicand(guards, 1.0 - inv.i1)))


# ---------------------------------------------------------------------------
# canonical rank-2 family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rank2Canonical:
    """Canonical parameters of a rank-2 state in its eigenbasis.

    nu is the weight of the Schmidt-form eigenvector
    cos(alpha)|00> + sin(alpha)|11>; the orthogonal eigenvector mixes the
    Schmidt plane (angle eta) with the |01>, |10> plane (angle beta, relative
    phase gamma). With (n,) array fields it is a block of n states.
    """

    nu: float
    alpha: float
    beta: float
    gamma: float
    eta: float

    def __post_init__(self):
        guards = _Guards()
        _check_finite(guards, **vars(self))
        _check_unit_interval(guards, "nu", self.nu)
        for name in ("alpha", "beta", "eta"):
            bad = _outside(getattr(self, name), -1e-12, math.pi / 2.0 + 1e-12)
            guards.check(bad, ValueError, "{} must lie in [0, pi/2]", name)
        bad = _outside(self.gamma, -1e-12, _TWO_PI + 1e-12)
        guards.check(bad, ValueError, "gamma must lie in [0, 2 pi)")
        guards.settle(None)


def canonical_vectors_rank2(params: Rank2Canonical) -> tuple[np.ndarray, np.ndarray]:
    """The two orthonormal eigenvectors selected by the canonical parameters
    (two (n, 4) stacks for a block)."""
    ca, sa = _cos_sin(params.alpha)
    cb, sb = _cos_sin(params.beta)
    ce, se = _cos_sin(params.eta)
    chi = _vec4(ca, 0.0, 0.0, sa)
    chi_perp = _vec4(ce * sa, se * sb * np.exp(-1j * params.gamma), se * cb, -ce * ca)
    return chi, chi_perp


def rank2_matrix(params: Rank2Canonical) -> np.ndarray:
    """Unvalidated matrix nu |chi><chi| + (1 - nu) |chi_perp><chi_perp|;
    an (n, 4, 4) stack for a block."""
    chi, chi_perp = canonical_vectors_rank2(params)
    nu = _per_row(params.nu)
    m = nu * _outer(chi)
    m += (1.0 - nu) * _outer(chi_perp)
    return m


def assemble_rank2(params: Rank2Canonical) -> DensityOperator:
    """Density operator nu |chi><chi| + (1 - nu) |chi_perp><chi_perp|."""
    return DensityOperator(rank2_matrix(params))


def local_observables_rank2(params: Rank2Canonical) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form polarization vectors (p, s) of the canonical rank-2 state.

    These expressions follow from tracing the assembled state against the
    single-qubit operators and agree with decompose(assemble_rank2(params))
    to machine precision. A block gives two (n, 3) stacks.
    """
    nu = params.nu
    ca, sa = _cos_sin(params.alpha)
    cb, sb = _cos_sin(params.beta)
    ce, se = _cos_sin(params.eta)
    cg, sg = _cos_sin(params.gamma)
    c2a = _math(math.cos, 2.0 * params.alpha)
    c2b = _math(math.cos, 2.0 * params.beta)
    k = 2.0 * (1.0 - nu) * ce * se
    p = np.stack(
        [
            k * (sa * cb - ca * sb * cg),
            -k * ca * sb * sg,
            nu * c2a - (1.0 - nu) * (ce * ce * c2a + se * se * c2b),
        ],
        axis=-1,
    )
    s = np.stack(
        [
            k * (sa * sb * cg - ca * cb),
            -k * sa * sb * sg,
            nu * c2a - (1.0 - nu) * (ce * ce * c2a - se * se * c2b),
        ],
        axis=-1,
    )
    return p, s


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def reconstruct_rank2(p, s) -> Rank2Canonical:
    """Recover the canonical rank-2 parameters from the two polarizations.

    The inversion runs on ratios of the measured components: the y ratio
    fixes the Schmidt angle, two x/y combinations fix the transverse angles
    (the sign of p_y resolves the azimuthal reflection), and the z components
    fix the eigenvalue weight and the mixing angle. Whenever a required
    denominator falls below DEGENERACY_TOL the map is singular there and
    ReconstructionDegenerate is raised; callers should fall back to the
    degenerate-family estimator. Two (n, 3) stacks of polarizations give a
    block of n parameter sets.
    """
    p, s = np.asarray(p, dtype=float), np.asarray(s, dtype=float)
    (px, py, pz), (sx, sy, sz) = (p.T, s.T) if p.ndim == 2 else (p.tolist(), s.tolist())
    guards, tol = _Guards(), DEGENERACY_TOL

    def degenerate(bad, message: str, *values) -> None:
        guards.check(bad, ReconstructionDegenerate, message, *values)

    for name, val in (("p_y", py), ("s_y", sy), ("p_x", px), ("s_x", sx)):
        degenerate(abs(val) <= tol, "{} = {} is below tol {}", name, val, tol)

    ratio = sy / py
    degenerate(ratio < 0.0, "y components have opposite signs; data is outside the family")
    alpha = _math(math.atan, ratio)
    ca, sa = _cos_sin(alpha)

    denom = sa * px + ca * sx
    degenerate(abs(denom) <= tol, "sin(alpha) p_x + cos(alpha) s_x = {} is below tol {}", denom, tol)
    u = (ca * px + sa * sx) / denom
    v = -py * (sa - ca * u) / (px * ca)
    t = _math(math.hypot, u, v)
    degenerate(t <= tol, "transverse angle is unresolved")
    beta = _math(math.atan, t)
    gamma = _math(math.atan2, v, u) % _TWO_PI
    sb = _math(math.sin, beta)
    sg = _math(math.sin, gamma)

    degenerate(abs(sa * sb * sg) <= tol, "azimuthal sine vanished during inversion")
    k = -sy / (sa * sb * sg)
    degenerate(k <= tol, "inferred mixing amplitude {} is not positive", k)

    c2b = _math(math.cos, 2.0 * beta)
    degenerate(abs(c2b) <= tol, "cos(2 beta) is below tol; weight is unresolved")
    q = (sz - pz) / (2.0 * c2b)
    degenerate(q <= tol, "inferred weight component {} is not positive", q)
    d = k * k / (4.0 * q)
    nu = 1.0 - d - q
    degenerate(_outside(nu, -1e-6, 1.0 + 1e-6), "inferred eigenvalue weight {} is unphysical", nu)
    guards.settle(None)
    nu = _unit(nu)
    eta = _math(math.atan2, _math(math.sqrt, q), _math(math.sqrt, d))
    return Rank2Canonical(nu=nu, alpha=alpha, beta=beta, gamma=gamma, eta=eta)


# ---------------------------------------------------------------------------
# rank-2 separable-plus-pure family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rank2SepDecomp:
    """Rank-2 mixture of an orthogonal separable pair with an in-span pure state.

    The separable part mixes |00> (weight mu) with a |10> + b |11>; the pure
    part is cos(theta) |00> + e^{i phase} sin(theta) (a |10> + b |11>). lam
    is the separable part's total weight. With (n,) array fields it is a
    block of n states.
    """

    lam: float
    mu: float
    a: float
    b: float
    theta: float
    phase: float

    def __post_init__(self):
        guards = _Guards()
        _check_finite(guards, **vars(self))
        _check_unit_interval(guards, "lam", self.lam)
        _check_unit_interval(guards, "mu", self.mu)
        _check_ab(guards, self.a, self.b)
        guards.settle(None)


_E00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
_E00.flags.writeable = False


def rank2_sep_matrix(params: Rank2SepDecomp) -> np.ndarray:
    """Unvalidated matrix of the separable-plus-pure rank-2 mixture; an
    (n, 4, 4) stack for a block."""
    chi2 = _vec4(0.0, 0.0, params.a, params.b)
    ct, st = _cos_sin(params.theta)
    psi = _per_row(ct, 1) * _E00
    ph = np.exp(1j * params.phase) * st
    psi += _per_row(ph, 1) * chi2
    sep = _per_row(params.mu) * _P00
    sep += _per_row(1.0 - params.mu) * _outer(chi2)
    return _per_row(params.lam) * sep + _per_row(1.0 - params.lam) * _outer(psi)


def assemble_rank2_sep(params: Rank2SepDecomp) -> DensityOperator:
    return DensityOperator(rank2_sep_matrix(params))


def estimate_rank2_sep2(inv: InvariantVector) -> float:
    """Candidate rank-2 concurrence from the first two invariants.

    Evaluates max(sqrt(1 - I1), sqrt(1 - I2)) exactly as the closed form
    states it. The validation harness measures how well this tracks the
    oracle across the family; it is reported, not trusted.
    """
    guards = _Guards()
    first = _math(math.sqrt, _guard_radicand(guards, 1.0 - inv.i1))
    second = _math(math.sqrt, _guard_radicand(guards, 1.0 - inv.i2))
    return guards.settle(_math(max, first, second))


# ---------------------------------------------------------------------------
# rank-2 degenerate family: product state plus orthogonal pure state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rank2Degenerate:
    """Mixture lam |00><00| + (1 - lam) |psi><psi| with psi orthogonal to |00>.

    psi = r1 |01> + c |10> + r2 |11> with r1, r2 real nonnegative and c
    complex, normalized to one. With (n,) array fields it is a block of n
    states.
    """

    lam: float
    r1: float
    r2: float
    c: complex

    def __post_init__(self):
        guards = _Guards()
        _check_finite(guards, **vars(self))
        _check_unit_interval(guards, "lam", self.lam)
        _check_nonnegative(guards, "r1 and r2 must be nonnegative", self.r1, self.r2)
        norm2 = self.r1**2 + abs(self.c) ** 2 + self.r2**2
        _check_unit_sum(guards, norm2, "r1^2 + |c|^2 + r2^2 must equal 1")
        guards.settle(None)


def rank2_degenerate_matrix(params: Rank2Degenerate) -> np.ndarray:
    """Unvalidated matrix lam |00><00| + (1 - lam) |psi><psi|; an (n, 4, 4)
    stack for a block."""
    psi = _vec4(0.0, params.r1, params.c, params.r2)
    m = _per_row(params.lam) * _P00
    m += _per_row(1.0 - params.lam) * _outer(psi)
    return m


def assemble_rank2_degenerate(params: Rank2Degenerate) -> DensityOperator:
    return DensityOperator(rank2_degenerate_matrix(params))


def estimate_rank2_degenerate(params: Rank2Degenerate) -> float:
    """Exact concurrence of the degenerate family: (1 - lam) 2 r1 |c|."""
    return (1.0 - params.lam) * 2.0 * params.r1 * _math(abs, params.c)


def estimate_projection2(inv: InvariantVector) -> float:
    """Concurrence of an equal-weight two-dimensional projection from I1, I2.

    Exact on mixtures (|00><00| + |psi><psi|) / 2 with psi orthogonal to
    |00>. Raises DomainError if either radicand is negative beyond tolerance.
    The discriminant is a^2 - I1 I2 with a = (1 - I1 - I2)/2: the value of
    (I1 - I2)^2/4 - (I1 + I2)/2 + 1/4, without that form's cancellation of
    quarter-sized terms where the discriminant is near zero.
    """
    guards = _Guards()
    a = (1.0 - inv.i1 - inv.i2) / 2.0
    inner = _guard_radicand(guards, a * a - inv.i1 * inv.i2)
    outer = _guard_radicand(guards, a - _math(math.sqrt, inner))
    return guards.settle(_math(math.sqrt, outer))


# ---------------------------------------------------------------------------
# X-shaped states with inner coherence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XState:
    """Diagonal weights (u_plus, w1, w2, u_minus) with one coherence z
    between |01> and |10>. Positivity requires |z|^2 <= w1 w2; non-finite
    entries raise ValueError. With (n,) array fields it is a block of n
    states."""

    u_plus: float
    w1: float
    w2: float
    u_minus: float
    z: complex

    def __post_init__(self):
        guards = _Guards()
        _check_finite(guards, **vars(self))
        weights = (self.u_plus, self.w1, self.w2, self.u_minus)
        _check_nonnegative(guards, "diagonal weights must be nonnegative", *weights, slack=1e-12)
        _check_unit_sum(guards, sum(weights), "diagonal weights must sum to 1")
        # from the parts: abs() of a huge Python complex raises OverflowError
        z2 = self.z.real * self.z.real + self.z.imag * self.z.imag
        bad = _outside(z2, 0.0, self.w1 * self.w2 + 1e-12)
        guards.check(bad, ValueError, "|z|^2 must not exceed w1 w2")
        guards.settle(None)


def xstate_matrix(x: XState) -> np.ndarray:
    """Unvalidated X-state matrix: the diagonal weights and the inner
    coherence; an (n, 4, 4) stack for a block."""
    m = np.zeros(np.shape(x.z) + (4, 4), dtype=complex)
    for k, w in enumerate((x.u_plus, x.w1, x.w2, x.u_minus)):
        m[..., k, k] = w
    m[..., 1, 2] = x.z
    m[..., 2, 1] = np.conj(x.z)
    return m


def assemble_xstate(x: XState) -> DensityOperator:
    return DensityOperator(xstate_matrix(x))


def xstate_concurrence(x: XState) -> float:
    """Exact concurrence of the X family, 2 (|z| - sqrt(u+ u-)) held to [0, 1]."""
    root = _math(math.sqrt, _math(max, x.u_plus * x.u_minus, 0.0))
    return _unit(2.0 * (_math(abs, x.z) - root))


def xstate_concurrence_invariant(inv: InvariantVector) -> float:
    """Invariant-only X-state expression, evaluated in its literal form.

    Computes sqrt(2 (I8 - I5/I1)) - sqrt((1 + sqrt(I5/I1))^2 - (I1 + I2)^2),
    clamped below at zero. Raises I1Zero when I1 vanishes and DomainError
    when a radicand is negative beyond tolerance; the validation harness
    records how often that happens and how far the value sits from the
    oracle. This expression is under empirical test, not assumed correct.
    """
    value, guards = _xstate_invariant(inv)
    return guards.settle(value)


@np.errstate(divide="ignore", invalid="ignore")
def _xstate_invariant(inv: InvariantVector):
    """xstate_concurrence_invariant's value and the guards that vetted it;
    on a block, the guards give each row's outcome."""
    guards = _Guards()
    guards.check(inv.i1 <= 1e-12, I1Zero, "i1 = {} is too small to divide by", inv.i1)
    ratio = inv.i5 / inv.i1
    first = _guard_radicand(guards, 2.0 * (inv.i8 - ratio))
    # x ** 2 through pow, whose bits differ from numpy's x * x
    plus = _math(pow, 1.0 + _math(math.sqrt, _math(max, ratio, 0.0)), 2)
    second = _guard_radicand(guards, plus - _math(pow, inv.i1 + inv.i2, 2))
    return _math(max, 0.0, _math(math.sqrt, first) - _math(math.sqrt, second)), guards


# ---------------------------------------------------------------------------
# ladder line
# ---------------------------------------------------------------------------


_SINGLET = _outer(np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0))
_SINGLET.flags.writeable = False


def _check_ladder_lam(lam) -> None:
    guards = _Guards()
    _check_unit_interval(guards, "lam", lam, slack=0.0)
    guards.settle(None)


def ladder_matrix(lam) -> np.ndarray:
    """Unvalidated matrix lam |00><00| + (1 - lam) |singlet><singlet|; an
    (n, 4, 4) stack for an (n,) array of lam."""
    _check_ladder_lam(lam)
    m = _per_row(lam) * _P00
    m += _per_row(1.0 - lam) * _SINGLET
    return m


def assemble_ladder(lam: float) -> DensityOperator:
    """Mixture lam |00><00| + (1 - lam) |singlet><singlet|."""
    return DensityOperator(ladder_matrix(lam))


def ladder_concurrence(lam: float) -> float:
    """Concurrence along the ladder line: 1 - lam."""
    _check_ladder_lam(lam)
    return 1.0 - lam


def ladder_from_correlation(szpz: float) -> float:
    """Ladder concurrence from the z-z correlation, 1 - (szpz + 1) / 2 held to [0, 1]."""
    guards = _Guards()
    _check_correlation(guards, szpz)
    return guards.settle(_unit(1.0 - 0.5 * (szpz + 1.0)))
