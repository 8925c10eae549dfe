"""Decomposition bounds on concurrence for rank-3 and rank-4 mixtures.

A rank-3 state splits into a three-dimensional projector plus a rank-2
remainder, and the remainder's pure component is the only entanglement
carrier. That yields the weak bound (1 - lam)(1 - mu) C(psi), a closed form
for the maximally entangled member of the family, and the threshold on the
projector weight beyond which no member is entangled. Rank 4 adds a fully
mixed component and gives the linear entanglement boundary
9 lam1 + 8 lam2 = 6 in the weight plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import (
    DensityOperator,
    _check_ab,
    _check_finite,
    _check_nonnegative,
    _check_unit_interval,
    _cos_sin,
    _Guards,
    _math,
    _outer,
    _per_row,
    _vec4,
)

_EYE4 = np.eye(4, dtype=complex)
_EYE4.flags.writeable = False

#: region grid classes: entangled, separable, infeasible
REGION_ENTANGLED = "E"
REGION_SEPARABLE = "S"
REGION_INFEASIBLE = "X"


# ---------------------------------------------------------------------------
# mixtures with a separable backbone
# ---------------------------------------------------------------------------


# Every helper below takes floats for one state, or (n,) arrays for a block,
# and then gives an (n, ...) stack whose rows are the single-state results.


def _h3_projector(a, b) -> np.ndarray:
    """Projector onto span{|00>, a|01> + b|10>, |11>}."""
    return _EYE4 - _outer(_vec4(0.0, b, -a, 0.0))


def _h3_product_state(a, b, angle, phase) -> np.ndarray:
    """A product state lying inside span{|00>, a|01> + b|10>, |11>}.

    The second qubit's polar angle is slaved to the first's so the component
    along b|01> - a|10> cancels.
    """
    c, s = _cos_sin(angle)
    t = _math(math.atan2, a * s, b * c)
    ct, st = _cos_sin(t)
    ph = np.exp(1j * phase)
    qa = np.stack([c, ph * s], axis=-1)
    qb = np.stack([ct, ph * st], axis=-1)
    # the Kronecker product of the two qubit vectors, as np.kron forms it
    return (qa[..., :, None] * qb[..., None, :]).reshape(np.shape(ph) + (4,))


def _psi_in_h3(a, b, theta, phi) -> np.ndarray:
    ct, st = _cos_sin(theta)
    cp, sp = _cos_sin(phi)
    return _vec4(st * cp, ct * a, ct * b, st * sp)


def _sep_matrix(m) -> np.ndarray:
    """rho_sep of a mixture: two product states of the Pi3 span, sep_weight
    on the first."""
    p1 = _h3_product_state(m.a, m.b, m.sep_angle1, m.sep_phase1)
    p2 = _h3_product_state(m.a, m.b, m.sep_angle2, m.sep_phase2)
    return _per_row(m.sep_weight) * _outer(p1) + _per_row(1.0 - m.sep_weight) * _outer(p2)


def _mixture(lambda1, lambda2, a, b, rest) -> np.ndarray:
    """Unvalidated lambda1 I/4 + lambda2 Pi3/3 + (1 - lambda1 - lambda2) rest,
    Pi3 the projector onto span{|00>, a|01> + b|10>, |11>}: every matrix of the
    weight plane, rank 3 at lambda1 = 0."""
    m = _per_row(lambda1) * _EYE4 / 4.0
    m = m + _per_row(lambda2) * _h3_projector(a, b) / 3.0
    return m + _per_row(1.0 - lambda1 - lambda2) * rest


def _psi_concurrence(m):
    """C(psi) = 2 |c00 c11 - c01 c10| of the mixture's in-span pure state.

    psi is real, so the real products give the complex ones bit for bit;
    the mixture's checks keep it at unit norm.
    """
    c = m.psi().real
    return 2.0 * abs(c[..., 0] * c[..., 3] - c[..., 1] * c[..., 2])


#: (field, upper end) of the uniform draws of a mixture's rho2 payload that
#: follow its a/b angle, in draw order; the lower ends are all zero
_PAYLOAD_DRAWS = (
    ("mu", 1.0),
    ("theta", math.pi / 2.0),
    ("phi", 2.0 * math.pi),
    ("sep_weight", 1.0),
    ("sep_angle1", math.pi / 2.0),
    ("sep_phase1", 2.0 * math.pi),
    ("sep_angle2", math.pi / 2.0),
    ("sep_phase2", 2.0 * math.pi),
)
_PAYLOAD_HIGHS = tuple(high for _, high in _PAYLOAD_DRAWS)


def _payload(ab_angle, draws) -> dict:
    """The rho2 payload fields from the a/b angle and the (n, 8) block of
    _PAYLOAD_DRAWS."""
    cols = {name: col for (name, _), col in zip(_PAYLOAD_DRAWS, draws.T)}
    cols["b"], cols["a"] = _cos_sin(ab_angle)
    return cols


def _check_weight_pair(guards: _Guards, lambda1, lambda2) -> None:
    """The rank-4 weights: each nonnegative and their sum in [0, 1], within
    1e-12; Rank4Mixture and the maximal rank-4 forms state them through this."""
    _check_nonnegative(
        guards, "lambda1 and lambda2 must be nonnegative", lambda1, lambda2, slack=1e-12
    )
    _check_unit_interval(guards, "lambda1 + lambda2", lambda1 + lambda2)


@dataclass(frozen=True, kw_only=True)
class _Mixture:
    """lam1 I/4 + lam2 Pi3/3 + (1 - lam1 - lam2)[mu rho_sep + (1 - mu)|psi><psi|].

    Pi3 projects onto span{|00>, a|01> + b|10>, |11>}; psi lives in that
    span with angles theta, phi; rho_sep mixes two product states from the
    same span (sep_weight on the first), so every non-psi term is separable
    by construction. A subclass holds the weights and their rules; with (n,)
    array fields it is a block of n mixtures.
    """

    mu: float
    a: float
    b: float
    theta: float
    phi: float
    sep_weight: float = 0.5
    sep_angle1: float = 0.0
    sep_phase1: float = 0.0
    sep_angle2: float = math.pi / 2.0
    sep_phase2: float = 0.0

    def __post_init__(self):
        guards = _Guards()
        _check_finite(guards, **vars(self))
        self._check_weights(guards)
        _check_unit_interval(guards, "mu", self.mu)
        _check_unit_interval(guards, "sep_weight", self.sep_weight)
        _check_ab(guards, self.a, self.b)
        guards.settle(None)

    def psi(self) -> np.ndarray:
        return _psi_in_h3(self.a, self.b, self.theta, self.phi)

    def matrix(self) -> np.ndarray:
        """Unvalidated density matrix of the mixture; (n, 4, 4) for a block."""
        rho2 = _per_row(self.mu) * _sep_matrix(self) + _per_row(1.0 - self.mu) * _outer(self.psi())
        return _mixture(*self._weights(), self.a, self.b, rho2)


@dataclass(frozen=True, kw_only=True)
class Rank3Mixture(_Mixture):
    """lam Pi3/3 + (1 - lam)[mu rho_sep + (1 - mu)|psi><psi|]: the lam1 = 0
    mixture."""

    lam: float

    def _check_weights(self, guards: _Guards) -> None:
        _check_unit_interval(guards, "lam", self.lam)

    def _weights(self):
        return 0.0, self.lam

    def assemble(self) -> DensityOperator:
        return DensityOperator(self.matrix())

    @classmethod
    def random(cls, rng, n: int) -> "Rank3Mixture":
        """A block of n random mixtures: one row of uniforms each (the a/b
        angle, lam, then the payload)."""
        highs = (math.pi / 2.0, 1.0) + _PAYLOAD_HIGHS
        u = rng.uniform(0.0, highs, size=(n, len(highs)))
        return cls(lam=u[:, 1], **_payload(u[:, 0], u[:, 2:]))


@dataclass(frozen=True, kw_only=True)
class Rank4Mixture(_Mixture):
    """lam1 I/4 + lam2 Pi3/3 + (1 - lam1 - lam2) rho2."""

    lambda1: float
    lambda2: float

    def _check_weights(self, guards: _Guards) -> None:
        _check_weight_pair(guards, self.lambda1, self.lambda2)

    def _weights(self):
        return self.lambda1, self.lambda2

    def assemble(self) -> DensityOperator:
        return DensityOperator(self.matrix())

    @classmethod
    def random(cls, rng, n: int) -> "Rank4Mixture":
        """A block of n random mixtures: one row of uniforms each (lambda1,
        lambda2 below 1 - lambda1, the a/b angle, then the payload)."""
        highs = (1.0, 1.0, math.pi / 2.0) + _PAYLOAD_HIGHS
        u = rng.uniform(0.0, highs, size=(n, len(highs)))
        # a uniform draw on [0, h) is 0 + h U, and the one on [0, 1) is U
        return cls(
            lambda1=u[:, 0],
            lambda2=(1.0 - u[:, 0]) * u[:, 1],
            **_payload(u[:, 2], u[:, 3:]),
        )


# ---------------------------------------------------------------------------
# bounds, closed forms, thresholds
# ---------------------------------------------------------------------------


# The bounds and closed forms below take floats or (n,) arrays, as the
# builders do; a block raises what its first failing row raises.


def rank3_bound(m: Rank3Mixture) -> float:
    """Upper bound (1 - lam)(1 - mu) C(psi) on the mixture's concurrence;
    one per mixture of a block."""
    return (1.0 - m.lam) * (1.0 - m.mu) * _psi_concurrence(m)


def rank4_bound(m: Rank4Mixture) -> float:
    """Upper bound (1 - lam1 - lam2)(1 - mu) C(psi); one per mixture of a block."""
    return (1.0 - m.lambda1 - m.lambda2) * (1.0 - m.mu) * _psi_concurrence(m)


def _rank3_guards(a, b, lam=0.0) -> _Guards:
    """The rank-3 forms' checks, every argument finite before any range rule;
    the threshold has no lam and passes 0."""
    guards = _Guards()
    _check_finite(guards, lam=lam, a=a, b=b)
    _check_unit_interval(guards, "lam", lam)
    _check_ab(guards, a, b)
    return guards


def rank3_max_concurrence(lam: float, a: float, b: float) -> float:
    """Closed form 2 (1 - 2 lam/3) a b - 2 lam/3 for the maximal member.

    May be negative; the matching oracle value is max(0, this).
    """
    _rank3_guards(a, b, lam).settle(None)
    return 2.0 * (1.0 - 2.0 * lam / 3.0) * a * b - 2.0 * lam / 3.0


def rank3_threshold(a: float, b: float) -> float:
    """Entanglement threshold 3 a b / (1 + 2 a b) on the projector weight."""
    _rank3_guards(a, b).settle(None)
    return 3.0 * a * b / (1.0 + 2.0 * a * b)


_R = 1.0 / math.sqrt(2.0)


def rank3_max_matrix(lam, a, b) -> np.ndarray:
    """Unvalidated lam Pi3/3 + (1 - lam) |psi_ab><psi_ab|, psi_ab = a|01> + b|10>;
    an (n, 4, 4) stack when any argument is an (n,) array."""
    _rank3_guards(a, b, lam).settle(None)
    return _mixture(0.0, lam, a, b, _outer(_vec4(0.0, a, b, 0.0)))


def assemble_rank3_max(lam: float, a: float, b: float) -> DensityOperator:
    """lam Pi3/3 + (1 - lam) |psi_ab><psi_ab| with psi_ab = a|01> + b|10>."""
    return DensityOperator(rank3_max_matrix(lam, a, b))


def _rank4_guards(lambda1, lambda2) -> _Guards:
    """The maximal rank-4 forms' checks."""
    guards = _Guards()
    _check_finite(guards, lambda1=lambda1, lambda2=lambda2)
    _check_weight_pair(guards, lambda1, lambda2)
    return guards


def rank4_max_concurrence(lambda1: float, lambda2: float) -> float:
    """Literal closed form for the maximal rank-4 member at a b = 1/2.

    Evaluates lam2 ab/3 + (1 - lam1 - lam2)/2 - lam1/4 - lam2/3 with
    ab = 1/2, which is (1 - 3 lam1/2 - 4 lam2/3)/2: exactly half the
    concurrence max(0, 1 - 3 lam1/2 - 4 lam2/3) wherever it is positive. Its
    root is the boundary 9 lam1 + 8 lam2 = 6. The validation harness gates
    the exact form against the oracle and reports this one.
    """
    _rank4_guards(lambda1, lambda2).settle(None)
    ab = 0.5
    return (
        lambda2 * ab / 3.0
        + (1.0 - lambda1 - lambda2) / 2.0
        - lambda1 / 4.0
        - lambda2 / 3.0
    )


def rank4_max_matrix(lambda1, lambda2) -> np.ndarray:
    """Unvalidated lam1 I/4 + lam2 Pi3/3 + (1 - lam1 - lam2) |psi+><psi+|; an
    (n, 4, 4) stack for (n,) arrays of weights."""
    _rank4_guards(lambda1, lambda2).settle(None)
    return _mixture(lambda1, lambda2, _R, _R, _outer(_vec4(0.0, _R, _R, 0.0)))


def assemble_rank4_max(lambda1: float, lambda2: float) -> DensityOperator:
    """lam1 I/4 + lam2 Pi3/3 + (1 - lam1 - lam2) |psi+><psi+| (a = b = 1/sqrt 2)."""
    return DensityOperator(rank4_max_matrix(lambda1, lambda2))


def rank4_region(grid_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify a grid_n x grid_n grid over the weight square.

    Returns (lambda1, lambda2, class) arrays of its cells in row-major order
    over the ticks i / (grid_n - 1), class E (entangled: 9 lam1 + 8 lam2 < 6),
    S (separable, the line included) or X (infeasible: lam1 + lam2 > 1).
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    # i / (grid_n - 1) for each i, with the bits of the Python division
    ticks = np.arange(grid_n) / (grid_n - 1)
    l1, l2 = np.repeat(ticks, grid_n), np.tile(ticks, grid_n)
    entangled = np.where(9.0 * l1 + 8.0 * l2 < 6.0, REGION_ENTANGLED, REGION_SEPARABLE)
    return l1, l2, np.where(l1 + l2 > 1.0 + 1e-12, REGION_INFEASIBLE, entangled)
