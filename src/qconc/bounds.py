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

from .concurrence import concurrence_pure
from .qstate import DensityOperator

WEIGHT_TOL = 1e-10

#: region grid classes: entangled, separable, infeasible
REGION_ENTANGLED = "E"
REGION_SEPARABLE = "S"
REGION_INFEASIBLE = "X"


# ---------------------------------------------------------------------------
# mixtures with a separable backbone
# ---------------------------------------------------------------------------


def _h3_projector(a: float, b: float) -> np.ndarray:
    """Projector onto span{|00>, a|01> + b|10>, |11>}."""
    v = np.array([0.0, b, -a, 0.0], dtype=complex)
    return np.eye(4, dtype=complex) - np.outer(v, v.conj())


def _h3_product_state(a: float, b: float, angle: float, phase: float) -> np.ndarray:
    """A product state lying inside span{|00>, a|01> + b|10>, |11>}.

    The second qubit's polar angle is slaved to the first's so the component
    along b|01> - a|10> cancels.
    """
    s, c = math.sin(angle), math.cos(angle)
    t = math.atan2(a * s, b * c)
    st, ct = math.sin(t), math.cos(t)
    ph = np.exp(1j * phase)
    qa = np.array([c, ph * s], dtype=complex)
    qb = np.array([ct, ph * st], dtype=complex)
    return np.kron(qa, qb)


def _check_unit_interval(name: str, value: float) -> None:
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise ValueError(f"{name} must lie in [0, 1]")


def _check_ab(a: float, b: float) -> None:
    if a < 0.0 or b < 0.0:
        raise ValueError("a and b must be nonnegative")
    if abs(a * a + b * b - 1.0) > WEIGHT_TOL:
        raise ValueError("a^2 + b^2 must equal 1")


def _psi_in_h3(a: float, b: float, theta: float, phi: float) -> np.ndarray:
    ct, st = math.cos(theta), math.sin(theta)
    return np.array(
        [st * math.cos(phi), ct * a, ct * b, st * math.sin(phi)], dtype=complex
    )


def _sep_matrix(m) -> np.ndarray:
    """rho_sep of a Rank3Mixture or Rank4Mixture: two product states of the
    Pi3 span, sep_weight on the first."""
    p1 = _h3_product_state(m.a, m.b, m.sep_angle1, m.sep_phase1)
    p2 = _h3_product_state(m.a, m.b, m.sep_angle2, m.sep_phase2)
    return m.sep_weight * np.outer(p1, p1.conj()) + (
        1.0 - m.sep_weight
    ) * np.outer(p2, p2.conj())


def _rho2(m) -> np.ndarray:
    """mu rho_sep + (1 - mu)|psi><psi| of a Rank3Mixture or Rank4Mixture."""
    psi = _psi_in_h3(m.a, m.b, m.theta, m.phi)
    return m.mu * _sep_matrix(m) + (1.0 - m.mu) * np.outer(psi, psi.conj())


@dataclass(frozen=True)
class Rank3Mixture:
    """lam Pi3/3 + (1 - lam)[mu rho_sep + (1 - mu)|psi><psi|].

    Pi3 projects onto span{|00>, a|01> + b|10>, |11>}; psi lives in that
    span with angles theta, phi; rho_sep mixes two product states from the
    same span (sep_weight on the first), so every non-psi term is separable
    by construction.
    """

    lam: float
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
        _check_unit_interval("lam", self.lam)
        _check_unit_interval("mu", self.mu)
        _check_unit_interval("sep_weight", self.sep_weight)
        _check_ab(self.a, self.b)

    def psi(self) -> np.ndarray:
        return _psi_in_h3(self.a, self.b, self.theta, self.phi)

    def sep_matrix(self) -> np.ndarray:
        return _sep_matrix(self)

    def matrix(self) -> np.ndarray:
        """Unvalidated density matrix of the mixture."""
        return self.lam * _h3_projector(self.a, self.b) / 3.0 + (
            1.0 - self.lam
        ) * _rho2(self)

    def assemble(self) -> DensityOperator:
        return DensityOperator(self.matrix())

    @classmethod
    def random(cls, seed=None) -> "Rank3Mixture":
        rng = np.random.default_rng(seed)
        ab_angle = rng.uniform(0.0, math.pi / 2.0)
        return cls(
            lam=rng.uniform(0.0, 1.0),
            mu=rng.uniform(0.0, 1.0),
            a=math.sin(ab_angle),
            b=math.cos(ab_angle),
            theta=rng.uniform(0.0, math.pi / 2.0),
            phi=rng.uniform(0.0, 2.0 * math.pi),
            sep_weight=rng.uniform(0.0, 1.0),
            sep_angle1=rng.uniform(0.0, math.pi / 2.0),
            sep_phase1=rng.uniform(0.0, 2.0 * math.pi),
            sep_angle2=rng.uniform(0.0, math.pi / 2.0),
            sep_phase2=rng.uniform(0.0, 2.0 * math.pi),
        )


@dataclass(frozen=True)
class Rank4Mixture:
    """lam1 I/4 + lam2 Pi3/3 + (1 - lam1 - lam2) rho2.

    rho2 is the same separable-plus-pure payload as Rank3Mixture, supported
    in the Pi3 span.
    """

    lambda1: float
    lambda2: float
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
        if self.lambda1 < -1e-12 or self.lambda2 < -1e-12:
            raise ValueError("lambda1 and lambda2 must be nonnegative")
        if self.lambda1 + self.lambda2 > 1.0 + 1e-12:
            raise ValueError("lambda1 + lambda2 must not exceed 1")
        _check_unit_interval("mu", self.mu)
        _check_unit_interval("sep_weight", self.sep_weight)
        _check_ab(self.a, self.b)

    def psi(self) -> np.ndarray:
        return _psi_in_h3(self.a, self.b, self.theta, self.phi)

    def matrix(self) -> np.ndarray:
        """Unvalidated density matrix of the mixture."""
        m = self.lambda1 * np.eye(4, dtype=complex) / 4.0
        m += self.lambda2 * _h3_projector(self.a, self.b) / 3.0
        m += (1.0 - self.lambda1 - self.lambda2) * _rho2(self)
        return m

    def assemble(self) -> DensityOperator:
        return DensityOperator(self.matrix())

    @classmethod
    def random(cls, seed=None) -> "Rank4Mixture":
        rng = np.random.default_rng(seed)
        l1 = rng.uniform(0.0, 1.0)
        l2 = rng.uniform(0.0, 1.0 - l1)
        ab_angle = rng.uniform(0.0, math.pi / 2.0)
        return cls(
            lambda1=l1,
            lambda2=l2,
            mu=rng.uniform(0.0, 1.0),
            a=math.sin(ab_angle),
            b=math.cos(ab_angle),
            theta=rng.uniform(0.0, math.pi / 2.0),
            phi=rng.uniform(0.0, 2.0 * math.pi),
            sep_weight=rng.uniform(0.0, 1.0),
            sep_angle1=rng.uniform(0.0, math.pi / 2.0),
            sep_phase1=rng.uniform(0.0, 2.0 * math.pi),
            sep_angle2=rng.uniform(0.0, math.pi / 2.0),
            sep_phase2=rng.uniform(0.0, 2.0 * math.pi),
        )


# ---------------------------------------------------------------------------
# bounds, closed forms, thresholds
# ---------------------------------------------------------------------------


def rank3_bound(m: Rank3Mixture) -> float:
    """Upper bound (1 - lam)(1 - mu) C(psi) on the mixture's concurrence."""
    return (1.0 - m.lam) * (1.0 - m.mu) * concurrence_pure(m.psi())


def rank4_bound(m: Rank4Mixture) -> float:
    """Upper bound (1 - lam1 - lam2)(1 - mu) C(psi)."""
    return (
        (1.0 - m.lambda1 - m.lambda2) * (1.0 - m.mu) * concurrence_pure(m.psi())
    )


def rank3_max_concurrence(lam: float, a: float, b: float) -> float:
    """Closed form 2 (1 - 2 lam/3) a b - 2 lam/3 for the maximal member.

    May be negative; the matching oracle value is max(0, this).
    """
    _check_unit_interval("lam", lam)
    _check_ab(a, b)
    return 2.0 * (1.0 - 2.0 * lam / 3.0) * a * b - 2.0 * lam / 3.0


def rank3_threshold(a: float, b: float) -> float:
    """Entanglement threshold 3 a b / (1 + 2 a b) on the projector weight."""
    _check_ab(a, b)
    return 3.0 * a * b / (1.0 + 2.0 * a * b)


def assemble_rank3_max(lam: float, a: float, b: float) -> DensityOperator:
    """lam Pi3/3 + (1 - lam) |psi_ab><psi_ab| with psi_ab = a|01> + b|10>."""
    _check_unit_interval("lam", lam)
    _check_ab(a, b)
    psi = np.array([0.0, a, b, 0.0], dtype=complex)
    m = lam * _h3_projector(a, b) / 3.0
    m += (1.0 - lam) * np.outer(psi, psi.conj())
    return DensityOperator(m)


def rank4_max_concurrence(lambda1: float, lambda2: float) -> float:
    """Literal closed form for the maximal rank-4 member at a b = 1/2.

    Evaluates lam2 ab/3 + (1 - lam1 - lam2)/2 - lam1/4 - lam2/3 with
    ab = 1/2, which is (1 - 3 lam1/2 - 4 lam2/3)/2: exactly half the
    concurrence max(0, 1 - 3 lam1/2 - 4 lam2/3) wherever it is positive. Its
    root is the boundary 9 lam1 + 8 lam2 = 6. The validation harness gates
    the exact form against the oracle and reports this one.
    """
    if lambda1 < 0.0 or lambda2 < 0.0 or lambda1 + lambda2 > 1.0 + 1e-12:
        raise ValueError("weights must be nonnegative with sum at most 1")
    ab = 0.5
    return (
        lambda2 * ab / 3.0
        + (1.0 - lambda1 - lambda2) / 2.0
        - lambda1 / 4.0
        - lambda2 / 3.0
    )


def rank4_max_matrix(lambda1: float, lambda2: float) -> np.ndarray:
    """Unvalidated lam1 I/4 + lam2 Pi3/3 + (1 - lam1 - lam2) |psi+><psi+|."""
    if lambda1 < 0.0 or lambda2 < 0.0 or lambda1 + lambda2 > 1.0 + 1e-12:
        raise ValueError("weights must be nonnegative with sum at most 1")
    r = 1.0 / math.sqrt(2.0)
    psi = np.array([0.0, r, r, 0.0], dtype=complex)
    m = lambda1 * np.eye(4, dtype=complex) / 4.0
    m += lambda2 * _h3_projector(r, r) / 3.0
    m += (1.0 - lambda1 - lambda2) * np.outer(psi, psi.conj())
    return m


def assemble_rank4_max(lambda1: float, lambda2: float) -> DensityOperator:
    """lam1 I/4 + lam2 Pi3/3 + (1 - lam1 - lam2) |psi+><psi+| (a = b = 1/sqrt 2)."""
    return DensityOperator(rank4_max_matrix(lambda1, lambda2))


def classify_weights(lambda1: float, lambda2: float) -> str:
    """Region class of a weight pair: entangled, separable, or infeasible."""
    if lambda1 + lambda2 > 1.0 + 1e-12:
        return REGION_INFEASIBLE
    if 9.0 * lambda1 + 8.0 * lambda2 < 6.0:
        return REGION_ENTANGLED
    return REGION_SEPARABLE


def rank4_region(grid_n: int) -> list[tuple[float, float, str]]:
    """Classify a grid_n x grid_n grid over the weight square.

    Rows are (lambda1, lambda2, class) in row-major order with class E
    (entangled), S (separable), or X (infeasible).
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    ticks = [i / (grid_n - 1) for i in range(grid_n)]
    return [
        (l1, l2, classify_weights(l1, l2)) for l1 in ticks for l2 in ticks
    ]
