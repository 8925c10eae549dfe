"""Observable expectations, finite-shot sampling, and weight inversions.

Every observable here is a Pauli pair sigma_i (x) sigma_j with labels from
{"0", "x", "y", "z"}; "0" is the single-qubit identity. All nontrivial
pairs have a two-point spectrum {+1, -1}, so a projective measurement is a
Bernoulli draw with Prob(+1) = (1 + expectation)/2 and the shot average is
binomial.

The inversions at the bottom recover mixture weights from correlation
values: the three-dimensional-projector weight from the z-z correlation
alone, and the rank-4 weight pair from the x-x and z-z correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Infeasible
from .qstate import _PAULI_GRID, _as_matrix

OBS_LABELS = ("0", "x", "y", "z")
#: position of each label along both axes of the Pauli-product grid
_GRID_INDEX = {label: k for k, label in enumerate(OBS_LABELS)}
FEASIBILITY_TOL = 1e-9

#: the fifteen nontrivial observable pairs, identity-qubit entries first
ALL_OBSERVABLES = tuple(
    (i, j) for i in OBS_LABELS for j in OBS_LABELS if (i, j) != ("0", "0")
)


@dataclass(frozen=True)
class MeasurementRecord:
    """One measured observable: the pair of labels, the mean, optional shots."""

    observable: tuple[str, str]
    expectation: float
    shots: int | None = None
    std_error: float | None = None

    def __post_init__(self):
        i, j = self.observable
        if i not in OBS_LABELS or j not in OBS_LABELS:
            raise ValueError(f"unknown observable pair {self.observable!r}")
        if self.shots is None:
            if abs(self.expectation) > 1.0 + 1e-12:
                raise ValueError("exact expectation must lie in [-1, 1]")
            if self.std_error not in (None, 0.0):
                raise ValueError("std_error requires a shot count")
        else:
            if self.shots < 1:
                raise ValueError("shots must be positive")
            if self.std_error is None or self.std_error < 0.0:
                raise ValueError("sampled records carry a nonnegative std_error")
            if abs(self.expectation) > 1.0 + 3.0 * self.std_error + 1e-12:
                raise ValueError("sample mean is outside the admissible band")


def expectation(rho, obs: tuple[str, str]) -> float:
    """Exact expectation Tr(rho sigma_i (x) sigma_j) of a DensityOperator or a
    raw 4x4 matrix (used as given, not validated)."""
    i, j = obs
    if i not in OBS_LABELS or j not in OBS_LABELS:
        raise ValueError(f"unknown observable pair {obs!r}")
    op = _PAULI_GRID[_GRID_INDEX[i], _GRID_INDEX[j]]
    return float(np.einsum("ab,ba->", _as_matrix(rho), op).real)


def sample_expectation(
    rho, obs: tuple[str, str], shots: int, seed=None
) -> MeasurementRecord:
    """Average of `shots` projective +-1 outcomes of the observable on a
    DensityOperator or a raw 4x4 matrix (used as given, not validated).

    Prob(+1) = (1 + exact expectation)/2; the reported std_error is the
    plug-in binomial estimate sqrt((1 - mean^2)/shots). A fixed seed gives
    an identical record on every call.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    exact = expectation(rho, obs)
    p = min(max(0.5 * (1.0 + exact), 0.0), 1.0)
    rng = np.random.default_rng(seed)
    ups = int(rng.binomial(shots, p))
    mean = 2.0 * ups / shots - 1.0
    std_error = math.sqrt(max(1.0 - mean * mean, 0.0) / shots)
    return MeasurementRecord(
        observable=obs, expectation=mean, shots=shots, std_error=std_error
    )


class LambdaEstimate(NamedTuple):
    value: float
    clamped: bool


def lambda_from_szpz(szpz: float) -> LambdaEstimate:
    """Projector weight from the z-z correlation: lam = 3 (szpz + 1) / 4.

    The family only produces szpz in [-1, 1/3]; values beyond that map
    outside [0, 1] and are clamped with the flag set, since finite-shot
    data legitimately strays.
    """
    if not abs(szpz) <= 1.0 + 1e-12:
        raise ValueError("correlation must lie in [-1, 1]")
    raw = 0.75 * (szpz + 1.0)
    value = min(max(raw, 0.0), 1.0)
    return LambdaEstimate(value=value, clamped=(value != raw))


class WeightsEstimate(NamedTuple):
    lambda1: float
    lambda2: float
    nonnegative: bool
    within_simplex: bool


def lambdas_from_correlations(
    sxpx: float, szpz: float, tol: float = FEASIBILITY_TOL
) -> WeightsEstimate:
    """Rank-4 weights from the x-x and z-z correlations.

    Solves {sxpx = 1 - lam1 - 2 lam2/3, szpz = lam1 + 4 lam2/3 - 1}, the
    maximal-family forward map. Raises Infeasible when the solution violates
    lam_i >= 0 or lam1 + lam2 <= 1 beyond tol (the data is then not from
    this family); violations within tol are clamped and flagged.
    """
    for name, v in (("sxpx", sxpx), ("szpz", szpz)):
        if not abs(v) <= 1.0 + 1e-12:
            raise ValueError(f"{name} must lie in [-1, 1]")
    l2 = 1.5 * (sxpx + szpz)
    l1 = 1.0 - 2.0 * sxpx - szpz
    nonnegative = l1 >= 0.0 and l2 >= 0.0
    within_simplex = l1 + l2 <= 1.0
    if l1 < -tol or l2 < -tol:
        raise Infeasible(f"negative weight in solution ({l1}, {l2})")
    if l1 + l2 > 1.0 + tol:
        raise Infeasible(f"weights ({l1}, {l2}) exceed the simplex")
    l1 = min(max(l1, 0.0), 1.0)
    l2 = min(max(l2, 0.0), 1.0 - l1)
    return WeightsEstimate(
        lambda1=l1,
        lambda2=l2,
        nonnegative=nonnegative,
        within_simplex=within_simplex,
    )
