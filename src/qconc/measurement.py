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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import Infeasible
from .qstate import _PAULI_TERMS, DensityOperator, _bloch_fields, _complex_matrix, _float_parts
from .qstate import _Guards, _math, _outside, _unit
from .qstate import _check_correlation, _check_finite, _check_nonnegative

OBS_LABELS = ("0", "x", "y", "z")
#: position of each label along both axes of the Pauli-product grid
_GRID_INDEX = {label: k for k, label in enumerate(OBS_LABELS)}
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class MeasurementRecord:
    """One measured observable: the pair of labels, the shot mean and count,
    and the mean's standard error.

    With (n,) array expectation and std_error it is a block: the same
    observable measured on each of n states, with the same shot count.
    """

    observable: tuple[str, str]
    expectation: float
    shots: int
    std_error: float

    def __post_init__(self):
        guards, (i, j) = _Guards(), self.observable
        unknown = i not in OBS_LABELS or j not in OBS_LABELS
        guards.check(unknown, ValueError, "unknown observable pair {!r}", self.observable)
        guards.check(self.shots < 1, ValueError, "shots must be positive")
        _check_finite(guards, expectation=self.expectation, std_error=self.std_error)
        _check_nonnegative(guards, "sampled records carry a nonnegative std_error", self.std_error)
        bad = _outside(abs(self.expectation), 0.0, 1.0 + 3.0 * self.std_error + 1e-12)
        guards.check(bad, ValueError, "sample mean is outside the admissible band")
        guards.settle(None)


def _matrices(rho) -> np.ndarray:
    """The matrix of a DensityOperator or a raw 4x4 state, or a raw (n, 4, 4)
    stack as it is."""
    if isinstance(rho, DensityOperator):
        return rho.matrix
    if isinstance(rho, np.ndarray) and rho.ndim == 3 and rho.shape[1:] == (4, 4):
        return rho
    return _complex_matrix(rho)


def expectation(rho, obs: tuple[str, str]):
    """Exact expectation Tr(rho sigma_i (x) sigma_j) of a DensityOperator or a
    raw 4x4 matrix, as a float; of each state of a raw (n, 4, 4) stack, as an
    (n,) array whose rows are the single-state values bit for bit. Raw input
    is used as given, not validated."""
    i, j = obs
    if i not in OBS_LABELS or j not in OBS_LABELS:
        raise ValueError(f"unknown observable pair {obs!r}")
    terms = _PAULI_TERMS[_GRID_INDEX[i], _GRID_INDEX[j]]
    (value,) = _bloch_fields(_float_parts(_matrices(rho)), [terms])
    return value


def sample_expectation(
    rho, obs: tuple[str, str], shots: int, seed=None
) -> MeasurementRecord:
    """Average of `shots` projective +-1 outcomes of the observable on a
    DensityOperator or a raw 4x4 matrix, or on each state of a raw (n, 4, 4)
    stack, as a block record; raw input is used as given, not validated.

    Prob(+1) = (1 + exact expectation)/2; the reported std_error is the
    plug-in binomial estimate sqrt((1 - mean^2)/shots). A stack draws its
    counts with one binomial call, in stack order, so a single state is the
    stack's n=1 call. A fixed seed gives an identical record on every call.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    p = np.clip(0.5 * (1.0 + np.asarray(expectation(rho, obs))), 0.0, 1.0)
    ups = np.random.default_rng(seed).binomial(shots, p)
    mean = 2.0 * ups / shots - 1.0
    std_error = np.sqrt(np.maximum(1.0 - mean * mean, 0.0) / shots)
    if np.ndim(mean) == 0:
        mean, std_error = float(mean), float(std_error)
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
    data legitimately strays. An (n,) array of correlations gives (n,)
    arrays of weights and flags.
    """
    guards = _Guards()
    _check_correlation(guards, szpz)
    guards.settle(None)
    raw = 0.75 * (szpz + 1.0)
    value = _unit(raw)
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
    this family); violations within tol are clamped and flagged. (n,) arrays
    of correlations give (n,) arrays of weights and flags.
    """
    estimate, guards = _weights(sxpx, szpz, tol)
    return guards.settle(estimate)


def _weights(sxpx, szpz, tol: float):
    """lambdas_from_correlations' estimate and the guards that vetted it; on
    a block, the guards give each row's outcome."""
    guards = _Guards()
    _check_correlation(guards, sxpx, "sxpx")
    _check_correlation(guards, szpz, "szpz")
    l2 = 1.5 * (sxpx + szpz)
    l1 = 1.0 - 2.0 * sxpx - szpz
    nonnegative = (l1 >= 0.0) & (l2 >= 0.0)
    within_simplex = l1 + l2 <= 1.0
    guards.check((l1 < -tol) | (l2 < -tol), Infeasible, "negative weight in solution ({}, {})", l1, l2)
    guards.check(l1 + l2 > 1.0 + tol, Infeasible, "weights ({}, {}) exceed the simplex", l1, l2)
    l1 = _unit(l1)
    l2 = _math(min, _math(max, l2, 0.0), 1.0 - l1)
    return WeightsEstimate(l1, l2, nonnegative, within_simplex), guards
