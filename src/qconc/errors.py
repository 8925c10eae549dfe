"""Exception hierarchy shared by all qconc modules.

The CLI reports every QconcError as `error: <class>: <message>` and exits
with code 1; a state payload, however malformed, ends in one of these or in
a result.
"""


class QconcError(Exception):
    """Base class for all library errors."""


class InvalidState(QconcError):
    """A matrix failed the density-operator checks (hermiticity, trace,
    positivity); lowest_eigenvalue is its smallest eigenvalue when the checks
    took its spectrum (a finite matrix's), else None."""

    def __init__(self, message: str, lowest_eigenvalue=None):
        super().__init__(message)
        self.lowest_eigenvalue = lowest_eigenvalue


class NotAState(QconcError):
    """Bloch-style data does not assemble into a positive semidefinite operator."""


class EigSolveFailure(QconcError):
    """The oracle's LAPACK solver (the SVD of its rank-k block) did not converge."""


class NotPure(QconcError):
    """Purity residuals are too large for a pure-state-only formula."""


class ReconstructionDegenerate(QconcError):
    """Measured polarizations sit on the degenerate set where the canonical
    rank-2 parameters cannot be recovered from ratios."""


class DomainError(QconcError):
    """A closed-form radicand is negative beyond numerical tolerance."""


class I1Zero(QconcError):
    """A formula that divides by the first invariant received I1 = 0."""


class Infeasible(QconcError):
    """Recovered mixing weights violate the simplex constraints."""


class SamplerExhausted(QconcError):
    """A rejection sampler gave up after REJECTION_LIMIT rounds."""


class WorkerLost(QconcError):
    """A validate worker process ended before returning its chunk's results."""
