"""Two-qubit concurrence toolkit.

Exact Wootters oracle, local-unitary invariants, rank-wise concurrence
estimators built from single-qubit observables, entanglement bounds for
rank-3 and rank-4 mixtures, simulated Pauli measurements, and a seeded
Monte-Carlo validation harness.

The public names load lazily (PEP 562): ``qconc.name`` imports the module
that defines it and reads its current attribute, which is not cached here.
"""

from importlib import import_module as _import_module

#: each submodule and the public names it defines, one a line
_EXPORTS = {
    "bounds": """
        REGION_ENTANGLED
        REGION_INFEASIBLE
        REGION_SEPARABLE
        Rank3Mixture
        Rank4Mixture
        assemble_rank3_max
        classify_weights
        rank3_bound
        rank3_max_concurrence
        rank3_threshold
        rank4_bound
        rank4_max_concurrence
        rank4_region
    """,
    "concurrence": """
        ConcurrenceDiagnostics
        concurrence_oracle
    """,
    "errors": """
        DomainError
        EigSolveFailure
        I1Zero
        I3Mismatch
        Infeasible
        InvalidState
        NotAState
        NotNormalized
        NotPure
        QconcError
        ReconstructionDegenerate
        SamplerExhausted
        WorkerLost
    """,
    "estimators": """
        Rank2Canonical
        Rank2Degenerate
        Rank2SepDecomp
        XState
        assemble_ladder
        assemble_rank2
        assemble_xstate
        canonical_vectors_rank2
        estimate_projection2
        estimate_pure
        estimate_rank2_degenerate
        estimate_rank2_sep2
        ladder_concurrence
        ladder_from_correlation
        local_observables_rank2
        reconstruct_rank2
        xstate_concurrence
        xstate_concurrence_invariant
    """,
    "invariants": """
        InvariantVector
        invariant_vector
        purity_residuals
    """,
    "measurement": """
        LambdaEstimate
        MeasurementRecord
        WeightsEstimate
        expectation
        lambda_from_szpz
        lambdas_from_correlations
        sample_expectation
    """,
    "qstate": """
        BlochDecomposition
        DensityOperator
        PureState
        assemble
        bell_state
        decompose
        random_rank_k
        rank_of
        werner_state
    """,
    "stateio": """
        canonical_dumps
        read_state
        report_header
        state_from_dict
        state_to_dict
    """,
    "validate": """
        SUITES
        SuiteReport
        run_suites
    """,
}

#: public name -> (submodule, attribute)
_WHERE = {name: (module, name) for module, names in _EXPORTS.items() for name in names.split()}
_WHERE["__version__"] = ("stateio", "TOOL_VERSION")

__all__ = list(_WHERE)


def __getattr__(name: str):
    try:
        module, attr = _WHERE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_import_module(f"{__name__}.{module}"), attr)


def __dir__() -> list[str]:
    return sorted(__all__)
