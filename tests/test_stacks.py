"""Each single-state call is one row of the stacked call, bit for bit."""

import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import one_state, rank2_block
from test_concurrence import _bell_mixture, _clamp_edge

from qconc import validate
from qconc.bounds import (
    Rank3Mixture,
    Rank4Mixture,
    _h3_projector,
    _sep_matrix,
    assemble_rank3_max,
    assemble_rank4_max,
    rank3_bound,
    rank3_max_concurrence,
    rank3_max_matrix,
    rank3_threshold,
    rank4_bound,
    rank4_max_concurrence,
    rank4_max_matrix,
)
from qconc.concurrence import batch_lambdas, batch_oracle, concurrence_oracle
from qconc.errors import NotPure, SamplerExhausted
from qconc.estimators import (
    Rank2Canonical,
    Rank2Degenerate,
    Rank2SepDecomp,
    XState,
    assemble_ladder,
    assemble_rank2,
    assemble_rank2_degenerate,
    assemble_rank2_sep,
    assemble_xstate,
    estimate_projection2,
    estimate_pure,
    estimate_rank2_degenerate,
    estimate_rank2_sep2,
    ladder_concurrence,
    ladder_from_correlation,
    ladder_matrix,
    local_observables_rank2,
    rank2_degenerate_matrix,
    rank2_matrix,
    rank2_sep_matrix,
    reconstruct_rank2,
    xstate_concurrence,
    xstate_concurrence_invariant,
    xstate_matrix,
)
from qconc.invariants import InvariantVector, batch_invariants, invariant_vector
from qconc.measurement import expectation, lambda_from_szpz, lambdas_from_correlations
from qconc.qstate import (
    REJECTION_LIMIT,
    _record,
    batch_decompose,
    decompose,
    random_rank_k,
    werner_state,
)
from qconc.validate import (
    SUITES,
    batch_random_mixed,
    run_suites,
    sample_nondegenerate_rank2,
    sample_rank2_degenerate,
    sample_rank2_sep,
    sample_xstate,
)


def _stack():
    return np.stack(
        [random_rank_k(rank, seed).matrix for rank in (1, 2, 3, 4) for seed in range(6)]
    )


def _strided(a):
    """The same values as a non-contiguous view: every other slot of a buffer."""
    buf = np.zeros((2 * len(a),) + a.shape[1:], dtype=a.dtype)
    buf[::2] = a
    return buf[::2]


def _fortran(a):
    """The same values with every trailing matrix stored column-major."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)


@pytest.mark.parametrize(
    "layout", [lambda a: a, _strided, _fortran], ids=["contiguous", "strided", "fortran"]
)
def test_single_state_calls_are_rows_of_the_stacked_call(layout):
    mats = _stack()
    view = layout(mats)
    p, s, pi = batch_decompose(view)
    inv = batch_invariants(layout(p), layout(s), layout(pi))
    lam = batch_lambdas(view)
    value = batch_oracle(view)
    for k, m in enumerate(mats):
        bloch = decompose(m)
        assert_array_equal(bloch.p, p[k])
        assert_array_equal(bloch.s, s[k])
        assert_array_equal(bloch.pi, pi[k])
        assert_array_equal(list(invariant_vector(bloch).to_dict().values()), inv[k])
        diag = concurrence_oracle(m)
        assert_array_equal(diag.lambdas, lam[k])
        assert_array_equal(diag.value, value[k])


def test_oracle_rank_groups_do_not_leak_between_rows():
    # the oracle groups rows by rank; a shuffled stack of every rank must
    # give each row the bits of its single-state call, in any order
    mats = np.concatenate([_stack(), werner_state(0.5).matrix[None], np.eye(4)[None] / 4])
    mats = mats[np.random.default_rng(11).permutation(len(mats))]
    lam = batch_lambdas(mats)
    value = batch_oracle(mats)
    for k, m in enumerate(mats):
        assert_array_equal(batch_lambdas(m[None])[0], lam[k])
        assert_array_equal(concurrence_oracle(m).value, value[k])
    order = np.random.default_rng(12).permutation(len(mats))
    assert_array_equal(batch_lambdas(mats[order]), lam[order])


def _mixed_ranks(rng):
    mats = np.concatenate([batch_random_mixed(rng, 10, rank) for rank in (1, 2, 3, 4)])
    return mats[rng.permutation(len(mats))]


def _pivot_tie(seed):
    """A state symmetric under swapping |00> and |01>: their diagonal entries
    tie at every step until one of them is the pivot, so the first of the
    tied entries must win in both the float and the block pivot search."""
    m = random_rank_k(4, seed).matrix
    swap = np.eye(4)[[1, 0, 2, 3]]
    return (m + swap @ m @ swap.T) / 2


def _edge_states(rng):
    ties = (
        ("phi+", "phi-"),
        ("psi+", "psi-"),
        ("phi+", "phi-", "psi+"),
        ("phi+", "phi-", "psi+", "psi-"),
    )
    return np.stack(
        [_clamp_edge(1.1), _clamp_edge(0.9), _pivot_tie(0), _pivot_tie(1)]
        + [_bell_mixture(*t) for t in ties]
    )


#: blocks whose rows stop the pivoted factor at different steps, after one
#: step only, at the pivot cut, and on tied pivots or Bell-state ties
_ORACLE_BLOCKS = {
    "ranks-1-to-4": (_mixed_ranks, {1, 2, 3, 4}),
    "rank-1": (lambda rng: batch_random_mixed(rng, 40, 1), {1}),
    "clamp-edges-and-ties": (_edge_states, {2, 3, 4}),
}


@pytest.mark.parametrize("block", list(_ORACLE_BLOCKS))
def test_the_float_factor_gives_the_block_rows(block):
    # concurrence_oracle runs the factor on Python floats, batch_lambdas on
    # (n,) arrays of entries; the arithmetic is the same, bit for bit
    build, counts = _ORACLE_BLOCKS[block]
    mats = build(np.random.default_rng(13))
    lam = batch_lambdas(mats)
    value = batch_oracle(mats)
    assert set((lam > 0).sum(axis=1).tolist()) == counts
    for k, m in enumerate(mats):
        diag = concurrence_oracle(m)
        assert_array_equal(diag.lambdas, lam[k])
        assert_array_equal(diag.value, value[k])


def _rank2(rng):
    params = [one_state(rank2_block, rng) for _ in range(6)]
    recs = [reconstruct_rank2(*local_observables_rank2(x)) for x in params]
    return [assemble_rank2(x) for x in params + recs]


#: the state families the per-state validation suites stack, one list each
_FAMILIES = {
    "rank2": _rank2,
    "rank2-sep": lambda rng: [
        assemble_rank2_sep(one_state(sample_rank2_sep, rng)) for _ in range(12)
    ],
    "rank2-degenerate-half": lambda rng: [
        assemble_rank2_degenerate(one_state(sample_rank2_degenerate, rng, lam=0.5))
        for _ in range(12)
    ],
    "xstate-rank3": lambda rng: [
        assemble_xstate(one_state(sample_xstate, rng, rank3=True)) for _ in range(12)
    ],
    "ladder": lambda rng: [assemble_ladder(lam) for lam in np.linspace(0.0, 1.0, 9).tolist()],
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_family_stacks_match_single_state_calls(family):
    states = _FAMILIES[family](np.random.default_rng(11))
    mats = np.stack([rho.matrix for rho in states])
    p, s, pi = batch_decompose(mats)
    inv = batch_invariants(p, s, pi)
    value = batch_oracle(mats)
    for k, rho in enumerate(states):
        bloch = decompose(rho)
        assert_array_equal(np.concatenate([bloch.p, bloch.s]), np.concatenate([p[k], s[k]]))
        assert_array_equal(bloch.pi, pi[k])
        assert_array_equal(list(invariant_vector(bloch).to_dict().values()), inv[k])
        assert_array_equal(concurrence_oracle(rho).value, value[k])


_STACKED_SUITES = [
    "rank2-roundtrip",
    "rank2-sep2",
    "rank2-degenerate",
    "projection2",
    "xstate",
    "xstate-invariant",
    "ladder",
]


@pytest.mark.parametrize("samples", [1, 9], ids=["one-chunk", "uneven-chunks"])
def test_stacked_suites_are_deterministic_at_small_sizes(samples):
    assert set(_STACKED_SUITES) <= set(SUITES)
    first = run_suites(_STACKED_SUITES, samples=samples, seed=5)
    second = run_suites(_STACKED_SUITES, samples=samples, seed=5)
    assert [r.suite for r in first] == _STACKED_SUITES
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


def _rank2_params(rng):
    params = [one_state(rank2_block, rng) for _ in range(8)]
    return params + [reconstruct_rank2(*local_observables_rank2(x)) for x in params]


def _rank4_max_weights(rng):
    l1 = rng.uniform(0.0, 1.0, size=8)
    return [(a, b) for a, b in zip(l1, rng.uniform(0.0, 1.0 - l1))]


#: (raw builder, validating wrapper, parameter sampler) for each family the
#: suites stack as raw matrices
_BUILDERS = {
    "rank2": (rank2_matrix, assemble_rank2, _rank2_params),
    "rank2-sep": (
        rank2_sep_matrix,
        assemble_rank2_sep,
        lambda rng: [one_state(sample_rank2_sep, rng) for _ in range(8)],
    ),
    "rank2-degenerate": (
        rank2_degenerate_matrix,
        assemble_rank2_degenerate,
        lambda rng: [one_state(sample_rank2_degenerate, rng) for _ in range(4)]
        + [one_state(sample_rank2_degenerate, rng, lam=0.5) for _ in range(4)],
    ),
    "xstate": (
        xstate_matrix,
        assemble_xstate,
        lambda rng: [one_state(sample_xstate, rng, rank3=k % 2 == 0) for k in range(8)],
    ),
    "ladder": (
        ladder_matrix,
        assemble_ladder,
        lambda rng: np.linspace(0.0, 1.0, 9).tolist(),
    ),
    "rank3-mixture": (
        Rank3Mixture.matrix,
        Rank3Mixture.assemble,
        lambda rng: [one_state(Rank3Mixture.random, rng) for _ in range(8)],
    ),
    "rank4-mixture": (
        Rank4Mixture.matrix,
        Rank4Mixture.assemble,
        lambda rng: [one_state(Rank4Mixture.random, rng) for _ in range(8)],
    ),
    "rank4-max": (
        lambda w: rank4_max_matrix(*w),
        lambda w: assemble_rank4_max(*w),
        _rank4_max_weights,
    ),
}


@pytest.mark.parametrize("family", sorted(_BUILDERS))
def test_raw_builders_equal_the_validated_assembly(family):
    build, assemble, sample = _BUILDERS[family]
    for x in sample(np.random.default_rng(23)):
        assert_array_equal(build(x), assemble(x).matrix)


def test_rank4_mixture_matrix_keeps_the_rank3_payload_bits():
    """Rank4Mixture once built its rank-2 payload through a lam = 0
    Rank3Mixture; the shared helpers must give the same bits."""
    rng = np.random.default_rng(29)
    for _ in range(20):
        m = one_state(Rank4Mixture.random, rng)
        inner = Rank3Mixture(
            lam=0.0,
            mu=m.mu,
            a=m.a,
            b=m.b,
            theta=m.theta,
            phi=m.phi,
            sep_weight=m.sep_weight,
            sep_angle1=m.sep_angle1,
            sep_phase1=m.sep_phase1,
            sep_angle2=m.sep_angle2,
            sep_phase2=m.sep_phase2,
        )
        psi = inner.psi()
        rho2 = m.mu * _sep_matrix(inner) + (1.0 - m.mu) * np.outer(psi, psi.conj())
        old = m.lambda1 * np.eye(4, dtype=complex) / 4.0
        old += m.lambda2 * _h3_projector(m.a, m.b) / 3.0
        old += (1.0 - m.lambda1 - m.lambda2) * rho2
        assert_array_equal(m.matrix(), old)


class _AlwaysRejected(np.random.Generator):
    """A generator whose every draw the rejection samplers turn down: Dirichlet
    weights are all zero, and uniform draws sit at the middle of their range,
    which puts the rank-2 gamma exactly on its excluded value pi."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))
        self.draws = 0

    def dirichlet(self, alpha, size=None):
        self.draws += 1
        return np.zeros((len(alpha),) if size is None else (size, len(alpha)))

    def uniform(self, low=0.0, high=1.0, size=None):
        self.draws += 1
        mid = 0.5 * (low + high)
        return mid if size is None else np.full(size, mid)


#: (sampler, generator calls per round); the rank-2 sampler's n = 1 block
#: draws each round as one row of five uniforms
_SAMPLERS = {
    "random_rank_k": (lambda g: random_rank_k(3, g), 1),
    "batch_random_mixed": (lambda g: batch_random_mixed(g, 5, 3), 1),
    "sample_nondegenerate_rank2": (lambda g: sample_nondegenerate_rank2(g, 1), 1),
}


@pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
def test_rejection_samplers_stop_at_the_limit(sampler):
    draw, draws_per_round = _SAMPLERS[sampler]
    rng = _AlwaysRejected()
    with pytest.raises(SamplerExhausted, match=str(REJECTION_LIMIT)):
        draw(rng)
    # random_rank_k is batch_random_mixed's n=1 call: the first full draw
    extra = 1 if sampler in ("batch_random_mixed", "random_rank_k") else 0
    assert rng.draws == draws_per_round * REJECTION_LIMIT + extra


def _same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes, so signed zeros count too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


#: the samplers, each with its keyword arguments and the validated
#: single-state assembly of its family
_BLOCK_SAMPLERS = {
    "nondegenerate-rank2": (rank2_block, {}, assemble_rank2),
    "rank2-sep": (sample_rank2_sep, {}, assemble_rank2_sep),
    "rank2-degenerate": (sample_rank2_degenerate, {}, assemble_rank2_degenerate),
    "rank2-degenerate-half": (sample_rank2_degenerate, {"lam": 0.5}, assemble_rank2_degenerate),
    "xstate": (sample_xstate, {}, assemble_xstate),
    "xstate-rank3": (sample_xstate, {"rank3": True}, assemble_xstate),
    "rank3-mixture": (Rank3Mixture.random, {}, Rank3Mixture.assemble),
    "rank4-mixture": (Rank4Mixture.random, {}, Rank4Mixture.assemble),
}


@pytest.mark.parametrize("n", [0, 1, 40])
@pytest.mark.parametrize("sampler", sorted(_BLOCK_SAMPLERS))
def test_samplers_give_seeded_blocks_of_family_states(sampler, n):
    """The same seed gives the same block of n, bit for bit, and every row is
    a checked state of the family."""
    draw, kwargs, assemble = _BLOCK_SAMPLERS[sampler]
    block = draw(np.random.default_rng(31), n, **kwargs)
    again = draw(np.random.default_rng(31), n, **kwargs)
    for f in fields(block):
        assert getattr(block, f.name).shape == (n,)
        assert _same_bits(getattr(block, f.name), getattr(again, f.name))
    for k in range(n):
        row = _record(block, k)  # runs the family's domain checks
        assemble(row)  # a valid density matrix
        if sampler == "rank2-degenerate-half":
            assert row.lam == 0.5
        if sampler == "xstate-rank3":
            assert min(row.u_plus, row.u_minus) == 0.0


def _max_weights(rng, n):
    l1 = rng.uniform(0.0, 1.0, size=n)
    return l1, rng.uniform(0.0, 1.0 - l1)


#: (array builder on a block, the single-state builder on one record) per
#: family that the suites build as a stack
_ARRAY_BUILDERS = {
    "rank2": (rank2_matrix, lambda x: assemble_rank2(x).matrix, "nondegenerate-rank2"),
    "rank2-sep": (rank2_sep_matrix, lambda x: assemble_rank2_sep(x).matrix, "rank2-sep"),
    "rank2-degenerate": (
        rank2_degenerate_matrix,
        lambda x: assemble_rank2_degenerate(x).matrix,
        "rank2-degenerate-half",
    ),
    "xstate": (xstate_matrix, lambda x: assemble_xstate(x).matrix, "xstate-rank3"),
    "rank3-mixture": (Rank3Mixture.matrix, lambda x: x.assemble().matrix, "rank3-mixture"),
    "rank4-mixture": (Rank4Mixture.matrix, lambda x: x.assemble().matrix, "rank4-mixture"),
    "rank3-bound": (rank3_bound, rank3_bound, "rank3-mixture"),
    "rank4-bound": (rank4_bound, rank4_bound, "rank4-mixture"),
    "rank2-local-observables": (
        lambda b: np.concatenate(local_observables_rank2(b), axis=-1),
        lambda x: np.concatenate(local_observables_rank2(x)),
        "nondegenerate-rank2",
    ),
}


@pytest.mark.parametrize("family", sorted(_ARRAY_BUILDERS))
def test_array_builders_are_their_single_state_calls(family):
    build_block, build_one, sampler = _ARRAY_BUILDERS[family]
    draw, kwargs, _ = _BLOCK_SAMPLERS[sampler]
    block = draw(np.random.default_rng(37), 50, **kwargs)
    stack = build_block(block)
    assert len(stack) == 50
    for k in range(50):
        assert _same_bits(stack[k], build_one(_record(block, k)))


def test_maximal_family_builders_are_their_single_state_calls():
    rng = np.random.default_rng(41)
    lam = rng.uniform(0.0, 1.0, size=50)
    angle = rng.uniform(0.0, np.pi / 2.0, size=50)
    a, b = np.sin(angle), np.cos(angle)
    l1, l2 = _max_weights(rng, 50)
    rank3 = rank3_max_matrix(lam, a, b)
    # a = b = 1/sqrt 2 takes the shared parts for floats, fresh ones for arrays
    r = 1.0 / np.sqrt(2.0)
    plus = rank3_max_matrix(lam, np.full(50, r), np.full(50, r))
    rank4 = rank4_max_matrix(l1, l2)
    ladder = ladder_matrix(lam)
    for k in range(50):
        one = (float(lam[k]), float(a[k]), float(b[k]))
        assert _same_bits(rank3[k], assemble_rank3_max(*one).matrix)
        assert _same_bits(rank3[k], rank3_max_matrix(*one))
        assert _same_bits(plus[k], rank3_max_matrix(float(lam[k]), float(r), float(r)))
        assert _same_bits(rank4[k], assemble_rank4_max(float(l1[k]), float(l2[k])).matrix)
        assert _same_bits(ladder[k], ladder_matrix(float(lam[k])))


@pytest.mark.parametrize(
    "build",
    [
        lambda: rank3_max_matrix(np.array([0.5, 1.5]), 0.6, 0.8),
        lambda: rank3_max_matrix(0.5, np.array([0.6, 0.7]), np.array([0.8, 0.8])),
        lambda: rank4_max_matrix(np.array([0.5, 0.7]), np.array([0.2, 0.4])),
        lambda: ladder_matrix(np.array([0.5, -0.1])),
        lambda: Rank2SepDecomp(
            lam=np.array([0.5, 1.2]),
            mu=np.array([0.5, 0.5]),
            a=np.array([0.6, 0.6]),
            b=np.array([0.8, 0.8]),
            theta=np.zeros(2),
            phase=np.zeros(2),
        ),
    ],
    ids=["rank3-max-lam", "rank3-max-ab", "rank4-max", "ladder", "rank2-sep"],
)
def test_blocks_run_the_single_state_domain_checks(build):
    """One bad row of a block raises the ValueError a single call raises."""
    with pytest.raises(ValueError):
        build()


#: one valid state of each family dataclass
_FAMILY_STATES = {
    "rank2-canonical": Rank2Canonical(nu=0.3, alpha=0.4, beta=0.5, gamma=1.0, eta=0.6),
    "rank2-sep": Rank2SepDecomp(lam=0.3, mu=0.4, a=0.6, b=0.8, theta=0.5, phase=1.0),
    "rank2-degenerate": Rank2Degenerate(lam=0.5, r1=0.6, r2=0.0, c=0.8j),
    "xstate": XState(u_plus=0.2, w1=0.3, w2=0.3, u_minus=0.2, z=0.1 + 0.05j),
    "rank3-mixture": one_state(Rank3Mixture.random, np.random.default_rng(5)),
    "rank4-mixture": one_state(Rank4Mixture.random, np.random.default_rng(5)),
}


def _three_rows(state):
    """A 3-row block of one state."""
    return replace(state, **{f.name: np.full(3, getattr(state, f.name)) for f in fields(state)})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "family, field",
    [(name, f.name) for name, state in _FAMILY_STATES.items() for f in fields(state)],
)
def test_family_checks_reject_a_non_finite_field(family, field, bad):
    """A non-finite field raises ValueError, alone or in row 1 of a block,
    with the same message."""
    state = _FAMILY_STATES[family]
    with pytest.raises(ValueError) as single:
        replace(state, **{field: bad})
    block = _three_rows(state)
    getattr(block, field)[1] = bad
    with pytest.raises(ValueError) as stacked:
        replace(block)
    assert str(stacked.value) == str(single.value)


def test_a_block_raises_its_first_failing_row_not_its_first_failing_rule():
    """Row 0 fails the norm, row 1 fails lam (a rule checked before the norm):
    the block raises what row 0 alone raises."""
    block = _three_rows(_FAMILY_STATES["rank2-sep"])
    block.b[0], block.lam[1] = 0.9, 1.5
    with pytest.raises(ValueError) as single:
        _record(block, 0)
    with pytest.raises(ValueError) as stacked:
        replace(block)
    assert str(stacked.value) == str(single.value) == "a^2 + b^2 must equal 1"


def test_block_rejection_sampler_stops_at_the_limit():
    """The block sampler draws one (n, 5) block per round and raises after
    REJECTION_LIMIT rounds that keep fewer than n rows."""
    rng = _AlwaysRejected()
    with pytest.raises(SamplerExhausted, match=str(REJECTION_LIMIT)):
        sample_nondegenerate_rank2(rng, 4)
    assert rng.draws == REJECTION_LIMIT


def _rank2_row_walk(rng, n: int) -> np.ndarray:
    """The rank-2 rejection sampler as a walk over its rows, one try at a
    time, each round drawing one row per state still missing: the reference
    whose rows the block sampler keeps."""
    lows, highs = np.array(validate._RANK2_DRAWS).T
    kept = []
    while len(kept) < n:
        rows = rng.uniform(lows, highs, size=(n - len(kept), len(lows)))
        params = Rank2Canonical(*rows.T)
        clear = validate._clear_of_guards(params, *local_observables_rank2(params))
        for row, ok in zip(rows, clear):
            if ok:
                kept.append(row)
    return np.array(kept).reshape(-1, len(lows))


@pytest.mark.parametrize("n", [1, 7, 200, 2500])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 11])
def test_rank2_rounds_keep_the_row_walk(n, seed):
    """The same rows, bit for bit: uniform fills a block's rows in stream
    order, so rounds of n rows keep the rows that rounds of the missing
    count keep."""
    block = rank2_block(np.random.default_rng(seed), n)
    rows = np.stack([getattr(block, f.name) for f in fields(block)], axis=1)
    assert _same_bits(rows, _rank2_row_walk(np.random.default_rng(seed), n))


@pytest.mark.parametrize("n", [1, 200, 2500])
def test_rank2_sampler_hands_back_the_polarizations_of_its_block(n):
    """The p and s the guards computed on the drawn rows are the kept rows'
    local_observables_rank2, bit for bit."""
    block, p, s = sample_nondegenerate_rank2(np.random.default_rng(n), n)
    assert all(_same_bits(x, y) for x, y in zip((p, s), local_observables_rank2(block)))


# -- closed forms on blocks ---------------------------------------------------


def _stacked(rows):
    """The block call's arguments for rows of single-call arguments: a
    dataclass of (n,) arrays for dataclass rows, an (n, ...) array otherwise."""
    args = []
    for column in zip(*rows):
        if is_dataclass(column[0]):
            cls = type(column[0])
            names = [f.name for f in fields(cls)]
            args.append(cls(**{k: np.array([getattr(r, k) for r in column]) for k in names}))
        else:
            args.append(np.array(column, dtype=float))
    return args


def _columns(result) -> list:
    """A closed form's result as a list of fields: those of a dataclass or a
    named tuple, or the value itself."""
    if is_dataclass(result):
        return [getattr(result, f.name) for f in fields(result)]
    return list(result) if isinstance(result, tuple) else [result]


def _outcome(fn, args):
    """A single call's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the outcome under test
        return type(exc), str(exc)


def _raised(outcome) -> bool:
    return isinstance(outcome, tuple) and len(outcome) == 2 and isinstance(outcome[0], type)


def _family_invariants(rng, n=12):
    """Single-call invariants of rank-2, rank-3 X and projection states."""
    params = [one_state(sample_rank2_sep, rng) for _ in range(n)]
    states = [assemble_rank2_sep(x) for x in params]
    states += [
        assemble_xstate(one_state(sample_xstate, rng, rank3=k % 2 == 0)) for k in range(n)
    ]
    states += [
        assemble_rank2_degenerate(one_state(sample_rank2_degenerate, rng, lam=0.5))
        for _ in range(n)
    ]
    return [(invariant_vector(decompose(rho)),) for rho in states]


def _pure_invariants(rng, n=24):
    """Single-call invariants of random rank-1 states and of a few mixed
    ones, which fail the purity guard."""
    mats = np.concatenate([batch_random_mixed(rng, n, 1), batch_random_mixed(rng, 3, 2)])
    return [(invariant_vector(decompose(m)),) for m in mats]


def _rank2_polarizations(rng, n=24):
    rows = []
    for _ in range(n):
        p, s = local_observables_rank2(one_state(rank2_block, rng))
        rows.append((p, s))
    # states of the degenerate set and outside the family, so that every
    # guard fails on some row
    rows += [
        ([0.1, 0.2, 0.3], [0.1, -0.2, 0.3]),
        ([0.1, 0.0, 0.3], [0.2, 0.1, 0.3]),
        ([0.3, 0.2, 0.1], [0.3, 0.2, 0.6]),
    ]
    return rows


def _max_family_weights(rng, n=24):
    lam = rng.uniform(0.0, 1.0, size=n)
    angle = rng.uniform(0.0, np.pi / 2.0, size=n)
    l1, l2 = _max_weights(rng, n)
    return [
        (float(w), float(np.sin(t)), float(np.cos(t)), float(a), float(b))
        for w, t, a, b in zip(lam, angle, l1, l2)
    ]


def _correlations(rng, n=24):
    """(sxpx, szpz) of maximal rank-4 states, nudged by about the
    feasibility tolerance, so that some are clamped and some infeasible."""
    l1, l2 = _max_weights(rng, n)
    l1[: n // 2] = 0.0  # on the edges, where the nudges clamp or fail
    mats = rank4_max_matrix(l1, l2)
    sxpx = expectation(mats, ("x", "x")) + rng.normal(scale=1e-9, size=n)
    szpz = expectation(mats, ("z", "z")) + rng.normal(scale=1e-9, size=n)
    return [(float(x), float(z)) for x, z in zip(np.clip(sxpx, -1, 1), np.clip(szpz, -1, 1))]


#: (closed form, rows of single-call arguments from a generator) for each
#: closed form that takes a block
_CLOSED_FORMS = {
    "estimate_pure": (estimate_pure, _pure_invariants),
    "estimate_rank2_sep2": (estimate_rank2_sep2, _family_invariants),
    "estimate_projection2": (estimate_projection2, _family_invariants),
    "xstate_concurrence_invariant": (xstate_concurrence_invariant, _family_invariants),
    "estimate_rank2_degenerate": (
        estimate_rank2_degenerate,
        lambda rng: [(one_state(sample_rank2_degenerate, rng),) for _ in range(24)],
    ),
    "xstate_concurrence": (
        xstate_concurrence,
        lambda rng: [(one_state(sample_xstate, rng, rank3=k % 3 == 0),) for k in range(24)],
    ),
    "reconstruct_rank2": (reconstruct_rank2, _rank2_polarizations),
    "ladder_concurrence": (
        ladder_concurrence,
        lambda rng: [(float(v),) for v in rng.uniform(0.0, 1.0, size=24)],
    ),
    "ladder_from_correlation": (
        ladder_from_correlation,
        lambda rng: [(float(v),) for v in rng.uniform(-1.0, 1.0, size=24)],
    ),
    "lambda_from_szpz": (
        lambda_from_szpz,
        lambda rng: [(float(v),) for v in rng.uniform(-1.0, 1.0, size=24)],
    ),
    "lambdas_from_correlations": (lambdas_from_correlations, _correlations),
    "rank3_max_concurrence": (
        rank3_max_concurrence,
        lambda rng: [row[:3] for row in _max_family_weights(rng)],
    ),
    "rank3_threshold": (
        rank3_threshold,
        lambda rng: [row[1:3] for row in _max_family_weights(rng)],
    ),
    "rank4_max_concurrence": (
        rank4_max_concurrence,
        lambda rng: [row[3:] for row in _max_family_weights(rng)],
    ),
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORMS))
def test_closed_forms_on_blocks_are_their_single_calls(name):
    """A block of the rows whose single calls return gives their results bit
    for bit."""
    fn, rows_of = _CLOSED_FORMS[name]
    rows = [r for r in rows_of(np.random.default_rng(43)) if not _raised(_outcome(fn, r))]
    assert len(rows) >= 10
    block = _columns(fn(*_stacked(rows)))
    singles = [_columns(fn(*r)) for r in rows]
    for k, column in enumerate(block):
        assert column.shape == (len(rows),)
        assert _same_bits(column, np.array([s[k] for s in singles], dtype=column.dtype))


#: (closed form, a row that passes, a row that fails a late guard, a row
#: that fails an earlier guard) for each guarded closed form
_GUARDED = {
    "estimate_pure": (
        estimate_pure,
        (InvariantVector(0.36, 0.36, *[0.2] * 3, 2.28, *[0.2] * 3),),
        (InvariantVector(1.0 + 1e-8, 1.0 + 1e-8, *[0.2] * 3, 1.0 - 2e-8, *[0.2] * 3),),  # radicand
        (InvariantVector(*[0.2] * 9),),  # mixed
    ),
    "estimate_rank2_sep2": (
        estimate_rank2_sep2,
        (InvariantVector(*[0.2] * 9),),
        (InvariantVector(0.2, 1.5, *[0.2] * 7),),  # second radicand negative
        (InvariantVector(math.nan, *[0.2] * 8),),  # first radicand not finite
    ),
    "estimate_projection2": (
        estimate_projection2,
        (InvariantVector(*[0.2] * 9),),
        (InvariantVector(2.0, 0.0, *[0.2] * 7),),  # outer radicand negative
        (InvariantVector(0.9, 0.9, *[0.2] * 7),),  # inner radicand negative
    ),
    "xstate_concurrence_invariant": (
        xstate_concurrence_invariant,
        (InvariantVector(0.1, 0.1, 0.0, 0.0, 0.004, 0.0, 0.0, 0.5, 0.0),),
        (InvariantVector(0.5, 0.1, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),),  # DomainError
        (InvariantVector(0.0, 0.1, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),),  # I1Zero
    ),
    "reconstruct_rank2": (
        reconstruct_rank2,
        None,  # a sampled canonical state, see the test
        ([0.1, 0.2, 0.3], [0.1, -0.2, 0.3]),  # y components of opposite signs
        ([0.1, 0.0, 0.3], [0.2, 0.1, 0.3]),  # p_y vanishes
    ),
    "ladder_concurrence": (ladder_concurrence, (0.5,), (1.5,), (-0.5,)),
    "ladder_from_correlation": (ladder_from_correlation, (0.5,), (1.5,), (math.nan,)),
    "lambda_from_szpz": (lambda_from_szpz, (0.5,), (1.5,), (math.nan,)),
    "lambdas_from_correlations": (
        lambdas_from_correlations,
        (0.6, -0.4),
        (1.0, 1.0),  # infeasible weights
        (1.5, 0.0),  # sxpx out of range
    ),
    "rank3_max_concurrence": (
        rank3_max_concurrence,
        (0.5, 0.6, 0.8),
        (0.5, 0.6, 0.9),  # a^2 + b^2 is not 1
        (1.5, 0.6, 0.8),  # lam out of range
    ),
    "rank3_threshold": (rank3_threshold, (0.6, 0.8), (0.6, 0.9), (-0.6, 0.8)),
    "rank4_max_concurrence": (rank4_max_concurrence, (0.2, 0.3), (0.8, 0.3), (-0.1, 0.3)),
}


def test_a_pure_block_with_one_mixed_row_raises_its_not_pure():
    rows = _pure_invariants(np.random.default_rng(44), 8)[:8]
    mixed = (invariant_vector(decompose(werner_state(0.6))),)
    expected = _outcome(estimate_pure, mixed)
    assert expected[0] is NotPure
    rows[5] = mixed
    with pytest.raises(NotPure) as info:
        estimate_pure(*_stacked(rows))
    assert str(info.value) == expected[1]


@pytest.mark.parametrize("position", [0, 3, 6])
@pytest.mark.parametrize("name", sorted(_GUARDED))
def test_blocks_raise_what_their_first_failing_row_raises(name, position):
    """A failing row, with a row failing an earlier guard after it, makes the
    block raise the first failing row's exception with its single call's
    message."""
    fn, good, late, early = _GUARDED[name]
    if good is None:
        good = local_observables_rank2(
            one_state(rank2_block, np.random.default_rng(5))
        )
    rows = [good] * 8
    rows[position] = late
    rows[position + 1] = early
    expected = _outcome(fn, late)
    assert _raised(expected)
    assert _raised(_outcome(fn, early))
    assert not _raised(_outcome(fn, good))
    with pytest.raises(expected[0]) as info:
        fn(*_stacked(rows))
    assert str(info.value) == expected[1]
    assert type(info.value) is expected[0]
