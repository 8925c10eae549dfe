import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import concurrence_pure, one_state, rank2_block

from qconc.concurrence import concurrence_oracle
from qconc.errors import (
    DomainError,
    I1Zero,
    NotPure,
    QconcError,
    ReconstructionDegenerate,
)
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
    canonical_vectors_rank2,
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
from qconc.invariants import InvariantVector, invariant_vector
from qconc.invariants import _invariants as invariants_of_fields
from qconc.measurement import expectation
from qconc.qstate import (
    DensityOperator,
    _outer,
    bell_state,
    decompose,
    rank_of,
    werner_state,
)
from qconc.validate import (
    batch_random_pure,
    sample_rank2_degenerate,
    sample_rank2_sep,
    sample_xstate,
)


def _invariants(rho) -> InvariantVector:
    return invariant_vector(decompose(rho))


# -- pure ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_estimate_pure_matches_amplitude_formula(seed):
    c = batch_random_pure(np.random.default_rng(seed), 1)[0]
    est = estimate_pure(_invariants(DensityOperator(np.outer(c, c.conj()))))
    assert est == pytest.approx(concurrence_pure(c), abs=1e-10)


def test_estimate_pure_rejects_mixed_state():
    with pytest.raises(NotPure):
        estimate_pure(_invariants(werner_state(0.6)))


# -- canonical rank 2 --------------------------------------------------------

_half_pi = math.pi / 2.0

nondegenerate_params = st.builds(
    Rank2Canonical,
    nu=st.floats(0.05, 0.95),
    alpha=st.floats(0.15, _half_pi - 0.15),
    beta=st.floats(0.15, _half_pi - 0.15).filter(
        lambda b: abs(b - math.pi / 4.0) > 0.05
    ),
    gamma=st.floats(0.2, 2.0 * math.pi - 0.2).filter(
        lambda g: abs(g - math.pi) > 0.2
    ),
    eta=st.floats(0.15, _half_pi - 0.15),
)


def test_canonical_vectors_are_orthonormal():
    params = Rank2Canonical(nu=0.3, alpha=0.7, beta=0.5, gamma=1.1, eta=0.9)
    chi, chi_perp = canonical_vectors_rank2(params)
    assert np.vdot(chi, chi).real == pytest.approx(1.0)
    assert np.vdot(chi_perp, chi_perp).real == pytest.approx(1.0)
    assert abs(np.vdot(chi, chi_perp)) < 1e-15


def test_assemble_rank2_has_rank_two():
    params = Rank2Canonical(nu=0.4, alpha=0.6, beta=0.8, gamma=2.0, eta=0.5)
    assert rank_of(assemble_rank2(params)) == 2


@settings(max_examples=80, deadline=None)
@given(nondegenerate_params)
def test_local_observables_match_decomposition(params):
    """The closed-form polarizations must agree with the Pauli expansion."""
    p, s = local_observables_rank2(params)
    bloch = decompose(assemble_rank2(params))
    np.testing.assert_allclose(p, bloch.p, atol=1e-13)
    np.testing.assert_allclose(s, bloch.s, atol=1e-13)


@settings(max_examples=80, deadline=None)
@given(nondegenerate_params)
def test_reconstruction_roundtrip(params):
    """Local polarizations alone pin down the full state off the degenerate set."""
    p, s = local_observables_rank2(params)
    try:
        rec = reconstruct_rank2(p, s)
    except ReconstructionDegenerate:
        # the hypothesis margins are generous but not airtight; a draw that
        # lands near a singular surface is a legitimate raise, not a failure
        return
    rho0 = assemble_rank2(params)
    rho1 = assemble_rank2(rec)
    assert np.abs(rho0.matrix - rho1.matrix).max() < 1e-8
    c0 = concurrence_oracle(rho0).value
    c1 = concurrence_oracle(rho1).value
    assert c0 == pytest.approx(c1, abs=1e-8)


def test_reconstruction_degenerate_sy():
    # alpha = 0 kills s_y while p_y stays finite
    params = Rank2Canonical(nu=0.4, alpha=0.0, beta=0.7, gamma=1.2, eta=0.8)
    p, s = local_observables_rank2(params)
    assert abs(p[1]) > 1e-3
    with pytest.raises(ReconstructionDegenerate, match="s_y"):
        reconstruct_rank2(p, s)


def test_reconstruction_degenerate_sx():
    # tan(alpha) tan(beta) cos(gamma) = 1 kills s_x
    gamma = 0.9
    alpha = 0.8
    beta = math.atan(1.0 / (math.tan(alpha) * math.cos(gamma)))
    params = Rank2Canonical(nu=0.35, alpha=alpha, beta=beta, gamma=gamma, eta=0.7)
    p, s = local_observables_rank2(params)
    assert abs(s[0]) < 1e-12
    with pytest.raises(ReconstructionDegenerate, match="s_x"):
        reconstruct_rank2(p, s)


def test_reconstruction_degenerate_px():
    # tan(alpha) = tan(beta) cos(gamma) kills p_x
    gamma = 1.1
    beta = 0.9
    alpha = math.atan(math.tan(beta) * math.cos(gamma))
    params = Rank2Canonical(nu=0.45, alpha=alpha, beta=beta, gamma=gamma, eta=0.6)
    p, s = local_observables_rank2(params)
    assert abs(p[0]) < 1e-12
    with pytest.raises(ReconstructionDegenerate, match="p_x"):
        reconstruct_rank2(p, s)


def test_reconstruction_degenerate_real_gamma():
    # gamma = 0 makes both y components vanish at once
    params = Rank2Canonical(nu=0.4, alpha=0.7, beta=0.6, gamma=0.0, eta=0.8)
    p, s = local_observables_rank2(params)
    with pytest.raises(ReconstructionDegenerate):
        reconstruct_rank2(p, s)


def test_reconstruction_rejects_opposite_sign_y():
    with pytest.raises(ReconstructionDegenerate, match="opposite signs"):
        reconstruct_rank2([0.1, 0.2, 0.3], [0.1, -0.2, 0.3])


# -- separable-plus-pure rank 2 ---------------------------------------------


def test_sep_decomp_validates_unit_ab():
    with pytest.raises(ValueError):
        Rank2SepDecomp(lam=0.5, mu=0.5, a=1.0, b=1.0, theta=0.3, phase=0.0)


def test_sep2_equals_oracle_in_pure_limit():
    # lam = 0 leaves just the pure state, where sqrt(1 - I1) is exact
    params = Rank2SepDecomp(
        lam=0.0, mu=0.3, a=math.sin(0.7), b=math.cos(0.7), theta=0.5, phase=1.0
    )
    rho = assemble_rank2_sep(params)
    est = estimate_rank2_sep2(_invariants(rho))
    assert est == pytest.approx(concurrence_oracle(rho).value, abs=1e-10)


def test_sep2_separable_limit_oracle_vanishes():
    # lam = 1 drops the pure part entirely; the mixture is separable and the
    # oracle sees that, while the candidate value itself may stay positive
    params = Rank2SepDecomp(
        lam=1.0, mu=0.4, a=math.sin(0.6), b=math.cos(0.6), theta=0.9, phase=0.3
    )
    rho = assemble_rank2_sep(params)
    assert concurrence_oracle(rho).value <= 1e-12
    assert estimate_rank2_sep2(_invariants(rho)) >= 0.0


def test_sep2_is_reported_not_exact(rng):
    """Away from the pure limit the two-invariant candidate overshoots the
    oracle; this pins the behavior the validation harness reports."""
    deviations = []
    for _ in range(50):
        t = rng.uniform(0.05, _half_pi - 0.05)
        params = Rank2SepDecomp(
            lam=rng.uniform(0.3, 0.9),
            mu=rng.uniform(0.0, 1.0),
            a=math.sin(t),
            b=math.cos(t),
            theta=rng.uniform(0.0, _half_pi),
            phase=rng.uniform(0.0, 2.0 * math.pi),
        )
        rho = assemble_rank2_sep(params)
        est = estimate_rank2_sep2(_invariants(rho))
        deviations.append(est - concurrence_oracle(rho).value)
    assert max(deviations) > 0.1
    assert min(deviations) > -1e-10


# -- degenerate rank 2 -------------------------------------------------------


def test_degenerate_family_formula_exact(rng):
    for _ in range(60):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        params = Rank2Degenerate(
            lam=rng.uniform(0.0, 1.0),
            r1=abs(v[0]),
            r2=abs(v[2]),
            c=abs(v[1]) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)),
        )
        rho = assemble_rank2_degenerate(params)
        assert estimate_rank2_degenerate(params) == pytest.approx(
            concurrence_oracle(rho).value, abs=1e-10
        )


def test_degenerate_family_norm_validated():
    with pytest.raises(ValueError):
        Rank2Degenerate(lam=0.2, r1=1.0, r2=1.0, c=0.0)


# -- equal-weight projection -------------------------------------------------


def test_projection2_exact_on_equal_weights(rng):
    for _ in range(40):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        params = Rank2Degenerate(
            lam=0.5,
            r1=abs(v[0]),
            r2=abs(v[2]),
            c=abs(v[1]) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)),
        )
        rho = assemble_rank2_degenerate(params)
        assert estimate_projection2(_invariants(rho)) == pytest.approx(
            concurrence_oracle(rho).value, abs=1e-8
        )


#: the worst states of the projection2 suite at 200 samples and seeds 33, 34
#: and 96 under the state-by-state sampler, kept here because the block
#: sampler no longer draws them; one local Bloch vector is tiny on each
_CANCELLING_PROJECTIONS = {
    "seed-33": Rank2Degenerate(
        lam=0.5,
        r1=0.9813340519806456,
        r2=1.7005719652440373e-05,
        c=complex(-0.0003476157632098337, -0.19231057510530802),
    ),
    "seed-34": Rank2Degenerate(
        lam=0.5,
        r1=0.9792283901563894,
        r2=9.776753501996815e-05,
        c=complex(0.04567938629051051, 0.19754782717447822),
    ),
    "seed-96": Rank2Degenerate(
        lam=0.5,
        r1=0.027771770970973258,
        r2=2.592211923531761e-05,
        c=complex(-0.7136901642706308, -0.6999107639467615),
    ),
}


@pytest.mark.parametrize("name", sorted(_CANCELLING_PROJECTIONS))
def test_projection2_holds_its_gate_where_the_expanded_form_cancels(name):
    """The expanded discriminant (I1 - I2)^2/4 - (I1 + I2)/2 + 1/4 cancels
    quarter-sized terms on these states and misses the 1e-8 gate (by 1.4e-8,
    1.2e-8 and 1.3e-7); a^2 - I1 I2 holds it on the same invariants."""
    rho = assemble_rank2_degenerate(_CANCELLING_PROJECTIONS[name])
    inv = _invariants(rho)
    oracle = concurrence_oracle(rho).value
    assert abs(estimate_projection2(inv) - oracle) <= 1e-8
    expanded = (inv.i1 - inv.i2) ** 2 / 4.0 - (inv.i1 + inv.i2) / 2.0 + 0.25
    outer = (1.0 - inv.i1 - inv.i2) / 2.0 - math.sqrt(max(expanded, 0.0))
    assert abs(math.sqrt(max(outer, 0.0)) - oracle) > 1e-8


def test_projection2_domain_error_on_foreign_invariants():
    bad = InvariantVector(
        i1=0.9, i2=0.9, i3=0.0, i4=0.0, i5=0.0, i6=0.0, i7=0.0, i8=0.0, i9=0.0
    )
    with pytest.raises(DomainError):
        estimate_projection2(bad)


# -- X states ----------------------------------------------------------------


def test_xstate_validation():
    with pytest.raises(ValueError):
        XState(u_plus=0.4, w1=0.3, w2=0.3, u_minus=0.3, z=0.0)  # sum 1.3
    with pytest.raises(ValueError):
        XState(u_plus=0.2, w1=0.3, w2=0.3, u_minus=0.2, z=0.4)  # |z|^2 > w1 w2
    with pytest.raises(ValueError):
        XState(u_plus=-0.1, w1=0.6, w2=0.3, u_minus=0.2, z=0.0)


@pytest.mark.parametrize(
    "fields",
    [
        {"u_plus": math.nan, "z": 0.0},
        {"u_plus": 0.2, "z": complex(math.nan, 0.0)},
        {"u_plus": 0.2, "z": math.inf},
    ],
    ids=["nan-weight", "nan-z", "inf-z"],
)
def test_xstate_rejects_non_finite_entries(fields):
    with pytest.raises(ValueError, match="finite"):
        XState(w1=0.3, w2=0.3, u_minus=0.2, **fields)


@pytest.mark.parametrize("z", [complex(1e300, 1e300), complex(1e308, 1e308)])
def test_xstate_rejects_a_huge_coherence(z):
    """|z|^2 overflows to inf and fails the positivity rule; it does not raise
    OverflowError."""
    with pytest.raises(ValueError, match="w1 w2"):
        XState(u_plus=0.25, w1=0.25, w2=0.25, u_minus=0.25, z=z)


def test_xstate_direct_formula_exact(rng):
    for _ in range(60):
        w = rng.dirichlet(np.ones(4))
        z = rng.uniform(0.0, math.sqrt(w[1] * w[2])) * np.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi)
        )
        x = XState(u_plus=w[0], w1=w[1], w2=w[2], u_minus=w[3], z=z)
        assert xstate_concurrence(x) == pytest.approx(
            concurrence_oracle(assemble_xstate(x)).value, abs=1e-10
        )


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 2.0 * math.pi))
def test_xstate_concurrence_depends_only_on_z_modulus(phi):
    base = XState(u_plus=0.1, w1=0.4, w2=0.3, u_minus=0.2, z=0.25)
    spun = XState(
        u_plus=0.1, w1=0.4, w2=0.3, u_minus=0.2, z=0.25 * np.exp(1j * phi)
    )
    assert xstate_concurrence(spun) == pytest.approx(xstate_concurrence(base))


def test_xstate_invariant_form_is_graded_not_trusted():
    """The invariant-only expression either trips a domain guard or returns
    a clamped value; the harness records both outcomes. Pin the two observed
    behaviors so a silent change in either direction is caught."""
    broken = XState(u_plus=0.0, w1=0.35, w2=0.35, u_minus=0.3, z=0.2)
    assert xstate_concurrence(broken) == pytest.approx(0.4)
    with pytest.raises(DomainError):
        xstate_concurrence_invariant(_invariants(assemble_xstate(broken)))
    evaluable = XState(
        u_plus=0.0, w1=0.2276, w2=0.4874, u_minus=0.285, z=0.3128
    )
    value = xstate_concurrence_invariant(_invariants(assemble_xstate(evaluable)))
    assert value == pytest.approx(0.0)
    assert concurrence_oracle(assemble_xstate(evaluable)).value > 0.5


def test_xstate_invariant_form_raises_on_zero_polarization():
    x = XState(u_plus=0.2, w1=0.3, w2=0.3, u_minus=0.2, z=0.1)
    with pytest.raises(I1Zero):
        xstate_concurrence_invariant(_invariants(assemble_xstate(x)))


# -- ladder ------------------------------------------------------------------


def test_ladder_concurrence_is_one_minus_lam():
    for lam in np.linspace(0.0, 1.0, 11):
        rho = assemble_ladder(float(lam))
        assert ladder_concurrence(float(lam)) == pytest.approx(
            concurrence_oracle(rho).value, abs=1e-10
        )
        assert rho.matrix[0, 0].real == pytest.approx(lam)


def test_ladder_correlation_route():
    from qconc.measurement import expectation

    for lam in (0.0, 0.3, 1.0):
        rho = assemble_ladder(lam)
        szpz = expectation(rho, ("z", "z"))
        assert ladder_from_correlation(szpz) == pytest.approx(1.0 - lam, abs=1e-12)


def test_ladder_range_checks():
    with pytest.raises(ValueError):
        assemble_ladder(1.5)
    with pytest.raises(ValueError):
        ladder_concurrence(-0.1)
    with pytest.raises(ValueError):
        ladder_from_correlation(1.5)


# -- non-finite invariants ---------------------------------------------------

#: each invariant estimator, a state it evaluates to a finite value, and the
#: invariants it reads
_INVARIANT_ESTIMATORS = {
    "pure": (estimate_pure, bell_state("phi+"), ("i1", "i2", "i6")),
    "rank2-sep2": (estimate_rank2_sep2, werner_state(0.5), ("i1", "i2")),
    "projection2": (
        estimate_projection2,
        assemble_rank2_degenerate(Rank2Degenerate(lam=0.5, r1=0.6, r2=0.0, c=0.8)),
        ("i1", "i2"),
    ),
    "xstate-invariant": (
        xstate_concurrence_invariant,
        assemble_xstate(
            XState(u_plus=0.0, w1=0.2276, w2=0.4874, u_minus=0.285, z=0.3128)
        ),
        ("i1", "i2", "i5", "i8"),
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(_INVARIANT_ESTIMATORS))
def test_invariant_estimators_raise_on_non_finite_invariants(name, value):
    estimate = _INVARIANT_ESTIMATORS[name][0]
    with pytest.raises(QconcError):
        estimate(InvariantVector(*[value] * 9))


@pytest.mark.parametrize(
    "name, field",
    [(n, f) for n in sorted(_INVARIANT_ESTIMATORS) for f in _INVARIANT_ESTIMATORS[n][2]],
)
def test_one_nan_invariant_raises(name, field):
    estimate, rho, _ = _INVARIANT_ESTIMATORS[name]
    inv = _invariants(rho)
    assert math.isfinite(estimate(inv))
    with pytest.raises(QconcError):
        estimate(dataclasses.replace(inv, **{field: math.nan}))


# -- the observables each estimate reads -------------------------------------

_LOCAL = ("x0", "y0", "z0", "0x", "0y", "0z")
_PAULI = _LOCAL + tuple(a + b for a in "xyz" for b in "xyz")
_NINE = tuple(f"i{k}" for k in range(1, 10))

def _invariants_of(fields):
    """The input of an invariant estimator: the InvariantVector of the
    expectation values, every invariant but `fields` set to NaN."""

    def inputs(values):
        p, s = [values[a + "0"] for a in "xyz"], [values["0" + b] for b in "xyz"]
        pi = [[values[a + b] for b in "xyz"] for a in "xyz"]
        inv = InvariantVector(*invariants_of_fields(p, s, pi))
        return (dataclasses.replace(inv, **{f: math.nan for f in _NINE if f not in fields}),)

    return inputs


def _on_invariants(name):
    """An invariant estimator, and its input reading only its invariants."""
    form, _, fields = _INVARIANT_ESTIMATORS[name]
    return form, _invariants_of(fields)


def _rho00(v) -> float:
    return (1.0 + v["z0"] + v["0z"] + v["zz"]) / 4.0


def _xstate_entries(v) -> tuple:
    """The X state's diagonal from z0 0z zz and its coherence rho(|01>, |10>)
    = (xx + yy + i (xy - yx))/4, in XState's field order."""
    u_plus, u_minus = _rho00(v), (1.0 - v["z0"] - v["0z"] + v["zz"]) / 4.0
    w1, w2 = (1.0 + v["z0"] - v["0z"] - v["zz"]) / 4.0, (1.0 - v["z0"] + v["0z"] - v["zz"]) / 4.0
    return u_plus, w1, w2, u_minus, complex(v["xx"] + v["yy"], v["xy"] - v["yx"]) / 4.0


#: per estimate: a sampler of its family's matrices; the Pauli expectation
#: values (qubit A's label, then B's) its value and guards read, as the
#: README's observable table lists them; the estimate; and its input from a
#: dict of expectation values
_READS = {
    "pure": (lambda rng: _outer(batch_random_pure(rng, 1)[0]), _PAULI, *_on_invariants("pure")),
    "rank2-reconstruction": (
        lambda rng: rank2_matrix(one_state(rank2_block, rng)),
        _LOCAL,
        lambda p, s: concurrence_oracle(assemble_rank2(reconstruct_rank2(p, s))).value,
        lambda v: ([v[a + "0"] for a in "xyz"], [v["0" + b] for b in "xyz"]),
    ),
    "projection2": (
        lambda rng: rank2_degenerate_matrix(one_state(sample_rank2_degenerate, rng, lam=0.5)),
        _LOCAL,
        *_on_invariants("projection2"),
    ),
    "rank2-sep2": (
        lambda rng: rank2_sep_matrix(one_state(sample_rank2_sep, rng)),
        _LOCAL,
        *_on_invariants("rank2-sep2"),
    ),
    "xstate-direct": (
        lambda rng: xstate_matrix(one_state(sample_xstate, rng, rank3=bool(rng.integers(2)))),
        ("z0", "0z", "zz", "xx", "yy", "xy", "yx"),
        lambda *x: xstate_concurrence(XState(*x)),
        _xstate_entries,
    ),
    "xstate-invariant": (
        lambda rng: xstate_matrix(one_state(sample_xstate, rng, rank3=True)),
        _PAULI,
        *_on_invariants("xstate-invariant"),
    ),
    "ladder-rho11": (
        lambda rng: ladder_matrix(rng.uniform()),
        ("z0", "0z", "zz"),
        ladder_concurrence,
        lambda v: (_rho00(v),),
    ),
    "ladder-szpz": (
        lambda rng: ladder_matrix(rng.uniform()),
        ("zz",),
        ladder_from_correlation,
        lambda v: (v["zz"],),
    ),
}


def _outcome(form, args):
    """form's value on args, or what it raises."""
    try:
        return form(*args)
    except (QconcError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(_READS))
def test_estimates_read_only_the_listed_observables(name):
    """With every Pauli expectation value and invariant the table does not
    list set to NaN, each estimate gives the same value, or the same raise."""
    draw, labels, form, inputs = _READS[name]
    full = _invariants_of(_NINE) if name in _INVARIANT_ESTIMATORS else inputs
    rng = np.random.default_rng(19)
    evaluated = 0
    for _ in range(25):
        m = draw(rng)
        values = {label: expectation(m, tuple(label)) for label in _PAULI}
        masked = {label: v if label in labels else math.nan for label, v in values.items()}
        outcome = _outcome(form, inputs(masked))
        assert outcome == _outcome(form, full(values))
        evaluated += not isinstance(outcome, tuple)
    assert evaluated > 0


#: the inputs `qconc concurrence` hands the estimates that read matrix
#: entries or Bloch fields, from the validated matrix
_CLI_INPUTS = {
    "rank2-reconstruction": lambda m: (decompose(m).p, decompose(m).s),
    "xstate-direct": lambda m: [float(m[k, k].real) for k in range(4)] + [complex(m[1, 2])],
    "ladder-rho11": lambda m: (float(m[0, 0].real),),
    "ladder-szpz": lambda m: (float(decompose(m).pi[2, 2]),),
}


@pytest.mark.parametrize("name", sorted(_CLI_INPUTS))
def test_expectation_inputs_match_the_cli_route(name):
    """The inputs built from expectation values are the ones the CLI reads
    off the matrix, within 1e-14."""
    draw, _, _, inputs = _READS[name]
    rng = np.random.default_rng(19)
    for _ in range(25):
        m = DensityOperator(draw(rng)).matrix
        values = {label: expectation(m, tuple(label)) for label in _PAULI}
        ours, cli = np.hstack(inputs(values)), np.hstack(_CLI_INPUTS[name](m))
        assert np.abs(ours - cli).max() <= 1e-14
