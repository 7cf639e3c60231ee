"""Property-based checks of the package invariants.

The hypothesis profile registered in conftest is derandomized, so these
tests draw the same examples on every run.  Edge inputs that once broke
an invariant are pinned with @example.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pairtomo import (DegenerateInputError, EmptyDataError,
                      IllConditionedError, NonPhysicalMomentsError,
                      OptimizerConfig, ParamVector, PureQubit, SIC, TETRA,
                      ensemble_state, li_pipeline, ml_estimate,
                      ml_estimates)
from pairtomo.estimate import fold_params
from pairtomo.plausible import DegenerateSampleError, plausibility_sweep
from pairtomo.qstate import HALF_PI, TWO_PI, wrap_phase
from pairtomo.recon import eigh3

from test_estimate import reference_ml_estimate
from test_plausible import TRUTH, reference_report

DOCUMENTED_LI_ERRORS = (NonPhysicalMomentsError, DegenerateInputError,
                        IllConditionedError, EmptyDataError)

unit = st.floats(-1.0, 1.0, allow_subnormal=False)
angle = st.floats(-1e3, 1e3, allow_subnormal=False)
thetas = st.floats(0.0, HALF_PI)
phis = st.floats(0.0, TWO_PI, exclude_max=True)
params = st.tuples(thetas, phis, thetas, phis, thetas).map(ParamVector.from_array)
povms = st.sampled_from([SIC, TETRA])


@st.composite
def count_tables(draw, min_total=0):
    povm = draw(povms)
    counts = draw(st.lists(st.integers(0, 10_000), min_size=povm.n_outcomes,
                           max_size=povm.n_outcomes)
                  .filter(lambda c: sum(c) >= min_total))
    return povm, np.array(counts)


@st.composite
def small_tables(draw):
    """Count tables with 1 <= N <= 2000, spread by stars and bars."""
    povm = draw(povms)
    n = draw(st.integers(1, 2000))
    cuts = draw(st.lists(st.integers(0, n), min_size=povm.n_outcomes - 1,
                         max_size=povm.n_outcomes - 1))
    return povm, np.diff([0, *sorted(cuts), n])


def _hermitian(entries):
    a = np.array(entries[:9]).reshape(3, 3) + 1j * np.array(entries[9:]).reshape(3, 3)
    return a + a.conj().T


@given(st.lists(unit, min_size=18, max_size=18).map(_hermitian))
@example(np.eye(3, dtype=complex))
@example(np.zeros((3, 3), dtype=complex))
@example(np.diag([1.0, 1.0, 2.0]).astype(complex))
@example(np.ones((3, 3), dtype=complex))
def test_eigh3_contract(h):
    w, v = eigh3(h)
    assert w[0] <= w[1] <= w[2]
    np.testing.assert_allclose(h @ v, v @ np.diag(w), atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-13)
    for k in range(3):
        pivot = v[np.argmax(np.abs(v[:, k])), k]
        assert pivot.imag == pytest.approx(0, abs=1e-14)
        assert pivot.real >= 0


@given(angle)
@example(-1e-17)
@example(-0.0)
@example(-TWO_PI)
@example(TWO_PI)
def test_wrap_phase_range(phi):
    wrapped = wrap_phase(phi)
    assert 0.0 <= wrapped < TWO_PI
    assert math.cos(wrapped) == pytest.approx(math.cos(phi), abs=1e-9)
    assert math.sin(wrapped) == pytest.approx(math.sin(phi), abs=1e-9)


@given(st.lists(angle, min_size=5, max_size=5))
@example([0.3, -1e-17, 0.3, 0.1, 0.2])
def test_fold_params_lands_in_box(x):
    folded = fold_params(np.array(x))
    assert (folded[[0, 2, 4]] >= 0.0).all() and (folded[[0, 2, 4]] <= HALF_PI).all()
    assert (folded[[1, 3]] >= 0.0).all() and (folded[[1, 3]] < TWO_PI).all()
    ParamVector.from_array(folded)


@given(thetas, phis)
def test_from_bloch_round_trip(theta, phi):
    psi = PureQubit(theta, phi)
    back = PureQubit.from_bloch(psi.bloch)
    np.testing.assert_allclose(back.bloch, psi.bloch, atol=1e-12)


@given(st.lists(unit, min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 1e-3))
@example([1.0, -1e-17, 0.0])
def test_from_bloch_of_unit_vector(v):
    v = np.array(v) / np.linalg.norm(v)
    np.testing.assert_allclose(PureQubit.from_bloch(v).bloch, v, atol=1e-12)


@given(st.complex_numbers(max_magnitude=10.0, allow_subnormal=False),
       st.complex_numbers(max_magnitude=10.0, allow_subnormal=False))
@example(1.0, 1 - 1e-17j)
def test_from_amplitudes_keeps_the_ray(a0, a1):
    amp = np.array([a0, a1])
    norm = np.linalg.norm(amp)
    assume(norm >= 1e-6)
    psi = PureQubit.from_amplitudes(a0, a1)
    overlap = abs(np.vdot(psi.amplitudes, amp / norm)) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-12)


@given(povms, params)
def test_linear_inversion_round_trips_states(povm, source):
    state = ensemble_state(source)
    # exact probabilities of a pole state can round to -1e-20
    est = povm.linear_inversion(np.maximum(povm.probabilities(state), 0.0) * 1e6)
    np.testing.assert_allclose(est.features(), state.features(), atol=1e-12)


@given(count_tables(min_total=1))
@example((TETRA, np.array([1, 1, 0, 0, 1, 0, 1, 0, 0, 0])))
def test_linear_inversion_reproduces_frequencies(table):
    povm, counts = table
    est = povm.linear_inversion(counts)
    np.testing.assert_allclose(povm.probabilities(est), counts / counts.sum(),
                               atol=1e-12)


@pytest.mark.filterwarnings("ignore::pairtomo.IllConditionedWarning")
@settings(max_examples=1000)  # the 2 pi defect hit about 1 table in 400
@given(count_tables(), st.sampled_from(["xi", "moments"]))
@example((TETRA, np.array([1, 1, 0, 0, 1, 0, 1, 0, 0, 0])), "moments")
@example((SIC, np.zeros(9, dtype=int)), "xi")
@example((TETRA, np.zeros(10, dtype=int)), "moments")
def test_li_pipeline_raises_only_documented_errors(table, method):
    povm, counts = table
    try:
        dec = li_pipeline(counts, povm, method)
    except DOCUMENTED_LI_ERRORS:
        return
    assert 0.0 <= dec.p1 <= dec.p0 <= 1.0


@given(count_tables(min_total=1))
def test_ml_estimate_returns_parameters(table):
    povm, counts = table
    opt = OptimizerConfig(max_evaluations=240, restarts=1, seed=0)
    est = ml_estimate(counts, povm, opt)
    assert isinstance(est.params, ParamVector)
    assert est.n_evaluations <= opt.max_evaluations


@st.composite
def fit_batches(draw):
    """1-8 tables of one measurement with their own seeds, and a config
    whose per-restart budget may hold no generation at all."""
    povm = draw(povms)
    k = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, 300), min_size=povm.n_outcomes,
                   max_size=povm.n_outcomes).filter(lambda c: sum(c) > 0)
    tables = [np.array(t) for t in draw(st.lists(row, min_size=k, max_size=k))]
    seeds = draw(st.lists(st.integers(0, 2 ** 32), min_size=k, max_size=k))
    population = draw(st.integers(4, 16))
    opt = OptimizerConfig(population=population,
                          max_evaluations=draw(st.integers(population,
                                                           60 * population)),
                          restarts=draw(st.integers(1, 5)),
                          tol=draw(st.sampled_from([1e-10, 1e-4, 0.1])))
    return povm, tables, seeds, opt


@settings(max_examples=60)
@given(fit_batches())
@example((SIC, [np.array([0, 0, 5, 0, 0, 0, 0, 0, 1]), np.array([3] * 9)],
          [1, 2], OptimizerConfig(population=12, max_evaluations=12,
                                  restarts=5)))
@example((TETRA, [np.array([0, 7, 0, 0, 0, 0, 0, 0, 0, 0])], [0],
          OptimizerConfig(population=4, max_evaluations=240, restarts=3,
                          tol=0.1)))
def test_ml_estimates_match_sequential_reference(batch):
    # lockstep fits equal lone sequential fits bit for bit, counters included
    povm, tables, seeds, opt = batch
    fits = ml_estimates(tables, povm, opt, seeds)
    for counts, seed, fit in zip(tables, seeds, fits):
        assert fit == reference_ml_estimate(counts, povm.name,
                                            replace(opt, seed=seed))
    assert ml_estimates(tables[::-1], povm, opt, seeds[::-1]) == fits[::-1]
    assert ml_estimate(tables[0], povm, replace(opt, seed=seeds[0])) == fits[0]


@settings(max_examples=60)
@given(small_tables(), st.integers(1, 4000), st.integers(1, 4000),
       st.integers(0, 2 ** 32))
@example((TETRA, np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0])), 3000, 100, 0)
@example((SIC, np.array([0, 0, 0, 0, 2000, 0, 0, 0, 0])), 5, 2, 1)
@example((TETRA, np.array([0, 0, 3, 0, 0, 0, 0, 0, 0, 0])), 1, 1, 0)
def test_plausibility_sweep_matches_reference(table, m, chunk_size, seed):
    # small N puts most samples above the chunk cut; large N almost none
    assume(m <= 64 * chunk_size)
    povm, counts = table
    with np.errstate(invalid="ignore"):
        ref = reference_report(counts, povm.name, TRUTH, m, seed, chunk_size)
    try:
        rep, = plausibility_sweep([counts], povm, [TRUTH], m, seed,
                                  chunk_size=chunk_size, workers=1)
    except DegenerateSampleError:
        assert ref[0] == 0.0
        return
    assert (rep.lambda_pl, rep.size_pl, rep.credibility_pl) == ref
