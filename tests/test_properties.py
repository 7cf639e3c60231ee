"""Property-based checks of the package invariants.

The hypothesis profile registered in conftest is derandomized, so these
tests draw the same examples on every run.  Edge inputs that once broke
an invariant are pinned with @example.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pairtomo import (DegenerateInputError, EmptyDataError,
                      IllConditionedError, NonPhysicalMomentsError,
                      OptimizerConfig, ParamVector, PureQubit, SIC, TETRA,
                      ensemble_state, li_pipeline, ml_estimate)
from pairtomo.estimate import fold_params
from pairtomo.qstate import HALF_PI, TWO_PI, wrap_phase
from pairtomo.recon import eigh3

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
