"""Property-based checks of the package invariants.

The hypothesis profile registered in conftest is derandomized, so these
tests draw the same examples on every run.  Edge inputs that once broke
an invariant are pinned with @example.
"""

import contextlib
import io
import json
import math
import pathlib
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pairtomo import (Decomposition, DegenerateInputError, EmptyDataError,
                      IllConditionedError, IllConditionedWarning,
                      NonPhysicalMomentsError, OptimizerConfig, ParamVector,
                      PureQubit, SIC, TETRA, ensemble_state, get_povm,
                      is_plausible, li_pipeline, ml_estimate, ml_estimates,
                      plausible)
from pairtomo.cli import RESULT_COLUMNS, main, render_table
from pairtomo.estimate import fold_params, log_likelihood
from pairtomo.plausible import (DegenerateSampleError, plausibility,
                                plausibility_sweep)
from pairtomo.qstate import (HALF_PI, TWO_PI, moment_features, prior_features,
                             random_param_array, to_triplet_matrix,
                             wrap_phase)
from pairtomo.recon import DEGENERACY_TOL, eigh3

from conftest import oracle_ket
from test_estimate import (reference_li_pipeline, reference_ml_estimate,
                           reference_triplet_state)
from test_plausible import (ML_ANCHOR_LOG_CAP, TRUTH, ml_anchored_report,
                            reference_chunk_stats, reference_report,
                            tetra_counts)
from test_recon import (reference_decompose_moments, reference_null_ket,
                        reference_probabilities_given_states,
                        reference_states_from_xi)

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
@example(-5e-324)
@example(-0.0)
@example(-TWO_PI)
@example(TWO_PI)
def test_wrap_phase_range(phi):
    wrapped = wrap_phase(phi)
    assert 0.0 <= wrapped < TWO_PI
    assert math.cos(wrapped) == pytest.approx(math.cos(phi), abs=1e-9)
    assert math.sin(wrapped) == pytest.approx(math.sin(phi), abs=1e-9)
    # a float takes the scalar path, an array np.mod: the same bits
    arrayed = wrap_phase(np.array([phi]))[0]
    assert wrapped == arrayed
    assert math.copysign(1.0, wrapped) == math.copysign(1.0, arrayed)


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
    overlap = abs(np.vdot(oracle_ket(psi.theta, psi.phi), amp / norm)) ** 2
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


def _li_outcome(li, counts, povm, method):
    """Result or (error type, message), and the warning categories."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = li(counts, povm, method)
        except DOCUMENTED_LI_ERRORS as exc:
            out = (type(exc), str(exc))
    return out, [w.category for w in caught]


@settings(max_examples=1000)
@given(count_tables(), st.sampled_from(["xi", "moments"]))
@example((SIC, np.array([0, 0, 446, 446, 446, 0, 669, 223, 446])), "xi")
@example((SIC, np.array([0, 0, 446, 446, 446, 0, 669, 223, 446])), "moments")
@example((TETRA, np.array([181, 181, 181, 0, 0, 0, 543, 0, 543, 543])), "xi")
@example((TETRA, np.array([181, 181, 181, 0, 0, 0, 543, 0, 543, 543])),
         "moments")
@example((SIC, np.zeros(9, dtype=int)), "xi")
@example((TETRA, np.zeros(10, dtype=int)), "moments")
def test_li_pipeline_matches_reference(table, method):
    # validating once and building states without the constructor's
    # checks leaves the results, errors and warnings as they were
    povm, counts = table
    assert (_li_outcome(li_pipeline, counts, povm, method)
            == _li_outcome(reference_li_pipeline, counts, povm.name, method))


def _numpy_recovery(counts, povm, method):
    """li_pipeline with the recovery steps of the numpy oracles."""
    counts = povm.validate_counts(counts)
    tol = max(1e-8, 4.0 / math.sqrt(counts.sum()))
    state = reference_triplet_state(counts, povm)
    if method == "moments":
        return reference_decompose_moments(state, tol)
    m3 = to_triplet_matrix(state)
    xi, w = reference_null_ket(m3)
    if w[1] - w[0] < DEGENERACY_TOL:
        warnings.warn("null ket is ill-determined", IllConditionedWarning)
    sa, sb, degenerate = reference_states_from_xi(xi)
    if not degenerate:
        try:
            p0, p1 = reference_probabilities_given_states(m3, sa, sb)
        except IllConditionedError:
            degenerate = True
    if degenerate:
        return Decomposition(sa, sb, 1.0, 0.0, degenerate=True, method="xi")
    return Decomposition.ordered(sa, sb, p0, p1, method="xi")


def _dyad_gap(counts, povm):
    """Gap between the top two eigenvalues of the moment dyad C - s s^T."""
    state = reference_triplet_state(counts, povm)
    w = np.linalg.eigvalsh(state.c - np.outer(state.s, state.s))
    return w[2] - w[1]


# the scalar recovery rounds differently from the numpy one; its error is
# below 4e-15 on well-separated states and grows with the conditioning
_SCALAR_TOL = 2e-14


@settings(max_examples=1000)
@given(count_tables(), st.sampled_from(["xi", "moments"]))
@example((SIC, np.array([0, 0, 446, 446, 446, 0, 669, 223, 446])), "xi")
@example((TETRA, np.array([181, 181, 181, 0, 0, 0, 543, 0, 543, 543])),
         "moments")
@example((SIC, np.array([1, 1, 1, 0, 0, 0, 0, 0, 0])), "xi")
@example((TETRA, np.array([0, 0, 0, 414, 0, 0, 0, 0, 0, 0])), "moments")
@example((TETRA, np.array([0, 6, 0, 0, 0, 2, 0, 0, 2, 0])), "moments")
def test_scalar_recovery_matches_numpy_reference(table, method):
    # same errors, flags and warnings as the numpy recovery; states and p0
    # within _SCALAR_TOL scaled by 1/(1 - F) (F the overlap of the two
    # states) on the null-ket route, by 1/(eigen-gap of the dyad) on the
    # moment route
    povm, counts = table
    got, got_warnings = _li_outcome(li_pipeline, counts, povm, method)
    want, want_warnings = _li_outcome(_numpy_recovery, counts, povm, method)
    assert got_warnings == want_warnings
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got[0] is want[0]
        return
    assert (got.degenerate, got.clamped, got.method) == (
        want.degenerate, want.clamped, want.method)
    if method == "xi":
        scale = 1.0 / (1.0 - min(want.state0.overlap(want.state1),
                                 1.0 - 1e-15))
    else:
        scale = 1.0 / min(1.0, max(_dyad_gap(counts, povm), 1e-15))
    # p0 = p1 within rounding may order the states either way
    err = min(max(np.max(np.abs(got.state0.bloch - x0.bloch)),
                  np.max(np.abs(got.state1.bloch - x1.bloch)),
                  abs(got.p0 - p))
              for x0, x1, p in ((want.state0, want.state1, want.p0),
                                (want.state1, want.state0, want.p1)))
    assert err <= _SCALAR_TOL * scale


@given(count_tables(min_total=1))
def test_ml_estimate_returns_parameters(table):
    povm, counts = table
    opt = OptimizerConfig(max_evaluations=240, restarts=1)
    est = ml_estimate(counts, povm, opt, seed=0)
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
        assert fit == reference_ml_estimate(counts, povm.name, opt, seed)
    assert ml_estimates(tables[::-1], povm, opt, seeds[::-1]) == fits[::-1]
    assert ml_estimate(tables[0], povm, opt, seeds[0]) == fits[0]


@settings(max_examples=60)
@given(small_tables(), st.integers(1, 4000), st.integers(1, 4000),
       st.integers(0, 2 ** 32))
@example((TETRA, np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0])), 3000, 100, 0)
@example((SIC, np.array([0, 0, 0, 0, 2000, 0, 0, 0, 0])), 5, 2, 1)
@example((TETRA, np.array([0, 0, 3, 0, 0, 0, 0, 0, 0, 0])), 1, 1, 0)
@example((SIC, np.array([0, 0, 0, 0, 0, 0, 0, 254, 0])), 1, 1, 0)
@example((SIC, np.array([0, 0, 0, 0, 0, 0, 0, 500, 0])), 1000, 1000, 0)
def test_plausibility_sweep_matches_reference(table, m, chunk_size, seed):
    # small N puts most samples above the chunk cut; large N almost none
    assume(m <= 64 * chunk_size)
    povm, counts = table
    with np.errstate(invalid="ignore"):
        ref = reference_report(counts, povm.name, TRUTH, m, seed, chunk_size)
    try:
        with mock.patch.object(plausible, "CHUNK", chunk_size):
            rep, = plausibility_sweep([counts], povm, [TRUTH], m, seed,
                                      workers=1)
    except DegenerateSampleError:
        assert ref[0] == 0.0
        return
    except ValueError as exc:
        # the source is no ML point for every table: a threshold beyond
        # the float range is refused, not capped (the first example above
        # scales by a factor beyond the float range, the second overflows)
        assert ref[0] == math.inf and "overflows" in str(exc)
        return
    assert (rep.lambda_pl, rep.size_pl, rep.credibility_pl) == ref


@settings(max_examples=60)
@given(small_tables(), st.one_of(st.just(TRUTH), params),
       st.integers(1, 4000), st.integers(1, 4000), st.integers(0, 2 ** 32))
@example((TETRA, tetra_counts(400)), TRUTH, 3000, 1000, 21)
def test_data_anchor_matches_ml_anchor(table, theta_ml, m, chunk_size, seed):
    # anchoring the prior pass at the saturated likelihood instead of
    # theta_ML moves lambda_pl by rounding alone, wherever the old cap on
    # log ratios did not bind and lambda_pl / (L_sat / L(theta_ML)) is far
    # above the float range's bottom, where underflow loses digits
    assume(m <= 64 * chunk_size)
    povm, counts = table
    logl_ml = log_likelihood(theta_ml, counts, povm)
    assume(math.isfinite(logl_ml))
    observed = counts[counts > 0].astype(float)
    log_sat = float(observed @ np.log(observed / observed.sum()))
    with np.errstate(invalid="ignore"):
        lam, size, cred, inside, max_log, truth_log = ml_anchored_report(
            counts, povm.name, theta_ml, m, seed, chunk_size, TRUTH)
    assume(max(max_log, truth_log) < ML_ANCHOR_LOG_CAP)
    assume(lam > 0.0 and math.log(lam) - (log_sat - logl_ml) > -600.0)
    with mock.patch.object(plausible, "CHUNK", chunk_size):
        rep, = plausibility_sweep([counts], povm, [theta_ml], m, seed,
                                  workers=1)
    assert rep.lambda_pl == pytest.approx(lam, rel=1e-12, abs=0.0)
    assert rep.credibility_pl == pytest.approx(cred, rel=0.0, abs=1e-12)
    assert rep.size_pl == size
    assert is_plausible(TRUTH, counts, theta_ml, rep.lambda_pl,
                        povm) == inside


@settings(max_examples=40)
@given(st.integers(1, 3000), st.integers(0, 2 ** 64 - 1))
@example(1, 0)
def test_prior_features_agree_with_the_angle_route(b, seed):
    # the direct feature draw and features of the angle draw see the same
    # uniforms and leave the generator in the same state
    rng = np.random.Generator(np.random.Philox(seed))
    twin = np.random.Generator(np.random.Philox(seed))
    features = prior_features(rng, b)
    assert features.shape == (10, b) and features.flags.c_contiguous
    np.testing.assert_allclose(
        features, moment_features(random_param_array(twin, b)).T,
        rtol=0, atol=2e-15)
    assert rng.random() == twin.random()


@st.composite
def sweep_tables(draw):
    """1-6 tables of one measurement with 1 <= N <= 400, and a reordering."""
    povm = draw(povms)
    k = draw(st.integers(1, 6))
    tables = []
    for _ in range(k):
        n = draw(st.integers(1, 400))
        cuts = draw(st.lists(st.integers(0, n), min_size=povm.n_outcomes - 1,
                             max_size=povm.n_outcomes - 1))
        tables.append(np.diff([0, *sorted(cuts), n]))
    order = draw(st.permutations(range(k)))
    return povm, tables, order


@settings(max_examples=40)
@given(sweep_tables(), st.integers(1, 3000), st.integers(1, 1500),
       st.integers(0, 2 ** 32))
@example((TETRA, [tetra_counts(100), tetra_counts(100) + tetra_counts(150, 4)],
          [1, 0]), 2000, 512, 9)
def test_sweep_checkpoints_are_independent(batch, m, chunk_size, seed):
    # a checkpoint's report does not depend on which other tables share
    # the sweep, nor on their order: the kernel takes one product per
    # table, where a stacked counts @ logq product would round with the
    # number of tables
    povm, tables, order = batch
    kw = dict(workers=1)
    thetas_ml = [TRUTH] * len(tables)
    singles = []
    with mock.patch.object(plausible, "CHUNK", chunk_size):
        for counts in tables:
            try:
                singles.append(plausibility(counts, povm, TRUTH, m, seed,
                                            **kw))
            except DegenerateSampleError:
                with pytest.raises(DegenerateSampleError):
                    plausibility_sweep(tables, povm, thetas_ml, m, seed, **kw)
                return
        reps = plausibility_sweep(tables, povm, thetas_ml, m, seed, **kw)
        assert reps == singles
        # the source is the reference point: lambda(source) = 1
        assert all(is_plausible(TRUTH, counts, TRUTH, rep.lambda_pl, povm)
                   == (rep.lambda_pl < 1.0)
                   for counts, rep in zip(tables, singles))
        shuffled = [tables[i] for i in order]
        assert (plausibility_sweep(shuffled, povm, thetas_ml, m, seed, **kw)
                == [singles[i] for i in order])


@st.composite
def chunk_tasks(draw):
    """A block size and one chunk's kernel arguments: b of one sample,
    under one block, whole blocks or whole blocks plus a tail, and 1-6
    tables of one measurement with N up to 20000, where most ratios
    underflow.  Each anchor is the table's log L_sat plus a non-negative
    offset, as the kernel requires: at or above log L_sat, so that no
    ratio exceeds 1 beyond rounding."""
    block = draw(st.sampled_from([64, 256, 4096]))
    shape = draw(st.sampled_from(["one", "under", "whole", "tail"]))
    if shape == "one":
        b = 1
    elif shape == "under":
        b = draw(st.integers(1, block - 1))
    else:
        b = block * draw(st.integers(1, 3))
        if shape == "tail":
            b += draw(st.integers(1, block - 1))
    povm = draw(povms)
    tables = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 20000))
        cuts = draw(st.lists(st.integers(0, n), min_size=povm.n_outcomes - 1,
                             max_size=povm.n_outcomes - 1))
        tables.append(np.diff([0, *sorted(cuts), n]).astype(float))
    log_sat = [n @ np.log(n / n.sum()) for n in (c[c > 0] for c in tables)]
    offsets = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
                            min_size=len(tables), max_size=len(tables)))
    anchors = np.add(log_sat, offsets)
    child = np.random.SeedSequence(draw(st.integers(0, 2 ** 32)))
    m = draw(st.integers(b, 4 * b))
    return block, (child, b, povm.name, np.array(tables), anchors, m)


@settings(max_examples=80)
@given(chunk_tasks())
def test_chunk_kernel_matches_whole_chunk_reference(task):
    # blocking the chunk changes no bit: the same uniforms, per-sample
    # arithmetic, and sums over whole chunk rows
    block, args = task
    with mock.patch.object(plausible, "_BLOCK", block):
        out, cands = plausible._chunk_stats(args)
    ref_out, ref_cands = reference_chunk_stats(args)
    assert out.tobytes() == ref_out.tobytes()
    assert len(cands) == len(ref_cands)
    for c, r in zip(cands, ref_cands):
        assert c.tobytes() == r.tobytes()


# --------------------------------------------------------------------------
# the command line's result-table boundary

def _run_cli(argv):
    """Exit code and stderr of one `pairtomo` invocation."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


@st.composite
def simulate_configs(draw):
    """Small plausibility configs whose schedule starts at N = 1."""
    steps = draw(st.lists(st.integers(1, 60), max_size=3))
    n_schedule = [1]
    for step in steps:
        n_schedule.append(n_schedule[-1] + step)
    population = draw(st.integers(4, 10))
    return {
        "povm": draw(st.sampled_from(["sic", "tetra"])),
        "source": {"theta": draw(st.tuples(thetas, phis, thetas, phis,
                                           thetas).map(list))},
        "n_schedule": n_schedule,
        "runs": draw(st.integers(1, 2)),
        "estimators": ["ml"],
        "optimizer": {"population": population,
                      "max_evaluations": draw(st.integers(population, 300)),
                      "restarts": draw(st.integers(1, 2))},
        "plausibility": {"enabled": True, "m": draw(st.integers(1, 1000)),
                         "checkpoints": []},
        "master_seed": draw(st.integers(0, 2 ** 32)),
        "output": {"format": draw(st.sampled_from(["csv", "json"]))},
    }


@pytest.mark.filterwarnings("ignore::pairtomo.IllConditionedWarning")
@settings(max_examples=15)
@given(simulate_configs())
def test_asymptotics_accepts_what_simulate_writes(tmp_path_factory, cfg):
    # N = 1 gives log N = 0, and a poor fit can put lambda_pl at or above
    # 1: both must still give a rescaled table, not a runtime failure
    out = tmp_path_factory.mktemp("sim")
    cfg["output"]["path"] = str(out)
    path = out / "config.json"
    path.write_text(json.dumps(cfg))
    rc, err = _run_cli(["simulate", "--config", str(path), "--threads", "1"])
    if rc == 1:
        # a prior sample with no support is a documented runtime failure
        assert "DegenerateSampleError" in err
        return
    assert rc == 0, err
    results = out / f"results.{cfg['output']['format']}"
    rc, err = _run_cli(["asymptotics", str(results), "--out", str(out)])
    assert rc == 0, err


def _readme_config():
    """The example config of the README's config schema section."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```json\n(.*?)```", readme.read_text(), re.S)
    return json.loads(block.group(1))


# documented runtime failures of `simulate`: the CLI's exit 1
DOCUMENTED_SIMULATE_ERRORS = ("NonPhysicalMomentsError", "DegenerateInputError",
                              "IllConditionedError", "DegenerateSampleError")

odd_json = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
    st.text(max_size=4), st.lists(st.integers(-2, 2), max_size=2),
    st.sampled_from(["", "1", "sic", "ml", "1e400"]))
bloch = st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=4)
unit_bloch = st.tuples(thetas, phis).map(
    lambda a: [math.sin(2 * a[0]) * math.cos(a[1]),
               math.sin(2 * a[0]) * math.sin(a[1]), math.cos(2 * a[0])])
# field -> values that read as config values; every count and budget is
# small, so that no mutation asks for a long run
CONFIG_VALUES = {
    ("povm",): st.sampled_from(["sic", "tetra", "SIC", "pauli"]),
    ("source",): st.one_of(
        st.fixed_dictionaries({"theta": st.lists(
            st.floats(-10.0, 10.0), min_size=4, max_size=6)}),
        st.fixed_dictionaries({"a_bloch": st.one_of(unit_bloch, bloch),
                               "b_bloch": unit_bloch,
                               "p0": st.floats(-0.5, 1.5)})),
    ("source", "theta"): st.tuples(*[st.floats()] * 5).map(list),
    ("n_schedule",): st.lists(st.one_of(
        st.integers(-1, 3000), st.floats(0.0, 3000.0),
        st.sampled_from([2 ** 62, 2 ** 63 - 1, 2 ** 63, 2 ** 64])),
        max_size=4),
    ("runs",): st.integers(-1, 2),
    ("estimators",): st.lists(st.sampled_from(
        ["li-xi", "li-moments", "ml", "mle"]), max_size=4),
    ("optimizer",): st.sampled_from([True, 1, -2, 0.5, math.nan, "x", [0],
                                     [], 0, "", False, None]),
    ("optimizer", "population"): st.one_of(st.integers(-1, 16),
                                           st.floats(3.5, 16.0)),
    ("optimizer", "sigma0"): st.floats(),
    ("optimizer", "max_evaluations"): st.one_of(st.integers(-1, 300),
                                                st.floats(0.0, 300.0)),
    ("optimizer", "tol"): st.floats(),
    ("optimizer", "restarts"): st.one_of(st.integers(-1, 2),
                                         st.floats(0.0, 2.5)),
    ("plausibility",): odd_json,
    ("plausibility", "enabled"): st.one_of(
        st.booleans(), st.sampled_from(["false", "no", "true", 0, 1, None])),
    ("plausibility", "m"): st.one_of(st.integers(-1, 1000),
                                     st.floats(0.0, 1000.0)),
    ("plausibility", "checkpoints"): st.one_of(
        st.lists(st.sampled_from([100, 200, 500, 1000, 7, 150.0]),
                 max_size=3),
        st.sampled_from([None, 0, False, 100, "100", {}])),
    ("master_seed",): st.one_of(st.integers(-1, 2 ** 70), st.floats()),
    ("output",): odd_json,
    ("output", "format"): st.sampled_from(["csv", "json", "xml"]),
    # a drawn string is replaced by the test's own directory
    ("output", "path"): st.one_of(st.text(max_size=4), st.integers(-2, 5),
                                  st.booleans(), st.none(),
                                  st.lists(st.text(max_size=2), max_size=2)),
}
# fields whose default budget (20000 evaluations, 5 restarts, 1e7 prior
# samples) would make one example take minutes: never dropped
KEEP_FIELDS = {("optimizer",), ("optimizer", "max_evaluations"),
               ("optimizer", "restarts"), ("plausibility", "m")}


def _small_readme_config(**fields):
    """The README example with its budgets cut (2 runs, 300 evaluations,
    m = 1000) and the given top-level fields replaced."""
    cfg = _readme_config()
    cfg["runs"] = 2
    cfg["optimizer"].update(max_evaluations=300, restarts=1)
    cfg["plausibility"]["m"] = 1000
    cfg.update(fields)
    return cfg


@st.composite
def readme_configs(draw):
    """The cut README example with one to three fields dropped, added or
    replaced."""
    cfg = _small_readme_config()
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(sorted(CONFIG_VALUES)))
        *parents, key = path
        node = cfg
        for name in parents:
            node = node.get(name) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue  # an earlier mutation replaced the section
        action = draw(st.sampled_from(["drop", "add", "odd", "value"]))
        if action == "drop" and path not in KEEP_FIELDS:
            node.pop(key, None)
        elif action == "add":
            node["extra"] = draw(odd_json)
        elif action == "odd" and path not in KEEP_FIELDS:
            node[key] = draw(odd_json)
        else:
            node[key] = draw(CONFIG_VALUES[path])
    return cfg


@pytest.mark.filterwarnings("ignore::pairtomo.IllConditionedWarning")
@settings(max_examples=150)
@given(readme_configs())
@example(_small_readme_config(n_schedule=[100, 2 ** 64]))
@example(_small_readme_config(n_schedule=[100, 2 ** 63 - 1]))
@example(_small_readme_config(optimizer={"population": 6.0, "restarts": 1.0,
                                         "max_evaluations": 120.0}))
def test_simulate_exits_0_2_or_documented_1(tmp_path_factory, cfg):
    # any config near the README example runs, is refused as a usage
    # error, or fails with a documented runtime error
    out = tmp_path_factory.mktemp("cfg")
    if (isinstance(cfg.get("output"), dict)
            and isinstance(cfg["output"].get("path", ""), str)):
        cfg["output"]["path"] = str(out)
    path = out / "config.json"
    path.write_text(json.dumps(cfg))
    rc, err = _run_cli(["simulate", "--config", str(path), "--threads", "1"])
    if rc == 1:
        assert any(name in err for name in DOCUMENTED_SIMULATE_ERRORS), err
    else:
        assert rc in (0, 2), err


json_cells = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), st.floats(),
    st.text(max_size=8), st.lists(st.integers(), max_size=2),
    st.sampled_from(["", "1", "-3", "1e400", "nan", "0.5", "1.0"]))
csv_cells = st.one_of(
    st.text(max_size=8), st.integers(-2 ** 70, 2 ** 70).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "1", "-3", "9" * 30, "1e400", "nan", "inf", "0.5",
                     "1.0", "5e-324", "true"]))
NUMERIC_COLUMNS = ("run", "n", "lambda_pl", "size", "credibility")


@st.composite
def result_tables(draw):
    """CSV or JSON result tables with arbitrary cells in the columns that
    asymptotics reads."""
    fmt = draw(st.sampled_from(["csv", "json"]))
    cells = json_cells if fmt == "json" else csv_cells
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = dict.fromkeys(RESULT_COLUMNS)
        row.update({c: draw(cells) for c in NUMERIC_COLUMNS})
        rows.append(row)
    return fmt, rows


def _table_row(run, n, lambda_pl, size, credibility):
    row = dict.fromkeys(RESULT_COLUMNS)
    row.update(run=run, n=n, lambda_pl=lambda_pl, size=size,
               credibility=credibility)
    return row


@settings(max_examples=200)
@given(result_tables())
@example(("csv", [_table_row(0, 1, 0.3, 0.2, 0.9)]))
@example(("json", [_table_row(0, 1, 0.3, 0.2, 0.9)]))
@example(("csv", [_table_row(0, 50, 5e-324, 0.0, 1.0)]))
@example(("csv", [_table_row(0, 50, 1.0, 0.0, 1.0),
                  _table_row(0, 60, 0.0, 0.0, 0.0)]))
@example(("csv", [_table_row(0, "", 0.3, 0.2, 0.9)]))
@example(("json", [_table_row(True, 10, 0.3, 0.2, 0.9)]))
@example(("json", [_table_row(0, 10 ** 300, 0.3, 0.2, 0.9)]))
@example(("json", [_table_row(0, 10, 10 ** 400, 0.2, 0.9)]))
def test_asymptotics_exits_0_or_2_on_any_cells(tmp_path_factory, table):
    # every result table either rescales or is refused as a usage error
    fmt, rows = table
    path = tmp_path_factory.mktemp("table") / f"results.{fmt}"
    if fmt == "json":
        path.write_text(json.dumps({"columns": list(RESULT_COLUMNS),
                                    "rows": rows}))
    else:
        path.write_text(render_table(RESULT_COLUMNS, rows, "csv"), newline="")
    rc, err = _run_cli(["asymptotics", str(path), "--out", str(path.parent)])
    assert rc in (0, 2), err


# --------------------------------------------------------------------------
# the command line's counts-file boundary

GOOD_HEADERS = ("outcome,count", "Outcome, COUNT", " outcome ,count,note")
BAD_HEADERS = ("count,outcome", "outcome", "outcome;count", "")
odd_cells = st.one_of(
    st.integers(-50, -1).map(str), st.integers(2 ** 63 - 1, 2 ** 64).map(str),
    st.sampled_from(["", "1.5", "2e3", " 7 ", "x", "-0", "nan", "+3"]))


@st.composite
def counts_csvs(draw):
    """Counts CSVs for `estimate`: a well-formed table under a header
    variant, with at most one defect: a bad header, an odd count cell, or
    outcome rows dropped, duplicated or reordered."""
    povm = draw(povms)
    counts = draw(st.lists(st.integers(0, 2000), min_size=povm.n_outcomes,
                           max_size=povm.n_outcomes))
    rows = [[name, str(n)] for name, n in zip(povm.outcome_names, counts)]
    header = draw(st.sampled_from(GOOD_HEADERS))
    defect = draw(st.sampled_from(["none", "header", "cell", "drop",
                                   "duplicate", "reorder"]))
    k = draw(st.integers(0, len(rows) - 1))
    if defect == "header":
        header = draw(st.sampled_from(BAD_HEADERS))
    elif defect == "cell":
        rows[k][1] = draw(odd_cells)
    elif defect == "drop":
        del rows[k]
    elif defect == "duplicate":
        rows.insert(k, list(rows[k]))
    elif defect == "reorder":
        rows = draw(st.permutations(rows))
    text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
    return povm.name, text, draw(st.sampled_from(["li-xi", "li-moments"]))


def _counts_csv(povm, counts, estimator="li-xi"):
    rows = zip(get_povm(povm).outcome_names, counts)
    return (povm, "outcome,count\n" + "".join(f"{n},{c}\n" for n, c in rows),
            estimator)


@pytest.mark.filterwarnings("ignore::pairtomo.IllConditionedWarning")
@settings(max_examples=120)
@given(counts_csvs())
@example(_counts_csv("sic", [0] * 9))
@example(_counts_csv("sic", [0, 0, 446, 446, 446, 0, 669, 223, 446],
                     "li-moments"))
@example(_counts_csv("tetra", [181, 181, 181, 0, 0, 0, 543, 0, 543, 543]))
@example(_counts_csv("tetra", [2 ** 62] * 10))
@example(_counts_csv("sic", [1, 2, 3, 4, 5, 6, 7, 8, 2 ** 63]))
@example(_counts_csv("sic", [1, 0, 0, 0, 0, 0, 0, 0, 0], "li-moments"))
@example(_counts_csv("tetra", [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]))
def test_estimate_exits_0_2_or_documented_1(tmp_path_factory, table):
    # any counts file either estimates, is refused as a usage error, or
    # fails with a documented linear-inversion error
    povm, text, estimator = table
    path = tmp_path_factory.mktemp("counts") / "counts.csv"
    path.write_text(text)
    rc, err = _run_cli(["estimate", str(path), "--povm", povm,
                        "--estimator", estimator])
    if rc == 1:
        assert any(name in err for name in ("NonPhysicalMomentsError",
                                            "DegenerateInputError",
                                            "IllConditionedError")), err
    else:
        assert rc in (0, 2), err
