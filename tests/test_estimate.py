import math

import numpy as np
import pytest

from pairtomo import (EmptyDataError, OptimizerConfig, ParamVector, li_pipeline,
                      ml_estimate, moment_features)
from pairtomo.estimate import (DiagnosticsReport, MlEstimate, _batch_objective,
                               fidelity, fold_params, li_diagnostics,
                               log_likelihood, match_and_score,
                               ml_decomposition, remove_singlet)
from pairtomo.povm import get_povm
from pairtomo.qstate import (HALF_PI, TWO_PI, SymmetricTwoQubitState,
                             ensemble_state, to_triplet_matrix)
from pairtomo.recon import Decomposition, IllConditionedError

from conftest import oracle_probs, oracle_triplet

# param vectors with well-separated states and balanced-ish weights, so
# no pipeline routes to its degenerate branch
SOURCES = [
    ParamVector.from_any_angles(math.pi / 6, math.pi / 4, 2 * math.pi / 3,
                                math.pi / 2, math.pi / 6),
    ParamVector.from_array([math.pi / 12, math.pi / 4, 5 * math.pi / 12,
                            math.pi / 2, math.pi / 3]),
    ParamVector.from_array([0.6, 1.0, 1.2, 4.0, 0.9]),
    ParamVector.from_array([1.1, 5.9, 0.3, 2.2, 0.5]),
]


def exact_counts(params, povm_name, n=1_000_000):
    # noiseless data: expected counts are legal input for both pipelines
    return oracle_probs(params.to_array(), povm_name) * n


# --------------------------------------------------------------------------
# fold_params

def test_fold_identity_inside_box(rng):
    x = np.column_stack([rng.uniform(0, HALF_PI, 40),
                         rng.uniform(0, TWO_PI, 40),
                         rng.uniform(0, HALF_PI, 40),
                         rng.uniform(0, TWO_PI, 40),
                         rng.uniform(0, HALF_PI, 40)])
    np.testing.assert_array_equal(fold_params(x), x)


def test_fold_range_and_periods(rng):
    x = rng.uniform(-20, 20, size=(200, 5))
    f = fold_params(x)
    for j in (0, 2, 4):
        assert np.all((f[:, j] >= 0) & (f[:, j] <= HALF_PI))
        # triangle wave: period pi, mirror symmetric about pi/2
        np.testing.assert_allclose(fold_params(x + math.pi)[:, j], f[:, j],
                                   atol=1e-12)
        np.testing.assert_allclose(fold_params(math.pi - x)[:, j], f[:, j],
                                   atol=1e-12)
    for j in (1, 3):
        assert np.all((f[:, j] >= 0) & (f[:, j] < TWO_PI))
        np.testing.assert_allclose(fold_params(x + TWO_PI)[:, j], f[:, j],
                                   atol=1e-12)


def test_fold_continuous_at_edges():
    # reflect dims are continuous in the coordinate, wrap dims on the circle
    eps = 1e-9
    for edge in (0.0, HALF_PI, math.pi, TWO_PI):
        lo = fold_params(np.full(5, edge - eps))
        hi = fold_params(np.full(5, edge + eps))
        gap = np.abs(hi - lo)
        assert np.max(gap[[0, 2, 4]]) < 3 * eps
        circ = np.minimum(gap[[1, 3]], TWO_PI - gap[[1, 3]])
        assert np.max(circ) < 3 * eps


def test_fold_single_row_shape():
    out = fold_params([3.0, 7.0, -1.0, -1.0, 2.0])
    assert out.shape == (5,)
    np.testing.assert_allclose(out, fold_params([[3.0, 7.0, -1.0, -1.0, 2.0]])[0])


# --------------------------------------------------------------------------
# likelihood

@pytest.mark.parametrize("povm_name", ["sic", "tetra"])
def test_log_likelihood_matches_direct_sum(rng, povm_name):
    povm = get_povm(povm_name)
    for params in SOURCES:
        counts = rng.integers(0, 50, size=povm.n_outcomes).astype(float)
        probe = ParamVector.from_array(fold_params(rng.normal(size=5)))
        q = oracle_probs(probe.to_array(), povm_name)
        expect = float(np.sum(counts * np.log(q)))
        got = log_likelihood(probe, counts, povm_name)
        assert abs(got - expect) < 1e-9 * abs(expect)
        # array input means the same thing
        assert log_likelihood(probe.to_array(), counts, povm_name) == got


def test_log_likelihood_impossible_outcome():
    # both states at the pole: rho = |00><00|, SIC outcomes 0, 3, 6 are dark
    params = ParamVector.from_array([0, 0, 0, 0, 0.3])
    counts = np.zeros(9)
    counts[0] = 1
    assert log_likelihood(params, counts, "sic") == -math.inf
    counts = np.zeros(9)
    counts[1] = 5
    assert math.isfinite(log_likelihood(params, counts, "sic"))


def test_log_likelihood_rejects_bad_counts():
    params = SOURCES[0]
    with pytest.raises(ValueError):
        log_likelihood(params, np.ones(4), "sic")
    with pytest.raises(ValueError):
        log_likelihood(params, -np.ones(9), "sic")


def test_batch_objective_matches_log_likelihood(rng):
    povm = get_povm("tetra")
    counts = rng.integers(1, 30, size=10).astype(float)
    objective = _batch_objective(counts, povm)
    rows = fold_params(rng.normal(size=(20, 5)))
    vals = objective(rows)
    for row, val in zip(rows, vals):
        expect = -log_likelihood(row, counts, "tetra") / counts.sum()
        assert abs(val - expect) < 1e-12


# --------------------------------------------------------------------------
# optimizer

def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(population=3)
    with pytest.raises(ValueError):
        OptimizerConfig(sigma0=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(tol=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_evaluations=8, population=12)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)


@pytest.mark.parametrize("povm_name", ["sic", "tetra"])
def test_ml_noiseless_recovers_source(povm_name):
    truth = SOURCES[2]
    counts = exact_counts(truth, povm_name)
    est = ml_estimate(counts, povm_name, OptimizerConfig(seed=7))
    # the optimum of -log(L)/N for noiseless data is the source itself
    f_truth = -log_likelihood(truth, counts, povm_name) / counts.sum()
    assert est.objective <= f_truth + 1e-10
    dec = ml_decomposition(est)
    e0, e1, perr = match_and_score(truth, dec)
    assert e0 + e1 < 10.0  # ppm
    assert perr < 1e-4


def test_ml_requires_counts():
    with pytest.raises(EmptyDataError):
        ml_estimate(np.zeros(10), "tetra")


def test_ml_deterministic_for_fixed_seed():
    counts = exact_counts(SOURCES[0], "sic", n=500)
    opt = OptimizerConfig(max_evaluations=3000, seed=99)
    a = ml_estimate(counts, "sic", opt)
    b = ml_estimate(counts, "sic", opt)
    assert a.params == b.params
    assert a.objective == b.objective
    assert a.n_evaluations == b.n_evaluations
    assert isinstance(a, MlEstimate)
    # a SeedSequence seed is accepted and gives its own reproducible result
    ss = np.random.SeedSequence(99)
    c = ml_estimate(counts, "sic", OptimizerConfig(max_evaluations=3000, seed=ss))
    d = ml_estimate(counts, "sic", OptimizerConfig(
        max_evaluations=3000, seed=np.random.SeedSequence(99)))
    assert c.params == d.params


# --------------------------------------------------------------------------
# linear inversion

@pytest.mark.parametrize("povm_name", ["sic", "tetra"])
@pytest.mark.parametrize("method", ["xi", "moments"])
def test_li_noiseless_is_exact(povm_name, method):
    for truth in SOURCES:
        counts = exact_counts(truth, povm_name)
        dec = li_pipeline(counts, povm_name, method=method)
        assert not dec.degenerate
        e0, e1, perr = match_and_score(truth, dec)
        assert e0 + e1 < 1e-3  # ppm, so infidelity < 1e-9
        assert perr < 1e-9


def test_li_tetra_removes_singlet_admixture():
    truth = SOURCES[1]
    w = 0.23
    q = oracle_probs(truth.to_array(), "tetra")
    q_singlet = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1]) / 6.0
    counts = ((1 - w) * q + w * q_singlet) * 3_000_000
    for method in ("xi", "moments"):
        dec = li_pipeline(counts, "tetra", method=method)
        e0, e1, perr = match_and_score(truth, dec)
        assert e0 + e1 < 1e-3
        assert perr < 1e-9


def test_li_input_validation():
    with pytest.raises(EmptyDataError):
        li_pipeline(np.zeros(9), "sic")
    with pytest.raises(ValueError):
        li_pipeline(np.ones(9), "sic", method="newton")


def test_remove_singlet():
    truth = SOURCES[3]
    clean = ensemble_state(truth)
    w = 0.4
    mixed = SymmetricTwoQubitState((1 - w) * clean.s,
                                   (1 - w) * clean.c - w * np.eye(3))
    out = remove_singlet(mixed, w)
    np.testing.assert_allclose(out.s, clean.s, atol=1e-14)
    np.testing.assert_allclose(out.c, clean.c, atol=1e-14)
    assert abs(np.trace(out.c) - 1) < 1e-12
    with pytest.raises(IllConditionedError):
        remove_singlet(mixed, 1.0 - 1e-12)


# --------------------------------------------------------------------------
# scoring

def test_match_and_score_handles_label_swap():
    truth = SOURCES[0]
    swapped = Decomposition(truth.state1, truth.state0, truth.p1, truth.p0,
                            method="test")
    e0, e1, perr = match_and_score(truth, swapped)
    assert e0 < 1e-9 and e1 < 1e-9 and perr < 1e-12
    # a slightly rotated pair still pairs with the nearer true state
    near1 = ParamVector.from_any_angles(truth.theta1 + 0.01, truth.phi1,
                                        truth.theta0, truth.phi0, truth.alpha)
    dec = Decomposition(near1.state0, near1.state1, truth.p1, truth.p0,
                        method="test")
    e0, e1, _ = match_and_score(truth, dec)
    assert e0 < 1e-9  # the exact partner scores zero
    assert 0 < e1 < 200  # the rotated one, about (0.01 rad)^2 = 100 ppm


def test_fidelity_is_squared_overlap():
    a = SOURCES[0].state0
    b = SOURCES[0].state1
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-14)
    assert fidelity(a, b) == pytest.approx(a.overlap(b), abs=0)


# --------------------------------------------------------------------------
# diagnostics

def test_li_diagnostics_exact_reconstruction():
    m3 = oracle_triplet(SOURCES[0].to_array())
    rep = li_diagnostics(m3, m3)
    assert isinstance(rep, DiagnosticsReport)
    assert rep.hs_error_sq == 0.0 and rep.epsilon == 0.0
    assert not rep.ill_conditioned
    assert rep.overlap_lower_bound == 1.0
    assert rep.eigenvalues[0] <= rep.eigenvalues[1] <= rep.eigenvalues[2]
    # rank two: smallest eigenvalue vanishes
    assert abs(rep.eigenvalues[0]) < 1e-12


def test_li_diagnostics_bound_below_true_overlap(rng):
    for truth in SOURCES:
        m3 = oracle_triplet(truth.to_array())
        xi = li_diagnostics(m3, m3).null_vector
        for _ in range(25):
            z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = (z + z.conj().T) / 2
            h *= 0.01 / np.linalg.norm(h)
            rep = li_diagnostics(m3 + h, m3)
            assert abs(rep.hs_error_sq - np.sum(np.abs(h) ** 2)) < 1e-12
            overlap = abs(np.vdot(rep.null_vector, xi)) ** 2
            if not rep.ill_conditioned:
                assert rep.overlap_lower_bound <= overlap + 1e-12


def test_li_diagnostics_flags_negative_r1():
    est = np.diag([-0.5, -0.1, 1.6]).astype(complex)
    rep = li_diagnostics(est, np.diag([0.0, 0.2, 0.8]).astype(complex))
    assert rep.ill_conditioned
    assert rep.overlap_lower_bound == 0.0
