import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from pairtomo import (EmptyDataError, OptimizerConfig, ParamVector, li_pipeline,
                      ml_estimate, ml_estimates, moment_features)
from pairtomo.estimate import (DiagnosticsReport, MlEstimate, _batch_objective,
                               fold_params, li_diagnostics, log_likelihood,
                               match_and_score, ml_decomposition,
                               remove_singlet)
from pairtomo.povm import get_povm
from pairtomo.qstate import (HALF_PI, TWO_PI, SymmetricTwoQubitState,
                             ensemble_state, random_param_array,
                             to_triplet_matrix)
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

def _reference_cma(objective, x0, sigma0, budget, tol, popsize, rng):
    """One sequential evolution-strategy run: (best_x, best_f, converged, evals)."""
    n = len(x0)
    mu = popsize // 2
    weights = math.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = weights / weights.sum()
    mueff = 1.0 / float(weights @ weights)
    cc = (4.0 + mueff / n) / (n + 4.0 + 2.0 * mueff / n)
    cs = (mueff + 2.0) / (n + mueff + 5.0)
    c1 = 2.0 / ((n + 1.3) ** 2 + mueff)
    cmu = min(1.0 - c1, 2.0 * (mueff - 2.0 + 1.0 / mueff) / ((n + 2.0) ** 2 + mueff))
    damps = 1.0 + 2.0 * max(0.0, math.sqrt((mueff - 1.0) / (n + 1.0)) - 1.0) + cs
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))

    mean = np.array(x0, dtype=float)
    sigma = float(sigma0)
    cov = np.eye(n)
    ps = np.zeros(n)
    pc = np.zeros(n)
    best_x = fold_params(mean)
    best_f = float(objective(best_x[None, :])[0])
    evals = 1
    hist = deque(maxlen=10 + math.ceil(30.0 * n / popsize))
    gen = 0
    while evals + popsize <= budget:
        gen += 1
        eigvals, basis = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, 1e-20)
        d = np.sqrt(eigvals)
        z = rng.standard_normal((popsize, n))
        y = z @ (basis * d).T
        x = mean + sigma * y
        xf = fold_params(x)
        f = objective(xf)
        evals += popsize
        order = np.argsort(f, kind="stable")
        if f[order[0]] < best_f:
            best_f = float(f[order[0]])
            best_x = xf[order[0]].copy()
        y_sel = y[order[:mu]]
        y_w = weights @ y_sel
        mean = mean + sigma * y_w
        inv_sqrt = (basis / d) @ basis.T
        ps = (1.0 - cs) * ps + math.sqrt(cs * (2.0 - cs) * mueff) * (inv_sqrt @ y_w)
        ps_norm = float(np.linalg.norm(ps))
        hsig = ps_norm / math.sqrt(1.0 - (1.0 - cs) ** (2.0 * gen)) / chi_n \
            < 1.4 + 2.0 / (n + 1.0)
        pc = (1.0 - cc) * pc + hsig * math.sqrt(cc * (2.0 - cc) * mueff) * y_w
        rank1 = np.outer(pc, pc) + (0.0 if hsig else cc * (2.0 - cc)) * cov
        rank_mu = y_sel.T @ (weights[:, None] * y_sel)
        cov = (1.0 - c1 - cmu) * cov + c1 * rank1 + cmu * rank_mu
        cov = 0.5 * (cov + cov.T)
        sigma *= math.exp((cs / damps) * (ps_norm / chi_n - 1.0))
        hist.append(best_f)
        if len(hist) == hist.maxlen and max(hist) - min(hist) < tol:
            return best_x, best_f, True, evals
        if sigma * math.sqrt(float(eigvals.max())) < 1e-13:
            return best_x, best_f, True, evals
    return best_x, best_f, False, evals


def reference_ml_estimate(counts, povm_name, opt):
    """Sequential oracle for ml_estimates: one fit, restarts one after another."""
    povm = get_povm(povm_name)
    counts = np.asarray(counts, dtype=float)
    active = counts > 0
    n_active = counts[active]
    w_active = povm.moment_matrix[active]

    def objective(rows):
        qs = moment_features(rows) @ w_active.T
        bad = (qs <= 0.0).any(axis=1)
        vals = -(np.log(np.maximum(qs, 1e-300)) @ n_active) / counts.sum()
        vals[bad] = np.inf
        return vals

    seed = opt.seed
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.Generator(np.random.Philox(
            seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)))
    budget = opt.max_evaluations // opt.restarts
    best_x, best_f, converged, total_evals = None, np.inf, False, 0
    for _ in range(opt.restarts):
        x0 = random_param_array(rng, 1)[0]
        x, fval, ok, used = _reference_cma(objective, x0, opt.sigma0, budget,
                                           opt.tol, opt.population, rng)
        total_evals += used
        converged = converged or ok
        if fval < best_f:
            best_f, best_x = fval, x
    return MlEstimate(ParamVector.from_array(best_x), float(best_f),
                      converged, total_evals)


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


def test_ml_estimates_rejects_a_shared_generator():
    # one Generator feeding two fits would interleave their draws
    counts = exact_counts(SOURCES[0], "sic", n=500)
    opt = OptimizerConfig(max_evaluations=240, restarts=1)
    g = np.random.Generator(np.random.Philox(3))
    with pytest.raises(ValueError, match="one Generator"):
        ml_estimates([counts, counts], "sic", opt, [g, g])
    with pytest.raises(ValueError, match="one Generator"):
        ml_estimates([counts, counts], "sic", replace(opt, seed=g))
    with pytest.raises(ValueError, match="2 seeds for 1 tables"):
        ml_estimates([counts], "sic", opt, [1, 2])
    # distinct generators, ints, SeedSequences and None behave as in lone fits
    a, b = ml_estimates([counts, counts], "sic", opt,
                        [np.random.Generator(np.random.Philox(5)),
                         np.random.Generator(np.random.Philox(5))])
    assert a == b == ml_estimate(counts, "sic", replace(opt, seed=5))
    ss = np.random.SeedSequence(9)
    a, b = ml_estimates([counts, counts], "sic", replace(opt, seed=ss))
    assert a == b == ml_estimate(counts, "sic", replace(opt, seed=ss))
    assert all(isinstance(e, MlEstimate)
               for e in ml_estimates([counts, counts], "sic", opt))
    assert ml_estimates([], "sic", opt) == []


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
