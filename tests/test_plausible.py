import math

import numpy as np
import pytest
from scipy.special import gammaincc
from scipy.stats import kstest

from pairtomo import (EmptyDataError, OptimizerConfig, ParamVector,
                      asymptotics, ensemble_state, is_plausible, ml_estimate,
                      plausible, plausibility, plausibility_sweep,
                      sample_counts)
from pairtomo.estimate import _as_generator, log_likelihood
from pairtomo.plausible import LOG_ZERO, DegenerateSampleError, _chunk_children
from pairtomo.povm import get_povm
from pairtomo.qstate import HALF_PI, TWO_PI, prior_features, random_param_array

TRUTH = ParamVector.from_array([0.6, 1.0, 1.2, 4.0, 0.9])
LOG_MAX = math.log(np.finfo(float).max)
# the cap on log ratios of the theta_ML-anchored pass the sweep once ran
ML_ANCHOR_LOG_CAP = 300.0


def tetra_counts(n, seed=3):
    povm = get_povm("tetra")
    q = povm.probabilities(ensemble_state(TRUTH))
    rng = np.random.Generator(np.random.Philox(seed))
    return sample_counts(q, n, rng)


# --------------------------------------------------------------------------
# prior stream

def prior_chunks(seed, m, chunk_size, draw=random_param_array):
    """The sweep's prior draws, one `draw(rng, b)` per chunk in chunk order."""
    n_chunks = -(-m // chunk_size)
    for k, child in enumerate(_chunk_children(seed, n_chunks)):
        rng = np.random.Generator(np.random.Philox(child))
        yield draw(rng, min(chunk_size, m - k * chunk_size))


def test_chunk_children_replay_and_shapes():
    a = list(prior_chunks(17, 2500, 1000))
    b = list(prior_chunks(17, 2500, 1000))
    assert [x.shape for x in a] == [(1000, 5), (1000, 5), (500, 5)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    # chunk streams are keyed by index, not by iteration state: a different
    # chunk_size sees different groupings of new draws
    kids = _chunk_children(17, 3)
    assert [tuple(k.spawn_key) for k in kids] == [(0,), (1,), (2,)]
    # a stream's SeedSequence key is extended by the chunk index
    run = np.random.SeedSequence(17, spawn_key=(2, 4))
    kids = _chunk_children(run, 2)
    assert [tuple(k.spawn_key) for k in kids] == [(2, 4, 0), (2, 4, 1)]


def test_prior_distribution():
    rows = np.vstack(list(prior_chunks(8, 20000, 8192)))
    m = len(rows)
    # isotropy: each Bloch component has mean 0, variance 1/3
    for theta, phi in ((rows[:, 0], rows[:, 1]), (rows[:, 2], rows[:, 3])):
        bloch = np.column_stack([np.sin(2 * theta) * np.cos(phi),
                                 np.sin(2 * theta) * np.sin(phi),
                                 np.cos(2 * theta)])
        assert np.all(np.abs(bloch.mean(axis=0)) < 4 * math.sqrt(1 / (3 * m)))
        # cos(2 theta) uniform on [-1, 1] is the isotropic latitude law
        assert kstest(np.cos(2 * theta), "uniform", args=(-1, 2)).pvalue > 1e-3
        assert kstest(phi, "uniform", args=(0, TWO_PI)).pvalue > 1e-3
    assert kstest(rows[:, 4], "uniform", args=(0, HALF_PI)).pvalue > 1e-3


# --------------------------------------------------------------------------
# plausibility reports

def reference_report(counts, povm_name, theta_ml, m, seed, chunk_size):
    """Single-pass reference with the same chunk arithmetic: ratios to the
    saturated likelihood, with lambda_pl moved to theta_ML at the end."""
    povm = get_povm(povm_name)
    counts = np.asarray(counts, dtype=float)
    observed = counts[counts > 0]
    log_sat = observed @ np.log(observed / observed.sum())
    sum_lam = 0.0
    chunks = []
    for features in prior_chunks(seed, m, chunk_size, prior_features):
        qs = povm.moment_matrix @ features
        logq = np.where(qs > 0.0, np.log(np.maximum(qs, 1e-300)), LOG_ZERO)
        lam = np.exp(counts @ logq - log_sat)
        chunks.append(lam)
        sum_lam += lam.sum()
    lam_pl = sum_lam / m
    n_above = 0.0
    sum_above = 0.0
    for lam in chunks:
        above = lam[lam > lam_pl]
        n_above += above.size
        sum_above += above.sum()
    if sum_lam > 0.0:  # an all-zero sample has no threshold to move
        gap = log_sat - log_likelihood(theta_ml, counts, povm)
        with np.errstate(over="ignore"):
            # past log(float max) the factor overflows, not always lam_pl
            lam_pl = (lam_pl * np.exp(gap) if gap <= LOG_MAX
                      else np.exp(np.log(lam_pl) + gap))
    return lam_pl, n_above / m, sum_above / sum_lam


def ml_anchored_report(counts, povm_name, theta_ml, m, seed, chunk_size,
                       truth):
    """The same pass anchored at theta_ML, as the sweep once ran it: ratios
    L(theta)/L(theta_ML) capped at exp(ML_ANCHOR_LOG_CAP), and the truth's
    ratio to the threshold capped alike.  Returns (lambda_pl, size,
    credibility, truth plausible, largest log ratio, the truth's log
    ratio)."""
    povm = get_povm(povm_name)
    counts = np.asarray(counts, dtype=float)
    logl_ml = log_likelihood(theta_ml, counts, povm_name)
    sum_lam = 0.0
    max_log = -math.inf
    chunks = []
    for features in prior_chunks(seed, m, chunk_size, prior_features):
        qs = povm.moment_matrix @ features
        logq = np.where(qs > 0.0, np.log(np.maximum(qs, 1e-300)), LOG_ZERO)
        loglam = counts @ logq - logl_ml
        max_log = max(max_log, loglam.max())
        np.minimum(loglam, ML_ANCHOR_LOG_CAP, out=loglam)
        lam = np.exp(loglam)
        chunks.append(lam)
        sum_lam += lam.sum()
    lam_pl = sum_lam / m
    n_above = 0.0
    sum_above = 0.0
    for lam in chunks:
        above = lam[lam > lam_pl]
        n_above += above.size
        sum_above += above.sum()
    truth_log = log_likelihood(truth, counts, povm_name) - logl_ml
    plausible = math.exp(min(truth_log, ML_ANCHOR_LOG_CAP)) > lam_pl
    return (lam_pl, n_above / m, sum_above / sum_lam, plausible, max_log,
            truth_log)


def reference_chunk_stats(args):
    """One chunk of the sweep in a single pass over all its samples: the
    arithmetic of `plausible._chunk_stats` without the cache blocking."""
    child, b, povm_name, counts_mat, logl_ml, m = args
    povm = get_povm(povm_name)
    logq = povm.moment_matrix @ prior_features(_as_generator(child), b)
    positive = logq > 0.0
    np.maximum(logq, 1e-300, out=logq)
    np.log(logq, out=logq)
    logq[~positive] = LOG_ZERO
    out = np.empty((len(counts_mat), 3))
    cands = []
    for i in range(len(counts_mat)):
        loglam = counts_mat[i] @ logq
        loglam -= logl_ml[i]
        lam = np.exp(loglam, out=loglam)
        out[i] = (lam.sum(), float(lam @ lam), np.count_nonzero(lam))
        cands.append(lam[lam > out[i, 0] / m])
    return out, cands


def test_two_pass_streaming_matches_reference(monkeypatch):
    counts = tetra_counts(400)
    monkeypatch.setattr(plausible, "CHUNK", 1000)
    rep = plausibility(counts, "tetra", TRUTH, m=3000, seed=21)
    lam, size, cred = reference_report(counts, "tetra", TRUTH, 3000, 21, 1000)
    assert rep.lambda_pl == lam
    assert rep.size_pl == size
    assert rep.credibility_pl == cred
    assert rep.n_total == 400 and rep.m_samples == 3000
    assert 0 < rep.lambda_pl < 1
    assert 0 < rep.size_pl < 1
    assert 0 < rep.credibility_pl <= 1


def test_chunk_size_does_not_change_estimates_much(monkeypatch):
    # different chunk sizes regroup the same kind of draws; estimates agree
    # at the Monte Carlo scale set by the attached standard errors
    counts = tetra_counts(300)
    monkeypatch.setattr(plausible, "CHUNK", 60000)
    a = plausibility(counts, "tetra", TRUTH, m=60000, seed=31)
    monkeypatch.setattr(plausible, "CHUNK", 20000)
    b = plausibility(counts, "tetra", TRUTH, m=60000, seed=32)
    assert abs(a.lambda_pl - b.lambda_pl) < \
        6 * math.hypot(a.se_lambda_pl, b.se_lambda_pl)
    assert abs(a.size_pl - b.size_pl) < 6 * math.hypot(a.se_size, b.se_size)
    assert abs(a.credibility_pl - b.credibility_pl) < \
        6 * math.hypot(a.se_credibility, b.se_credibility)


def test_worker_count_invariance(monkeypatch):
    counts = tetra_counts(250)
    monkeypatch.setattr(plausible, "CHUNK", 1000)
    kw = dict(m=4000, seed=13)
    a = plausibility(counts, "tetra", TRUTH, workers=1, **kw)
    b = plausibility(counts, "tetra", TRUTH, workers=2, **kw)
    assert a == b


def test_pool_is_capped_at_the_cpu_count(monkeypatch):
    # --threads 5000 at m = 1e9 (10 000 chunks) would fork 5000 workers at
    # the first job.  The executor here is a recorder, so no process starts
    opened = []

    class Recorder:
        def __init__(self, workers):
            opened.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(plausible, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(plausible.os, "cpu_count", lambda: 2)
    with plausible._chunk_pool(5000, 10 ** 9) as pool:
        assert isinstance(pool, Recorder)
    assert opened == [2]
    # one CPU, or an unknown count, means one process: no pool
    for cpus in (1, None):
        monkeypatch.setattr(plausible.os, "cpu_count", lambda: cpus)
        with plausible._chunk_pool(5000, 10 ** 9) as pool:
            assert pool is None
    assert opened == [2]


def test_candidate_budget_overflow_replays_chunks(monkeypatch):
    # a tiny budget forces pruning and replays on the shared pool; the
    # reports must not change
    counts_list = [tetra_counts(30), tetra_counts(300), tetra_counts(3000)]
    monkeypatch.setattr(plausible, "CHUNK", 1000)
    kw = dict(m=6000, seed=4, workers=2)
    full = plausibility_sweep(counts_list, "tetra", [TRUTH] * 3, **kw)
    keep = plausible._keep_candidates
    replayed = []

    def spy(results, m):
        total, kept = keep(results, m)
        replayed.append(sum(cands is None for cands in kept))
        return total, kept

    monkeypatch.setattr(plausible, "CANDIDATE_BUDGET", 300)
    monkeypatch.setattr(plausible, "_keep_candidates", spy)
    assert plausibility_sweep(counts_list, "tetra", [TRUTH] * 3, **kw) == full
    assert 0 < replayed[0] < 6


def test_blocked_kernel_replays_match_whole_chunk(monkeypatch):
    # chunks of 1000 samples in blocks of 256 (three full blocks and a
    # tail), with a budget small enough that chunks are replayed: the
    # reports are those of whole-chunk blocks without replays
    counts_list = [tetra_counts(30), tetra_counts(300), tetra_counts(3000)]
    monkeypatch.setattr(plausible, "CHUNK", 1000)
    kw = dict(m=5000, seed=9, workers=1)
    whole = plausibility_sweep(counts_list, "tetra", [TRUTH] * 3, **kw)
    calls = []

    def spy(args):
        calls.append(args)
        return kernel(args)

    kernel = plausible._chunk_stats
    monkeypatch.setattr(plausible, "_BLOCK", 256)
    monkeypatch.setattr(plausible, "CANDIDATE_BUDGET", 300)
    monkeypatch.setattr(plausible, "_chunk_stats", spy)
    assert plausibility_sweep(counts_list, "tetra", [TRUTH] * 3, **kw) == whole
    assert len(calls) > 5  # five chunks, then at least one replay


def test_degenerate_sample_raises():
    # one prior draw against sharply peaked data: the ratio underflows to 0
    counts = tetra_counts(5000)
    with pytest.raises(DegenerateSampleError):
        plausibility(counts, "tetra", TRUTH, m=1, seed=0)


def test_prior_sampler_validation(monkeypatch):
    # the prior draw needs at least one sample
    counts = tetra_counts(50)
    with pytest.raises(ValueError):
        plausibility(counts, "tetra", TRUTH, m=0, seed=0)
    # m is a whole number, by the rule sample_counts applies to n
    monkeypatch.setattr(plausible, "CHUNK", 128)
    kw = dict(seed=3)
    rep = plausibility(counts, "tetra", TRUTH, m=300, **kw)
    assert plausibility(counts, "tetra", TRUTH, m=300.0, **kw) == rep
    assert plausibility(counts, "tetra", TRUTH, m=np.int64(300), **kw) == rep
    for bad in (2.5, math.nan, math.inf, "300", 2 ** 63, True):
        with pytest.raises(ValueError, match="m = .* whole number"):
            plausibility(counts, "tetra", TRUTH, m=bad, seed=0)


def test_sweep_validation():
    counts = tetra_counts(50)
    with pytest.raises(ValueError):
        plausibility_sweep([counts], "tetra", [TRUTH, TRUTH], m=10, seed=0)
    # an empty table raises as in every other estimator, even beside data
    with pytest.raises(EmptyDataError):
        plausibility_sweep([counts, np.zeros(10)], "tetra", [TRUTH, TRUTH],
                           m=10, seed=0)
    with pytest.raises(ValueError):
        plausibility(counts[:4], "tetra", TRUTH, m=10, seed=0)
    dark = ParamVector.from_array([0, 0, 0, 0, 0.3])
    sic_counts = np.zeros(9)
    sic_counts[0] = 3
    with pytest.raises(ValueError):
        plausibility(sic_counts, "sic", dark, m=10, seed=0)


def test_bad_reference_point_is_capped_not_overflowed(monkeypatch):
    # a reference far from the optimum makes many ratios to it exceed 1;
    # the pass's anchor at L_sat keeps the moment sums finite and the
    # report well defined
    counts = tetra_counts(2000)
    off = ParamVector.from_array([0.2, 0.1, 1.4, 3.0, 1.3])
    monkeypatch.setattr(plausible, "CHUNK", 512)
    rep = plausibility(counts, "tetra", off, m=2000, seed=2)
    assert math.isfinite(rep.lambda_pl) and rep.lambda_pl > 0
    assert math.isfinite(rep.se_lambda_pl)
    assert 0 <= rep.credibility_pl <= 1


def test_far_reference_point_is_not_capped():
    # all counts in one outcome, so log L_sat = 0, against the source as
    # theta_ML.  With 254 counts the source lies 712 below L_sat, and the
    # factor exp(712) overflows alone, but lambda_pl (the mean ratio to
    # theta_ML over the prior, about exp(404)) does not: no cap, no error.
    # With 500 counts lambda_pl itself overflows, and the sweep names
    # the checkpoint
    far = np.zeros(9)
    far[7] = 254
    best = ml_estimate(far, "sic", OptimizerConfig(max_evaluations=2000), 1)
    fitted = plausibility(far, "sic", best.params, m=1000, seed=0)
    assert 0.0 < fitted.lambda_pl < 1.0
    rep = plausibility(far, "sic", TRUTH, m=1000, seed=0)
    gap = log_likelihood(best.params, far, "sic") - log_likelihood(TRUTH, far,
                                                                   "sic")
    assert rep.lambda_pl == pytest.approx(fitted.lambda_pl * math.exp(gap),
                                          rel=1e-12)
    assert (rep.size_pl, rep.credibility_pl) == (fitted.size_pl,
                                                 fitted.credibility_pl)
    assert is_plausible(TRUTH, far, TRUTH, rep.lambda_pl, "sic") is False
    near = sample_counts(get_povm("sic").probabilities(ensemble_state(TRUTH)),
                         254, np.random.Generator(np.random.Philox(1)))
    far[7] = 500
    with pytest.raises(ValueError, match="checkpoint 1 overflows"):
        plausibility_sweep([near, far], "sic", [TRUTH, TRUTH], m=1000, seed=0)


def test_tiny_threshold_reports_no_error_bars():
    # all 400 counts in one outcome: lambda'_pl = L/L_sat averaged over the
    # prior is so small that the squares behind the error bars are
    # subnormal or 0.  lambda_pl, size and credibility keep the sweep's
    # arithmetic; both error bars are inf ("no usable error bar"), never 0
    counts = np.zeros(9)
    counts[7] = 400
    rep = plausibility(counts, "sic", TRUTH, m=1000, seed=0)
    assert (rep.lambda_pl, rep.size_pl, rep.credibility_pl) == \
        reference_report(counts, "sic", TRUTH, 1000, 0, plausible.CHUNK)
    # log L_sat = 0 here, so lambda'_pl = lambda_pl L(source)
    log_lam_prime = math.log(rep.lambda_pl) + log_likelihood(TRUTH, counts,
                                                             "sic")
    assert 2 * log_lam_prime < math.log(2.0 ** 53 * np.finfo(float).tiny)
    assert math.isfinite(rep.lambda_pl)
    assert rep.se_lambda_pl == rep.se_credibility == math.inf
    assert 0.0 < rep.se_size < 1.0


def test_is_plausible_is_uncapped_and_needs_a_finite_threshold():
    counts = np.zeros(9)
    counts[7] = 1000
    best = ml_estimate(counts, "sic", OptimizerConfig(max_evaluations=2000),
                       1)
    gap = (log_likelihood(best.params, counts, "sic")
           - log_likelihood(TRUTH, counts, "sic"))
    assert gap > LOG_MAX
    # L(best)/L(source) overflows a float, so it exceeds every finite
    # threshold
    assert is_plausible(best.params, counts, TRUTH, 1e300, "sic") is True
    assert is_plausible(TRUTH, counts, best.params, 1e-300, "sic") is False
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda_pl = .* not finite"):
            is_plausible(best.params, counts, TRUTH, bad, "sic")


def test_is_plausible_truth_for_its_own_data():
    counts = tetra_counts(600)
    rep = plausibility(counts, "tetra", TRUTH, m=20000, seed=6)
    # lambda(truth) = 1 when truth is the reference point, so any
    # threshold below 1 keeps it inside
    assert rep.lambda_pl < 1
    assert is_plausible(TRUTH, counts, TRUTH, rep.lambda_pl, "tetra") is True


def test_is_plausible_rejects_zero_likelihood_reference():
    dark = ParamVector.from_array([0, 0, 0, 0, 0.3])
    counts = np.zeros(9)
    counts[0] = 2
    with pytest.raises(ValueError):
        is_plausible(TRUTH, counts, dark, 0.5, "sic")


# --------------------------------------------------------------------------
# asymptotics

def test_asymptotics_against_incomplete_gamma():
    # the size prediction plus credibility bracket telescope into the
    # normalized upper incomplete gamma function Q(5/2, L)
    for lam in (1e-3, 1e-6, 1e-9, 1e-13, 1e-17):
        rep = asymptotics(1000, lam)
        big_l = -math.log(lam)
        assert rep.predicted_size == pytest.approx(
            lam * big_l ** 2.5 / math.gamma(3.5), rel=1e-13)
        assert rep.predicted_one_minus_credibility == pytest.approx(
            float(gammaincc(2.5, big_l)), rel=1e-12)
        assert rep.ratio_d is None


def test_asymptotics_ratio_d():
    rep = asymptotics(2000, 1e-8, size=2e-6, credibility=0.999999)
    big_l = -math.log(1e-8)
    bracket = 2e-6 * (2.5 / big_l + 3.75 / big_l ** 2) + math.erfc(math.sqrt(big_l))
    assert rep.ratio_d == pytest.approx((1 - 0.999999) / bracket, rel=1e-12)
    assert rep.n_total == 2000


def test_asymptotics_validation():
    with pytest.raises(ValueError):
        asymptotics(100, 0.0)
    with pytest.raises(ValueError):
        asymptotics(100, 1.0)
    with pytest.raises(ValueError):
        asymptotics(100, -0.5)
