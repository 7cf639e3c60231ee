import math

import numpy as np
import pytest
from scipy.special import gammaincc
from scipy.stats import kstest

from pairtomo import (EmptyDataError, ParamVector, asymptotics,
                      ensemble_state, is_plausible, plausible, plausibility,
                      plausibility_sweep, sample_counts)
from pairtomo.estimate import _as_generator, log_likelihood
from pairtomo.plausible import (LOG_CAP, LOG_ZERO, DegenerateSampleError,
                                _chunk_children)
from pairtomo.povm import get_povm
from pairtomo.qstate import HALF_PI, TWO_PI, prior_features, random_param_array

TRUTH = ParamVector.from_array([0.6, 1.0, 1.2, 4.0, 0.9])


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
    """Single-pass reference with the same chunk arithmetic."""
    povm = get_povm(povm_name)
    counts = np.asarray(counts, dtype=float)
    logl_ml = log_likelihood(theta_ml, counts, povm_name)
    sum_lam = 0.0
    chunks = []
    for features in prior_chunks(seed, m, chunk_size, prior_features):
        qs = povm.moment_matrix @ features
        logq = np.where(qs > 0.0, np.log(np.maximum(qs, 1e-300)), LOG_ZERO)
        loglam = counts @ logq - logl_ml
        np.minimum(loglam, LOG_CAP, out=loglam)
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
    return lam_pl, n_above / m, sum_above / sum_lam


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
        np.minimum(loglam, LOG_CAP, out=loglam)
        lam = np.exp(loglam, out=loglam)
        out[i] = (lam.sum(), float(lam @ lam), np.count_nonzero(lam))
        cands.append(lam[lam > out[i, 0] / m])
    return out, cands


def test_two_pass_streaming_matches_reference():
    counts = tetra_counts(400)
    rep = plausibility(counts, "tetra", TRUTH, m=3000, seed=21, chunk_size=1000)
    lam, size, cred = reference_report(counts, "tetra", TRUTH, 3000, 21, 1000)
    assert rep.lambda_pl == lam
    assert rep.size_pl == size
    assert rep.credibility_pl == cred
    assert rep.n_total == 400 and rep.m_samples == 3000
    assert 0 < rep.lambda_pl < 1
    assert 0 < rep.size_pl < 1
    assert 0 < rep.credibility_pl <= 1


def test_chunk_size_does_not_change_estimates_much():
    # different chunk sizes regroup the same kind of draws; estimates agree
    # at the Monte Carlo scale set by the attached standard errors
    counts = tetra_counts(300)
    a = plausibility(counts, "tetra", TRUTH, m=60000, seed=31, chunk_size=60000)
    b = plausibility(counts, "tetra", TRUTH, m=60000, seed=32, chunk_size=20000)
    assert abs(a.lambda_pl - b.lambda_pl) < \
        6 * math.hypot(a.se_lambda_pl, b.se_lambda_pl)
    assert abs(a.size_pl - b.size_pl) < 6 * math.hypot(a.se_size, b.se_size)
    assert abs(a.credibility_pl - b.credibility_pl) < \
        6 * math.hypot(a.se_credibility, b.se_credibility)


def test_worker_count_invariance():
    counts = tetra_counts(250)
    kw = dict(m=4000, seed=13, chunk_size=1000, truth=TRUTH)
    a = plausibility(counts, "tetra", TRUTH, workers=1, **kw)
    b = plausibility(counts, "tetra", TRUTH, workers=2, **kw)
    assert a == b


def test_candidate_budget_overflow_replays_chunks(monkeypatch):
    # a tiny budget forces pruning and replays on the shared pool; the
    # reports must not change
    counts_list = [tetra_counts(30), tetra_counts(300), tetra_counts(3000)]
    kw = dict(m=6000, seed=4, chunk_size=1000, truth=TRUTH, workers=2)
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
    kw = dict(m=5000, seed=9, chunk_size=1000, truth=TRUTH, workers=1)
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


def test_prior_sampler_validation():
    # the prior draw needs at least one sample and a positive chunk size
    counts = tetra_counts(50)
    with pytest.raises(ValueError):
        plausibility(counts, "tetra", TRUTH, m=0, seed=0)
    with pytest.raises(ValueError):
        plausibility(counts, "tetra", TRUTH, m=10, seed=0, chunk_size=0)
    # both are whole numbers, by the rule sample_counts applies to n
    kw = dict(seed=3, chunk_size=128)
    rep = plausibility(counts, "tetra", TRUTH, m=300, **kw)
    assert plausibility(counts, "tetra", TRUTH, m=300.0, **kw) == rep
    assert plausibility(counts, "tetra", TRUTH, m=np.int64(300), **kw) == rep
    assert plausibility(counts, "tetra", TRUTH, m=300, seed=3,
                        chunk_size=np.float64(128.0)) == rep
    for bad in (2.5, math.nan, math.inf, "300", 2 ** 63, True):
        with pytest.raises(ValueError, match="m = .* whole number"):
            plausibility(counts, "tetra", TRUTH, m=bad, seed=0)
        with pytest.raises(ValueError, match="chunk_size = .* whole number"):
            plausibility(counts, "tetra", TRUTH, m=10, seed=0, chunk_size=bad)


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


def test_bad_reference_point_is_capped_not_overflowed():
    # a reference far from the optimum makes many ratios exceed 1; the log
    # cap keeps the moment sums finite and the report well defined
    counts = tetra_counts(2000)
    off = ParamVector.from_array([0.2, 0.1, 1.4, 3.0, 1.3])
    rep = plausibility(counts, "tetra", off, m=2000, seed=2, chunk_size=512)
    assert math.isfinite(rep.lambda_pl) and rep.lambda_pl > 0
    assert math.isfinite(rep.se_lambda_pl)
    assert 0 <= rep.credibility_pl <= 1


def test_is_plausible_truth_for_its_own_data():
    counts = tetra_counts(600)
    rep = plausibility(counts, "tetra", TRUTH, m=20000, seed=6, truth=TRUTH)
    # lambda(truth) = 1 when truth is the reference point, so any
    # threshold below 1 keeps it inside
    assert rep.lambda_pl < 1
    assert rep.truth_plausible is True
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
