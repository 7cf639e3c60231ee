import dataclasses
import math

import numpy as np
import pytest

from pairtomo import TETRA, ensemble_state, sample_counts, seed_sequence
from pairtomo.cli import ExperimentConfig
from pairtomo.estimate import ml_decomposition, ml_estimate
from pairtomo.recon import DegenerateInputError
from pairtomo.sim import (STREAM_COUNTS, STREAM_OPTIMIZER, STREAM_PRIOR,
                          run_experiment, simulate_run, stream_generator)


def _config(**over):
    base = {
        "povm": "tetra",
        "source": {"theta": [0.6, 1.0, 1.2, 4.0, 0.9]},
        "n_schedule": [50, 120, 400],
        "runs": 3,
        "estimators": ["li-xi"],
        "master_seed": 42,
    }
    base.update(over)
    return ExperimentConfig.from_dict(base)


def test_sample_counts_validation():
    with pytest.raises(ValueError):
        sample_counts(np.full((2, 2), 0.25), 10, 0)
    with pytest.raises(ValueError):
        sample_counts(np.array([0.5, 0.6]), 10, 0)
    with pytest.raises(ValueError):
        sample_counts(np.array([1.5, -0.5]), 10, 0)
    # each input fault is named: not numpy's empty-reduction error, and not
    # a nan read as a negative probability
    with pytest.raises(ValueError, match="empty"):
        sample_counts([], 5, 1)
    for bad in ([math.nan, 1.0], [math.inf, 0.0], [0.5, -math.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            sample_counts(bad, 5, 1)
    # n is a whole number in [0, 2^63 - 1], never truncated or overflowed
    for n in (-1, 5.5, 2 ** 70, 2.0 ** 63, math.nan, math.inf, "5", None):
        with pytest.raises(ValueError, match="n = .* whole number"):
            sample_counts(np.array([0.5, 0.5]), n, 0)
    zero = sample_counts(np.array([0.5, 0.5]), 0, 0)
    assert zero.dtype == np.int64 and (zero == 0).all()
    five = sample_counts(np.array([0.5, 0.5]), 5, 0)
    for n in (np.int64(5), 5.0):
        assert (sample_counts(np.array([0.5, 0.5]), n, 0) == five).all()


def test_sample_counts_deterministic_and_complete():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    a = sample_counts(probs, 1000, 7)
    b = sample_counts(probs, 1000, 7)
    assert (a == b).all()
    assert a.sum() == 1000
    assert (sample_counts(probs, 1, 7).sum()) == 1


def test_sample_counts_first_two_moments():
    # 300 replicas: sample mean within 4 sigma of N q, ditto the variance
    probs = np.array([0.05, 0.1, 0.15, 0.2, 0.5])
    n, reps = 500, 300
    g = stream_generator(123, STREAM_COUNTS, 0)
    draws = np.array([sample_counts(probs, n, g) for _ in range(reps)])
    mean = draws.mean(axis=0)
    se_mean = np.sqrt(n * probs * (1 - probs) / reps)
    assert (np.abs(mean - n * probs) < 4 * se_mean).all()
    var = draws.var(axis=0, ddof=1)
    target = n * probs * (1 - probs)
    # variance of the sample variance, normal approximation
    se_var = target * math.sqrt(2 / (reps - 1))
    assert (np.abs(var - target) < 4 * se_var).all()


def test_stream_generators_are_independent():
    a = stream_generator(5, STREAM_COUNTS, 0).random(4)
    b = stream_generator(5, STREAM_COUNTS, 1).random(4)
    c = stream_generator(5, STREAM_OPTIMIZER, 0).random(4)
    d = stream_generator(5, STREAM_COUNTS, 0).random(4)
    assert (a == d).all()
    assert not (a == b).all() and not (a == c).all()
    ss = seed_sequence(5, STREAM_PRIOR, 2)
    assert ss.spawn_key == (STREAM_PRIOR, 2)


def test_run_records_are_ordered_and_cumulative():
    cfg = _config()
    records = run_experiment(cfg)
    keys = [(r.run_index, r.n_total) for r in records]
    assert keys == [(r, n) for r in range(3) for n in (50, 120, 400)]
    probs = TETRA.probabilities(ensemble_state(cfg.source))
    for run in range(3):
        g = stream_generator(42, STREAM_COUNTS, run)
        acc = np.zeros(10, dtype=np.int64)
        prev = 0
        for n in (50, 120, 400):
            acc = acc + sample_counts(probs, n - prev, g)
            prev = n
            rec = next(r for r in records
                       if (r.run_index, r.n_total) == (run, n))
            assert (rec.counts == acc).all()
            assert rec.counts.sum() == n


def test_estimator_failure_carries_run_context():
    # at this seed the N=50 inversion puts |s|^2 beyond 1 + tol for the
    # moments route; the error must say which checkpoint broke
    cfg = _config(estimators=["li-moments"], master_seed=134)
    with pytest.raises(DegenerateInputError,
                       match=r"run 2, N=50, estimator li-moments"):
        run_experiment(cfg, workers=1)


def test_worker_count_does_not_change_results():
    # N=50 is below the moments route's noise floor at this seed
    cfg = _config(estimators=["li-xi", "li-moments"], n_schedule=[120, 400])
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert (a.run_index, a.n_total) == (b.run_index, b.n_total)
        assert (a.counts == b.counts).all()
        for ea, eb in zip(a.estimates, b.estimates):
            assert ea.estimator == eb.estimator
            assert ea.err0_ppm == eb.err0_ppm
            assert ea.err1_ppm == eb.err1_ppm
            assert ea.p_err == eb.p_err


def test_ml_estimates_are_seeded_per_checkpoint():
    cfg = _config(runs=1, estimators=["ml"],
                  optimizer={"max_evaluations": 4000},
                  n_schedule=[60, 200])
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    for a, b in zip(first, second):
        ea, eb = a.estimates[0], b.estimates[0]
        assert ea.objective == eb.objective
        assert ea.converged in (True, False)
        assert ea.fidelity0 == eb.fidelity0


def test_ml_fits_use_the_run_and_checkpoint_stream():
    # the lockstep fits of both runs, made in one call, equal lone fits on
    # stream (run, n_index)
    cfg = _config(runs=2, estimators=["li-xi", "ml"],
                  optimizer={"max_evaluations": 1200}, n_schedule=[60, 200, 500])
    records = run_experiment(cfg)
    assert len(records) == 6
    for i, rec in enumerate(records):
        run, n_index = divmod(i, 3)
        assert rec.run_index == run
        opt = dataclasses.replace(cfg.optimizer, seed=seed_sequence(
            42, STREAM_OPTIMIZER, run, n_index))
        ml = ml_estimate(rec.counts, cfg.povm, opt)
        est = rec.estimates[1]
        assert est.estimator == "ml"
        assert est.decomposition == ml_decomposition(ml)
        assert (est.objective, est.converged) == (ml.objective, ml.converged)


def test_plausibility_attaches_to_requested_checkpoints():
    ml_alone = None
    for estimators in (["ml"], ["li-moments", "ml", "li-xi"]):
        cfg = _config(runs=1, estimators=estimators,
                      optimizer={"max_evaluations": 4000},
                      plausibility={"enabled": True, "m": 30_000,
                                    "checkpoints": [120, 400]})
        records = run_experiment(cfg)
        for rec in records:
            assert [e.estimator for e in rec.estimates] == estimators
            for est in rec.estimates:
                if est.estimator != "ml" or rec.n_total == 50:
                    assert (est.lambda_pl, est.size_pl, est.credibility_pl,
                            est.truth_plausible) == (None,) * 4
        by_n = {r.n_total: r.estimates[estimators.index("ml")]
                for r in records}
        for n in (120, 400):
            est = by_n[n]
            assert 0 < est.lambda_pl < 1
            assert 0 <= est.size_pl <= 1
            assert 0 < est.credibility_pl <= 1
            assert est.truth_plausible in (True, False)
        # the LI estimators riding along leave the ML entries as they were
        ml_alone = ml_alone or by_n
        assert by_n == ml_alone


def test_single_run_sweep_parallelism_is_invariant():
    cfg = _config(runs=1, estimators=["ml"],
                  optimizer={"max_evaluations": 4000},
                  n_schedule=[200],
                  plausibility={"enabled": True, "m": 60_000})
    a = run_experiment(cfg, workers=1)[0].estimates[0]
    b = run_experiment(cfg, workers=3)[0].estimates[0]
    assert (a.lambda_pl, a.size_pl, a.credibility_pl) == \
           (b.lambda_pl, b.size_pl, b.credibility_pl)


def test_simulate_run_matches_run_experiment():
    # a two-run batch equals the first two runs of a three-run batch,
    # whose ML fits share one call with the third run's fits
    cfg = _config(estimators=["li-xi", "ml", "li-moments"],
                  n_schedule=[120, 400], optimizer={"max_evaluations": 1200})
    records = run_experiment(cfg)
    pair = simulate_run(dataclasses.replace(cfg, runs=2))
    expected = [r for r in records if r.run_index < 2]
    assert len(pair) == len(expected) == 4
    for a, b in zip(pair, expected):
        assert (a.run_index, a.n_total) == (b.run_index, b.n_total)
        assert (a.counts == b.counts).all()
        assert a.estimates == b.estimates
