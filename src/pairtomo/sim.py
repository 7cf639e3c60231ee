"""Count sampling and the batch experiment driver.

Randomness policy: every stream comes from the counter-based Philox
generator seeded through numpy SeedSequence spawn keys

    (0, run index)                       counts
    (1, run index, checkpoint index)     optimizer, one per ML fit
    (2, run index, chunk index)          prior sampling, one per chunk

where the stream id leads: 0 = counts, 1 = optimizer, 2 = prior.  A
run's streams are therefore fixed by (master_seed, run index) alone,
never by scheduling, so any worker count reproduces identical results;
see GENERATOR_ID for the algorithm tag recorded in run records.

Counts along an n_schedule are cumulative: each checkpoint extends the
previous counts with a multinomial increment from the run's stream, so
checkpoint N is a genuine prefix of the same simulated experiment.

The ML fits of a run's checkpoints advance together in one lockstep call
once all counts are drawn; each fit equals fitting its table alone on
its own optimizer stream, bit for bit.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import estimate as _est
from . import plausible as _pl
from .povm import get_povm
from .qstate import ensemble_state
from .recon import (DegenerateInputError, IllConditionedError,
                    NonPhysicalMomentsError)

GENERATOR_ID = "philox4x64"
STREAM_COUNTS = 0
STREAM_OPTIMIZER = 1
STREAM_PRIOR = 2

# linear-inversion estimator name -> li_pipeline recovery route
LI_METHODS = {"li-xi": "xi", "li-moments": "moments"}


def seed_sequence(master_seed, *path):
    """SeedSequence for a named stream: path = (stream id, run index, ...)."""
    return np.random.SeedSequence(master_seed, spawn_key=tuple(path))


def stream_generator(master_seed, *path):
    """Philox generator on the given stream."""
    return _est._as_generator(seed_sequence(master_seed, *path))


def sample_counts(probs, n, seed):
    """Multinomial counts for n events with the given outcome probabilities.

    seed may be an integer, a SeedSequence or a Generator (advanced in
    place, which is how cumulative schedules chain increments).
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError("probs must be a vector")
    if np.min(probs) < -1e-12 or not np.all(np.isfinite(probs)):
        raise ValueError("negative probability beyond tolerance")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, not 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    p = np.clip(probs, 0.0, None)
    p = p / p.sum()
    if n == 0:
        return np.zeros(probs.size, dtype=np.int64)
    return _est._as_generator(seed).multinomial(int(n), p)


@dataclass
class EstimateResult:
    """One estimator's output and scores for one (run, N) checkpoint."""

    estimator: str
    decomposition: object
    err0_ppm: float
    err1_ppm: float
    p_err: float
    fidelity0: float
    fidelity1: float
    objective: object = None
    converged: object = None
    lambda_pl: object = None
    size_pl: object = None
    credibility_pl: object = None
    truth_plausible: object = None


@dataclass
class RunRecord:
    """All results for one (run, N) checkpoint.

    wall_time is informational only; it is excluded from comparisons and
    serialized as null so that equal (config, seed) yield equal records
    and byte-identical output files.
    """

    run_index: int
    n_total: int
    counts: np.ndarray
    estimates: list
    master_seed: int
    generator_id: str = GENERATOR_ID
    wall_time: float = field(default=0.0, compare=False)


def _score(truth, dec):
    e0, e1, perr = _est.match_and_score(truth, dec)
    return e0, e1, perr, 1.0 - e0 * 1e-6, 1.0 - e1 * 1e-6


def simulate_run(config, run_index, sweep_workers=1):
    """All RunRecords of a single run, one per schedule entry.

    Counts and linear inversion go checkpoint by checkpoint; the ML fits
    of all checkpoints then run in one `estimate.ml_estimates` call.
    """
    truth = config.source
    povm = get_povm(config.povm)
    probs = povm.probabilities_from_features(ensemble_state(truth).features())
    rng_counts = stream_generator(config.master_seed, STREAM_COUNTS, run_index)

    records = []
    counts = np.zeros(povm.n_outcomes, dtype=np.int64)
    prev_n = 0
    for n in config.n_schedule:
        t0 = time.perf_counter()
        counts = counts + sample_counts(probs, n - prev_n, rng_counts)
        prev_n = n
        estimates = []
        for name in config.estimators:
            if name == "ml":
                estimates.append(None)  # filled in by the lockstep fits
                continue
            if name not in LI_METHODS:
                raise ValueError(f"unknown estimator {name!r}")
            try:
                dec = _est.li_pipeline(counts, povm, LI_METHODS[name])
            except (DegenerateInputError, NonPhysicalMomentsError,
                    IllConditionedError) as exc:
                # keep the type (noisy counts are a runtime condition, not
                # a usage error) but say which checkpoint broke
                raise type(exc)(f"run {run_index}, N={n}, estimator "
                                f"{name}: {exc}") from exc
            estimates.append(EstimateResult(name, dec, *_score(truth, dec)))
        records.append(RunRecord(run_index, n, counts.copy(), estimates,
                                 config.master_seed,
                                 wall_time=time.perf_counter() - t0))

    ml_by_n = {}
    if "ml" in config.estimators:
        slot = config.estimators.index("ml")
        t0 = time.perf_counter()
        fits = _est.ml_estimates(
            [rec.counts for rec in records], povm, config.optimizer,
            [seed_sequence(config.master_seed, STREAM_OPTIMIZER, run_index,
                           n_index) for n_index in range(len(records))])
        extra = (time.perf_counter() - t0) / len(records)
        for rec, ml in zip(records, fits):
            dec = _est.ml_decomposition(ml)
            rec.estimates[slot] = EstimateResult("ml", dec, *_score(truth, dec),
                                                 objective=ml.objective,
                                                 converged=ml.converged)
            rec.wall_time += extra
            ml_by_n[rec.n_total] = ml.params

    if config.plausibility_enabled:
        checkpoints = config.plausibility_checkpoints or config.n_schedule
        by_n = {rec.n_total: rec for rec in records}
        t0 = time.perf_counter()
        reports = _pl.plausibility_sweep(
            [by_n[n].counts for n in checkpoints], povm,
            [ml_by_n[n] for n in checkpoints],
            config.plausibility_m,
            seed_sequence(config.master_seed, STREAM_PRIOR, run_index),
            truth=truth, workers=sweep_workers)
        extra = (time.perf_counter() - t0) / len(checkpoints)
        for n, rep in zip(checkpoints, reports):
            rec = by_n[n]
            rec.wall_time += extra
            for e in rec.estimates:
                if e.estimator == "ml":
                    e.lambda_pl = rep.lambda_pl
                    e.size_pl = rep.size_pl
                    e.credibility_pl = rep.credibility_pl
                    e.truth_plausible = rep.truth_plausible
    return records


def _run_task(args):
    config, run_index, sweep_workers = args
    return simulate_run(config, run_index, sweep_workers)


def run_experiment(config, workers=None, log=None):
    """Simulate config.runs independent experiments; flat list of records.

    Results are identical for any worker count: run r always consumes the
    streams keyed by (master_seed, stream, r), and records are ordered by
    (run, N) regardless of completion order.  Parallelism goes across
    runs; a single-run config parallelizes its plausibility chunks
    instead.
    """
    config.validate()
    workers = workers if workers else 1
    sweep_workers = workers if config.runs == 1 else 1
    tasks = [(config, r, sweep_workers) for r in range(config.runs)]
    workers = min(workers, config.runs)
    records = []
    with (ProcessPoolExecutor(workers) if workers > 1 else nullcontext()) as pool:
        run = map if pool is None else pool.map
        for r, recs in enumerate(run(_run_task, tasks)):
            records.extend(recs)
            if log:
                log(f"run {r + 1}/{config.runs} done")
    return records
