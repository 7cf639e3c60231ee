"""Count sampling and the batch experiment driver.

Randomness policy: every stream comes from the counter-based Philox
generator seeded through numpy SeedSequence spawn keys

    (0, run index)                       counts
    (1, run index, checkpoint index)     optimizer, one per ML fit
    (2, run index, chunk index)          prior sampling, one per chunk

where the stream id leads: 0 = counts, 1 = optimizer, 2 = prior.  A
run's streams are therefore fixed by (master_seed, run index) alone,
never by scheduling, so any worker count reproduces identical results;
see GENERATOR_ID for the algorithm tag recorded in manifest.json.

Counts along an n_schedule are cumulative: each checkpoint extends the
previous counts with a multinomial increment from the run's stream, so
checkpoint N is a genuine prefix of the same simulated experiment.

The ML fits of every run's checkpoints advance together in one lockstep
call once all counts are drawn; each fit equals fitting its table alone
on its own optimizer stream, bit for bit.  The plausibility sweep's
prior pass needs the counts alone (it is anchored at the saturated
likelihood, see `plausible`), so it runs beside the fits: a call opens
at most one process pool, of min(workers, chunks of one sweep, CPUs)
processes, submits the lockstep fit to it as one job, and streams each
run's prior pass through the same pool, one run at a time.  Once the
fits return, each run's sums are moved to the anchor L(theta_ML).  With
a pool of one process there is none: the fits, the passes and the
anchoring run in-process, in that order.  Each record is built once,
after the sweeps, with its estimates in the config's order and, for
ML, `plausible.is_plausible` of the source.  Nothing is timed.
"""

from dataclasses import dataclass

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

    probs is a non-empty vector of finite entries that are >= 0 and sum to
    1, each to rounding.  n is a whole number in [0, 2^63 - 1], as an int,
    a numpy integer or an integral float.  seed may be an integer, a
    SeedSequence or a Generator (advanced in place, which is how cumulative
    schedules chain increments).
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError("probs must be a vector")
    if probs.size == 0:
        raise ValueError("probs is empty: there is no outcome to count")
    if not np.all(np.isfinite(probs)):
        raise ValueError(f"probs holds a non-finite entry: {probs.tolist()}")
    if np.min(probs) < -1e-12:
        raise ValueError("negative probability beyond tolerance")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total}, not 1")
    n = _est._whole_number("n", n, 0)
    p = np.clip(probs, 0.0, None)
    p = p / p.sum()
    if n == 0:
        return np.zeros(probs.size, dtype=np.int64)
    return _est._as_generator(seed).multinomial(n, p)


@dataclass(frozen=True)
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
    """All results for one (run, N) checkpoint."""

    run_index: int
    n_total: int
    counts: np.ndarray
    estimates: list


def _score(truth, dec):
    e0, e1, perr = _est.match_and_score(truth, dec)
    return e0, e1, perr, 1.0 - e0 * 1e-6, 1.0 - e1 * 1e-6


def simulate_run(config, workers=1):
    """All RunRecords of the config's runs, ordered by (run, N).

    Counts and linear inversion go run by run, checkpoint by checkpoint;
    the ML fits of every (run, checkpoint) then run in one
    `estimate.ml_estimates` call.  With plausibility on and a pool of
    min(workers, chunks of one sweep, CPUs) > 1 processes, that call is the
    pool's first job, and each run's data-only prior pass streams
    through the same pool while it runs; each run's reports are
    anchored at theta_ML once the fits return.  Otherwise everything
    runs in-process.  Each ML result, built with its summary and the
    source's `is_plausible`, takes its slot in the estimator order.
    """
    truth = config.source
    povm = get_povm(config.povm)
    probs = povm.probabilities_from_features(ensemble_state(truth).features())

    keys, tables, estimates, seeds = [], [], [], []
    for run_index in range(config.runs):
        rng_counts = stream_generator(config.master_seed, STREAM_COUNTS,
                                      run_index)
        counts = np.zeros(povm.n_outcomes, dtype=np.int64)
        prev_n = 0
        for n_index, n in enumerate(config.n_schedule):
            counts = counts + sample_counts(probs, n - prev_n, rng_counts)
            prev_n = n
            keys.append((run_index, n))
            tables.append(counts)
            seeds.append(seed_sequence(config.master_seed, STREAM_OPTIMIZER,
                                       run_index, n_index))
            row = []
            for name in config.estimators:
                if name not in LI_METHODS:
                    continue
                try:
                    dec = _est.li_pipeline(counts, povm, LI_METHODS[name])
                except (DegenerateInputError, NonPhysicalMomentsError,
                        IllConditionedError) as exc:
                    # keep the type (noisy counts are a runtime condition,
                    # not a usage error) but say which checkpoint broke
                    raise type(exc)(f"run {run_index}, N={n}, estimator "
                                    f"{name}: {exc}") from exc
                row.append(EstimateResult(name, dec, *_score(truth, dec)))
            estimates.append(row)

    fit_args = (tables, povm.name, config.optimizer, seeds)
    fits, reports = [], {}
    if config.plausibility_enabled:
        checkpoints = [config.n_schedule.index(n) for n in
                       config.plausibility_checkpoints or config.n_schedule]
        per_run = len(config.n_schedule)
        runs = [[first + i for i in checkpoints]
                for first in range(0, len(tables), per_run)]
        m = config.plausibility_m
        with _pl._chunk_pool(workers, m) as pool:
            if pool is None:
                fits = _est.ml_estimates(*fit_args)
            else:
                job = pool.submit(_est.ml_estimates, *fit_args)
            sweeps = [_pl._sweep_counts(
                [tables[k] for k in slots], povm, m, seed_sequence(
                    config.master_seed, STREAM_PRIOR, run_index), pool)
                for run_index, slots in enumerate(runs)]
            if pool is not None:
                fits = job.result()
        for slots, sweep in zip(runs, sweeps):
            logl_ml = _pl._log_likelihoods_ml(
                [tables[k] for k in slots], [fits[k].params for k in slots],
                povm)
            reports.update(zip(slots,
                               _pl._anchored_reports(sweep, logl_ml, m)))
    elif "ml" in config.estimators:
        fits = _est.ml_estimates(*fit_args)

    for k, ml in enumerate(fits):
        dec = _est.ml_decomposition(ml)
        rep = reports.get(k)
        plausible = {} if rep is None else {
            "lambda_pl": rep.lambda_pl, "size_pl": rep.size_pl,
            "credibility_pl": rep.credibility_pl,
            "truth_plausible": _pl.is_plausible(
                truth, tables[k], ml.params, rep.lambda_pl, povm)}
        estimates[k].insert(config.estimators.index("ml"), EstimateResult(
            "ml", dec, *_score(truth, dec), objective=ml.objective,
            converged=ml.converged, **plausible))
    return [RunRecord(run_index, n, table, row) for (run_index, n), table, row
            in zip(keys, tables, estimates)]


def run_experiment(config, workers=None):
    """Simulate config.runs independent experiments; flat list of records.

    Results are identical for any worker count: run r always consumes the
    streams keyed by (master_seed, stream, r), and records are ordered by
    (run, N).  All runs' ML fits share one lockstep call; workers (default
    1) bounds the processes of the one pool that runs it beside the
    plausibility sweeps.  This is
    `simulate_run`, under the name the command line calls.
    """
    return simulate_run(config, workers or 1)
