"""Monte-Carlo evaluation of the plausible region of parameter vectors.

A parameter vector theta is plausible for given data when its posterior
density exceeds its prior density, which reduces to a likelihood-ratio
test against the maximum-likelihood point:

    lambda(theta) = L(theta) / L(theta_ML) > lambda_pl,
    lambda_pl     = E_prior[ lambda(theta) ].

Both lambda_pl and the region's prior content ("size") and posterior
content ("credibility") are estimated from M prior samples:

    lambda_pl   ~ (1/M) sum_m lambda^(m),
    size        ~ (1/M) sum_m chi(lambda^(m) > lambda_pl),
    credibility ~ sum_m lambda^(m) chi(...) / (M lambda_pl).

The prior draws each Bloch vector isotropically and alpha uniformly on
[0, pi/2] (p0 = cos^2 alpha).  Evaluation is streamed in chunks of CHUNK
samples and makes one pass over the prior.  A chunk's kernel walks its
samples in cache-sized blocks: each block draws its moment features
straight from the prior's uniforms as contiguous rows
(`qstate.prior_features`), takes log q for every outcome in one
(outcomes, block) array, and then one vector-matrix product and exp per
checkpoint, written into that checkpoint's row of a (checkpoints, b)
lambda array; a checkpoint's lambda values do not depend on which other
checkpoints share the sweep.  Blocking changes no bit of the result:
consecutive Philox draws give the same uniforms as one draw of the whole
chunk, every step up to lambda works on each sample alone, and the sums
below run over whole chunk rows as before.  Each chunk reports its lambda
moments, which fix the threshold, and keeps as candidates the lambda
values above S_k / M, where S_k is the chunk's lambda sum as reported.
The indicator sums are then taken over the candidates alone, once the
threshold is known.  This is exact: every lambda is >= 0, a rounded sum
of non-negative terms is never below any one of them, and division by M
is monotone, so lambda_pl = fl(sum_k S_k) / M >= S_k / M for every chunk
and every lambda above lambda_pl is a candidate.  Filtering a chunk's
candidates by lambda_pl gives the same array, in the same sample order,
as filtering all of its samples, so the indicator sums are bitwise those
of a second pass.  The running sum over the chunks seen so far bounds
lambda_pl from below in the same way, which prunes stored candidates.
At most CANDIDATE_BUDGET candidates are held; a chunk whose candidates do
not fit is replayed through the same kernel once lambda_pl is known, so
memory stays bounded for any M.  Chunks own SeedSequence-derived
substreams and are reduced in chunk order, which makes reports bitwise
reproducible for any worker count at a fixed seed.

The prior pass is anchored at the data, not at theta_ML: the kernel
divides by the saturated likelihood L_sat = prod over n_j > 0 of
(n_j/N)^n_j, which depends on the counts alone, and sees

    lambda'(theta) = L(theta) / L_sat <= 1

(Gibbs' inequality).  In exact arithmetic the threshold test, the size
and the credibility are the same for any anchor; lambda_pl and its
standard error are multiplied by L_sat / L(theta_ML) once the sums are
reduced, which leaves them within rounding of a theta_ML-anchored
pass.  So the pass needs no ML fit, and `simulate` runs it beside its
fits.  The anchor keeps the log ratios near zero for typical samples;
with N counts the raw log likelihoods sit around -N log K and would
underflow any direct exponentiation.  Ratios that still underflow to 0
are legitimate (deep in the implausible tail); only an all-zero sample
aborts, advising a larger M or smaller N.  No ratio to theta_ML is
capped: for a caller's theta_ML far below the likelihood maximum,
lambda_pl can exceed 1, and a lambda_pl beyond the float range is a
ValueError that names the checkpoint.

Size and credibility estimates are scale errors of order 1/sqrt(M); the
attached standard errors come from the per-sample moment sums (delta
method for the credibility ratio), treating the threshold as fixed;
both are inf where lambda'_pl is too small for its squares (see
_SQUARES_FLOOR).  A report holds only what the data determine: whether
a theta, say a simulation's source, is plausible is `is_plausible`'s.
"""

import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .estimate import _as_generator, _whole_number, log_likelihood
from .povm import get_povm
from .qstate import prior_features

# per-outcome stand-in for log 0: large enough that any observed count
# drives lambda to exact 0, finite so that 0*log(0) products stay 0
LOG_ZERO = -1e12
# largest x with a finite exp(x)
_LOG_MAX = math.log(sys.float_info.max)
# lam_pl^2 below 2^53 times the smallest normal float: samples a factor
# 2^26.5 under lam_pl have subnormal squares, and the error bars lose digits
_SQUARES_FLOOR = 2.0 ** 53 * sys.float_info.min

# prior samples per chunk
CHUNK = 100_000
# lambda candidates held between the prior pass and the threshold (4 MiB)
CANDIDATE_BUDGET = 1 << 19
# samples per block of the chunk kernel: the working set (about 1 MiB)
# stays in L2 cache.  A power of two, so that blocks split a chunk on the
# unroll boundaries of the BLAS products and every sample takes the
# kernel path it takes in a whole-chunk product; blocks of 5 do not
_BLOCK = 4096


class DegenerateSampleError(RuntimeError):
    """Every prior sample had likelihood ratio 0; enlarge M or reduce N."""


def _chunk_children(seed, n_chunks):
    """Index-keyed child SeedSequences; stateless, replayable."""
    ss = (seed if isinstance(seed, np.random.SeedSequence)
          else np.random.SeedSequence(seed))
    base = tuple(ss.spawn_key)
    return [np.random.SeedSequence(entropy=ss.entropy, spawn_key=base + (i,))
            for i in range(n_chunks)]


# --------------------------------------------------------------------------
# Chunk workers (module level for process pools)

def _chunk_stats(args):
    """Per-checkpoint lambda sums and threshold candidates of one chunk.

    Returns (out, cands): out has one row
        (sum lambda, sum lambda^2, count lambda > 0)
    per checkpoint, and cands[i] holds the chunk's lambda values above
    out[i, 0] / m in sample order: a superset of those above lambda_pl.
    Each anchor logl_ml[i] is at or above its table's log L_sat, so
    lambda <= 1 up to rounding; nothing is capped.

    The samples run through in blocks of _BLOCK, small enough that a
    block's uniforms, features and log probabilities stay in L2 cache, and
    each block fills its columns of a (checkpoints, b) lambda array.  The
    result is bitwise that of one pass over the whole chunk: successive
    Philox draws give the same uniforms as one draw, every step up to
    lambda works on each sample alone, and the sums run over whole rows.
    The checkpoints take separate products: a single counts_mat @ logq
    would round differently with the number of checkpoints in the sweep.
    """
    child, b, povm_name, counts_mat, logl_ml, m = args
    moment_matrix = get_povm(povm_name).moment_matrix
    rng = _as_generator(child)
    lam = np.empty((len(counts_mat), b))
    for start in range(0, b, _BLOCK):
        stop = min(start + _BLOCK, b)
        logq = moment_matrix @ prior_features(rng, stop - start)
        positive = logq > 0.0
        np.maximum(logq, 1e-300, out=logq)
        np.log(logq, out=logq)
        logq[~positive] = LOG_ZERO
        for i in range(len(counts_mat)):
            loglam = counts_mat[i] @ logq
            loglam -= logl_ml[i]
            np.exp(loglam, out=lam[i, start:stop])
    out = np.empty((len(counts_mat), 3))
    cands = []
    for i, row in enumerate(lam):
        out[i] = (row.sum(), float(row @ row), np.count_nonzero(row))
        cands.append(row[row > out[i, 0] / m])
    return out, cands


def _keep_candidates(results, m):
    """Sum chunk outputs in chunk order and hold their candidates.

    Returns (total, kept), kept[k] being chunk k's candidates, or None
    when they did not fit CANDIDATE_BUDGET and the chunk must be replayed.
    """
    total = None
    kept = []
    stored = 0
    for out, cands in results:
        total = out if total is None else total + out
        # partial sums of non-negative terms never exceed the final sum
        floor = total[:, 0] / m
        cands = [c[c > f] for c, f in zip(cands, floor)]
        size = sum(c.size for c in cands)
        if stored + size > CANDIDATE_BUDGET:
            kept = [None if ks is None else [c[c > f] for c, f in zip(ks, floor)]
                    for ks in kept]
            stored = sum(c.size for ks in kept if ks is not None for c in ks)
        if stored + size > CANDIDATE_BUDGET:
            cands = None
        else:
            stored += size
        kept.append(cands)
    return total, kept


# --------------------------------------------------------------------------
# Reports

@dataclass(frozen=True)
class PlausibilityReport:
    """Threshold, size and credibility of the plausible region."""

    n_total: int
    lambda_pl: float
    size_pl: float
    credibility_pl: float
    m_samples: int
    se_lambda_pl: float
    se_size: float
    se_credibility: float


def _chunk_pool(workers, m):
    """A pool of min(workers, chunks, CPUs) processes for a sweep of m
    samples, or a null context (whose target is None) when that is one
    process.  A pool may start all its workers at its first job, so a
    worker count beyond the machine's would only fork idle processes."""
    workers = min(workers or 1, -(-m // CHUNK), os.cpu_count() or 1)
    return ProcessPoolExecutor(workers) if workers > 1 else nullcontext()


def _log_likelihoods_ml(tables, theta_ml_list, povm):
    """log L(theta_ML) of each table; ValueError where it is zero."""
    logl_ml = np.zeros(len(tables))
    for i, theta_ml in enumerate(theta_ml_list):
        ll = log_likelihood(theta_ml, tables[i], povm)
        if not math.isfinite(ll):
            raise ValueError(f"theta_ml for checkpoint {i} has zero likelihood")
        logl_ml[i] = ll
    return logl_ml


def _sweep_counts(tables, povm, m, seed, pool):
    """The data-only step of a sweep: chunks, candidates and replays.

    Every table must hold counts: an all-zero one raises EmptyDataError.
    The kernel is anchored at L_sat, so it sees lambda' = L(theta)/L_sat.
    Returns (first, second, log_sat, n_totals): first[i] = (sum lambda',
    sum lambda'^2, count lambda' > 0) and second[i] = (count, sum, sum of
    squares) of the lambda' above their mean, for table i.  Chunks run
    on `pool`, or in-process when it is None.
    """
    counts_mat = np.array([povm.validate_counts(c) for c in tables])
    n_totals = [int(counts.sum()) for counts in counts_mat]
    # log L_sat = sum over n_j > 0 of n_j log(n_j / N), the largest log
    # likelihood any outcome distribution gives a table's counts
    log_sat = np.array([n @ np.log(n / n.sum())
                        for n in (c[c > 0] for c in counts_mat)])
    n_chunks = -(-m // CHUNK)
    children = _chunk_children(seed, n_chunks)
    tasks = [(children[k], min(CHUNK, m - k * CHUNK), povm.name,
              counts_mat, log_sat, m) for k in range(n_chunks)]
    run = map if pool is None else pool.map
    first, kept = _keep_candidates(run(_chunk_stats, tasks), m)
    for i, n_total in enumerate(n_totals):
        if first[i, 2] == 0:
            raise DegenerateSampleError(
                f"all {m} likelihood ratios are 0 at N = {n_total}; "
                "increase the sample count or evaluate a smaller N")
    lambda_pl = first[:, 0] / m

    replays = run(_chunk_stats,
                  [t for t, cands in zip(tasks, kept) if cands is None])
    second = np.zeros((len(counts_mat), 3))
    for cands in kept:
        if cands is None:
            cands = next(replays)[1]
        for i, c in enumerate(cands):
            above = c[c > lambda_pl[i]]
            second[i] += (above.size, above.sum(), float(above @ above))
    return first, second, log_sat, n_totals


def _times_exp(x, log_factor):
    """x * exp(log_factor) for x >= 0, inf where the product overflows.
    The factor overflows first, from log_factor = _LOG_MAX on; there the
    product is taken in logs."""
    with np.errstate(over="ignore", divide="ignore"):
        if log_factor <= _LOG_MAX:
            return float(x * np.exp(log_factor))
        return float(np.exp(np.log(x) + log_factor))


def _anchored_reports(sweep, logl_ml, m):
    """Reports of a data-only sweep, moved to the anchors log L(theta_ML).

    Size and credibility, and the credibility's error bar, are the same
    for any anchor; lambda_pl and its error bar are multiplied by
    L_sat/L(theta_ML).  A lambda_pl that overflows is a ValueError.
    """
    first, second, log_sat, n_totals = sweep
    reports = []
    # lam_pl and se_lam in units of L_sat until the last step
    for i, n_total in enumerate(n_totals):
        sum_lam, sum_lam_sq, _ = first[i]
        n_above, sum_above, sum_sq_above = second[i]
        lam_pl = float(sum_lam / m)
        size = float(n_above) / m
        cred = float(sum_above / sum_lam)
        se_size = math.sqrt(max(size * (1.0 - size), 0.0) / m)
        denom = lam_pl * lam_pl
        if denom < _SQUARES_FLOOR:
            se_lam = se_cred = math.inf
        else:
            var_lam = max(sum_lam_sq / m - lam_pl ** 2, 0.0)
            se_lam = math.sqrt(var_lam / m)
            # credibility is the ratio mean(lam*chi)/mean(lam): delta method
            a = sum_above / m
            var_a = max(sum_sq_above / m - a ** 2, 0.0)
            cov_ab = sum_sq_above / m - a * lam_pl
            var_c = (var_a - 2.0 * cred * cov_ab + cred ** 2 * var_lam) / denom
            se_cred = math.sqrt(max(var_c, 0.0) / m)
        gap = log_sat[i] - logl_ml[i]
        lambda_pl = _times_exp(lam_pl, gap)
        if not math.isfinite(lambda_pl):
            raise ValueError(
                f"lambda_pl for checkpoint {i} overflows: theta_ml lies "
                f"{gap:.6g} below the largest log likelihood of its counts")
        reports.append(PlausibilityReport(
            n_total, lambda_pl, size, cred, m, _times_exp(se_lam, gap),
            se_size, se_cred))
    return reports


def plausibility_sweep(counts_list, povm, theta_ml_list, m, seed,
                       workers=None):
    """Plausible-region reports for several checkpoints of one count stream.

    counts_list holds cumulative count vectors (say at N = 100, 200, ...)
    and theta_ml_list the matching ML estimates.  All checkpoints share
    the same prior sample, so the per-sample outcome probabilities are
    computed once; with dozens of checkpoints this dominates the cost of
    separate calls.  Every table must hold counts: an all-zero one raises
    EmptyDataError, as in the other estimators.  m is a whole number
    >= 1, as an int, a numpy integer or an integral float.

    The prior pass needs the counts alone: it is anchored at the
    saturated likelihood L_sat, and only its reduced sums are moved to
    the anchor L(theta_ML) afterwards.  Ratios to theta_ML are not
    capped: a theta_ML far below the likelihood maximum can give
    lambda_pl > 1, and a lambda_pl that overflows a float raises
    ValueError naming the checkpoint.  Whether a given theta lies in
    the region is `is_plausible`'s question.
    """
    povm = get_povm(povm)
    if len(counts_list) != len(theta_ml_list):
        raise ValueError("one theta_ml per counts vector is required")
    m = _whole_number("m", m, 1)
    logl_ml = _log_likelihoods_ml(counts_list, theta_ml_list, povm)
    with _chunk_pool(workers, m) as pool:
        sweep = _sweep_counts(counts_list, povm, m, seed, pool)
    return _anchored_reports(sweep, logl_ml, m)


def plausibility(counts, povm, theta_ml, m, seed, workers=None):
    """Plausible-region report for a single count vector."""
    return plausibility_sweep([counts], povm, [theta_ml], m, seed, workers)[0]


def is_plausible(theta, counts, theta_ml, lambda_pl, povm):
    """Whether lambda(theta) = L(theta)/L(theta_ml) exceeds lambda_pl.

    lambda is not capped: where it overflows a float it exceeds every
    finite lambda_pl.  A lambda_pl that is not finite is a ValueError, as
    it is in the sweep.
    """
    povm = get_povm(povm)
    logl_ml = log_likelihood(theta_ml, counts, povm)
    if not math.isfinite(logl_ml):
        raise ValueError("theta_ml has zero likelihood for these counts")
    if not math.isfinite(lambda_pl):
        raise ValueError(f"lambda_pl = {lambda_pl!r} is not finite")
    # a zero likelihood gives exp(-inf) = 0
    log_lam = log_likelihood(theta, counts, povm) - logl_ml
    return bool(log_lam > _LOG_MAX or math.exp(log_lam) > lambda_pl)


# --------------------------------------------------------------------------
# Large-N asymptotics

@dataclass(frozen=True)
class AsymptoticsReport:
    """Asymptotic predictions from a measured lambda_pl.

    With L = log(1/lambda_pl),

        predicted size            = lambda_pl L^{5/2} / Gamma(7/2),
        predicted 1 - credibility = size (5/(2L) + 15/(4L^2)) + erfc(sqrt(L)),

    and ratio_d divides the measured 1 - credibility by the right-hand
    side evaluated with the measured size; it tends to 1 in the
    asymptotic regime and is the least noise-sensitive of the three
    comparisons.
    """

    n_total: int
    lambda_pl: float
    predicted_size: float
    predicted_one_minus_credibility: float
    ratio_d: object = None


_GAMMA_7_2 = math.gamma(3.5)


def _credibility_bracket(size, big_l):
    return size * (2.5 / big_l + 3.75 / (big_l * big_l)) + math.erfc(math.sqrt(big_l))


def asymptotics(n_total, lambda_pl, size=None, credibility=None):
    """Asymptotic size/credibility predictions, and ratio_d when measured
    values are supplied."""
    if not 0.0 < lambda_pl < 1.0:
        raise ValueError("lambda_pl must lie strictly between 0 and 1")
    big_l = -math.log(lambda_pl)
    predicted_size = lambda_pl * big_l ** 2.5 / _GAMMA_7_2
    predicted_omc = _credibility_bracket(predicted_size, big_l)
    ratio_d = None
    if size is not None and credibility is not None:
        bracket = _credibility_bracket(size, big_l)
        # 0 only once erfc(sqrt(L)) underflows (lambda_pl < ~1e-305) beside
        # a zero size: no ratio is defined there
        if bracket != 0.0:
            ratio_d = (1.0 - credibility) / bracket
    return AsymptoticsReport(int(n_total), float(lambda_pl), predicted_size,
                             predicted_omc, ratio_d)
